//! The scheduler's one-wake-up-per-due-time invariant under random
//! interleavings of everything that changes the order queue.
//!
//! The test plays the controller and the simulator's event queue: after
//! every change to the order queue it calls [`Scheduler::arm`] and keeps
//! each returned time as an outstanding timer; the earliest outstanding
//! timer fires next, and simulated time never passes it. After every
//! step it checks:
//!
//! * no time is armed while a timer for it is still outstanding;
//! * whenever orders are pending, an outstanding timer is due at or
//!   before the earliest order (no lost wake-up);
//! * no timer is outstanding in the past.
//!
//! [`Scheduler::arm`]: gfw_core::scheduler::Scheduler::arm

use gfw_core::scheduler::{Scheduler, SchedulerConfig};
use netsim::packet::{Ipv4, SocketAddr};
use netsim::time::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Debug)]
enum Op {
    /// Advance by this many ns (capped at the next timer), then store a
    /// payload of this length towards server `idx`.
    Store { idx: u8, len: usize, advance: u64 },
    /// Advance, then unlock stage 2 for server `idx`.
    Unlock { idx: u8, advance: u64 },
    /// Advance, then pop whatever is due without a wake-up firing.
    PopDue { advance: u64 },
    /// The earliest outstanding timer fires: retire it, pop its orders.
    Fire,
}

impl Op {
    /// Decode one op from random bits (the vendored proptest has no
    /// tuple strategies). Fires and stores dominate, and two in five
    /// time steps are zero, so payloads often arrive at the very instant
    /// a wake-up fired (the stored payload's paced NR probe may then be
    /// due at once). Other steps are sub-second, sub-hour or up to ~11
    /// days; exact ties with the next timer come from the cap in
    /// [`Harness::advance`].
    fn from_bits(bits: u64) -> Op {
        let idx = (bits >> 3) as u8 % 4;
        let len = 1 + (bits >> 8) as usize % 999;
        let span = [
            1,
            1,
            1_000_000_000,
            3_600_000_000_000,
            1_000_000_000_000_000,
        ];
        // A multiplicative hash spreads the bits for the step size.
        let mixed = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let advance = mixed % span[(bits >> 5) as usize % span.len()];
        match bits % 8 {
            0..=2 => Op::Store { idx, len, advance },
            3 => Op::Unlock { idx, advance },
            4 => Op::PopDue { advance },
            _ => Op::Fire,
        }
    }
}

fn server(idx: u8) -> SocketAddr {
    (Ipv4::new(172, 16, 0, idx), 8388)
}

/// The controller side of the contract: the scheduler plus the timers it
/// asked for.
struct Harness {
    sched: Scheduler,
    timers: Vec<SimTime>,
    now: SimTime,
    rng: StdRng,
}

impl Harness {
    /// Move the clock forward, never past the earliest outstanding timer.
    fn advance(&mut self, by: u64) {
        let mut to = SimTime(self.now.0.saturating_add(by));
        if let Some(&first) = self.timers.iter().min() {
            to = to.min(first);
        }
        self.now = to;
    }

    /// Arm after a queue change; fails if the time is already armed.
    fn arm(&mut self) -> Result<(), String> {
        if let Some(t) = self.sched.arm() {
            if self.timers.contains(&t) {
                return Err(format!("{t} armed twice"));
            }
            self.timers.push(t);
        }
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        match *op {
            Op::Store { idx, len, advance } => {
                self.advance(advance);
                let mut payload = vec![0u8; len];
                self.rng.fill(&mut payload[..]);
                self.sched
                    .on_stored_payload(self.now, server(idx), &payload, &mut self.rng);
            }
            Op::Unlock { idx, advance } => {
                self.advance(advance);
                self.sched
                    .unlock_stage2(self.now, server(idx), &mut self.rng);
            }
            Op::PopDue { advance } => {
                self.advance(advance);
                self.sched.pop_due(self.now);
            }
            Op::Fire => {
                let Some(i) = (0..self.timers.len()).min_by_key(|&i| self.timers[i]) else {
                    return Ok(());
                };
                self.now = self.timers.swap_remove(i);
                self.sched.fired(self.now);
                self.sched.pop_due(self.now);
            }
        }
        self.arm()
    }

    fn check(&mut self) -> Result<(), String> {
        if let Some(&t) = self.timers.iter().find(|&&t| t < self.now) {
            return Err(format!(
                "timer {t} outstanding in the past (now {})",
                self.now
            ));
        }
        if let Some(due) = self.sched.next_due() {
            if !self.timers.iter().any(|&t| t <= due) {
                return Err(format!(
                    "lost wake-up: head due {due}, timers {:?}",
                    self.timers
                ));
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving keeps at most one wake-up per due time and never
    /// strands a pending order; firing every timer drains the queue.
    #[test]
    fn one_wakeup_per_due_time_and_none_lost(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>().prop_map(Op::from_bits), 1..400),
    ) {
        let mut h = Harness {
            sched: Scheduler::new(SchedulerConfig::default()),
            timers: Vec::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
        };
        for (step, op) in ops.iter().enumerate() {
            let checked = h.apply(op).and_then(|()| h.check());
            prop_assert!(checked.is_ok(), "step {step} {op:?}: {}", checked.unwrap_err());
        }
        while !h.timers.is_empty() {
            let checked = h.apply(&Op::Fire).and_then(|()| h.check());
            prop_assert!(checked.is_ok(), "drain: {}", checked.unwrap_err());
        }
        prop_assert_eq!(h.sched.pending(), 0);
    }
}
