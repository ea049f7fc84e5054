//! The hierarchical timer-wheel event queue.
//!
//! A drop-in replacement for `BinaryHeap<Reverse<(SimTime, seq)>>` that
//! preserves the simulator's ordering contract **exactly**: entries pop
//! in ascending `(time, insertion sequence)` order, so timestamp ties
//! resolve by scheduling order. The differential proptest in
//! `tests/eventq_props.rs` pins this against a heap reference.
//!
//! ## Layout
//!
//! Time is bucketed into ticks of 2^[`GRANULARITY_BITS`] ns (≈65 µs —
//! far below the simulator's millisecond-scale latencies, so ties
//! within one tick are rare and cheap to sort). Six levels of 64 slots
//! cover a span of 64^6 ticks (≈52 days of simulated time); an entry
//! whose delay exceeds the span waits in a small overflow heap and is
//! popped from there when it becomes globally minimal.
//!
//! * level ⌊log₆₄ Δ⌋ holds entries Δ ticks ahead of the cursor; the
//!   slot index is the level's 6-bit field of the absolute tick;
//! * each level keeps a 64-bit occupancy bitmap and a per-slot minimum
//!   tick, so finding the next wheel tick scans only occupied slots;
//! * popping refills a small `ready` batch: every entry of the minimal
//!   tick, sorted by `(time, seq)` once. Entries drained from a slot
//!   that belong to a later tick re-file towards lower levels, which is
//!   the classic cascade.
//!
//! Pushes for times at or before the cursor (the common "deliver after
//! zero-or-small latency during the current tick" case, or clamped
//! past-time timers) binary-search straight into the ready batch, so
//! they still interleave in exact `(time, seq)` order.
//!
//! Why not a plain sorted list or a calendar queue: the simulator's
//! schedule mixes microsecond packet latencies with multi-hour probe
//! pacing and month-scale experiment horizons. The hierarchy keeps
//! near events O(1) without degrading when a far horizon exists.

#![allow(
    clippy::disallowed_types,
    reason = "the wheel's far-future overflow store is the one heap behind the event queue"
)]

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the tick length in nanoseconds.
const GRANULARITY_BITS: u32 = 16;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels.
const LEVELS: usize = 6;
/// Wheel span in ticks; delays beyond this go to the overflow heap.
const SPAN_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    fn tick(&self) -> u64 {
        self.at.0 >> GRANULARITY_BITS
    }
}

// Ordering ignores the payload: `seq` is unique per queue, so the key
// is total and `T` needs no bounds.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A min-queue of `(SimTime, T)` entries ordered by `(time, insertion
/// sequence)` — the timer wheel plus its overflow heap.
pub struct EventQueue<T> {
    /// Wheel cursor: the tick of the most recent refill. All wheel
    /// entries are at ticks ≥ the cursor.
    now_tick: u64,
    /// Next insertion sequence number (the tiebreaker).
    next_seq: u64,
    len: usize,
    /// `LEVELS × SLOTS` buckets, flattened; entries within a bucket are
    /// unordered until drained.
    slots: Vec<Vec<Entry<T>>>,
    /// Minimum tick per bucket (`u64::MAX` when empty).
    slot_min: Vec<u64>,
    /// Per-level occupancy bitmaps.
    occ: [u64; LEVELS],
    /// The minimal tick's entries, sorted descending by `(at, seq)` so
    /// `pop` takes from the back.
    ready: Vec<Entry<T>>,
    /// Entries scheduled beyond the wheel span.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            now_tick: 0,
            next_seq: 0,
            len: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            occ: [0; LEVELS],
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` at `at`. Ties with already-queued entries at the
    /// same time pop in push order.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.len = self.len.wrapping_add(1);
        self.insert(Entry { at, seq, item });
    }

    /// Pop the minimal entry.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        let e = self.ready.pop()?;
        self.len -= 1;
        Some((e.at, e.item))
    }

    /// Time of the minimal entry. `&mut` because the answer may require
    /// advancing the cursor (a deterministic, order-preserving step).
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        self.ready.last().map(|e| e.at)
    }

    /// File one entry into ready / wheel / overflow by its tick.
    fn insert(&mut self, e: Entry<T>) {
        let tick = e.tick();
        if tick <= self.now_tick {
            // At or before the cursor: interleave with the ready batch.
            let key = e.key();
            let pos = self.ready.partition_point(|x| x.key() > key);
            self.ready.insert(pos, e);
            return;
        }
        let delta = tick - self.now_tick;
        if delta >= SPAN_TICKS {
            self.overflow.push(Reverse(e));
            return;
        }
        // delta ≥ 1, so the high bit index is well-defined.
        let level = ((63 - delta.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let idx = level * SLOTS + slot;
        self.slots[idx].push(e);
        self.slot_min[idx] = self.slot_min[idx].min(tick);
        self.occ[level] |= 1 << slot;
    }

    /// Minimum tick over all occupied wheel slots.
    fn wheel_min(&self) -> u64 {
        let mut best = u64::MAX;
        for level in 0..LEVELS {
            let mut bits = self.occ[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                best = best.min(self.slot_min[level * SLOTS + slot]);
            }
        }
        best
    }

    /// Advance the cursor to the minimal queued tick and move every
    /// entry of that tick into `ready`, sorted. Entries drained on the
    /// way that belong to later ticks re-file (the cascade).
    fn refill(&mut self) {
        debug_assert!(self.ready.is_empty() && self.len > 0);
        let wmin = self.wheel_min();
        let omin = self.overflow.peek().map_or(u64::MAX, |Reverse(e)| e.tick());
        let m = wmin.min(omin);
        debug_assert!(m != u64::MAX, "non-empty queue with no candidate tick");
        debug_assert!(m >= self.now_tick, "cursor moved backwards");
        self.now_tick = m;

        while self.overflow.peek().is_some_and(|Reverse(e)| e.tick() == m) {
            if let Some(Reverse(e)) = self.overflow.pop() {
                self.ready.push(e);
            }
        }

        // Drain every slot whose minimum is the target tick. A slot can
        // mix ticks from different wheel rotations; the non-minimal
        // entries re-file into lower levels (or the same slot) with the
        // advanced cursor.
        for level in 0..LEVELS {
            let mut bits = self.occ[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let idx = level * SLOTS + slot;
                if self.slot_min[idx] != m {
                    continue;
                }
                let drained = std::mem::take(&mut self.slots[idx]);
                self.slot_min[idx] = u64::MAX;
                self.occ[level] &= !(1 << slot);
                for e in drained {
                    if e.tick() == m {
                        self.ready.push(e);
                    } else {
                        self.insert(e);
                    }
                }
            }
        }

        // One sort per distinct timestamp tick; pop takes from the back.
        self.ready
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        debug_assert!(!self.ready.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(50), "b");
        q.push(SimTime(10), "a");
        q.push(SimTime(50), "c");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(50), "b")));
        assert_eq!(q.pop(), Some((SimTime(50), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_entries_take_the_overflow_path() {
        let mut q = EventQueue::new();
        let far = SimTime(SPAN_TICKS << (GRANULARITY_BITS + 2));
        q.push(far, "far");
        q.push(SimTime(1), "near");
        assert_eq!(q.next_time(), Some(SimTime(1)));
        assert_eq!(q.pop(), Some((SimTime(1), "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn push_during_drain_interleaves_exactly() {
        let mut q = EventQueue::new();
        q.push(SimTime(1000), 1u32);
        q.push(SimTime(1000), 2);
        assert_eq!(q.pop(), Some((SimTime(1000), 1)));
        // Same tick, later seq: must come after the already-ready 2.
        q.push(SimTime(1000), 3);
        // Earlier time than anything ready: must come first.
        q.push(SimTime(999), 0);
        assert_eq!(q.pop(), Some((SimTime(999), 0)));
        assert_eq!(q.pop(), Some((SimTime(1000), 2)));
        assert_eq!(q.pop(), Some((SimTime(1000), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..100u64 {
            q.push(SimTime(i * 1_000_000), i);
        }
        assert_eq!(q.len(), 100);
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((SimTime(i * 1_000_000), i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn cross_level_cascade_preserves_order() {
        let mut q = EventQueue::new();
        // Spread entries across all levels and the overflow.
        let mut times: Vec<u64> = (0..LEVELS as u32)
            .map(|l| 1u64 << (GRANULARITY_BITS + SLOT_BITS * l + 1))
            .collect();
        times.push(SPAN_TICKS << (GRANULARITY_BITS + 1));
        times.push(3);
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, _)) = q.pop() {
            popped.push(at.0);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }
}
