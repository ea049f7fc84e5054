//! The simulation workloads: `bulk-flows`, `mix-sparse` and `mix-dense`.
//!
//! * `bulk-flows`: hybrid-engine bulk transfers from one China client to
//!   a FIN-replying sink outside, arrivals every 4 ms, sizes uniform in
//!   [64 KiB, 448 KiB] — offered load ρ ≈ 0.5 on the 1 Gbit/s border
//!   link. No GFW; unsharded.
//! * `mix-sparse` / `mix-dense`: the `TrafficMix` protocol-profile
//!   background with Shadowsocks flows at base rate 1:1,000 / 1:10, and
//!   the GFW installed observe-only (`blocking.sensitivity = 0`), as in
//!   the base-rate experiment.
//!
//! Every arrival is scheduled before the first event. The run phase
//! advances the arrival phase in fixed slices of simulated time with
//! `Simulator::run_until` (one chunk each), then drains the simulator.

use crate::trace::{Trace, HARNESS};
use crate::{cpu, Check, Metrics, Rep};
use gfw_core::{Gfw, GfwConfig, GfwHandle, Reaction};
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::{ConnId, TcpTuning};
use netsim::host::HostConfig;
use netsim::packet::Packet;
use netsim::sim::SimStats;
use netsim::tap::{Tap, TapCtx, Verdict};
use netsim::time::{Duration, SimTime};
use netsim::{EngineMode, LinkBandwidth, SimConfig, Simulator};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Instant;
use trafficgen::drivers::{BulkTransferClient, Sample};
use trafficgen::{MixHandles, MixSpec, TrafficMix};

/// Bulk arrivals: one every 4 ms.
const BULK_GAP: Duration = Duration::from_millis(4);
/// Bulk transfer sizes, uniform, bytes.
const BULK_SIZE: (f64, f64) = (65_536.0, 458_752.0);
/// Bulk flows per repetition.
const BULK_FLOWS: usize = 300_000;
/// Background flows per mix repetition.
const MIX_FLOWS: usize = 100_000;
/// Arrival-phase chunks per repetition.
const CHUNKS: u64 = 1_200;
/// World builds per repetition; the median is reported and the last
/// build runs.
const SETUPS: usize = 3;
/// First payloads kept for re-scoring by the unit-cost measurements.
const KEEP_PAYLOADS: usize = 4_096;

/// Which simulation workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `bulk-flows`.
    Bulk,
    /// `mix-sparse` (1:1,000) or `mix-dense` (1:10).
    Mix {
        /// Base-rate denominator.
        base_rate: u64,
    },
}

/// The offered load of `bulk-flows` on the border link, from its own
/// constants: mean transfer size per arrival gap over link capacity.
pub fn bulk_rho() -> f64 {
    let mean = (BULK_SIZE.0 + BULK_SIZE.1) / 2.0;
    mean / BULK_GAP.as_secs_f64() / LinkBandwidth::default().cn_to_intl as f64
}

/// A sink that answers a peer FIN with its own, so connections close
/// fully and are reclaimed.
struct FinSink;

impl App for FinSink {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::PeerFin { conn } = ev {
            ctx.fin(conn);
        }
    }
}

/// State shared by the bench taps of a traced run: the open time of
/// the current GFW-tap bracket, the bracket totals, and the first
/// payloads seen at the border.
#[derive(Default)]
struct TapClock {
    opened: Option<Instant>,
    total_ns: u64,
    brackets: u64,
    seen: HashSet<ConnId>,
    first_payloads: Vec<Vec<u8>>,
}

/// Registered before the GFW tap: opens a bracket.
struct BracketOpen(Rc<RefCell<TapClock>>);

impl Tap for BracketOpen {
    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut TapCtx) -> Verdict {
        self.0.borrow_mut().opened = Some(Instant::now());
        Verdict::Pass
    }
}

/// Registered after the GFW tap: closes the bracket and keeps the
/// first data payload of the first connections it sees.
struct BracketClose(Rc<RefCell<TapClock>>);

impl Tap for BracketClose {
    fn on_packet(&mut self, pkt: &Packet, _ctx: &mut TapCtx) -> Verdict {
        let mut c = self.0.borrow_mut();
        if let Some(t) = c.opened.take() {
            c.total_ns += t.elapsed().as_nanos() as u64;
            c.brackets += 1;
        }
        if c.first_payloads.len() < KEEP_PAYLOADS && pkt.has_payload() && c.seen.insert(pkt.conn) {
            c.first_payloads.push(pkt.payload.to_vec());
        }
        Verdict::Pass
    }
}

/// `BulkTransferClient` completion counters: (transfers, bytes).
type BulkCounters = (Rc<Cell<u64>>, Rc<Cell<u64>>);

/// One built world, ready to run.
struct World {
    sim: Simulator,
    flows: u64,
    arrival_end: SimTime,
    bulk: Option<BulkCounters>,
    gfw: Option<GfwHandle>,
    mix: Option<MixHandles>,
    taps: Option<Rc<RefCell<TapClock>>>,
}

/// Build the world, recording setup spans under `parent` when traced.
fn build(kind: Kind, seed: u64, traced: bool, trace: &mut Trace, parent: usize) -> World {
    let config = SimConfig {
        engine: EngineMode::Hybrid,
        ..SimConfig::default()
    };
    match kind {
        Kind::Bulk => {
            let s = trace.open("netsim.build", "netsim", Some(parent));
            let mut sim = Simulator::new(config, seed);
            let server = sim.add_host(HostConfig::outside("bulk-sink"));
            let client = sim.add_host(HostConfig::china("bulk-client"));
            let sink = sim.add_app(Box::new(FinSink));
            sim.listen((server, 443), sink);
            let bulk = BulkTransferClient::new(Sample::Uniform(BULK_SIZE.0, BULK_SIZE.1));
            let counters = bulk.counters();
            let app = sim.add_app(Box::new(bulk));
            let taps = traced.then(|| {
                let clock = Rc::new(RefCell::new(TapClock::default()));
                sim.add_tap(Box::new(BracketClose(clock.clone())));
                clock
            });
            trace.close(s);
            let s = trace.open("netsim.connect_at", "netsim", Some(parent));
            let mut at = SimTime::ZERO;
            for _ in 0..BULK_FLOWS {
                sim.connect_at(at, app, client, (server, 443), TcpTuning::default());
                at += BULK_GAP;
            }
            trace.close(s);
            World {
                sim,
                flows: BULK_FLOWS as u64,
                arrival_end: at,
                bulk: Some(counters),
                gfw: None,
                mix: None,
                taps,
            }
        }
        Kind::Mix { base_rate } => {
            let s = trace.open("netsim.build", "netsim", Some(parent));
            let mut sim = Simulator::new(config, seed);
            let clock = Rc::new(RefCell::new(TapClock::default()));
            if traced {
                sim.add_tap(Box::new(BracketOpen(clock.clone())));
            }
            trace.close(s);
            let s = trace.open("gfw.install", "gfw", Some(parent));
            let mut gfw_config = GfwConfig::default();
            gfw_config.fleet.pool_size = 3_000;
            gfw_config.blocking.sensitivity = 0.0;
            let gfw = Gfw::install(&mut sim, gfw_config, seed ^ 0x6F3);
            trace.close(s);
            if traced {
                sim.add_tap(Box::new(BracketClose(clock.clone())));
            }
            let s = trace.open("trafficgen.install", "trafficgen", Some(parent));
            let spec = MixSpec {
                background_flows: MIX_FLOWS,
                base_rate,
                seed: seed ^ 0x5EED,
                ..MixSpec::default()
            };
            let handles = TrafficMix::install(&mut sim, &spec);
            trace.close(s);
            gfw.state
                .borrow_mut()
                .label_shadowsocks_server(handles.ss_server.0);
            let flows = handles.total_flows() as u64;
            World {
                sim,
                flows,
                arrival_end: SimTime::ZERO + Duration(spec.arrival_gap.0 * flows),
                bulk: None,
                gfw: Some(gfw),
                mix: Some(handles),
                taps: traced.then_some(clock),
            }
        }
    }
}

/// Every `SimStats` counter except `events`, which every step bumps.
fn counters(s: &SimStats) -> [u64; 16] {
    [
        s.connections,
        s.packets_sent,
        s.packets_dropped,
        s.packets_tapped,
        s.probes_launched,
        s.peak_queue_depth,
        s.packets_lost,
        s.retransmits,
        s.packets_reordered,
        s.packets_duplicated,
        s.flows_promoted,
        s.flows_demoted,
        s.fluid_bytes_modeled,
        s.shards,
        s.cross_shard_packets,
        s.sync_windows,
    ]
}

/// Step totals of one traced chunk.
#[derive(Default)]
struct Steps {
    n: u64,
    ns: u64,
    idle: u64,
    idle_ns: u64,
}

/// `Simulator::run_until` (or `run` when `until` is `None`), one timed
/// `step` at a time.
fn step_traced(sim: &mut Simulator, until: Option<SimTime>) -> Steps {
    let mut acc = Steps::default();
    while let Some(t) = sim.next_event_time() {
        if until.is_some_and(|u| t > u) {
            break;
        }
        let before = counters(&sim.stats);
        let live = sim.live_connections();
        let a = Instant::now();
        sim.step();
        let dt = a.elapsed().as_nanos() as u64;
        acc.n += 1;
        acc.ns += dt;
        if counters(&sim.stats) == before && sim.live_connections() == live {
            acc.idle += 1;
            acc.idle_ns += dt;
        }
    }
    if let Some(u) = until {
        sim.run_until(u);
    }
    acc
}

/// One repetition.
pub fn run(kind: Kind, seed: u64, traced: bool, m: &mut Metrics) -> Rep {
    let mut trace = Trace::new();
    let root = trace.open("rep", HARNESS, None);

    let setup_span = trace.open("setup", HARNESS, Some(root));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut world = None;
    for _ in 0..SETUPS {
        // Drop the previous world first so builds never overlap in memory.
        drop(world.take());
        let s = trace.open("setup.build", HARNESS, Some(setup_span));
        let t = Instant::now();
        world = Some(build(kind, seed, traced, &mut trace, s));
        setup_s.push(t.elapsed().as_secs_f64());
        trace.close(s);
    }
    trace.close(setup_span);
    let mut w = world.expect("at least one setup");

    let run_span = trace.open("run", HARNESS, Some(root));
    let slice = w.arrival_end.as_nanos() / CHUNKS;
    let mut chunk_ms = Vec::with_capacity(CHUNKS as usize);
    let mut drain_ms = 0.0;
    let (mut live_peak, mut tracked_peak) = (0usize, 0usize);
    let (mut steps_n, mut steps_ns, mut idle_n, mut idle_ns) = (0u64, 0u64, 0u64, 0u64);
    let tap_totals = |w: &World| {
        w.taps
            .as_ref()
            .map_or((0, 0), |c| (c.borrow().total_ns, c.borrow().brackets))
    };
    let t_run = Instant::now();
    for k in 0..=CHUNKS {
        // Chunks 0..CHUNKS slice the arrival phase; the last pass drains.
        let until = (k < CHUNKS).then(|| SimTime((k + 1) * slice));
        let name = if until.is_some() { "chunk" } else { "drain" };
        let chunk = trace.open(name, HARNESS, Some(run_span));
        trace.set_op(chunk, k);
        let start = trace.now();
        let cpu0 = cpu::thread_ns();
        if traced {
            let (tap_before, brackets_before) = tap_totals(&w);
            let st = step_traced(&mut w.sim, until);
            let (tap_after, brackets_after) = tap_totals(&w);
            let step = trace.aggregate("netsim.step", "netsim", chunk, start, st.ns, st.n);
            if w.gfw.is_some() {
                let (ns, n) = (tap_after - tap_before, brackets_after - brackets_before);
                trace.aggregate("gfw.tap", "gfw", step, start, ns, n);
            }
            steps_n += st.n;
            steps_ns += st.ns;
            idle_n += st.idle;
            idle_ns += st.idle_ns;
        } else {
            match until {
                Some(u) => w.sim.run_until(u),
                None => w.sim.run(),
            }
        }
        let ms = (cpu::thread_ns() - cpu0) as f64 / 1e6;
        if until.is_some() {
            chunk_ms.push(ms);
        } else {
            drain_ms = ms;
        }
        trace.close(chunk);
        live_peak = live_peak.max(w.sim.live_connections());
        if let Some(g) = &w.gfw {
            tracked_peak = tracked_peak.max(g.state.borrow().tracked_conns());
        }
    }
    let run_s = t_run.elapsed().as_secs_f64();
    let peak_rss_kb = experiments::runner::peak_rss_kb();
    trace.close(run_span);
    trace.close(root);

    let stats = w.sim.stats;
    let mut counts = vec![
        ("flows", w.flows),
        ("events", stats.events),
        ("packets", stats.packets_sent),
        ("packets_tapped", stats.packets_tapped),
        ("connections", stats.connections),
        ("flows_promoted", stats.flows_promoted),
        ("peak_queue_depth", stats.peak_queue_depth),
    ];
    let mut checks = Vec::new();
    let failed;
    let mut probes = 0u64;
    match kind {
        Kind::Bulk => {
            let (completed, bytes) = w.bulk.as_ref().expect("bulk world has counters");
            let (completed, bytes) = (completed.get(), bytes.get());
            failed = w.flows.saturating_sub(completed);
            counts.push(("completed", completed));
            counts.push(("bytes", bytes));
            let rho = bulk_rho();
            checks.push(Check::new(
                "offered load rho ~ 0.5",
                (0.4..=0.6).contains(&rho),
                format!("rho = {rho:.3}"),
            ));
            checks.push(Check::new(
                "pre-scheduled arrivals outnumber live flows",
                (live_peak as u64) * 20 < w.flows,
                format!("live peak {live_peak} of {} flows", w.flows),
            ));
        }
        Kind::Mix { base_rate } => {
            let h = w.mix.as_ref().expect("mix world has handles");
            let st = w.gfw.as_ref().expect("mix world has a GFW").state.borrow();
            let v = st.verdict_counters();
            probes = st.probes().len() as u64;
            let connect_failed = st
                .probes()
                .iter()
                .filter(|p| p.reaction == Some(Reaction::ConnectFailed))
                .count() as u64;
            let unresolved = st.probes().iter().filter(|p| p.reaction.is_none()).count() as u64;
            let partition = v.stored_true + v.stored_false + v.missed_true + v.passed_false;
            failed = (w.flows.abs_diff(v.inspected)
                + connect_failed
                + unresolved
                + partition.abs_diff(v.inspected))
            .min(w.flows);
            counts.push(("probes", probes));
            counts.push(("inspected", v.inspected));
            counts.push(("stored", v.positives()));
            counts.push(("stored_true", v.stored_true));
            counts.push(("ss_flows", h.ss_flows as u64));
            let background: usize = h.flows_per_profile.iter().map(|(_, n)| n).sum();
            let want_ss = (background as u64 / base_rate).max(1);
            let share = h.ss_flows as f64 / w.flows as f64;
            checks.push(Check::new(
                "shadowsocks flow share matches the base rate",
                h.ss_flows as u64 == want_ss,
                format!(
                    "{} of {} flows ({share:.5}), 1:{base_rate}",
                    h.ss_flows, w.flows
                ),
            ));
            checks.push(Check::new(
                "every flow inspected exactly once",
                v.inspected == w.flows && st.inspected_connections() == w.flows,
                format!("{} inspected of {} flows", v.inspected, w.flows),
            ));
            checks.push(Check::new(
                "no probe resolves ConnectFailed or stays unresolved",
                connect_failed == 0 && unresolved == 0,
                format!("{connect_failed} ConnectFailed, {unresolved} unresolved of {probes}"),
            ));
            checks.push(Check::new(
                "confusion counters partition inspected",
                partition == v.inspected,
                format!("{partition} vs {}", v.inspected),
            ));
        }
    }

    if traced {
        let ledger = trace.ledger(root);
        let ops = w.flows as f64;
        m.set("netsim.events_per_op", stats.events as f64 / ops);
        m.set("netsim.packets_per_op", stats.packets_sent as f64 / ops);
        m.set("netsim.promoted_frac", stats.flows_promoted as f64 / ops);
        let (tap_ns, brackets) = tap_totals(&w);
        let tap_total = tap_ns as f64;
        m.set(
            "netsim.step_ns",
            (steps_ns as f64 - tap_total) / steps_n.max(1) as f64,
        );
        m.set(
            "netsim.idle_step_frac",
            idle_n as f64 / steps_n.max(1) as f64,
        );
        m.set("netsim.idle_step_s", idle_ns as f64 / 1e9);
        m.set("netsim.peak_queue_depth", stats.peak_queue_depth as f64);
        m.set("netsim.live_conns_peak", live_peak as f64);
        let setup_median = |name: &str| crate::median(&trace.durations(name));
        if kind == Kind::Bulk {
            m.set("netsim.connect_at_s", setup_median("netsim.connect_at"));
        } else {
            m.set("gfw.install_s", setup_median("gfw.install"));
            m.set("trafficgen.install_s", setup_median("trafficgen.install"));
            m.set("gfw.tap_ns", tap_total / brackets.max(1) as f64);
            m.set("gfw.tap_frac", tap_total / 1e9 / run_s);
            m.set("gfw.probes_per_op", probes as f64 / ops);
            m.set("gfw.tracked_conns_peak", tracked_peak as f64);
        }
        m.ledger(&ledger);
        m.first_payloads = w
            .taps
            .as_ref()
            .map(|c| std::mem::take(&mut c.borrow_mut().first_payloads))
            .unwrap_or_default();
        m.trace = Some(trace);
    }

    Rep {
        setup_s,
        run_s,
        ops: w.flows - failed,
        attempted: w.flows,
        failed,
        chunk_ms,
        drain_ms,
        threads: 1,
        peak_rss_kb,
        counts,
        checks,
    }
}
