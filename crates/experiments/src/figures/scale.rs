//! Extension: the hybrid flow/packet engine at scale.
//!
//! The paper's measurements ran against live traffic volumes no
//! packet-level simulator reproduces comfortably: detection decisions
//! ride on a handful of packets per connection (the handshake and the
//! first data segments), while the overwhelming majority of simulated
//! events would be bulk-transfer payload segments that no detector ever
//! looks at. The hybrid engine keeps the detection-relevant edges at
//! packet fidelity and promotes bulk-transfer tails into a fluid
//! max-min fair-share model (`netsim::flow`), collapsing thousands of
//! per-segment events per connection into a couple of completion
//! events.
//!
//! This experiment drives the same bulk workload — Poisson-free
//! deterministic arrivals every 4 ms, transfer sizes uniform in
//! [64 KiB, 448 KiB], China clients pushing to an outside sink — under
//! both engines and reports the deterministic counters side by side.
//! Wall-clock and memory numbers (which are machine-facts, not
//! sim-facts) live in `BENCH_scale.json`, produced by the `exp-scale`
//! binary; this module's rendering stays byte-reproducible.

use crate::report::Table;
use crate::Scale;
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::sim::SimStats;
use netsim::time::{Duration, SimTime};
use netsim::{EngineMode, LinkBandwidth, SimConfig, Simulator};
use trafficgen::drivers::{BulkTransferClient, Sample};

/// Gap between successive connection arrivals. With mean transfer size
/// 256 KiB this offers ~64 MB/s to the 125 MB/s border link (ρ ≈ 0.5),
/// so the fluid model operates in a contended-but-stable regime.
const ARRIVAL_GAP: Duration = Duration::from_millis(4);

/// Transfer size bounds (uniform), bytes.
const SIZE_LO: f64 = 65_536.0;
const SIZE_HI: f64 = 458_752.0;

/// A sink that completes the close handshake: replies FIN to a peer
/// FIN so connections fully close and get garbage-collected — at a
/// million flows, leaked connections would dominate memory.
struct FinSink;

impl App for FinSink {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::PeerFin { conn } = ev {
            ctx.fin(conn);
        }
    }
}

/// Deterministic outcome of one workload run.
pub struct Measured {
    /// Flows the driver opened.
    pub flows: usize,
    /// Transfers that completed ([`AppEvent::BulkDelivered`]).
    pub completed: u64,
    /// Bytes those transfers carried.
    pub bytes: u64,
    /// Simulator counters.
    pub stats: SimStats,
}

/// Run the bulk workload once under `engine`.
pub fn measure(engine: EngineMode, flows: usize, seed: u64) -> Measured {
    let m = run_cell(engine, flows, 1, 0, seed);
    crate::runner::record_sim_stats(&m.stats);
    m
}

/// Run the bulk workload partitioned into `cells` independent cells,
/// one runner job per cell on `workers` threads.
///
/// Each cell gets its own client/sink pair, an even share of the flow
/// count and arrival rate, and a `1/cells` slice of the border
/// bandwidth, so every cell runs in [`measure`]'s contention regime
/// (ρ ≈ 0.5) while the event queues shrink by `cells`×. Flows
/// never cross cells. Per-cell seeds are derived from the cell index
/// and results merge in cell order, so the counters are a pure
/// function of `(engine, flows, cells, seed)` — the worker count only
/// changes wall-clock, never output.
pub fn measure_sharded(
    engine: EngineMode,
    flows: usize,
    cells: usize,
    workers: usize,
    seed: u64,
) -> Measured {
    let specs: Vec<_> = (0..cells)
        .map(|idx| move || run_cell(engine, flows, cells, idx, seed))
        .collect();
    let mut merged = Measured {
        flows: 0,
        completed: 0,
        bytes: 0,
        stats: SimStats {
            shards: cells as u64,
            ..SimStats::default()
        },
    };
    for m in crate::runner::run_jobs_with(specs, workers) {
        merged.flows += m.flows;
        merged.completed += m.completed;
        merged.bytes += m.bytes;
        merged.stats.merge(&m.stats);
    }
    crate::runner::record_sim_stats(&merged.stats);
    merged
}

/// Build and run cell `idx` of a `cells`-way partition of the bulk
/// workload: its share of `flows`, a `1/cells` slice of every link's
/// bandwidth, arrivals `cells`× further apart (so each cell offers
/// `1/cells` of the load and stays at ρ ≈ 0.5) and a cell-salted seed.
/// Cell 0 of 1 is the unpartitioned workload.
fn run_cell(engine: EngineMode, flows: usize, cells: usize, idx: usize, seed: u64) -> Measured {
    let cell_flows = flows / cells + usize::from(idx < flows % cells);
    let config = SimConfig {
        engine,
        bandwidth: LinkBandwidth::default().divided(cells as u64),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(config, seed ^ (idx as u64).wrapping_mul(0x9E37));
    let server = sim.add_host(HostConfig::outside("bulk-sink"));
    let client = sim.add_host(HostConfig::china("bulk-client"));
    let sink = sim.add_app(Box::new(FinSink));
    sim.listen((server, 443), sink);
    let bulk = BulkTransferClient::new(Sample::Uniform(SIZE_LO, SIZE_HI));
    let (completed, bytes) = bulk.counters();
    let app = sim.add_app(Box::new(bulk));
    let mut at = SimTime::ZERO;
    for _ in 0..cell_flows {
        sim.connect_at(at, app, client, (server, 443), TcpTuning::default());
        at += ARRIVAL_GAP * cells as u64;
    }
    sim.run();
    Measured {
        flows: cell_flows,
        completed: completed.get(),
        bytes: bytes.get(),
        stats: sim.stats,
    }
}

/// Both engines over the same workload.
pub struct ScaleResult {
    /// Flows driven per engine.
    pub flows: usize,
    /// Pure packet engine outcome.
    pub packet: Measured,
    /// Hybrid engine outcome.
    pub hybrid: Measured,
}

impl std::fmt::Display for ScaleResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Bulk workload, both engines: {} flows, sizes uniform \
             [{} KiB, {} KiB], one arrival per {} ms",
            self.flows,
            SIZE_LO as u64 / 1024,
            SIZE_HI as u64 / 1024,
            ARRIVAL_GAP.0 / 1_000_000,
        )?;
        writeln!(f)?;
        let mut t = Table::new(&[
            "engine",
            "completed",
            "bytes",
            "events",
            "packets",
            "promoted",
            "demoted",
            "fluid bytes",
        ]);
        for (name, m) in [("packet", &self.packet), ("hybrid", &self.hybrid)] {
            t.row(&[
                name.to_string(),
                m.completed.to_string(),
                m.bytes.to_string(),
                m.stats.events.to_string(),
                m.stats.packets_sent.to_string(),
                m.stats.flows_promoted.to_string(),
                m.stats.flows_demoted.to_string(),
                m.stats.fluid_bytes_modeled.to_string(),
            ]);
        }
        write!(f, "{}", t.render())?;
        let ratio = self
            .packet
            .stats
            .events
            .checked_div(self.hybrid.stats.events)
            .unwrap_or(0);
        writeln!(
            f,
            "\nevent reduction: {ratio}x fewer events under the hybrid engine\n\
             (wall-clock and peak-RSS measurements live in BENCH_scale.json, \
             written by exp-scale; this output holds only seed-pure counters)"
        )
    }
}

/// Run the experiment: the same workload under both engines.
pub fn run(scale: Scale, seed: u64) -> ScaleResult {
    let flows = scale.pick(2_000, 20_000);
    let specs: Vec<_> = [EngineMode::Packet, EngineMode::Hybrid]
        .into_iter()
        .map(|engine| move || measure(engine, flows, seed))
        .collect();
    let mut out = crate::runner::run_jobs(specs);
    let hybrid = out.pop().expect("scale: missing hybrid run");
    let packet = out.pop().expect("scale: missing packet run");
    ScaleResult {
        flows,
        packet,
        hybrid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_engines_complete_every_transfer() {
        let r = run(Scale::Quick, 7);
        assert_eq!(r.packet.completed as usize, r.flows);
        assert_eq!(r.hybrid.completed as usize, r.flows);
        assert_eq!(r.packet.bytes, r.hybrid.bytes);
    }

    #[test]
    fn hybrid_engine_collapses_events() {
        let r = run(Scale::Quick, 7);
        assert!(r.packet.stats.events >= 10 * r.hybrid.stats.events);
        assert_eq!(r.hybrid.stats.flows_promoted as usize, r.flows);
        // Byte conservation: what the fluid model carried plus what the
        // wire carried equals the packet engine's wire bytes.
        assert!(r.hybrid.stats.fluid_bytes_modeled > 0);
    }

    #[test]
    fn sharded_run_is_worker_count_invariant() {
        // The partition (cells) is part of the scenario; the worker
        // count is pure execution. Counters must not see the difference.
        let flows = 600;
        let one = measure_sharded(EngineMode::Hybrid, flows, 4, 1, 5);
        let four = measure_sharded(EngineMode::Hybrid, flows, 4, 4, 5);
        assert_eq!(one.completed, flows as u64);
        assert_eq!(one.completed, four.completed);
        assert_eq!(one.bytes, four.bytes);
        assert_eq!(one.stats.events, four.stats.events);
        assert_eq!(one.stats.packets_sent, four.stats.packets_sent);
        assert_eq!(one.stats.shards, 4);
    }

    #[test]
    fn sharded_run_conserves_flows_across_uneven_splits() {
        // 601 flows over 4 cells: 151+150+150+150. Every transfer still
        // completes and the totals add up.
        let m = measure_sharded(EngineMode::Packet, 601, 4, 2, 6);
        assert_eq!(m.flows, 601);
        assert_eq!(m.completed, 601);
    }

    #[test]
    fn sharded_cells_keep_the_unsharded_load_regime() {
        // Each cell gets 1/cells of the bandwidth and 1/cells of the
        // arrivals, so it runs at the unsharded ρ ≈ 0.5: hybrid events
        // per flow match the unsharded run's exactly.
        let flows = 2_000;
        let solo = measure(EngineMode::Hybrid, flows, 5);
        let four = measure_sharded(EngineMode::Hybrid, flows, 4, 2, 5);
        assert_eq!(four.completed, flows as u64);
        assert_eq!(
            four.stats.events * solo.flows as u64,
            solo.stats.events * four.flows as u64,
            "events per flow: sharded {} vs unsharded {}",
            four.stats.events as f64 / four.flows as f64,
            solo.stats.events as f64 / solo.flows as f64,
        );
    }

    #[test]
    fn rendering_is_deterministic_across_job_counts() {
        let a = {
            crate::runner::set_jobs(1);
            run(Scale::Quick, 9).to_string()
        };
        let b = {
            crate::runner::set_jobs(2);
            run(Scale::Quick, 9).to_string()
        };
        crate::runner::set_jobs(0);
        assert_eq!(a, b);
    }
}
