//! Property tests for partitioned execution: however the hosts are
//! split into independent cells (one runner job each), the merged
//! counters conserve what the workload delivered — echoed bytes are
//! exact, per-connection verdict sums are partition-invariant, and the
//! worker count never shows.

use experiments::runner::run_jobs_with;
use gfw_core::blocking::BlockingConfig;
use gfw_core::gfw::VerdictCounters;
use gfw_core::{Gfw, GfwConfig};
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

const PAYLOAD_LEN: usize = 500;
const PORT: u16 = 8388;

/// Echoes every data segment back, and completes the close handshake.
struct EchoServer;
impl App for EchoServer {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Data { conn, data } => ctx.send(conn, data),
            AppEvent::PeerFin { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

/// Sends one high-entropy payload per connection, counts echoed bytes,
/// closes after the echo. Counting on the client side keeps probe
/// traffic (whose volume is partition-dependent) out of the tally.
struct CountingClient {
    rng: StdRng,
    echoed: Rc<RefCell<u64>>,
}
impl App for CountingClient {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => {
                let mut payload = vec![0u8; PAYLOAD_LEN];
                self.rng.fill(&mut payload[..]);
                ctx.send(conn, payload);
            }
            AppEvent::Data { conn, data } => {
                *self.echoed.borrow_mut() += data.len() as u64;
                ctx.fin(conn);
            }
            AppEvent::PeerFin { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

/// Outcome of one cell: echoed bytes, verdict counters, leak check.
struct CellOut {
    echoed: u64,
    verdicts: VerdictCounters,
    tracked: usize,
}

/// Run `n` colocated client/server pairs, assigned to cells by
/// `assignment` (pair i lives wholly in cell `assignment[i]`), with a
/// full GFW (blocking disabled) installed in every cell. Each cell is
/// one runner job. Labels even-indexed pairs as genuine Shadowsocks
/// servers.
fn run_partitioned(assignment: &[usize], workers: usize) -> (u64, VerdictCounters) {
    let cells_n = assignment.iter().copied().max().unwrap_or(0) + 1;
    let cells: Vec<_> = (0..cells_n)
        .map(|idx| {
            let pairs: Vec<usize> = assignment
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == idx)
                .map(|(i, _)| i)
                .collect();
            move || {
                let mut sim = Simulator::new(SimConfig::default(), 900 + idx as u64);
                let mut config = GfwConfig::default();
                config.fleet.pool_size = 4;
                config.blocking = BlockingConfig {
                    sensitivity: 0.0,
                    ..Default::default()
                };
                let handle = Gfw::install(&mut sim, config, 77 + idx as u64);
                let echoed = Rc::new(RefCell::new(0u64));
                let client_app = sim.add_app(Box::new(CountingClient {
                    rng: StdRng::seed_from_u64(42 + idx as u64),
                    echoed: echoed.clone(),
                }));
                let server_app = sim.add_app(Box::new(EchoServer));
                for (k, &pair) in pairs.iter().enumerate() {
                    let server = sim.add_host(HostConfig::outside("srv"));
                    let client = sim.add_host(HostConfig::china("cli"));
                    sim.listen((server, PORT), server_app);
                    if pair % 2 == 0 {
                        handle.state.borrow_mut().label_shadowsocks_server(server);
                    }
                    sim.connect_at(
                        SimTime::ZERO + Duration::from_millis(100 * k as u64),
                        client_app,
                        client,
                        (server, PORT),
                        TcpTuning::default(),
                    );
                }
                sim.run();
                let st = handle.state.borrow();
                let echoed = *echoed.borrow();
                CellOut {
                    echoed,
                    verdicts: st.verdict_counters(),
                    tracked: st.tracked_conns(),
                }
            }
        })
        .collect();
    let out = run_jobs_with(cells, workers);
    let mut echoed = 0u64;
    let mut verdicts = VerdictCounters::default();
    for cell in &out {
        echoed += cell.echoed;
        verdicts.merge(&cell.verdicts);
        assert_eq!(cell.tracked, 0, "a cell's tap leaked per-conn state");
    }
    (echoed, verdicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any assignment of pairs to up to 3 cells conserves echoed bytes
    /// exactly and keeps the per-connection verdict sums — which are
    /// RNG-free even though the store/miss split is not — equal to the
    /// ground-truth pair counts. The worker count changes nothing.
    #[test]
    fn partitions_conserve_bytes_and_verdicts(
        assignment in proptest::collection::vec(0usize..3, 3..=10),
        workers in 1usize..=3,
    ) {
        let n = assignment.len() as u64;
        let labelled = assignment.iter().enumerate().filter(|(i, _)| i % 2 == 0).count() as u64;
        let (echoed, verdicts) = run_partitioned(&assignment, workers);
        prop_assert_eq!(echoed, n * PAYLOAD_LEN as u64);
        prop_assert_eq!(verdicts.inspected, n);
        prop_assert_eq!(verdicts.stored_true + verdicts.missed_true, labelled);
        prop_assert_eq!(verdicts.stored_false + verdicts.passed_false, n - labelled);

        let (echoed_1, verdicts_1) = run_partitioned(&assignment, 1);
        prop_assert_eq!(echoed, echoed_1);
        prop_assert_eq!(verdicts, verdicts_1);
    }

}
