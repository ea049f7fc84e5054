//! # netsim — a deterministic discrete-event TCP/IP network simulator
//!
//! The substrate on which this reproduction of *How China Detects and
//! Blocks Shadowsocks* (IMC 2020) runs. The paper measured a real network
//! (VPSes in Beijing and London, the real Great Firewall on path); we
//! replace that with a simulator that models exactly the observables the
//! paper's analysis depends on:
//!
//! * **Segment-level TCP**: SYN / SYN-ACK / ACK / PSH-ACK / FIN / RST
//!   sequences with sequence numbers, so "who closes first and how"
//!   (TIMEOUT vs FIN/ACK vs RST, §5 of the paper) is observable.
//! * **Fingerprintable header fields**: IP TTL and ID, TCP source ports
//!   (with Linux-ephemeral-range allocation policies), and TCP
//!   timestamps driven by per-process 250 Hz / 1000 Hz clocks — the
//!   side channels of the paper's §3.4.
//! * **On-path middleboxes** ([`tap::Tap`]): observers that see every
//!   cross-border packet and can drop them — where the GFW model's
//!   passive detector and blocking module live.
//! * **Receiver-window shaping**: server-side window clamping à la
//!   brdgrd (§7.1), which forces clients to split their first payload
//!   into small segments.
//! * **Deterministic link impairment** ([`impair`]): per-direction
//!   loss, duplication, bounded reordering and latency jitter on the
//!   border link, backed by a loss-triggered retransmission machine —
//!   all drawn from the same seeded RNG, and a strict no-op (zero RNG
//!   draws) at the default zero rates.
//! * **An "Internet" model** for connections to arbitrary addresses
//!   (what a Shadowsocks server does when a random probe decrypts to a
//!   plausible target specification).
//!
//! ## Design
//!
//! Following the smoltcp school: explicit state machines, no async
//! runtime, no hidden clocks. All randomness comes from one seeded RNG;
//! the event queue breaks timestamp ties by insertion order, so every run
//! is byte-for-byte reproducible.
//!
//! Applications implement [`app::App`] and interact with the simulator
//! through a command queue ([`app::Ctx`]) rather than holding references
//! into it, which keeps the event loop single-owner and deterministic.
//!
//! ```
//! use netsim::{Simulator, SimConfig, app::{App, AppEvent, Ctx}, host::HostConfig};
//!
//! struct Echo;
//! impl App for Echo {
//!     fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
//!         if let AppEvent::Data { conn, data } = ev {
//!             ctx.send(conn, data); // echo back
//!         }
//!     }
//! }
//!
//! struct Probe;
//! impl App for Probe {
//!     fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
//!         match ev {
//!             AppEvent::Connected { conn } => ctx.send(conn, b"ping".to_vec()),
//!             AppEvent::Data { conn, data } => {
//!                 assert_eq!(data, b"ping");
//!                 ctx.fin(conn);
//!             }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default(), 42);
//! let server_ip = sim.add_host(HostConfig::outside("server"));
//! let client_ip = sim.add_host(HostConfig::china("client"));
//! let echo = sim.add_app(Box::new(Echo));
//! sim.listen((server_ip, 8388), echo);
//! let probe = sim.add_app(Box::new(Probe));
//! sim.connect_at(netsim::time::SimTime::ZERO, probe, client_ip, (server_ip, 8388), Default::default());
//! sim.run();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod capture;
pub mod conn;
pub mod eventq;
pub mod flow;
pub mod host;
pub mod impair;
pub mod internet;
pub mod packet;
pub mod sim;
pub mod tap;
pub mod time;

pub use app::{App, AppEvent, AppId, Ctx};
pub use capture::Capture;
pub use conn::{ConnId, TcpTuning};
pub use flow::{EngineMode, LinkBandwidth};
pub use host::{HostConfig, Region};
pub use impair::{ImpairmentSpec, LinkImpairment};
pub use packet::{Packet, SocketAddr, TcpFlags};
pub use sim::{SimConfig, SimStats, Simulator};
pub use time::{Duration, SimTime};
