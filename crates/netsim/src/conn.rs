//! Connection identifiers, per-connection tuning, and the TCP-ish
//! connection state machine record.

use crate::app::AppId;
use crate::host::TsClock;
use crate::packet::{Packet, SocketAddr};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Opaque connection identifier, unique for the lifetime of a simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConnId(pub u64);

/// Per-connection overrides of the initiating host's defaults. The GFW
/// prober fleet uses these to stamp each probe with its controlling
/// process's timestamp clock, a chosen source port, and the TTL the
/// paper observed (§3.4).
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpTuning {
    /// Fixed source port instead of the host's allocation policy.
    pub src_port: Option<u16>,
    /// Timestamp clock override (the shared prober-process clocks of
    /// Fig 6).
    pub ts_clock: Option<TsClock>,
    /// TTL override as seen at the far end (probers arrive with 46–50).
    pub ttl: Option<u8>,
    /// Use random IP IDs regardless of host policy.
    pub random_ip_id: bool,
}

/// Lifecycle of one simulated connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// Handshake complete on the client side; server learns on the final
    /// ACK.
    Established,
    /// One side sent FIN; awaiting the other.
    HalfClosed {
        /// True if it was the client that closed first — the signal the
        /// prober-reaction taxonomy (§5) is built on.
        by_client: bool,
    },
    /// Fully closed (both FINs, or an RST, or failure).
    Closed,
}

/// Why a connection ended (recorded for diagnostics and reaction
/// classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// Orderly FIN exchange.
    Fin,
    /// Reset by the given side (true = client).
    Rst {
        /// True if the client sent the RST.
        by_client: bool,
    },
    /// Client's SYN went unanswered.
    SynTimeout,
    /// Connection refused (RST in response to SYN).
    Refused,
}

/// Verdict of the in-order sequencer for one arriving segment.
#[derive(Debug, PartialEq, Eq)]
pub enum SeqVerdict {
    /// The segment is the next expected one: deliver it (then drain the
    /// buffer).
    InOrder,
    /// The segment arrived early and was buffered.
    Buffered,
    /// The segment's bytes were already delivered: drop it.
    Duplicate,
}

/// Per-direction in-order delivery state, used only when link
/// impairment is active. Reordered segments are buffered until the gap
/// fills; segments at an already-delivered offset (duplicates, stale
/// retransmissions) are dropped. Offsets are relative to the first
/// expected sequence number so `u32` wraparound in the middle of a
/// connection is handled by wrapping subtraction.
#[derive(Debug, Default)]
pub struct DirSeq {
    /// Sequence number of the first expected payload byte (ISN + 1).
    pub base: u32,
    /// Offset (relative to `base`) of the next expected byte.
    pub next_ofs: u32,
    /// Early segments, keyed by relative offset.
    buffered: BTreeMap<u32, Packet>,
}

impl DirSeq {
    /// Start a direction expecting `base` as its first in-order byte.
    pub fn new(base: u32) -> DirSeq {
        DirSeq {
            base,
            next_ofs: 0,
            buffered: BTreeMap::new(),
        }
    }

    /// Sequencer length of a segment: payload bytes, or one for a FIN.
    fn seg_len(pkt: &Packet) -> u32 {
        if pkt.flags.fin {
            pkt.payload.len() as u32 + 1
        } else {
            pkt.payload.len() as u32
        }
    }

    /// Classify an arriving segment. `InOrder` means the caller should
    /// deliver `pkt` now, advance via [`DirSeq::advance`], then drain
    /// with [`DirSeq::pop_ready`].
    pub fn accept(&mut self, pkt: Packet) -> SeqVerdict {
        let ofs = pkt.seq.wrapping_sub(self.base);
        if ofs < self.next_ofs || Self::seg_len(&pkt) == 0 {
            return SeqVerdict::Duplicate;
        }
        if ofs == self.next_ofs {
            return SeqVerdict::InOrder;
        }
        self.buffered.entry(ofs).or_insert(pkt);
        SeqVerdict::Buffered
    }

    /// Record that a segment of `pkt`'s length was delivered.
    pub fn advance(&mut self, pkt: &Packet) {
        self.next_ofs = self.next_ofs.wrapping_add(Self::seg_len(pkt));
    }

    /// Pop the buffered segment that is now in order, if any. Call
    /// repeatedly (advancing after each delivery) to drain a filled gap.
    pub fn pop_ready(&mut self) -> Option<Packet> {
        // Stale buffered entries below the cursor (duplicates of
        // different segmentation) are discarded on the way.
        while let Some((&ofs, _)) = self.buffered.iter().next() {
            if ofs < self.next_ofs {
                self.buffered.remove(&ofs);
                continue;
            }
            if ofs == self.next_ofs {
                return self.buffered.remove(&ofs);
            }
            break;
        }
        None
    }
}

/// Both directions of a connection's in-order delivery state.
#[derive(Debug, Default)]
pub struct ReorderState {
    /// Client → server segments, tracked at the server.
    pub to_server: DirSeq,
    /// Server → client segments, tracked at the client.
    pub to_client: DirSeq,
}

/// Full record of a live connection inside the simulator.
#[derive(Debug)]
pub struct Connection {
    /// Identifier.
    pub id: ConnId,
    /// Client (initiator) endpoint.
    pub client: SocketAddr,
    /// Server endpoint.
    pub server: SocketAddr,
    /// Dense host-arena index of the client host, resolved once when
    /// the connection opens so per-packet paths never hash an address.
    pub client_host: Option<u32>,
    /// Dense host-arena index of the server host (`None` when the
    /// destination is unregistered — the Internet model's domain).
    pub server_host: Option<u32>,
    /// Client host's region, cached for border/latency decisions.
    pub client_region: Option<crate::host::Region>,
    /// Server host's region.
    pub server_region: Option<crate::host::Region>,
    /// Whether the server app has been told about this connection
    /// (`ConnIncoming` fires once, on the handshake ACK or first data).
    pub server_notified: bool,
    /// App owning the client side.
    pub client_app: AppId,
    /// App owning the server side (set when a listener accepts).
    pub server_app: Option<AppId>,
    /// Current state.
    pub state: ConnState,
    /// Client-side tuning.
    pub tuning: TcpTuning,
    /// Next client sequence number.
    pub client_seq: u32,
    /// Next server sequence number.
    pub server_seq: u32,
    /// Receive window currently imposed on the client (window shaping).
    pub client_send_cap: Option<u16>,
    /// Total client payload bytes that have arrived at the server, used
    /// to decide when window shaping relaxes.
    pub client_bytes_seen: usize,
    /// Whether the client has sent any data yet (first-data-packet
    /// detection for taps).
    pub client_sent_data: bool,
    /// True while the tail of a bulk transfer on this connection is in
    /// the fluid model (hybrid engine). A cheap pre-filter: the wire
    /// paths check this flag before touching the fluid flow table.
    pub fluid: bool,
    /// Close reason, once closed.
    pub close_reason: Option<CloseReason>,
    /// In-order delivery state; allocated only when the simulator's
    /// impairment spec is active (the perfect-network fast path keeps
    /// connections exactly as light as before).
    pub reorder: Option<Box<ReorderState>>,
}

impl Connection {
    /// True once no further events can occur on this connection.
    pub fn is_closed(&self) -> bool {
        self.state == ConnState::Closed
    }
}

/// One slot of the [`ConnArena`] sliding window.
#[derive(Debug, Default)]
enum ConnSlot {
    /// Id allocated (a pending `connect_at` / `Ctx::connect`) but the
    /// connection has not opened yet. Blocks window advancement — the
    /// insert is still coming.
    #[default]
    Vacant,
    /// Open connection.
    Live(Connection),
    /// Closed and removed; reclaimed when it reaches the window front.
    Dead,
}

/// Slab arena for live connections, replacing `HashMap<ConnId,
/// Connection>` on the simulator's per-packet hot path.
///
/// `ConnId`s are allocated densely from a single counter, so `id -
/// base` indexes a sliding `VecDeque` window directly — lookup is a
/// bounds check plus an enum tag test, no hashing. The window's front
/// advances over `Dead` slots only; a `Vacant` front slot belongs to a
/// connection that was allocated but has not opened yet (its `OpenConn`
/// event is still queued), so the window holds position until it
/// resolves. Memory is therefore bounded by the span between the
/// oldest unresolved id and the newest allocation, which mirrors the
/// live-connection window of the workloads themselves.
#[derive(Debug, Default)]
pub struct ConnArena {
    slots: VecDeque<ConnSlot>,
    /// ConnId of `slots[0]`.
    base: u64,
    /// Number of `Live` slots.
    live: usize,
}

impl ConnArena {
    /// An empty arena.
    pub fn new() -> ConnArena {
        ConnArena::default()
    }

    /// Number of live (open) connections.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no connection is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn index(&self, id: ConnId) -> Option<usize> {
        id.0.checked_sub(self.base)
            .map(|i| i as usize)
            .filter(|&i| i < self.slots.len())
    }

    /// The live connection `id`, if any.
    pub fn get(&self, id: ConnId) -> Option<&Connection> {
        match self.index(id).map(|i| &self.slots[i]) {
            Some(ConnSlot::Live(c)) => Some(c),
            _ => None,
        }
    }

    /// Mutable access to the live connection `id`.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut Connection> {
        match self.index(id).map(|i| &mut self.slots[i]) {
            Some(ConnSlot::Live(c)) => Some(c),
            _ => None,
        }
    }

    /// True if `id` is live.
    pub fn contains(&self, id: ConnId) -> bool {
        self.get(id).is_some()
    }

    /// Insert an opened connection. Its id must come from the
    /// simulator's dense allocator and must not already be live.
    pub fn insert(&mut self, c: Connection) {
        let id = c.id;
        debug_assert!(id.0 >= self.base, "reusing a reclaimed ConnId");
        let idx = (id.0 - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, ConnSlot::default);
        }
        debug_assert!(
            matches!(self.slots[idx], ConnSlot::Vacant),
            "double insert of ConnId {}",
            id.0
        );
        self.slots[idx] = ConnSlot::Live(c);
        self.live += 1;
    }

    /// Remove and return the live connection `id`, reclaiming any
    /// resolved prefix of the window.
    pub fn remove(&mut self, id: ConnId) -> Option<Connection> {
        let idx = self.index(id)?;
        match std::mem::replace(&mut self.slots[idx], ConnSlot::Dead) {
            ConnSlot::Live(c) => {
                self.live -= 1;
                while matches!(self.slots.front(), Some(ConnSlot::Dead)) {
                    self.slots.pop_front();
                    self.base += 1;
                }
                Some(c)
            }
            prev => {
                // Not live: put the original tag back untouched.
                self.slots[idx] = prev;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_id_ordering() {
        assert!(ConnId(1) < ConnId(2));
    }

    #[test]
    fn default_tuning_is_inert() {
        let t = TcpTuning::default();
        assert!(t.src_port.is_none());
        assert!(t.ts_clock.is_none());
        assert!(t.ttl.is_none());
        assert!(!t.random_ip_id);
    }

    fn seg(seq: u32, len: usize, fin: bool) -> Packet {
        use crate::packet::{Ipv4, TcpFlags};
        Packet {
            sent_at: crate::time::SimTime::ZERO,
            src: (Ipv4::new(1, 1, 1, 1), 1),
            dst: (Ipv4::new(2, 2, 2, 2), 2),
            flags: if fin {
                TcpFlags::FIN_ACK
            } else {
                TcpFlags::PSH_ACK
            },
            seq,
            ack: 0,
            window: 65535,
            ttl: 64,
            ip_id: 0,
            tsval: Some(0),
            payload: bytes::Bytes::from(vec![7u8; len]),
            conn: ConnId(1),
            retx: false,
        }
    }

    #[test]
    fn sequencer_reorders_and_dedups() {
        let base = u32::MAX - 5; // exercise wraparound mid-stream
        let mut dir = DirSeq::new(base);
        // Segment B (offset 10) overtakes segment A (offset 0).
        let b = seg(base.wrapping_add(10), 10, false);
        assert_eq!(dir.accept(b), SeqVerdict::Buffered);
        let a = seg(base, 10, false);
        assert_eq!(dir.accept(a.clone()), SeqVerdict::InOrder);
        dir.advance(&a);
        let drained = dir.pop_ready().expect("gap filled");
        assert_eq!(drained.seq, base.wrapping_add(10));
        dir.advance(&drained);
        assert!(dir.pop_ready().is_none());
        // A stale retransmission of A is a duplicate.
        assert_eq!(dir.accept(a), SeqVerdict::Duplicate);
    }

    #[test]
    fn sequencer_orders_fin_after_data() {
        let mut dir = DirSeq::new(100);
        // FIN (consuming one sequence slot) arrives before the data.
        let fin = seg(104, 0, true);
        assert_eq!(dir.accept(fin), SeqVerdict::Buffered);
        let data = seg(100, 4, false);
        assert_eq!(dir.accept(data.clone()), SeqVerdict::InOrder);
        dir.advance(&data);
        let drained = dir.pop_ready().expect("fin ready");
        assert!(drained.flags.fin);
        dir.advance(&drained);
        // Duplicate FIN is suppressed.
        assert_eq!(dir.accept(seg(104, 0, true)), SeqVerdict::Duplicate);
    }

    #[test]
    fn duplicate_buffered_segment_kept_once() {
        let mut dir = DirSeq::new(0);
        assert_eq!(dir.accept(seg(8, 8, false)), SeqVerdict::Buffered);
        assert_eq!(dir.accept(seg(8, 8, false)), SeqVerdict::Buffered);
        let first = seg(0, 8, false);
        dir.advance(&first);
        let drained = dir.pop_ready().expect("one copy");
        dir.advance(&drained);
        assert!(dir.pop_ready().is_none(), "second copy was not stored");
    }
}
