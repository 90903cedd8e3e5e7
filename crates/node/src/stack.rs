//! Per-node state: MAC queues, adaptation layer, IP forwarding,
//! transport sockets, application, and energy meter.
//!
//! The event-handling logic lives in [`crate::world`]; this module owns
//! the data and the pure helpers. One `Node` is one mote (or the cloud
//! host / an interferer).

use crate::app::App;
use crate::route::RouteTable;
use crate::supervisor::SupervisedConnection;
use lln_coap::{CoapClient, CoapServer};
use lln_energy::EnergyMeter;
use lln_mac::csma::{MacConfig, TxProcess};
use lln_mac::frame::{MacFrame, MAX_MAC_PAYLOAD};
use lln_mac::pool::{FrameBuf, FramePool};
use lln_netip::{
    BoundedDeque, BufPool, Ecn, FifoQueue, Ipv6Addr, Ipv6Header, NodeId, RedConfig, RedQueue,
};
use lln_phy::medium::TxHandle;
use lln_sim::stats::Counters;
use lln_sim::{Duration, EventToken, Instant};
use lln_sixlowpan::{Fragmenter, IphcCache, Reassembler, ReassemblyLimits};
use lln_uip::UipSocket;
use std::collections::{HashMap, HashSet, VecDeque};
use tcplp::mem::{IP_OVERHEAD_BYTES, MAC_FRAME_BYTES};
use tcplp::{ListenSocket, MemClass, MemGovernor, NodeBudget, TcpSocket};

/// Role of a node in the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Always-on mesh router.
    Router,
    /// The border router: mesh on one side, the wired link on the other.
    BorderRouter,
    /// Duty-cycled leaf (Thread sleepy end device).
    SleepyLeaf,
    /// The cloud server behind the border router (no radio activity).
    CloudHost,
    /// A pure interference source (jams, never communicates).
    Interferer,
}

/// Which transport stack a node runs (for reporting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKind {
    /// No transport.
    None,
    /// Full-scale TCPlp.
    Tcplp,
    /// The uIP-class simplified TCP baseline.
    Uip,
    /// CoAP (confirmable or not, per client config).
    Coap,
}

/// Transport sockets hosted on a node.
#[derive(Default)]
pub struct TransportStack {
    /// Passive TCP socket.
    pub tcp_listener: Option<ListenSocket>,
    /// Active TCP sockets (client-side or accepted).
    pub tcp: Vec<TcpSocket>,
    /// uIP-class socket.
    pub uip: Option<UipSocket>,
    /// CoAP client (sensor side).
    pub coap_client: Option<CoapClient>,
    /// CoAP server (cloud side).
    pub coap_server: Option<CoapServer>,
}

/// A packet waiting at the IP layer.
#[derive(Clone, Debug)]
pub struct OutPacket {
    /// IPv6 header (payload_len maintained by the stack).
    pub hdr: Ipv6Header,
    /// Transport payload (full TCP segment or UDP datagram bytes).
    pub payload: Vec<u8>,
    /// Link-layer next hop.
    pub next_hop: NodeId,
}

/// The IP-layer queue discipline on a node.
pub enum IpQueue {
    /// FIFO with tail drop (default; Appendix A's baseline).
    Fifo(FifoQueue<OutPacket>),
    /// RED with ECN marking (Appendix A's fix).
    Red(RedQueue<OutPacket>),
}

impl IpQueue {
    /// Byte weight a packet charges against the IP-queue budget.
    fn weight(pkt: &OutPacket) -> usize {
        pkt.payload.len() + IP_OVERHEAD_BYTES
    }

    /// Offers a packet; RED may CE-mark the stored copy. Returns false
    /// on drop (tail drop on packets *or* bytes for FIFO; RED policy
    /// for RED).
    pub fn offer(&mut self, pkt: OutPacket, rand01: f64) -> bool {
        let w = Self::weight(&pkt);
        match self {
            IpQueue::Fifo(q) => {
                matches!(q.offer_weighed(pkt, w), lln_netip::QueueOutcome::Enqueued)
            }
            IpQueue::Red(q) => {
                let ecn = pkt.hdr.ecn;
                !matches!(
                    q.offer_with(pkt, ecn, rand01, |p| p.hdr.ecn = Ecn::Ce),
                    lln_netip::QueueOutcome::Dropped
                )
            }
        }
    }

    /// Pops the head packet.
    pub fn pop(&mut self) -> Option<OutPacket> {
        match self {
            IpQueue::Fifo(q) => q.pop(),
            IpQueue::Red(q) => q.pop(),
        }
    }

    /// Queue depth.
    pub fn len(&self) -> usize {
        match self {
            IpQueue::Fifo(q) => q.len(),
            IpQueue::Red(q) => q.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops so far.
    pub fn drops(&self) -> u64 {
        match self {
            IpQueue::Fifo(q) => q.drops(),
            IpQueue::Red(q) => q.drops(),
        }
    }

    /// Bytes currently queued (headers included), for the node budget.
    pub fn bytes(&self) -> usize {
        match self {
            IpQueue::Fifo(q) => q.bytes(),
            IpQueue::Red(q) => q.iter().map(Self::weight).sum(),
        }
    }
}

/// The in-progress MAC transmission.
pub struct CurrentTx {
    /// The frame being sent (its encoding is cached in the buffer, so
    /// link retries never re-encode).
    pub frame: FrameBuf,
    /// CSMA/retry state machine.
    pub process: TxProcess,
    /// Medium handle while on the air.
    pub handle: Option<TxHandle>,
    /// Pending MAC timer token (backoff/CCA/ack-wait), for cancellation.
    pub timer: Option<EventToken>,
}

/// One simulated node.
pub struct Node {
    /// Node id == radio index.
    pub id: NodeId,
    /// Role.
    pub kind: NodeKind,
    /// MAC configuration (per-node so experiments can vary `d`).
    pub mac_cfg: MacConfig,

    // --- MAC state ---
    /// Control frames (data requests, indirect data) — priority queue,
    /// bounded in frames and bytes by the node budget.
    pub ctrl_queue: BoundedDeque<FrameBuf>,
    /// Frames of the packet currently being sent.
    pub cur_packet_frames: VecDeque<FrameBuf>,
    /// The transmission in progress.
    pub cur_tx: Option<CurrentTx>,
    /// MAC sequence counter.
    pub mac_seq: u8,
    /// Duplicate detection: last seq seen per neighbour.
    pub last_rx_seq: HashMap<NodeId, u8>,

    // --- fault state ---
    /// True while the node is powered off (mid-reboot): it neither
    /// transmits, receives, nor runs timers, but its energy meter keeps
    /// accumulating (battery time passes).
    pub down: bool,
    /// Per-bit flip probability applied to frames this node receives
    /// (set during a [`crate::fault::FaultEvent::BitErrorBurst`]).
    pub ber: Option<f64>,
    /// Adversarial interposer on this node's inbound TCP path (torture
    /// suite; see [`crate::adversary`]).
    pub adversary: Option<crate::adversary::Adversary>,
    /// Resource-exhaustion attacker injecting forged SYNs/fragments at
    /// this node (overload suite; see [`crate::flood`]).
    pub flooder: Option<crate::flood::Flooder>,

    // --- radio state ---
    /// Radio powered (sleepy leaves toggle this).
    pub awake: bool,
    /// When the current listen period started (a frame is received only
    /// if we listened for its entire duration).
    pub listen_since: Instant,
    /// True while our own frame is on the air.
    pub transmitting: bool,

    // --- adaptation / IP ---
    /// 6LoWPAN reassembly.
    pub reassembler: Reassembler,
    /// Fragmentation tag counter.
    pub frag_tag: u16,
    /// IP send/forward queue.
    pub ip_queue: IpQueue,
    /// Routing table.
    pub routes: RouteTable,
    /// Uniform packet-loss rate injected when forwarding (the §9.4
    /// knob; nonzero only on the border router).
    pub inject_loss: f64,

    // --- sleepy children (router side) ---
    /// Children that sleep; packets for them go to the indirect queue.
    pub sleepy_children: HashSet<NodeId>,
    /// Indirect packet queue per sleepy child, bounded per child.
    pub indirect: HashMap<NodeId, BoundedDeque<OutPacket>>,

    // --- sleepy leaf state ---
    /// Poll scheduler (leaf).
    pub poll: Option<lln_mac::poll::PollScheduler>,
    /// Token for the pending poll-wake event.
    pub poll_timer: Option<EventToken>,
    /// Deadline token for the listen window after a poll.
    pub poll_window: Option<EventToken>,
    /// A data request is in flight / response expected.
    pub polling: bool,
    /// Whether the current wake period fetched a downstream frame
    /// (drives the adaptive Trickle interval, Appendix C).
    pub poll_got_frame: bool,

    // --- transport / app ---
    /// Transport sockets.
    pub transport: TransportStack,
    /// Which transport this node reports as.
    pub transport_kind: TransportKind,
    /// Pending transport-timer token.
    pub transport_timer: Option<EventToken>,
    /// Reconnecting connection supervisor (survives reboots, like a
    /// flash-backed record queue).
    pub supervisor: Option<SupervisedConnection>,
    /// Application.
    pub app: App,

    // --- datapath fast path ---
    /// Reusable packet buffers: encoded segments, forwarded payloads
    /// and reassembled datagrams (see [`BufPool`]).
    pub seg_bufs: BufPool,
    /// Per-neighbor IPHC compressed-header cache (tx fast path).
    pub iphc_cache: IphcCache,
    /// Scratch the IPHC compressor writes into, reused per packet.
    pub compress_buf: Vec<u8>,

    // --- accounting ---
    /// Energy meter.
    pub meter: EnergyMeter,
    /// Per-node counters (frames sent, drops, forwards...).
    pub counters: Counters,
    /// The memory budget every bounded structure above derives from.
    pub budget: NodeBudget,
    /// Cross-layer memory governor: per-class gauges, high-water marks
    /// and deny/evict counters (see [`Node::sync_governor`]).
    pub governor: MemGovernor,
}

impl Node {
    /// Creates a node with the given role and the default memory
    /// budget (use [`Node::apply_budget`] to change it before traffic).
    pub fn new(id: NodeId, kind: NodeKind, mac_cfg: MacConfig, now: Instant) -> Self {
        let budget = NodeBudget::default();
        let awake = kind != NodeKind::SleepyLeaf;
        let mut meter = EnergyMeter::new(now);
        if awake && kind != NodeKind::CloudHost && kind != NodeKind::Interferer {
            meter.set_radio_state(lln_energy::RadioState::Rx, now);
        }
        Node {
            id,
            kind,
            mac_cfg,
            ctrl_queue: Self::ctrl_queue_for(&budget),
            cur_packet_frames: VecDeque::new(),
            cur_tx: None,
            // De-correlate sequence counters across nodes so overheard
            // ACKs rarely carry a matching sequence number.
            mac_seq: (id.0 as u8).wrapping_mul(37),
            last_rx_seq: HashMap::new(),
            down: false,
            ber: None,
            adversary: None,
            flooder: None,
            awake,
            listen_since: now,
            transmitting: false,
            reassembler: Self::reassembler_for(&budget),
            frag_tag: id.0,
            ip_queue: Self::ip_queue_for(&budget),
            routes: RouteTable::new(),
            inject_loss: 0.0,
            sleepy_children: HashSet::new(),
            indirect: HashMap::new(),
            poll: None,
            poll_timer: None,
            poll_window: None,
            polling: false,
            poll_got_frame: false,
            transport: TransportStack::default(),
            transport_kind: TransportKind::None,
            transport_timer: None,
            supervisor: None,
            app: App::None,
            seg_bufs: BufPool::default(),
            iphc_cache: IphcCache::new(),
            compress_buf: Vec::new(),
            meter,
            counters: Counters::new(),
            governor: MemGovernor::new(budget.clone()),
            budget,
        }
    }

    /// The budget-derived control queue (frames + bytes bounded).
    fn ctrl_queue_for(budget: &NodeBudget) -> BoundedDeque<FrameBuf> {
        BoundedDeque::new(budget.ctrl_queue_frames, budget.cap(MemClass::MacQueue))
    }

    /// The budget-derived FIFO IP queue (packets + bytes bounded).
    fn ip_queue_for(budget: &NodeBudget) -> IpQueue {
        IpQueue::Fifo(FifoQueue::with_byte_bound(
            budget.ip_queue_packets,
            budget.cap(MemClass::IpQueue),
        ))
    }

    /// A budget-derived 6LoWPAN reassembler (quotas from the budget's
    /// reassembly class).
    pub fn reassembler_for(budget: &NodeBudget) -> Reassembler {
        Reassembler::with_limits(ReassemblyLimits {
            max_slots: budget.reassembly_slots,
            per_source_slots: budget.reassembly_per_source,
            max_bytes: budget.cap(MemClass::Reassembly),
            timeout: Duration::from_secs(4),
        })
    }

    /// Replaces the node's memory budget, rebuilding every bounded
    /// structure derived from it. Call before traffic flows (queues
    /// are reset empty).
    pub fn apply_budget(&mut self, budget: NodeBudget) {
        self.ctrl_queue = Self::ctrl_queue_for(&budget);
        self.reassembler = Self::reassembler_for(&budget);
        if matches!(self.ip_queue, IpQueue::Fifo(_)) {
            self.ip_queue = Self::ip_queue_for(&budget);
        }
        self.indirect.clear();
        self.governor = MemGovernor::new(budget.clone());
        self.budget = budget;
    }

    /// Switches this node's IP queue to RED/ECN (Appendix A).
    pub fn use_red_queue(&mut self, cfg: RedConfig) {
        self.ip_queue = IpQueue::Red(RedQueue::new(cfg));
    }

    /// Appends a control frame, charging its bytes against the MAC
    /// class; counts (and reports) a drop when the budget refuses.
    pub fn enqueue_ctrl(&mut self, frame: FrameBuf) -> bool {
        let w = frame.frame().payload.len() + MAC_FRAME_BYTES;
        if self.ctrl_queue.push_back(frame, w) {
            true
        } else {
            self.governor.note_deny(MemClass::MacQueue);
            self.counters.inc("ctrl_queue_drops");
            false
        }
    }

    /// Appends a packet to a sleepy child's indirect queue, bounded by
    /// the budget's per-child packet quota and the MAC byte class.
    pub fn enqueue_indirect(&mut self, child: NodeId, pkt: OutPacket) -> bool {
        let w = pkt.payload.len() + IP_OVERHEAD_BYTES;
        let slots = self.budget.indirect_packets;
        let cap = self.budget.cap(MemClass::MacQueue);
        let q = self
            .indirect
            .entry(child)
            .or_insert_with(|| BoundedDeque::new(slots, cap));
        if q.push_back(pkt, w) {
            true
        } else {
            self.governor.note_deny(MemClass::MacQueue);
            self.counters.inc("indirect_drops");
            false
        }
    }

    /// Bytes currently accounted to `class` by walking the owning
    /// structures (the governor's gauges are synced from this).
    pub fn accounted_bytes(&self, class: MemClass) -> usize {
        match class {
            MemClass::TcpBuffers => self
                .transport
                .tcp
                .iter()
                .map(TcpSocket::mem_footprint)
                .sum(),
            MemClass::SynCache => self
                .transport
                .tcp_listener
                .as_ref()
                .map_or(0, ListenSocket::half_open_bytes),
            MemClass::Reassembly => self.reassembler.pending_bytes(),
            MemClass::IpQueue => self.ip_queue.bytes(),
            MemClass::MacQueue => {
                let cur: usize = self
                    .cur_packet_frames
                    .iter()
                    .map(|f| f.frame().payload.len() + MAC_FRAME_BYTES)
                    .sum();
                let ind: usize = self.indirect.values().map(BoundedDeque::bytes).sum();
                self.ctrl_queue.bytes() + cur + ind
            }
            MemClass::CoapRetx => self
                .transport
                .coap_client
                .as_ref()
                .map_or(0, CoapClient::pending_bytes),
        }
    }

    /// Recomputes every class gauge from the owning structures. Cheap
    /// (sums over short queues); called by the world after any step
    /// that can change occupancy, so high-water marks are exact.
    pub fn sync_governor(&mut self) {
        for class in MemClass::ALL {
            let bytes = self.accounted_bytes(class);
            self.governor.set_gauge(class, bytes);
        }
    }

    /// The node's mesh-local address (cloud hosts use the cloud prefix).
    pub fn ip_addr(&self) -> Ipv6Addr {
        match self.kind {
            NodeKind::CloudHost => self.id.cloud_addr(),
            _ => self.id.mesh_addr(),
        }
    }

    /// Next MAC sequence number.
    pub fn next_seq(&mut self) -> u8 {
        self.mac_seq = self.mac_seq.wrapping_add(1);
        self.mac_seq
    }

    /// Compresses `pkt` for its next hop through the per-neighbour
    /// IPHC cache and fragments it straight into pooled MAC frames that
    /// carry the frame-pending bit `pending`, handing each frame to
    /// `emit` in order. The payload buffer goes back to
    /// [`Node::seg_bufs`].
    pub(crate) fn frame_packet(
        &mut self,
        pool: &mut FramePool,
        pkt: OutPacket,
        pending: bool,
        mut emit: impl FnMut(&mut Node, FrameBuf),
    ) {
        let (src_l2, dst_l2) = (self.id, pkt.next_hop);
        let mut compressed = std::mem::take(&mut self.compress_buf);
        self.iphc_cache
            .compress_into(&pkt.hdr, src_l2, dst_l2, &pkt.payload, &mut compressed);
        let tag = self.next_tag();
        let mut frags = Fragmenter::new(&compressed, tag, MAX_MAC_PAYLOAD);
        while !frags.is_done() {
            let mut header = MacFrame::data(src_l2, dst_l2, self.next_seq(), Vec::new());
            header.pending = pending;
            let frame = pool.alloc_with(header, |payload| {
                frags.write_next(payload);
            });
            emit(self, frame);
        }
        self.compress_buf = compressed;
        self.seg_bufs.put(pkt.payload);
    }

    /// Next 6LoWPAN datagram tag.
    pub fn next_tag(&mut self) -> u16 {
        self.frag_tag = self.frag_tag.wrapping_add(1);
        self.frag_tag
    }

    /// Is a duplicate of an already-processed frame? Updates the table.
    pub fn check_duplicate(&mut self, src: NodeId, seq: u8) -> bool {
        match self.last_rx_seq.insert(src, seq) {
            Some(prev) => prev == seq,
            None => false,
        }
    }

    /// True when the MAC has nothing to send.
    pub fn mac_idle(&self) -> bool {
        self.cur_tx.is_none()
            && self.ctrl_queue.is_empty()
            && self.cur_packet_frames.is_empty()
            && self.ip_queue.is_empty()
    }

    /// Whether the transport expects inbound traffic soon (drives the
    /// §9.2 fast-poll behaviour on sleepy leaves).
    pub fn expecting_response(&self) -> bool {
        let tcp_waiting = self
            .transport
            .tcp
            .iter()
            .any(|s| s.flight_size() > 0 || s.state() == tcplp::TcpState::SynSent);
        let coap_waiting = self
            .transport
            .coap_client
            .as_ref()
            .is_some_and(CoapClient::expecting_response);
        tcp_waiting || coap_waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(kind: NodeKind) -> Node {
        Node::new(NodeId(3), kind, MacConfig::default(), Instant::ZERO)
    }

    #[test]
    fn router_starts_awake_leaf_asleep() {
        assert!(node(NodeKind::Router).awake);
        assert!(!node(NodeKind::SleepyLeaf).awake);
    }

    #[test]
    fn addresses_by_kind() {
        assert!(node(NodeKind::Router).ip_addr().is_mesh_local());
        assert!(!node(NodeKind::CloudHost).ip_addr().is_mesh_local());
    }

    #[test]
    fn duplicate_detection_per_source() {
        let mut n = node(NodeKind::Router);
        assert!(!n.check_duplicate(NodeId(1), 5));
        assert!(n.check_duplicate(NodeId(1), 5));
        assert!(!n.check_duplicate(NodeId(1), 6));
        assert!(!n.check_duplicate(NodeId(2), 6), "per-source tracking");
    }

    #[test]
    fn seq_and_tag_advance() {
        let mut n = node(NodeKind::Router);
        let a = n.next_seq();
        let b = n.next_seq();
        assert_ne!(a, b);
        assert_ne!(n.next_tag(), n.next_tag());
    }

    #[test]
    fn mac_idle_accounting() {
        let mut n = node(NodeKind::Router);
        assert!(n.mac_idle());
        assert!(n.enqueue_ctrl(FrameBuf::new(MacFrame::data(NodeId(3), NodeId(1), 0, vec![]))));
        assert!(!n.mac_idle());
    }

    #[test]
    fn ctrl_queue_bounded_by_budget() {
        let mut n = node(NodeKind::Router);
        let frames = n.budget.ctrl_queue_frames;
        for k in 0..frames {
            assert!(
                n.enqueue_ctrl(FrameBuf::new(MacFrame::data(
                    NodeId(3),
                    NodeId(1),
                    k as u8,
                    vec![0; 8]
                ))),
                "frame {k} fits"
            );
        }
        assert!(!n.enqueue_ctrl(FrameBuf::new(MacFrame::data(NodeId(3), NodeId(1), 0, vec![0; 8]))));
        assert_eq!(n.counters.get("ctrl_queue_drops"), 1);
        assert_eq!(n.governor.denies(MemClass::MacQueue), 1);
    }

    #[test]
    fn governor_gauges_track_structures() {
        let mut n = node(NodeKind::Router);
        n.sync_governor();
        assert_eq!(n.governor.total_gauge(), 0, "idle node pins nothing");
        let pkt = OutPacket {
            hdr: Ipv6Header::new(
                NodeId(3).mesh_addr(),
                NodeId(1).mesh_addr(),
                lln_netip::NextHeader::Tcp,
                100,
            ),
            payload: vec![0; 100],
            next_hop: NodeId(1),
        };
        assert!(n.ip_queue.offer(pkt, 0.5));
        n.sync_governor();
        assert_eq!(
            n.governor.gauge(MemClass::IpQueue),
            (100 + IP_OVERHEAD_BYTES) as u64
        );
        n.ip_queue.pop();
        n.sync_governor();
        assert_eq!(n.governor.gauge(MemClass::IpQueue), 0);
        assert_eq!(
            n.governor.high_water(MemClass::IpQueue),
            (100 + IP_OVERHEAD_BYTES) as u64,
            "high-water survives the drain"
        );
    }

    #[test]
    fn ip_queue_fifo_drops_when_full() {
        let mut n = node(NodeKind::Router);
        let pkt = OutPacket {
            hdr: Ipv6Header::new(
                NodeId(3).mesh_addr(),
                NodeId(1).mesh_addr(),
                lln_netip::NextHeader::Tcp,
                0,
            ),
            payload: vec![],
            next_hop: NodeId(1),
        };
        for _ in 0..24 {
            assert!(n.ip_queue.offer(pkt.clone(), 0.5));
        }
        assert!(!n.ip_queue.offer(pkt, 0.5));
        assert_eq!(n.ip_queue.drops(), 1);
        assert_eq!(n.ip_queue.len(), 24);
    }
}
