//! The discrete-event world: one radio medium, N full-stack nodes, a
//! wired border↔cloud link, interferers, and the event loop.
//!
//! Every paper experiment is a `World` configured with a topology,
//! per-node roles/transports/apps, and a simulated duration. The event
//! loop is strictly deterministic: one seeded RNG, tie-broken event
//! ordering, no wall clock.

use crate::app::{AnemometerApp, App, InterfererApp, READING_BYTES};
use crate::fault::{FaultEvent, FaultPlan};
use crate::route::Topology;
use crate::stack::{CurrentTx, Node, NodeKind, OutPacket, TransportKind};
use crate::supervisor::{SupervisedConnection, SupervisorConfig, SupervisorStats};
use crate::trace::{summarize_frame, summarize_packet, TraceDir};
use lln_coap::{CoapClient, CoapServer};
use lln_energy::RadioState;
use lln_mac::csma::{MacConfig, TxProcess, TxStep};
use lln_mac::frame::{FrameType, MacFrame, CMD_DATA_REQUEST};
use lln_mac::pool::{FrameBuf, FramePool};
use lln_netip::{Ecn, Ipv6Addr, Ipv6Header, NextHeader, NodeId, UdpHeader};
use lln_phy::medium::TxHandle;
use lln_phy::{Medium, PhyConfig, RadioIdx};
use lln_sim::{Duration, EventQueue, Instant, Rng};
use lln_sixlowpan::iphc;
use std::collections::HashMap;
use tcplp::{ListenStats, ListenerResponse, MemClass, NodeBudget, Segment, TcpConfig, TcpSocket};

/// CoAP's registered port.
pub const COAP_PORT: u16 = 5683;
/// The cloud TCP service port.
pub const TCP_PORT: u16 = 80;

/// World-level configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// PHY timing.
    pub phy: PhyConfig,
    /// Default MAC parameters (per-node copies may be adjusted).
    pub mac: MacConfig,
    /// RNG seed.
    pub seed: u64,
    /// One-way wired latency border↔cloud (paper: ~12 ms RTT).
    pub wired_latency: Duration,
    /// CPU charge per MAC frame handled (tx or rx).
    pub cpu_per_frame: Duration,
    /// CPU charge per transport segment/message processed.
    pub cpu_per_segment: Duration,
    /// Listen window after a data-request poll (sleepy leaves).
    pub poll_window: Duration,
    /// Per-node memory budget (TCP buffers, SYN cache, reassembly,
    /// queues). Applied to every node at world construction.
    pub budget: NodeBudget,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            phy: PhyConfig::default(),
            mac: MacConfig::default(),
            seed: 0x5eed,
            wired_latency: Duration::from_millis(6),
            cpu_per_frame: Duration::from_micros(800),
            cpu_per_segment: Duration::from_micros(600),
            poll_window: Duration::from_millis(100),
            budget: NodeBudget::default(),
        }
    }
}

/// Events in the world.
pub enum Event {
    /// CSMA backoff elapsed: start a CCA measurement.
    MacTimer(usize),
    /// CCA measurement done: query the medium.
    CcaDone(usize),
    /// Platform (SPI) transfer done: frame goes on the air.
    SpiDone(usize),
    /// Frame air time over: resolve deliveries.
    AirDone(usize),
    /// Link ACK wait expired.
    AckTimeout(usize),
    /// Receiver turnaround done: link ACK goes on the air.
    LinkAckStart(usize, u8, bool),
    /// Link ACK air time over.
    LinkAckDone(usize),
    /// A transport timer may have expired.
    TransportTimer(usize),
    /// Sleepy leaf wakes to poll its parent.
    PollWake(usize),
    /// Sleepy leaf's post-poll listen window expired.
    PollWindowEnd(usize),
    /// Application tick (reading generation, bulk start...).
    AppTick(usize),
    /// Wired packet arrives at node (border or cloud).
    WiredDeliver(usize, Ipv6Header, Vec<u8>),
    /// Adversary-delayed (reordered/duplicated/forged) TCP bytes reach
    /// the node's transport input. Bypasses the adversary on arrival so
    /// mangled traffic is never re-mangled.
    AdversaryDeliver(usize, Ipv6Header, Vec<u8>),
    /// Interferer begins a burst.
    InterfererStart(usize),
    /// Interferer burst ends.
    InterfererEnd(usize),
    /// Fault: node loses power for the given span.
    FaultRebootDown(usize, Duration),
    /// Fault: node cold-boots after a reboot.
    FaultRebootUp(usize),
    /// Fault: link a↔b goes dark for the given span.
    FaultBlackoutStart(usize, usize, Duration),
    /// Fault: blackout over; restore the saved PRRs (a→b, b→a).
    FaultBlackoutEnd(usize, usize, f64, f64),
    /// Fault: node reselects its routing parent.
    FaultRouteFlap(usize),
    /// Fault: receiver-side bit errors at the given BER for the span.
    FaultBerStart(usize, f64, Duration),
    /// Fault: bit-error burst over.
    FaultBerEnd(usize),
    /// Flooder tick: the attacker injects forged traffic at the node.
    FloodTick(usize),
}

/// The simulation world.
pub struct World {
    /// Configuration.
    pub cfg: WorldConfig,
    /// Event queue.
    pub queue: EventQueue<Event>,
    /// Shared radio medium.
    pub medium: Medium,
    /// Nodes, indexed by radio index (== NodeId value).
    pub nodes: Vec<Node>,
    /// World RNG.
    pub rng: Rng,
    /// Border router index (wired hub), if any.
    pub border: Option<usize>,
    /// Cloud host index, if any.
    pub cloud: Option<usize>,
    ack_handles: HashMap<usize, (TxHandle, FrameBuf, Instant)>,
    interferer_handles: HashMap<usize, (TxHandle, Instant)>,
    /// Recycles frame-buffer allocations across transmissions.
    pub pool: FramePool,
    /// Optional tcpdump-style event log (see [`crate::trace`]).
    pub trace: crate::trace::PacketTrace,
    /// Reused per frame: the radios listening, then their outcomes.
    listeners: Vec<RadioIdx>,
    outcomes: Vec<(RadioIdx, bool)>,
    /// Reused per transport pump: the packets the node emits.
    tx_out: Vec<(Ipv6Header, Vec<u8>)>,
}

impl World {
    /// Builds a world over `topology`, with per-node kinds.
    pub fn new(topology: &Topology, kinds: &[NodeKind], cfg: WorldConfig) -> Self {
        assert_eq!(topology.links.len(), kinds.len());
        let mut rng = Rng::new(cfg.seed);
        let medium = Medium::new(topology.links.clone(), rng.fork(0xAA));
        let now = Instant::ZERO;
        let mut nodes: Vec<Node> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let mut n = Node::new(NodeId(i as u16), k, cfg.mac.clone(), now);
                n.apply_budget(cfg.budget.clone());
                n
            })
            .collect();
        let mut border = None;
        let mut cloud = None;
        for (i, node) in nodes.iter_mut().enumerate() {
            node.routes = topology.routes[i].clone();
            match node.kind {
                NodeKind::BorderRouter => border = Some(i),
                NodeKind::CloudHost => cloud = Some(i),
                _ => {}
            }
        }
        // Register sleepy children with their parents, and point leaves'
        // default routes at their parent. Without a border router the
        // parent is the route toward node 0 (single-hop experiments).
        let anchor = border.unwrap_or(0);
        for i in 0..nodes.len() {
            if nodes[i].kind == NodeKind::SleepyLeaf && i != anchor {
                if let Some(parent) = nodes[i].routes.lookup(NodeId(anchor as u16)) {
                    nodes[i].routes.default_route = Some(parent);
                    nodes[parent.0 as usize].sleepy_children.insert(NodeId(i as u16));
                    nodes[i].poll = Some(lln_mac::poll::PollScheduler::new(
                        lln_mac::poll::PollMode::paper_fixed(),
                    ));
                }
            }
        }
        // Default routes for everyone toward the border (for the cloud
        // prefix).
        if let Some(b) = border {
            for (i, node) in nodes.iter_mut().enumerate() {
                if i != b && node.kind != NodeKind::CloudHost {
                    let via = node.routes.lookup(NodeId(b as u16));
                    if node.routes.default_route.is_none() {
                        node.routes.default_route = via;
                    }
                }
            }
        }
        let mut world = World {
            cfg,
            queue: EventQueue::new(),
            medium,
            nodes,
            rng,
            border,
            cloud,
            ack_handles: HashMap::new(),
            interferer_handles: HashMap::new(),
            pool: FramePool::default(),
            trace: crate::trace::PacketTrace::new(),
            listeners: Vec::new(),
            outcomes: Vec::new(),
            tx_out: Vec::new(),
        };
        // Sleepy leaves begin their poll schedule immediately (spread
        // out to avoid synchronised polls).
        for i in 0..world.nodes.len() {
            if world.nodes[i].kind == NodeKind::SleepyLeaf {
                let jitter = Duration::from_millis(50 + 37 * i as u64);
                let tok = world
                    .queue
                    .schedule(Instant::ZERO + jitter, Event::PollWake(i));
                world.nodes[i].poll_timer = Some(tok);
            }
        }
        world
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.queue.now()
    }

    /// Enables the packet trace (bounded at `capacity` entries).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    // ------------------------------------------------------------------
    // Experiment setup helpers
    // ------------------------------------------------------------------

    /// Installs a TCPlp listener on `server` (port 80). The SYN cache
    /// is sized from the node's memory budget.
    pub fn add_tcp_listener(&mut self, server: usize, cfg: TcpConfig) {
        let addr = self.nodes[server].ip_addr();
        let scfg = tcplp::SynCacheConfig {
            slots: self.nodes[server].budget.syn_cache_slots,
            accept_backlog: self.nodes[server].budget.accept_backlog,
            ..tcplp::SynCacheConfig::default()
        };
        self.nodes[server].transport.tcp_listener =
            Some(tcplp::ListenSocket::with_syn_cache(cfg, addr, TCP_PORT, scfg));
        self.nodes[server].transport_kind = TransportKind::Tcplp;
    }

    /// Creates a TCPlp client socket on `client` targeting `server`,
    /// connecting at `at`. Returns the index of the socket in the
    /// node's `transport.tcp` vector.
    pub fn add_tcp_client(
        &mut self,
        client: usize,
        server: usize,
        cfg: TcpConfig,
        at: Instant,
    ) -> usize {
        let caddr = self.nodes[client].ip_addr();
        let saddr = self.nodes[server].ip_addr();
        let port = 49152 + self.nodes[client].transport.tcp.len() as u16;
        let mut sock = TcpSocket::new(cfg, caddr, port);
        let iss = self.rng.next_u64() as u32;
        sock.connect(saddr, TCP_PORT, iss, at);
        self.nodes[client].transport.tcp.push(sock);
        self.nodes[client].transport_kind = TransportKind::Tcplp;
        let idx = self.nodes[client].transport.tcp.len() - 1;
        self.queue.schedule(at, Event::TransportTimer(client));
        idx
    }

    /// Creates a uIP-class client socket on `client` targeting the
    /// TCPlp listener on `server` (Table 7's baseline stacks).
    pub fn add_uip_client(
        &mut self,
        client: usize,
        server: usize,
        cfg: lln_uip::UipConfig,
        at: Instant,
    ) {
        let caddr = self.nodes[client].ip_addr();
        let saddr = self.nodes[server].ip_addr();
        let mut sock = lln_uip::UipSocket::new(cfg, caddr, 49152);
        let iss = self.rng.next_u64() as u32;
        sock.connect(saddr, TCP_PORT, iss, at);
        self.nodes[client].transport.uip = Some(sock);
        self.nodes[client].transport_kind = TransportKind::Uip;
        self.queue.schedule(at, Event::TransportTimer(client));
    }

    /// Overrides a sleepy leaf's poll schedule (Appendix C sweeps).
    pub fn set_poll_mode(&mut self, node: usize, mode: lln_mac::poll::PollMode) {
        self.nodes[node].poll = Some(lln_mac::poll::PollScheduler::new(mode));
    }

    /// Kicks a sleepy leaf's polling off at `at` (used when a custom
    /// poll mode should start polling immediately rather than waiting
    /// out the default idle interval).
    pub fn schedule_poll(&mut self, node: usize, at: Instant) {
        if let Some(tok) = self.nodes[node].poll_timer.take() {
            self.queue.cancel(tok);
        }
        let tok = self.queue.schedule(at, Event::PollWake(node));
        self.nodes[node].poll_timer = Some(tok);
    }

    /// Configures `node` as a bulk sender over its first TCP socket.
    pub fn set_bulk_sender(&mut self, node: usize, limit: Option<u64>) {
        self.nodes[node].app = App::BulkSender {
            limit,
            sent: 0,
            pattern: 0,
        };
    }

    /// Configures `node` as a sink (drains all sockets).
    pub fn set_sink(&mut self, node: usize) {
        self.nodes[node].app = App::Sink {
            received: 0,
            first_byte: None,
            last_byte: None,
            capture: None,
        };
    }

    /// Configures `node` as a sink that additionally keeps every
    /// received byte, per connection, for integrity checks (chaos
    /// suite).
    pub fn set_sink_capture(&mut self, node: usize) {
        self.nodes[node].app = App::Sink {
            received: 0,
            first_byte: None,
            last_byte: None,
            capture: Some(Vec::new()),
        };
    }

    /// Installs a supervised (auto-reconnecting, record-replaying) TCP
    /// client on `client` targeting the listener on `server`; the first
    /// connect is issued at `at`. See [`crate::supervisor`].
    pub fn add_supervised_client(
        &mut self,
        client: usize,
        server: usize,
        cfg: SupervisorConfig,
        at: Instant,
    ) {
        let caddr = self.nodes[client].ip_addr();
        let saddr = self.nodes[server].ip_addr();
        // A fresh ephemeral-port range per client: each reconnect uses
        // the next port so connections are distinguishable server-side.
        let base_port = 49152 + 128 * client as u16;
        let rng = self.rng.fork(0x50F0 + client as u64);
        self.nodes[client].supervisor = Some(SupervisedConnection::new(
            cfg, caddr, saddr, TCP_PORT, base_port, at, rng,
        ));
        self.nodes[client].transport_kind = TransportKind::Tcplp;
        self.queue.schedule(at, Event::TransportTimer(client));
    }

    /// The supervisor's counters on `node`, if it runs one.
    pub fn supervisor_stats(&self, node: usize) -> Option<SupervisorStats> {
        self.nodes[node].supervisor.as_ref().map(|s| *s.stats())
    }

    /// Schedules every event of `plan` on the sim event queue. Events
    /// execute in deterministic order with everything else, so a run
    /// with a fixed seed and a fixed plan replays bit-identically.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            match *ev {
                FaultEvent::NodeReboot { node, at, down_for } => {
                    self.queue.schedule(at, Event::FaultRebootDown(node, down_for));
                }
                FaultEvent::LinkBlackout { a, b, at, duration } => {
                    self.queue.schedule(at, Event::FaultBlackoutStart(a, b, duration));
                }
                FaultEvent::RouteFlap { node, at } => {
                    self.queue.schedule(at, Event::FaultRouteFlap(node));
                }
                FaultEvent::BitErrorBurst {
                    node,
                    at,
                    duration,
                    ber,
                } => {
                    self.queue.schedule(at, Event::FaultBerStart(node, ber, duration));
                }
            }
        }
    }

    /// Interposes an adversary on `node`'s inbound TCP path (torture
    /// suite). The adversary gets its own RNG stream forked from the
    /// world seed, so a fixed seed replays bit-identically.
    pub fn attach_adversary(&mut self, node: usize, profile: crate::adversary::AdversaryProfile) {
        let rng = self.rng.fork(0xADF0 + node as u64);
        self.nodes[node].adversary = Some(crate::adversary::Adversary::new(profile, rng));
    }

    /// The adversary's counters on `node`, if one is attached.
    pub fn adversary_stats(&self, node: usize) -> Option<crate::adversary::AdversaryStats> {
        self.nodes[node].adversary.as_ref().map(|a| a.stats)
    }

    /// Attaches a resource-exhaustion flooder to `node` (overload
    /// suite). Forged traffic lands directly at the victim's transport
    /// and adaptation inputs, modelling an attacker one hop upstream.
    /// The flooder gets its own forked RNG stream, so a fixed seed
    /// replays the attack bit-identically.
    pub fn attach_flood(&mut self, node: usize, cfg: crate::flood::FloodConfig) {
        let rng = self.rng.fork(0xF100_0D00 + node as u64);
        let start = cfg.start;
        self.nodes[node].flooder = Some(crate::flood::Flooder::new(cfg, rng));
        self.queue.schedule(start, Event::FloodTick(node));
    }

    /// The flooder's counters on `node`, if one is attached.
    pub fn flood_stats(&self, node: usize) -> Option<crate::flood::FloodStats> {
        self.nodes[node].flooder.as_ref().map(|f| f.stats)
    }

    /// Configures the anemometer app on `node`, readings starting at
    /// `start`.
    pub fn set_anemometer(
        &mut self,
        node: usize,
        queue_capacity: usize,
        batch: Option<usize>,
        start: Instant,
    ) {
        self.nodes[node].app = App::Anemometer(AnemometerApp::new(
            Duration::from_secs(1),
            queue_capacity,
            batch,
        ));
        self.queue.schedule(start, Event::AppTick(node));
    }

    /// Installs a CoAP client on `node` posting toward the cloud.
    pub fn add_coap_client(&mut self, node: usize, client: CoapClient) {
        self.nodes[node].transport.coap_client = Some(client);
        self.nodes[node].transport_kind = TransportKind::Coap;
    }

    /// Installs the CoAP server on `node` (usually the cloud host).
    pub fn add_coap_server(&mut self, node: usize) {
        self.nodes[node].transport.coap_server = Some(CoapServer::new());
    }

    /// Starts an interferer node's schedule.
    pub fn start_interferer(&mut self, node: usize, app: InterfererApp, at: Instant) {
        self.nodes[node].app = App::Interferer(app);
        self.queue.schedule(at, Event::InterfererStart(node));
    }

    /// Sets the injected forwarding loss at a node (§9.4: the border).
    pub fn set_injected_loss(&mut self, node: usize, p: f64) {
        self.nodes[node].inject_loss = p;
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: Instant) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.dispatch(now, ev);
        }
    }

    /// Runs for `span` from the current time.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, now: Instant, ev: Event) {
        if self.guard_down_node(&ev, now) {
            return;
        }
        match ev {
            Event::MacTimer(i) => self.on_mac_timer(i, now),
            Event::CcaDone(i) => self.on_cca_done(i, now),
            Event::SpiDone(i) => self.on_spi_done(i, now),
            Event::AirDone(i) => self.on_air_done(i, now),
            Event::AckTimeout(i) => self.on_ack_timeout(i, now),
            Event::LinkAckStart(i, seq, pending) => self.on_link_ack_start(i, seq, pending, now),
            Event::LinkAckDone(i) => self.on_link_ack_done(i, now),
            Event::TransportTimer(i) => self.on_transport_timer(i, now),
            Event::PollWake(i) => self.on_poll_wake(i, now),
            Event::PollWindowEnd(i) => self.on_poll_window_end(i, now),
            Event::AppTick(i) => self.on_app_tick(i, now),
            Event::WiredDeliver(i, hdr, payload) => {
                self.handle_ip_packet(i, hdr, payload, now);
            }
            Event::AdversaryDeliver(i, hdr, payload) => {
                self.nodes[i].meter.add_cpu(self.cfg.cpu_per_segment);
                self.deliver_mangled_tcp(i, &hdr, &payload, now);
                self.pump_transport(i, now);
            }
            Event::InterfererStart(i) => self.on_interferer_start(i, now),
            Event::InterfererEnd(i) => self.on_interferer_end(i, now),
            Event::FaultRebootDown(i, span) => self.on_fault_reboot_down(i, span, now),
            Event::FaultRebootUp(i) => self.on_fault_reboot_up(i, now),
            Event::FaultBlackoutStart(a, b, span) => {
                self.on_fault_blackout_start(a, b, span, now);
            }
            Event::FaultBlackoutEnd(a, b, pab, pba) => {
                self.on_fault_blackout_end(a, b, pab, pba, now);
            }
            Event::FaultRouteFlap(i) => self.on_fault_route_flap(i, now),
            Event::FaultBerStart(i, ber, span) => self.on_fault_ber_start(i, ber, span, now),
            Event::FaultBerEnd(i) => {
                self.nodes[i].ber = None;
            }
            Event::FloodTick(i) => self.on_flood_tick(i, now),
        }
    }

    /// Swallows events addressed to a powered-off node, preserving the
    /// medium invariant (every `begin_tx` is matched by one `end_tx`)
    /// for transmissions the reboot cut mid-air. Returns true when the
    /// event was consumed.
    fn guard_down_node(&mut self, ev: &Event, now: Instant) -> bool {
        let target = match ev {
            Event::MacTimer(i)
            | Event::CcaDone(i)
            | Event::SpiDone(i)
            | Event::AckTimeout(i)
            | Event::TransportTimer(i)
            | Event::PollWake(i)
            | Event::PollWindowEnd(i)
            | Event::AppTick(i)
            | Event::AirDone(i)
            | Event::LinkAckDone(i)
            | Event::LinkAckStart(i, _, _)
            | Event::WiredDeliver(i, _, _)
            | Event::AdversaryDeliver(i, _, _)
            | Event::InterfererStart(i)
            | Event::InterfererEnd(i) => *i,
            _ => return false,
        };
        if !self.nodes[target].down {
            return false;
        }
        match ev {
            Event::AppTick(i) => {
                // The sensing schedule resumes after boot; readings
                // that would have been taken while down are lost at
                // the source (the mote was off).
                if let App::Anemometer(app) = &self.nodes[*i].app {
                    let iv = app.interval;
                    self.queue.schedule(now + iv, Event::AppTick(*i));
                }
            }
            Event::WiredDeliver(i, _, _) | Event::AdversaryDeliver(i, _, _) => {
                self.nodes[*i].counters.inc("down_drops");
            }
            Event::AirDone(i) => {
                // Our own frame was mid-air when the power died: the
                // transmission is cut, nobody decodes it, but the
                // medium record must still close.
                if let Some(tx) = self.nodes[*i].cur_tx.take() {
                    if let Some(handle) = tx.handle {
                        self.medium.end_tx(handle, &[]);
                    }
                    if let Some(tok) = tx.timer {
                        self.queue.cancel(tok);
                    }
                }
            }
            Event::LinkAckDone(i) => {
                if let Some((handle, _, _)) = self.ack_handles.remove(i) {
                    self.medium.end_tx(handle, &[]);
                }
            }
            Event::InterfererEnd(i) => {
                if let Some((handle, _)) = self.interferer_handles.remove(i) {
                    self.medium.end_tx(handle, &[]);
                }
            }
            _ => {}
        }
        true
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn on_fault_reboot_down(&mut self, i: usize, down_for: Duration, now: Instant) {
        if self.nodes[i].down {
            return;
        }
        // A frame already on the air is cut but its medium record stays
        // open until the scheduled AirDone performs cleanup (see
        // `guard_down_node`); anything earlier in the tx pipeline is
        // dropped right now.
        let mid_air = self.nodes[i]
            .cur_tx
            .as_ref()
            .is_some_and(|t| t.handle.is_some());
        if !mid_air {
            if let Some(tx) = self.nodes[i].cur_tx.take() {
                if let Some(tok) = tx.timer {
                    self.queue.cancel(tok);
                }
            }
        }
        let tokens: Vec<_> = {
            let n = &mut self.nodes[i];
            [
                n.poll_timer.take(),
                n.poll_window.take(),
                n.transport_timer.take(),
            ]
            .into_iter()
            .flatten()
            .collect()
        };
        for tok in tokens {
            self.queue.cancel(tok);
        }
        {
            let n = &mut self.nodes[i];
            n.down = true;
            n.counters.inc("reboots");
            n.transmitting = false;
            n.awake = false;
            // Volatile state dies with the power...
            n.ctrl_queue.clear();
            n.cur_packet_frames.clear();
            while n.ip_queue.pop().is_some() {}
            n.reassembler = Node::reassembler_for(&n.budget);
            n.last_rx_seq.clear();
            n.indirect.clear();
            n.polling = false;
            n.poll_got_frame = false;
            n.transport.tcp.clear();
            n.transport.uip = None;
            // ...but the battery does not: the meter keeps integrating,
            // with the radio accounted as asleep while down.
            n.meter.set_radio_state(RadioState::Sleep, now);
        }
        self.sync_governor(i);
        self.trace
            .record(now, self.nodes[i].id, TraceDir::Drop, || {
                format!("fault: reboot (down {down_for})")
            });
        self.queue.schedule(now + down_for, Event::FaultRebootUp(i));
    }

    fn on_fault_reboot_up(&mut self, i: usize, now: Instant) {
        if !self.nodes[i].down {
            return;
        }
        let kind = self.nodes[i].kind;
        {
            let n = &mut self.nodes[i];
            n.down = false;
            n.counters.inc("boots");
            n.listen_since = now;
        }
        match kind {
            NodeKind::SleepyLeaf => {
                // Cold boot: the leaf stays asleep and re-joins its
                // poll schedule after a deterministic boot delay.
                let boot = Duration::from_millis(50 + 37 * i as u64);
                let tok = self.queue.schedule(now + boot, Event::PollWake(i));
                self.nodes[i].poll_timer = Some(tok);
            }
            NodeKind::CloudHost | NodeKind::Interferer => {}
            _ => {
                self.nodes[i].awake = true;
                self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
            }
        }
        // Restart the transport layer: the supervisor (its record queue
        // survives in "flash") notices its socket vanished and begins
        // reconnecting.
        self.queue.schedule(now, Event::TransportTimer(i));
    }

    fn on_fault_blackout_start(&mut self, a: usize, b: usize, span: Duration, now: Instant) {
        let links = self.medium.links();
        let pab = links.prr(RadioIdx(a), RadioIdx(b));
        let pba = links.prr(RadioIdx(b), RadioIdx(a));
        // PRR to zero but still audible: energy on the channel remains
        // detectable (CCA, collisions) — only reception dies.
        self.medium.links_mut().set_link(RadioIdx(a), RadioIdx(b), 0.0);
        self.medium.links_mut().set_link(RadioIdx(b), RadioIdx(a), 0.0);
        self.nodes[a].counters.inc("link_blackouts");
        self.queue
            .schedule(now + span, Event::FaultBlackoutEnd(a, b, pab, pba));
    }

    fn on_fault_blackout_end(&mut self, a: usize, b: usize, pab: f64, pba: f64, _now: Instant) {
        self.medium.links_mut().set_link(RadioIdx(a), RadioIdx(b), pab);
        self.medium.links_mut().set_link(RadioIdx(b), RadioIdx(a), pba);
    }

    fn on_fault_route_flap(&mut self, i: usize, now: Instant) {
        self.nodes[i].counters.inc("route_flaps");
        let anchor = self.border.unwrap_or(0);
        if i == anchor {
            return;
        }
        let old_parent = self
            .nodes[i]
            .routes
            .default_route
            .or_else(|| self.nodes[i].routes.lookup(NodeId(anchor as u16)));
        let Some(old_parent) = old_parent else {
            return;
        };
        // Recompute this node's routes with the current-parent edge
        // excluded, as a routing protocol reacting to link churn would.
        // If no alternative parent reaches the anchor, keep the old
        // routes (the flap is transient; counted but harmless). The
        // matrix is borrowed and only this node's table is recomputed —
        // no clone of either.
        let mut new_rt =
            Topology::single_source(self.medium.links(), i, Some((i, old_parent.0 as usize)));
        let Some(new_parent) = new_rt.lookup(NodeId(anchor as u16)) else {
            return;
        };
        new_rt.default_route = Some(new_parent);
        self.nodes[i].routes = new_rt;
        if self.nodes[i].kind == NodeKind::SleepyLeaf {
            let id = self.nodes[i].id;
            self.nodes[old_parent.0 as usize].sleepy_children.remove(&id);
            self.nodes[new_parent.0 as usize].sleepy_children.insert(id);
        }
        self.trace
            .record(now, self.nodes[i].id, TraceDir::Forward, || {
                format!(
                    "fault: route flap, parent {} -> {}",
                    old_parent.0, new_parent.0
                )
            });
    }

    fn on_fault_ber_start(&mut self, i: usize, ber: f64, span: Duration, now: Instant) {
        self.nodes[i].ber = Some(ber);
        self.nodes[i].counters.inc("ber_bursts");
        self.queue.schedule(now + span, Event::FaultBerEnd(i));
    }

    /// Decodes `encoded` as received by `rx` during a bit-error burst:
    /// each bit flips independently at the node's BER (sampled by
    /// geometric skips from the world RNG), then the frame goes through
    /// the real decoder, whose FCS check rejects nearly all corruption.
    fn ber_decode(&mut self, rx: usize, encoded: &[u8]) -> Option<MacFrame> {
        let ber = self.nodes[rx].ber.unwrap_or(0.0);
        let mut bytes = encoded.to_vec();
        let nbits = (bytes.len() * 8) as u64;
        if ber > 0.0 {
            let mut idx: u64 = 0;
            let mut flipped = false;
            loop {
                let u = self.rng.gen_f64();
                let skip = if ber >= 1.0 {
                    0.0
                } else {
                    (1.0 - u).ln() / (1.0 - ber).ln()
                };
                idx += skip as u64;
                if idx >= nbits {
                    break;
                }
                bytes[(idx / 8) as usize] ^= 1 << (idx % 8);
                flipped = true;
                idx += 1;
            }
            if flipped {
                self.nodes[rx].counters.inc("ber_corrupted_frames");
            }
        }
        MacFrame::decode(&bytes)
    }

    /// Delivers a received transmission to `rx`, applying bit errors
    /// when a burst is active there. Only that path needs the wire
    /// bytes; the receivers of one frame share a single encoding.
    fn deliver_buf(&mut self, rx: usize, buf: &FrameBuf, now: Instant) {
        if self.nodes[rx].ber.is_none() {
            self.deliver_frame(rx, buf.frame(), now);
            return;
        }
        match self.ber_decode(rx, buf.encoded()) {
            Some(f) => self.deliver_frame(rx, &f, now),
            None => {
                self.nodes[rx].counters.inc("fcs_drops");
                self.trace
                    .record(now, self.nodes[rx].id, TraceDir::Drop, || {
                        "FCS check failed (bit errors)"
                    });
            }
        }
    }

    // ------------------------------------------------------------------
    // MAC engine
    // ------------------------------------------------------------------

    fn wake(&mut self, i: usize, now: Instant) {
        let n = &mut self.nodes[i];
        if !n.awake {
            n.awake = true;
            n.listen_since = now;
            n.meter.set_radio_state(RadioState::Rx, now);
        }
    }

    fn maybe_sleep(&mut self, i: usize, now: Instant) {
        let expecting = self.nodes[i].expecting_response();
        let n = &mut self.nodes[i];
        if n.kind != NodeKind::SleepyLeaf || !n.awake {
            return;
        }
        if n.cur_tx.is_some()
            || !n.ctrl_queue.is_empty()
            || !n.cur_packet_frames.is_empty()
            || !n.ip_queue.is_empty()
            || n.polling
            || n.poll_window.is_some()
        {
            return;
        }
        n.awake = false;
        n.meter.set_radio_state(RadioState::Sleep, now);
        // Schedule the next poll.
        let got = n.poll_got_frame;
        n.poll_got_frame = false;
        if let Some(poll) = n.poll.as_mut() {
            poll.set_expecting_response(expecting);
            let delay = poll.next_delay(got);
            if let Some(tok) = n.poll_timer.take() {
                self.queue.cancel(tok);
            }
            let tok = self.queue.schedule(now + delay, Event::PollWake(i));
            self.nodes[i].poll_timer = Some(tok);
        }
    }

    /// Starts the next MAC transmission if idle.
    fn kick_mac(&mut self, i: usize, now: Instant) {
        if self.nodes[i].kind == NodeKind::CloudHost || self.nodes[i].down {
            return;
        }
        if self.nodes[i].cur_tx.is_some() {
            return;
        }
        // Pick the next frame: control first, then current packet,
        // then fragment the next IP packet.
        let frame = if let Some(f) = self.nodes[i].ctrl_queue.pop_front() {
            Some(f)
        } else if let Some(f) = self.nodes[i].cur_packet_frames.pop_front() {
            Some(f)
        } else if let Some(pkt) = self.nodes[i].ip_queue.pop() {
            let n = &mut self.nodes[i];
            n.frame_packet(&mut self.pool, pkt, false, |n, f| {
                n.cur_packet_frames.push_back(f);
            });
            n.counters.inc("packets_tx");
            n.cur_packet_frames.pop_front()
        } else {
            None
        };
        let Some(frame) = frame else {
            self.maybe_sleep(i, now);
            return;
        };
        self.wake(i, now);
        let ack_expected = frame.frame().ack_request;
        let process = TxProcess::new(self.nodes[i].mac_cfg.clone(), ack_expected);
        // Load the frame into the radio (SPI + driver cost) BEFORE
        // CSMA: the radio then transmits immediately after a clear CCA,
        // as real 802.15.4 hardware does. Retries re-use the loaded
        // frame and skip this cost. Only the MPDU length matters here,
        // so nothing is encoded.
        let overhead = self.cfg.phy.platform_overhead(frame.mpdu_len());
        self.nodes[i].meter.add_cpu(overhead);
        let tok = self.queue.schedule(now + overhead, Event::SpiDone(i));
        self.nodes[i].cur_tx = Some(CurrentTx {
            frame,
            process,
            handle: None,
            timer: Some(tok),
        });
    }

    fn handle_step(&mut self, i: usize, step: TxStep, now: Instant) {
        match step {
            TxStep::BackoffThenCca(d) => {
                let tok = self.queue.schedule(now + d, Event::MacTimer(i));
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.timer = Some(tok);
                }
            }
            TxStep::Transmit => {
                // Channel clear and the frame is already loaded: it
                // goes on the air after the rx/tx turnaround.
                let len = self
                    .nodes[i]
                    .cur_tx
                    .as_ref()
                    .map_or(0, |t| t.frame.mpdu_len());
                let start = now + self.cfg.phy.turnaround;
                let air = self.cfg.phy.air_time(len);
                let handle = self.medium.begin_tx(RadioIdx(i), start, start + air);
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.handle = Some(handle);
                    tx.timer = None;
                }
                self.nodes[i].transmitting = true;
                self.nodes[i].meter.set_radio_state(RadioState::Tx, now);
                self.nodes[i].counters.inc("frames_tx");
                let n = &self.nodes[i];
                self.trace.record(now, n.id, TraceDir::FrameTx, || {
                    n.cur_tx
                        .as_ref()
                        .map(|t| summarize_frame(t.frame.frame()))
                        .unwrap_or_default()
                });
                self.queue.schedule(start + air, Event::AirDone(i));
            }
            TxStep::AwaitAck => {
                let wait = self.cfg.phy.ack_wait + self.cfg.phy.turnaround;
                let tok = self.queue.schedule(now + wait, Event::AckTimeout(i));
                if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
                    tx.timer = Some(tok);
                }
            }
            TxStep::Done(ok) => self.finish_frame(i, ok, now),
        }
    }

    fn on_mac_timer(&mut self, i: usize, now: Instant) {
        if self.nodes[i].cur_tx.is_none() {
            return;
        }
        // CCA measurement.
        let tok = self
            .queue
            .schedule(now + self.cfg.phy.cca_duration, Event::CcaDone(i));
        if let Some(tx) = self.nodes[i].cur_tx.as_mut() {
            tx.timer = Some(tok);
        }
    }

    fn on_cca_done(&mut self, i: usize, now: Instant) {
        if self.nodes[i].cur_tx.is_none() {
            return;
        }
        let busy = self.medium.cca_busy(RadioIdx(i), now);
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.process.on_cca(busy, &mut self.rng)
        };
        self.handle_step(i, step, now);
    }

    fn on_spi_done(&mut self, i: usize, now: Instant) {
        // Frame loaded: begin the CSMA process.
        if self.nodes[i].cur_tx.is_none() {
            return;
        }
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.process.start(&mut self.rng)
        };
        self.handle_step(i, step, now);
    }

    /// Ends node `tx`'s transmission `handle` (on the air since
    /// `start`) and delivers `buf` to every radio that listened for the
    /// whole frame and received it intact.
    fn end_tx_and_deliver(
        &mut self,
        tx: usize,
        handle: TxHandle,
        start: Instant,
        buf: &FrameBuf,
        now: Instant,
    ) {
        let mut listeners = std::mem::take(&mut self.listeners);
        listeners.clear();
        listeners.extend(
            self.nodes
                .iter()
                .enumerate()
                .filter(|(j, n)| {
                    *j != tx
                        && n.awake
                        && !n.transmitting
                        && n.listen_since <= start
                        && n.kind != NodeKind::CloudHost
                })
                .map(|(j, _)| RadioIdx(j)),
        );
        let mut outcomes = std::mem::take(&mut self.outcomes);
        self.medium.end_tx_into(handle, &listeners, &mut outcomes);
        self.listeners = listeners;
        for &(rx, ok) in &outcomes {
            if ok {
                self.deliver_buf(rx.0, buf, now);
            }
        }
        self.outcomes = outcomes;
    }

    fn on_air_done(&mut self, i: usize, now: Instant) {
        let Some(tx) = self.nodes[i].cur_tx.as_ref() else {
            return;
        };
        let Some(handle) = tx.handle else { return };
        let buf = tx.frame.clone(); // refcount bump, not a copy
        let air = self.cfg.phy.air_time(buf.mpdu_len());
        let start = now - air;
        // Sender returns to listening.
        self.nodes[i].transmitting = false;
        self.nodes[i].listen_since = now;
        self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
        self.end_tx_and_deliver(i, handle, start, &buf, now);
        // Advance the transmit state machine.
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.handle = None;
            tx.process.on_tx_done()
        };
        self.handle_step(i, step, now);
    }

    fn on_ack_timeout(&mut self, i: usize, now: Instant) {
        if self.nodes[i].cur_tx.is_none() {
            return;
        }
        let step = {
            let tx = self.nodes[i].cur_tx.as_mut().unwrap();
            tx.process.on_ack_timeout(&mut self.rng)
        };
        self.nodes[i].counters.inc("link_retries");
        self.handle_step(i, step, now);
    }

    fn finish_frame(&mut self, i: usize, ok: bool, now: Instant) {
        let tx = self.nodes[i].cur_tx.take();
        if let Some(tx) = tx {
            if let Some(tok) = tx.timer {
                self.queue.cancel(tok);
            }
            if !ok {
                self.nodes[i].counters.inc("frames_dropped");
                self.trace
                    .record(now, self.nodes[i].id, TraceDir::Drop, || {
                        format!(
                            "link retries exhausted: {}",
                            summarize_frame(tx.frame.frame())
                        )
                    });
                // Losing one fragment loses the packet: discard the rest.
                for f in self.nodes[i].cur_packet_frames.drain(..) {
                    self.pool.reclaim(f);
                }
                if tx.frame.frame().is_data_request() {
                    // Poll failed; go back to sleep and retry later.
                    self.nodes[i].polling = false;
                }
            } else {
                self.nodes[i].counters.inc("frames_delivered");
            }
            self.pool.reclaim(tx.frame);
        }
        self.kick_mac(i, now);
        self.maybe_sleep(i, now);
    }

    // ------------------------------------------------------------------
    // Frame reception
    // ------------------------------------------------------------------

    fn deliver_frame(&mut self, i: usize, frame: &MacFrame, now: Instant) {
        self.nodes[i].meter.add_cpu(self.cfg.cpu_per_frame);
        if frame.dst == self.nodes[i].id || frame.frame_type == FrameType::Ack {
            self.trace
                .record(now, self.nodes[i].id, TraceDir::FrameRx, || {
                    summarize_frame(frame)
                });
        }
        match frame.frame_type {
            FrameType::Ack => self.handle_link_ack(i, frame, now),
            FrameType::Data | FrameType::Command => {
                if frame.dst != self.nodes[i].id && frame.dst != lln_mac::frame::BROADCAST {
                    return; // overheard someone else's frame
                }
                let dup = self.nodes[i].check_duplicate(frame.src, frame.seq);
                if frame.ack_request {
                    // Send the link ACK after turnaround. Pending bit:
                    // for data requests, signal queued indirect data.
                    let pending = frame.is_data_request()
                        && self.nodes[i]
                            .indirect
                            .get(&frame.src)
                            .is_some_and(|q| !q.is_empty());
                    self.queue.schedule(
                        now + self.cfg.phy.turnaround,
                        Event::LinkAckStart(i, frame.seq, pending),
                    );
                }
                if dup {
                    self.nodes[i].counters.inc("dup_frames");
                    return;
                }
                if frame.is_data_request() {
                    self.handle_data_request(i, frame.src, now);
                    return;
                }
                // Sleepy leaf: note downstream traffic and the pending
                // bit for the poll window.
                if self.nodes[i].kind == NodeKind::SleepyLeaf {
                    self.nodes[i].poll_got_frame = true;
                    if frame.pending {
                        // More frames are on their way (the parent
                        // drains its queue after one data request):
                        // keep the radio on.
                        self.extend_poll_window(i, now);
                    } else {
                        // Last queued packet: keep listening only long
                        // enough for any remaining fragments (each
                        // arrival refreshes this grace period).
                        self.extend_poll_window_by(i, Duration::from_millis(15), now);
                    }
                }
                // 6LoWPAN reassembly into a pooled buffer, returned to
                // the pool once the packet has been handled.
                let n = &mut self.nodes[i];
                let done =
                    n.reassembler
                        .offer_pooled(frame.src, &frame.payload, now, &mut n.seg_bufs);
                if let Some(packet) = done {
                    if let Some((hdr, payload)) =
                        iphc::decompress_view(&packet, frame.src, frame.dst)
                    {
                        self.handle_ip_view(i, hdr, payload.as_slice(), now);
                    } else {
                        self.nodes[i].counters.inc("decompress_errors");
                    }
                    self.nodes[i].seg_bufs.put(packet);
                }
                self.kick_mac(i, now);
                self.maybe_sleep(i, now);
            }
        }
    }

    fn handle_link_ack(&mut self, i: usize, ack: &MacFrame, now: Instant) {
        let Some(tx) = self.nodes[i].cur_tx.as_mut() else {
            return;
        };
        // Accept only when we are actually waiting for this ACK; a
        // neighbour's ACK with a coincidentally equal sequence number
        // must not complete our (unsent or in-flight) frame.
        if tx.frame.frame().seq != ack.seq || !tx.process.awaiting_ack() {
            return;
        }
        if let Some(tok) = tx.timer.take() {
            self.queue.cancel(tok);
        }
        let was_poll = tx.frame.frame().is_data_request();
        let step = tx.process.on_ack();
        if was_poll && self.nodes[i].kind == NodeKind::SleepyLeaf {
            self.nodes[i].polling = false;
            if ack.pending {
                // Stay awake to receive the indirect frame(s).
                self.extend_poll_window(i, now);
            } else {
                // Nothing queued: close the listen window right away
                // (keeps the poll exchange to a few milliseconds, the
                // behaviour the paper's 0.1% idle duty cycle needs).
                if let Some(tok) = self.nodes[i].poll_window.take() {
                    self.queue.cancel(tok);
                }
            }
        }
        self.handle_step(i, step, now);
    }

    fn extend_poll_window(&mut self, i: usize, now: Instant) {
        let w = self.cfg.poll_window;
        self.extend_poll_window_by(i, w, now);
    }

    fn extend_poll_window_by(&mut self, i: usize, span: Duration, now: Instant) {
        if let Some(tok) = self.nodes[i].poll_window.take() {
            self.queue.cancel(tok);
        }
        let tok = self.queue.schedule(now + span, Event::PollWindowEnd(i));
        self.nodes[i].poll_window = Some(tok);
    }

    fn on_link_ack_start(&mut self, i: usize, seq: u8, pending: bool, now: Instant) {
        // Half-duplex: if we are mid-transmission, skip the ACK (the
        // sender will retry).
        if self.nodes[i].transmitting || !self.nodes[i].awake {
            return;
        }
        let ack = self.pool.alloc(MacFrame::ack(seq, pending));
        let air = self.cfg.phy.ack_air_time();
        let handle = self.medium.begin_tx(RadioIdx(i), now, now + air);
        self.nodes[i].transmitting = true;
        self.nodes[i].meter.set_radio_state(RadioState::Tx, now);
        self.ack_handles.insert(i, (handle, ack, now));
        self.queue.schedule(now + air, Event::LinkAckDone(i));
    }

    fn on_link_ack_done(&mut self, i: usize, now: Instant) {
        let Some((handle, ack, start)) = self.ack_handles.remove(&i) else {
            return;
        };
        self.nodes[i].transmitting = false;
        self.nodes[i].listen_since = now;
        self.nodes[i].meter.set_radio_state(RadioState::Rx, now);
        self.end_tx_and_deliver(i, handle, start, &ack, now);
        self.pool.reclaim(ack);
    }

    // ------------------------------------------------------------------
    // Data polling (sleepy leaves + parents)
    // ------------------------------------------------------------------

    fn on_poll_wake(&mut self, i: usize, now: Instant) {
        self.nodes[i].poll_timer = None;
        if self.nodes[i].kind != NodeKind::SleepyLeaf {
            return;
        }
        self.wake(i, now);
        self.nodes[i].polling = true;
        let parent = self.nodes[i].routes.default_route;
        let Some(parent) = parent else {
            self.nodes[i].polling = false;
            self.maybe_sleep(i, now);
            return;
        };
        let seq = self.nodes[i].next_seq();
        let id = self.nodes[i].id;
        let req = self
            .pool
            .alloc_with(MacFrame::command(id, parent, seq), |p| {
                p.push(CMD_DATA_REQUEST)
            });
        self.nodes[i].enqueue_ctrl(req);
        // Guard window in case the poll exchange stalls entirely.
        self.extend_poll_window(i, now);
        self.kick_mac(i, now);
    }

    fn on_poll_window_end(&mut self, i: usize, now: Instant) {
        self.nodes[i].poll_window = None;
        self.nodes[i].polling = false;
        self.maybe_sleep(i, now);
    }

    fn handle_data_request(&mut self, i: usize, child: NodeId, now: Instant) {
        // Appendix C enhancement: one data request drains the child's
        // whole indirect queue. Every frame except those of the last
        // packet carries the pending bit, so the child keeps listening
        // for the burst.
        let mut framed = false;
        loop {
            let n = &mut self.nodes[i];
            let Some(pkt) = n.indirect.get_mut(&child).and_then(|q| q.pop_front()) else {
                break;
            };
            let pending = n.indirect.get(&child).is_some_and(|q| !q.is_empty());
            n.frame_packet(&mut self.pool, pkt, pending, |n, f| {
                n.enqueue_ctrl(f);
            });
            framed = true;
        }
        if !framed {
            return;
        }
        self.sync_governor(i);
        self.kick_mac(i, now);
    }

    // ------------------------------------------------------------------
    // IP layer
    // ------------------------------------------------------------------

    /// Queues a locally-originated or forwarded packet.
    fn enqueue_ip(&mut self, i: usize, hdr: Ipv6Header, payload: Vec<u8>, now: Instant) {
        // Cloud host: everything goes over the wire to the border.
        if self.nodes[i].kind == NodeKind::CloudHost {
            if let Some(b) = self.border {
                self.queue.schedule(
                    now + self.cfg.wired_latency,
                    Event::WiredDeliver(b, hdr, payload),
                );
            }
            return;
        }
        // Border router: cloud-prefix destinations go over the wire.
        if self.nodes[i].kind == NodeKind::BorderRouter && !hdr.dst.is_mesh_local() {
            if let Some(c) = self.cloud {
                self.queue.schedule(
                    now + self.cfg.wired_latency,
                    Event::WiredDeliver(c, hdr, payload),
                );
            }
            return;
        }
        // Mesh: route by the destination's node id; off-mesh packets go
        // toward the border router.
        let dst_node = if hdr.dst.is_mesh_local() {
            hdr.dst.node_id()
        } else {
            self.border.map(|b| NodeId(b as u16))
        };
        let Some(dst_node) = dst_node else {
            self.nodes[i].counters.inc("unroutable");
            return;
        };
        let Some(next_hop) = self.nodes[i].routes.lookup(dst_node) else {
            self.nodes[i].counters.inc("unroutable");
            return;
        };
        let pkt = OutPacket {
            hdr,
            payload,
            next_hop,
        };
        // Indirect queueing for sleepy children (bounded per child by
        // the node budget).
        if self.nodes[i].sleepy_children.contains(&next_hop) {
            self.nodes[i].enqueue_indirect(next_hop, pkt);
            self.sync_governor(i);
            return;
        }
        // Governor admission: the IP-queue class must have room for
        // the packet's bytes before the queue even sees it.
        let w = pkt.payload.len() + tcplp::mem::IP_OVERHEAD_BYTES;
        if !self.nodes[i].governor.would_fit(MemClass::IpQueue, w) {
            self.nodes[i].governor.note_deny(MemClass::IpQueue);
            self.nodes[i].counters.inc("queue_byte_drops");
            return;
        }
        let r = self.rng.gen_f64();
        if !self.nodes[i].ip_queue.offer(pkt, r) {
            self.nodes[i].governor.note_deny(MemClass::IpQueue);
            self.nodes[i].counters.inc("queue_drops");
        }
        self.sync_governor(i);
        self.kick_mac(i, now);
    }

    /// A full IP packet arrived over the wired link. Its buffer came
    /// from the pool of the node at the other end of the wire and goes
    /// back there, so asymmetric traffic cannot drain one pool while
    /// the other overflows.
    fn handle_ip_packet(&mut self, i: usize, hdr: Ipv6Header, payload: Vec<u8>, now: Instant) {
        self.handle_ip_view(i, hdr, &payload, now);
        let peer = if Some(i) == self.border {
            self.cloud
        } else {
            self.border
        };
        if let Some(p) = peer {
            self.nodes[p].seg_bufs.put(payload);
        }
    }

    /// A full IP packet arrived at node `i`; `payload` borrows the
    /// receive buffer. Local delivery consumes the slice directly; only
    /// forwarding, which must queue the bytes, copies them into a
    /// pooled buffer.
    fn handle_ip_view(&mut self, i: usize, hdr: Ipv6Header, payload: &[u8], now: Instant) {
        if hdr.dst == self.nodes[i].ip_addr() {
            self.trace_deliver(i, &hdr, payload, now);
            self.deliver_transport(i, hdr, payload, now);
            return;
        }
        self.forward_ip(i, hdr, payload, now);
    }

    fn trace_deliver(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        self.trace
            .record(now, self.nodes[i].id, TraceDir::Deliver, || {
                summarize_packet(hdr, payload)
            });
    }

    /// Forwards a non-local packet toward its next hop, copying the
    /// payload into a pooled buffer once it survives the drop checks.
    fn forward_ip(&mut self, i: usize, mut hdr: Ipv6Header, payload: &[u8], now: Instant) {
        if hdr.hop_limit <= 1 {
            self.nodes[i].counters.inc("hop_limit_drops");
            self.trace
                .record(now, self.nodes[i].id, TraceDir::Drop, || {
                    "hop limit exhausted"
                });
            return;
        }
        hdr.hop_limit -= 1;
        // Injected uniform loss (§9.4; configured on the border router).
        if self.nodes[i].inject_loss > 0.0 && self.rng.gen_bool(self.nodes[i].inject_loss) {
            self.nodes[i].counters.inc("injected_drops");
            self.trace
                .record(now, self.nodes[i].id, TraceDir::Drop, || "injected loss");
            return;
        }
        self.nodes[i].counters.inc("forwarded");
        self.trace
            .record(now, self.nodes[i].id, TraceDir::Forward, || {
                summarize_packet(&hdr, payload)
            });
        let mut bytes = self.nodes[i].seg_bufs.take();
        bytes.extend_from_slice(payload);
        self.enqueue_ip(i, hdr, bytes, now);
    }

    // ------------------------------------------------------------------
    // Transport layer
    // ------------------------------------------------------------------

    fn deliver_transport(&mut self, i: usize, hdr: Ipv6Header, payload: &[u8], now: Instant) {
        self.nodes[i].meter.add_cpu(self.cfg.cpu_per_segment);
        match hdr.next_header {
            NextHeader::Tcp => self.deliver_tcp(i, &hdr, payload, now),
            NextHeader::Udp => self.deliver_udp(i, &hdr, payload, now),
            NextHeader::Other(_) => {
                self.nodes[i].counters.inc("unknown_proto");
            }
        }
        self.pump_transport(i, now);
    }

    fn deliver_tcp(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        // Copy-free decode: the parsed view borrows `payload` and the
        // socket ingests straight from the slice. Only the rare paths
        // (adversary interposition, listener, uIP, RST) materialize an
        // owned segment.
        let Some(view) = Segment::decode_view(hdr.src, hdr.dst, payload) else {
            self.nodes[i].counters.inc("tcp_checksum_drops");
            return;
        };
        if self.nodes[i].adversary.is_some() {
            let seg = view.to_owned();
            // Temporarily take the adversary so it can borrow its RNG
            // while we hold `self` for scheduling.
            let mut adv = self.nodes[i].adversary.take().expect("checked");
            let deliveries = adv.on_segment(&seg, hdr.src, hdr.dst);
            self.nodes[i].adversary = Some(adv);
            for d in deliveries {
                match d {
                    crate::adversary::Delivery::Seg(delay, mseg) => {
                        if delay == Duration::ZERO {
                            self.dispatch_tcp_segment(i, hdr, &mseg, now);
                        } else {
                            let bytes = mseg.encode(hdr.src, hdr.dst);
                            let mut h = *hdr;
                            h.payload_len = bytes.len() as u16;
                            self.queue
                                .schedule(now + delay, Event::AdversaryDeliver(i, h, bytes));
                        }
                    }
                    crate::adversary::Delivery::Raw(delay, bytes) => {
                        let mut h = *hdr;
                        h.payload_len = bytes.len() as u16;
                        if delay == Duration::ZERO {
                            self.deliver_mangled_tcp(i, &h, &bytes, now);
                        } else {
                            self.queue
                                .schedule(now + delay, Event::AdversaryDeliver(i, h, bytes));
                        }
                    }
                }
            }
            return;
        }
        self.dispatch_tcp_view(i, hdr, view, now);
    }

    /// View-based dispatch: segments for an established socket are
    /// handed over without ever owning the payload; everything else
    /// falls back to the owned slow path.
    fn dispatch_tcp_view(
        &mut self,
        i: usize,
        hdr: &Ipv6Header,
        seg: tcplp::SegmentView<'_>,
        now: Instant,
    ) {
        let ecn = hdr.ecn;
        let found = self.nodes[i].transport.tcp.iter_mut().find(|s| {
            let (raddr, rport) = s.remote();
            raddr == hdr.src && rport == seg.src_port && s.local().1 == seg.dst_port
        });
        if let Some(sock) = found {
            sock.tick(now);
            sock.on_segment_view(seg, ecn, now);
            return;
        }
        let owned = seg.to_owned();
        self.dispatch_tcp_slow(i, hdr, &owned, now);
    }

    /// Adversary-scheduled bytes arriving at the transport: decode and
    /// dispatch directly, never back through the adversary.
    fn deliver_mangled_tcp(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        match Segment::decode(hdr.src, hdr.dst, payload) {
            Some(seg) => self.dispatch_tcp_segment(i, hdr, &seg, now),
            None => {
                // Deliberately malformed forgeries die in the parser,
                // exactly like corrupted genuine traffic.
                self.nodes[i].counters.inc("tcp_checksum_drops");
            }
        }
    }

    /// Hands a decoded segment to the owning socket (or the listener,
    /// the uIP socket, or the RST generator). Owned-segment entry point
    /// for the adversary and flooder paths.
    fn dispatch_tcp_segment(&mut self, i: usize, hdr: &Ipv6Header, seg: &Segment, now: Instant) {
        let ecn = hdr.ecn;
        // Match an existing socket.
        let found = self.nodes[i].transport.tcp.iter_mut().find(|s| {
            let (raddr, rport) = s.remote();
            raddr == hdr.src && rport == seg.src_port && s.local().1 == seg.dst_port
        });
        if let Some(sock) = found {
            sock.tick(now);
            sock.on_segment(seg, ecn, now);
            return;
        }
        self.dispatch_tcp_slow(i, hdr, seg, now);
    }

    /// Non-socket TCP traffic: the listener (SYN cache), the uIP
    /// socket, or the RST generator.
    fn dispatch_tcp_slow(&mut self, i: usize, hdr: &Ipv6Header, seg: &Segment, now: Instant) {
        // Listener? All passive-open traffic goes through the bounded
        // SYN cache; the full socket exists only after the completing
        // ACK — and only if the TCP-buffer budget admits it.
        let listener_match = self.nodes[i]
            .transport
            .tcp_listener
            .as_ref()
            .is_some_and(|l| l.port() == seg.dst_port);
        if listener_match {
            let is_syn =
                seg.flags.contains(tcplp::Flags::SYN) && !seg.flags.contains(tcplp::Flags::ACK);
            // The iss is consumed only when a fresh SYN parks a cache
            // entry; drawing it unconditionally would burn an extra rng
            // value on the completing ACK and shift every later seeded
            // decision (loss, RED) in the world.
            let iss = if is_syn { self.rng.next_u64() as u32 } else { 0 };
            let live = self.nodes[i]
                .transport
                .tcp
                .iter()
                .filter(|s| {
                    s.local().1 == seg.dst_port && s.state() != tcplp::TcpState::Closed
                })
                .count();
            let footprint = self.nodes[i]
                .transport
                .tcp_listener
                .as_ref()
                .map_or(0, |l| l.child_footprint());
            // A SYN whose eventual socket could never fit the budget is
            // denied before it costs even a cache slot.
            if is_syn && !self.nodes[i].governor.would_fit(MemClass::TcpBuffers, footprint) {
                self.nodes[i].governor.note_deny(MemClass::TcpBuffers);
                self.nodes[i].counters.inc("syn_budget_drops");
                // The budget may be held by a child whose peer rebooted
                // and is now dialing from a new port.
                self.probe_children_of(i, hdr.src, seg.dst_port);
                return;
            }
            let before = self.nodes[i]
                .transport
                .tcp_listener
                .as_ref()
                .map(|l| l.stats.clone())
                .unwrap_or_default();
            let l = self.nodes[i].transport.tcp_listener.as_mut().unwrap();
            l.sync_backlog(live);
            let resp = l.on_segment(hdr.src, seg, iss, now);
            self.mirror_listener_stats(i, &before);
            match resp {
                ListenerResponse::Reply(reply) => {
                    let my_addr = self.nodes[i].ip_addr();
                    let out_hdr = Ipv6Header::new(
                        my_addr,
                        hdr.src,
                        NextHeader::Tcp,
                        reply.wire_len() as u16,
                    );
                    let bytes = reply.encode(my_addr, hdr.src);
                    self.enqueue_ip(i, out_hdr, bytes, now);
                    self.sync_governor(i);
                    self.reschedule_transport_timer(i, now);
                    return;
                }
                ListenerResponse::Spawn(sock) => {
                    if self.nodes[i].governor.try_admit(MemClass::TcpBuffers, footprint) {
                        // A new connection from a peer that already has
                        // one here may be its next incarnation.
                        self.probe_children_of(i, hdr.src, seg.dst_port);
                        self.nodes[i].transport.tcp.push(*sock);
                        self.pump_transport(i, now);
                    } else {
                        // Budget raced shut between SYN and ACK: the
                        // socket dies unborn; the peer retries or
                        // times out.
                        self.nodes[i].counters.inc("accept_budget_drops");
                    }
                    self.sync_governor(i);
                    self.reschedule_transport_timer(i, now);
                    return;
                }
                // Not listener business (stray ACK, RST): fall through
                // to the uIP socket or the RST generator.
                ListenerResponse::None => {
                    self.sync_governor(i);
                    self.reschedule_transport_timer(i, now);
                }
            }
        }
        // uIP socket?
        if let Some(u) = self.nodes[i].transport.uip.as_mut() {
            let (raddr, rport) = u.remote();
            if raddr == hdr.src && rport == seg.src_port && u.local().1 == seg.dst_port {
                u.on_segment(seg, now);
                return;
            }
        }
        // No socket: RST.
        if let Some(rst) = tcplp::reset_for(seg) {
            let out_hdr = Ipv6Header::new(
                hdr.dst,
                hdr.src,
                NextHeader::Tcp,
                rst.wire_len() as u16,
            );
            let bytes = rst.encode(hdr.dst, hdr.src);
            self.enqueue_ip(i, out_hdr, bytes, now);
        }
    }

    /// Half-open discovery across incarnations: a peer that rebooted
    /// dials again from a new port, and a child socket of its old
    /// connection that only receives never notices it died. Probes
    /// every live child of `peer` on `port`; a dead incarnation answers
    /// with an RST, which frees the child's buffers.
    fn probe_children_of(&mut self, i: usize, peer: Ipv6Addr, port: u16) {
        for s in self.nodes[i].transport.tcp.iter_mut() {
            if s.remote().0 == peer && s.local().1 == port {
                s.probe_half_open();
            }
        }
    }

    /// One flooder tick: inject forged traffic at node `i`, then
    /// reschedule. Ticks keep firing (without injecting) while the
    /// victim is down, so the attack resumes after a reboot.
    fn on_flood_tick(&mut self, i: usize, now: Instant) {
        let Some(mut fl) = self.nodes[i].flooder.take() else {
            return;
        };
        if now >= fl.cfg.stop {
            self.nodes[i].flooder = Some(fl);
            return;
        }
        let interval = fl.interval();
        if !self.nodes[i].down {
            if fl.cfg.syn {
                // Forged SYN from a rotating spoofed source: random
                // port and ISN, victim's listen port.
                let k = (fl.stats.syns_sent % u64::from(fl.cfg.spoofed_sources)) as u16;
                let src = NodeId(0xF000 + k).mesh_addr();
                let sport = 40_000 + (fl.rng.next_u64() % 20_000) as u16;
                let seq = tcplp::TcpSeq(fl.rng.next_u64() as u32);
                let mut seg = Segment::new(
                    sport,
                    fl.cfg.target_port,
                    seq,
                    tcplp::TcpSeq(0),
                    tcplp::Flags::SYN,
                );
                seg.window = 1024;
                seg.mss = Some(462);
                let hdr = Ipv6Header::new(
                    src,
                    self.nodes[i].ip_addr(),
                    NextHeader::Tcp,
                    seg.wire_len() as u16,
                );
                fl.stats.syns_sent += 1;
                self.nodes[i].meter.add_cpu(self.cfg.cpu_per_segment);
                self.nodes[i].counters.inc("flood_syns_rx");
                self.dispatch_tcp_segment(i, &hdr, &seg, now);
            }
            if fl.cfg.frag {
                // Forged FRAG1 claiming a large datagram whose tail
                // never arrives: pins a reassembly slot until quota
                // denial or timeout reclamation.
                let k = (fl.stats.frags_sent % u64::from(fl.cfg.spoofed_sources)) as u16;
                let src = NodeId(0xF800 + k);
                let bytes = fl.forge_frag1(64);
                fl.stats.frags_sent += 1;
                self.nodes[i].meter.add_cpu(self.cfg.cpu_per_frame);
                self.nodes[i].counters.inc("flood_frags_rx");
                let n = &mut self.nodes[i];
                if let Some(done) = n
                    .reassembler
                    .offer_pooled(src, &bytes, now, &mut n.seg_bufs)
                {
                    n.seg_bufs.put(done);
                }
                self.sync_governor(i);
                self.reschedule_transport_timer(i, now);
            }
        }
        self.nodes[i].flooder = Some(fl);
        self.queue.schedule(now + interval, Event::FloodTick(i));
    }

    fn deliver_udp(&mut self, i: usize, hdr: &Ipv6Header, payload: &[u8], now: Instant) {
        let Some((udp, body)) = UdpHeader::decode_datagram(hdr.src, hdr.dst, payload) else {
            self.nodes[i].counters.inc("udp_checksum_drops");
            return;
        };
        if udp.dst_port == COAP_PORT {
            // Server side.
            let response = self.nodes[i]
                .transport
                .coap_server
                .as_mut()
                .and_then(|s| s.on_datagram_from(hdr.src, body, now));
            if let Some(resp) = response {
                let dg = UdpHeader::encode_datagram(
                    hdr.dst,
                    hdr.src,
                    COAP_PORT,
                    udp.src_port,
                    &resp,
                );
                let out_hdr =
                    Ipv6Header::new(hdr.dst, hdr.src, NextHeader::Udp, dg.len() as u16);
                self.enqueue_ip(i, out_hdr, dg, now);
            }
        } else if let Some(c) = self.nodes[i].transport.coap_client.as_mut() {
            c.on_datagram(body, now);
        }
    }

    /// Pumps every transport on node `i`: applications feed sockets,
    /// sockets emit segments, timers are rescheduled.
    pub fn pump_transport(&mut self, i: usize, now: Instant) {
        if self.nodes[i].down {
            return;
        }
        self.app_feed(i, now);
        // Drain sinks before polling sockets so window-update ACKs
        // (generated by `recv`) ride out in this pump.
        self.app_drain(i, now);
        // Advance TCP timers *before* supervision: a socket that dies
        // on this very tick (retransmit exhaustion, keepalive timeout)
        // must be seen by the supervisor in the same pump, or nothing
        // ever reschedules this node's transport timer again.
        for s in self.nodes[i].transport.tcp.iter_mut() {
            s.tick(now);
            if s.poll_at().is_some_and(|t| t <= now) {
                s.on_timer(now);
            }
        }
        // Connection supervision: feed/track the supervised socket,
        // detect deaths, and install reconnect attempts.
        self.supervise(i, now);

        // TCP sockets. Segments encode (serialize + checksum in one
        // pass) into pooled buffers; the buffer returns to the pool
        // when the 6LoWPAN layer frames the packet.
        let my_addr = self.nodes[i].ip_addr();
        let mut out = std::mem::take(&mut self.tx_out);
        let mut seg_bufs = std::mem::take(&mut self.nodes[i].seg_bufs);
        for s in self.nodes[i].transport.tcp.iter_mut() {
            let ecn_data = s.ecn_active();
            while let Some(seg) = s.poll_transmit(now) {
                let (raddr, _) = s.remote();
                let mut hdr =
                    Ipv6Header::new(my_addr, raddr, NextHeader::Tcp, seg.wire_len() as u16);
                if ecn_data && !seg.payload.is_empty() {
                    hdr.ecn = Ecn::Ect0;
                }
                let mut bytes = seg_bufs.take();
                seg.encode_into(my_addr, raddr, &mut bytes);
                out.push((hdr, bytes));
                s.recycle(seg);
            }
        }
        // Listener: SYN-ACK retransmissions and half-open expiry.
        let listen_before = self.nodes[i]
            .transport
            .tcp_listener
            .as_ref()
            .map(|l| l.stats.clone());
        if let Some(l) = self.nodes[i].transport.tcp_listener.as_mut() {
            while let Some((peer, synack)) = l.poll_transmit(now) {
                let hdr =
                    Ipv6Header::new(my_addr, peer, NextHeader::Tcp, synack.wire_len() as u16);
                let mut bytes = seg_bufs.take();
                synack.encode_into(my_addr, peer, &mut bytes);
                out.push((hdr, bytes));
            }
        }
        if let Some(before) = listen_before {
            self.mirror_listener_stats(i, &before);
        }
        // Reassembly: reclaim stale partial datagrams on the timer path.
        self.nodes[i].reassembler.reclaim(now);
        // uIP socket.
        if let Some(u) = self.nodes[i].transport.uip.as_mut() {
            if u.poll_at().is_some_and(|t| t <= now) {
                u.on_timer(now);
            }
            while let Some(seg) = u.poll_transmit(now) {
                let (raddr, _) = u.remote();
                let hdr =
                    Ipv6Header::new(my_addr, raddr, NextHeader::Tcp, seg.wire_len() as u16);
                let mut bytes = seg_bufs.take();
                seg.encode_into(my_addr, raddr, &mut bytes);
                out.push((hdr, bytes));
            }
        }
        self.nodes[i].seg_bufs = seg_bufs;
        // CoAP client.
        if self.nodes[i].transport.coap_client.is_some() {
            let cloud_addr = self.cloud.map(|c| self.nodes[c].ip_addr());
            let c = self.nodes[i].transport.coap_client.as_mut().unwrap();
            if c.poll_at().is_some_and(|t| t <= now) {
                if let Some(re) = c.on_timer(now) {
                    if let Some(dst) = cloud_addr {
                        let dg =
                            UdpHeader::encode_datagram(my_addr, dst, 49001, COAP_PORT, &re);
                        let hdr =
                            Ipv6Header::new(my_addr, dst, NextHeader::Udp, dg.len() as u16);
                        out.push((hdr, dg));
                    }
                }
            }
            while let Some(msg) = c.poll_transmit(now, &mut self.rng) {
                if let Some(dst) = cloud_addr {
                    let dg = UdpHeader::encode_datagram(my_addr, dst, 49001, COAP_PORT, &msg);
                    let hdr = Ipv6Header::new(my_addr, dst, NextHeader::Udp, dg.len() as u16);
                    out.push((hdr, dg));
                }
            }
        }
        for (hdr, bytes) in out.drain(..) {
            self.enqueue_ip(i, hdr, bytes, now);
        }
        self.tx_out = out;
        self.sync_governor(i);
        self.reschedule_transport_timer(i, now);
        self.kick_mac(i, now);
        // Sleepy leaves expecting a response poll fast (§9.2).
        self.adjust_fast_poll(i, now);
        self.maybe_sleep(i, now);
    }

    /// Runs the node's connection supervisor (if any): one poll step,
    /// with its counter deltas mirrored into the node's `Counters` and
    /// lifecycle transitions logged to the trace.
    fn supervise(&mut self, i: usize, now: Instant) {
        let Some(mut sup) = self.nodes[i].supervisor.take() else {
            return;
        };
        let before = *sup.stats();
        let res = sup.poll(self.nodes[i].transport.tcp.first_mut(), now);
        let after = *sup.stats();
        {
            let n = &mut self.nodes[i];
            n.counters.add("sup_reconnects", after.reconnects - before.reconnects);
            n.counters.add("sup_deaths", after.deaths - before.deaths);
            n.counters.add(
                "sup_records_replayed",
                after.records_replayed - before.records_replayed,
            );
            n.counters.add(
                "sup_connect_attempts",
                after.connect_attempts - before.connect_attempts,
            );
            n.counters.add("sup_downtime_us", after.downtime_us - before.downtime_us);
        }
        if res.died {
            self.trace
                .record(now, self.nodes[i].id, TraceDir::Drop, || {
                    "supervisor: connection died"
                });
        }
        if res.reconnected {
            self.trace
                .record(now, self.nodes[i].id, TraceDir::Deliver, || {
                    "supervisor: reconnected"
                });
        }
        if let Some(sock) = res.replace {
            let tcp = &mut self.nodes[i].transport.tcp;
            if tcp.is_empty() {
                tcp.push(sock);
            } else {
                tcp[0] = sock;
            }
        }
        self.nodes[i].supervisor = Some(sup);
    }

    /// Recomputes node `i`'s governor gauges from the owning structures
    /// and mirrors the reassembler's cumulative deny/timeout counters
    /// into the governor's per-class accounting.
    fn sync_governor(&mut self, i: usize) {
        let n = &mut self.nodes[i];
        let denied = n.reassembler.denied_slots + n.reassembler.denied_bytes;
        let seen = n.governor.denies(MemClass::Reassembly);
        if denied > seen {
            n.governor.note_denies(MemClass::Reassembly, denied - seen);
        }
        let evicted = n.reassembler.timeouts + n.reassembler.evicted_source;
        let seen = n.governor.evictions(MemClass::Reassembly);
        if evicted > seen {
            n.governor.note_evictions(MemClass::Reassembly, evicted - seen);
        }
        n.sync_governor();
    }

    /// Mirrors listener stat deltas (since `before`) into the governor's
    /// SYN-cache accounting and the node counters.
    fn mirror_listener_stats(&mut self, i: usize, before: &ListenStats) {
        let Some(after) = self.nodes[i].transport.tcp_listener.as_ref().map(|l| l.stats.clone())
        else {
            return;
        };
        let n = &mut self.nodes[i];
        n.governor
            .note_denies(MemClass::SynCache, after.backlog_denied - before.backlog_denied);
        n.governor.note_evictions(
            MemClass::SynCache,
            (after.evicted_oldest - before.evicted_oldest) + (after.expired - before.expired),
        );
        n.counters.add("syns_rcvd", after.syns_rcvd - before.syns_rcvd);
        n.counters.add("syn_dups", after.syn_dups - before.syn_dups);
        n.counters.add("tcp_accepts", after.spawned - before.spawned);
    }

    /// Read access to node `i`'s memory governor (tests, benches).
    pub fn governor(&self, i: usize) -> &tcplp::MemGovernor {
        &self.nodes[i].governor
    }

    /// Asserts every node's transient memory classes have drained to
    /// zero and no class ever exceeded its cap. Call after a run whose
    /// traffic has fully quiesced (bulk transfers done, floods over,
    /// timers past). Leaks in the SYN cache, reassembly slots, or
    /// queues show up here as a non-zero gauge.
    pub fn assert_governor_drained(&mut self) {
        let now = self.now();
        for i in 0..self.nodes.len() {
            self.nodes[i].reassembler.reclaim(now + Duration::from_secs(60));
            self.sync_governor(i);
            let n = &self.nodes[i];
            for class in [
                MemClass::SynCache,
                MemClass::Reassembly,
                MemClass::IpQueue,
                MemClass::MacQueue,
            ] {
                assert_eq!(
                    n.governor.gauge(class),
                    0,
                    "node {i}: {class:?} leaked {} bytes after quiesce",
                    n.governor.gauge(class)
                );
            }
            self.assert_node_bounded(i);
        }
    }

    /// Asserts every node's accounted memory stayed within its per-class
    /// caps and the total budget. Safe to call mid-run (continuous
    /// applications never fully drain).
    pub fn assert_governor_bounded(&mut self) {
        for i in 0..self.nodes.len() {
            self.sync_governor(i);
            self.assert_node_bounded(i);
        }
    }

    fn assert_node_bounded(&self, i: usize) {
        let n = &self.nodes[i];
        for class in MemClass::ALL {
            assert!(
                n.governor.high_water(class) <= n.budget.cap(class) as u64,
                "node {i}: {class:?} high-water {} exceeds cap {}",
                n.governor.high_water(class),
                n.budget.cap(class)
            );
        }
        assert!(
            n.governor.total_high_water() <= n.budget.total as u64,
            "node {i}: total high-water {} exceeds budget {}",
            n.governor.total_high_water(),
            n.budget.total
        );
    }

    fn adjust_fast_poll(&mut self, i: usize, now: Instant) {
        if self.nodes[i].kind != NodeKind::SleepyLeaf || self.nodes[i].awake {
            return;
        }
        let expecting = self.nodes[i].expecting_response();
        if !expecting {
            return;
        }
        if let Some(poll) = self.nodes[i].poll.as_mut() {
            poll.set_expecting_response(true);
            let fast = poll.next_delay(false);
            if let Some(tok) = self.nodes[i].poll_timer.take() {
                self.queue.cancel(tok);
            }
            let tok = self.queue.schedule(now + fast, Event::PollWake(i));
            self.nodes[i].poll_timer = Some(tok);
        }
    }

    fn reschedule_transport_timer(&mut self, i: usize, now: Instant) {
        let mut next: Option<Instant> = None;
        for s in &self.nodes[i].transport.tcp {
            if let Some(t) = s.poll_at() {
                next = Some(next.map_or(t, |cur: Instant| cur.min(t)));
            }
        }
        if let Some(u) = &self.nodes[i].transport.uip {
            if let Some(t) = u.poll_at() {
                next = Some(next.map_or(t, |cur: Instant| cur.min(t)));
            }
        }
        if let Some(c) = &self.nodes[i].transport.coap_client {
            if let Some(t) = c.poll_at() {
                next = Some(next.map_or(t, |cur: Instant| cur.min(t)));
            }
        }
        if let Some(sup) = &self.nodes[i].supervisor {
            if let Some(t) = sup.wake_at() {
                next = Some(next.map_or(t, |cur: Instant| cur.min(t)));
            }
        }
        if let Some(l) = &self.nodes[i].transport.tcp_listener {
            if let Some(t) = l.poll_at() {
                next = Some(next.map_or(t, |cur: Instant| cur.min(t)));
            }
        }
        // Reassembly expiry is deliberately NOT a wakeup source: stale
        // partials are reclaimed lazily on the next inbound frame
        // (`Reassembler::offer` expires first) and on every transport
        // pump, which keeps the event schedule — and hence seeded
        // trajectories — identical to a build without the reassembler.
        if let Some(tok) = self.nodes[i].transport_timer.take() {
            self.queue.cancel(tok);
        }
        if let Some(t) = next {
            let t = t.max(now);
            let tok = self.queue.schedule(t, Event::TransportTimer(i));
            self.nodes[i].transport_timer = Some(tok);
        }
    }

    fn on_transport_timer(&mut self, i: usize, now: Instant) {
        self.nodes[i].transport_timer = None;
        self.pump_transport(i, now);
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    /// Feed phase: sources push data into their sockets.
    fn app_feed(&mut self, i: usize, _now: Instant) {
        let node = &mut self.nodes[i];
        match &mut node.app {
            // Supervised bulk sender: chunk the byte stream into
            // records and hand them to the supervisor, which retains
            // them until acknowledged (backpressure via `can_accept`).
            App::BulkSender {
                limit,
                sent,
                pattern,
            } if node.supervisor.is_some() => {
                let sup = node.supervisor.as_mut().expect("guarded");
                const RECORD_PAYLOAD: usize = 454;
                loop {
                    let want = match limit {
                        Some(l) => ((*l - *sent) as usize).min(RECORD_PAYLOAD),
                        None => RECORD_PAYLOAD,
                    };
                    if want == 0 || !sup.can_accept(want) {
                        break;
                    }
                    let mut chunk = node.seg_bufs.take();
                    chunk.extend((0..want).map(|k| (*pattern as usize + k) as u8));
                    sup.submit(&chunk);
                    node.seg_bufs.put(chunk);
                    *sent += want as u64;
                    *pattern = pattern.wrapping_add(want as u8);
                }
            }
            // Supervised anemometer: each reading is one record; the
            // supervisor's retention buffer is the flash queue, so
            // readings survive reboots and replay after reconnects.
            App::Anemometer(app)
                if node.supervisor.is_some() && app.draining_allowed(app.draining) =>
            {
                app.draining = true;
                let sup = node.supervisor.as_mut().expect("guarded");
                while !app.queue.is_empty() && sup.can_accept(READING_BYTES) {
                    let r = app.pop_reading().expect("non-empty");
                    sup.submit(&r);
                }
                if app.queue.is_empty() {
                    app.draining = false;
                }
            }
            App::BulkSender {
                limit,
                sent,
                pattern,
            } => {
                if let Some(sock) = node.transport.tcp.first_mut() {
                    let room = sock.send_capacity();
                    let want = match limit {
                        Some(l) => (*l - *sent).min(room as u64) as usize,
                        None => room,
                    };
                    if want > 0 {
                        let mut chunk = node.seg_bufs.take();
                        chunk.extend((0..want).map(|k| (*pattern as usize + k) as u8));
                        let n = sock.send(&chunk);
                        node.seg_bufs.put(chunk);
                        *sent += n as u64;
                        *pattern = pattern.wrapping_add(n as u8);
                    }
                }
                if let Some(u) = node.transport.uip.as_mut() {
                    let chunk = [0x5au8; 256];
                    let mut pushed = u.send(&chunk);
                    while pushed > 0 {
                        if let Some(l) = limit {
                            *sent += pushed as u64;
                            if *sent >= *l {
                                break;
                            }
                        }
                        pushed = u.send(&chunk);
                    }
                }
            }
            App::Anemometer(app)
                if app.draining_allowed(app.draining) => {
                    app.draining = true;
                    // TCP path: push readings into the stream.
                    if let Some(sock) = node.transport.tcp.first_mut() {
                        while sock.send_capacity() >= READING_BYTES {
                            let Some(r) = app.pop_reading() else { break };
                            sock.send(&r);
                        }
                    }
                    // CoAP path: pack ~5 readings per message (five
                    // frames, like TCP segments, §9.3).
                    if let Some(c) = node.transport.coap_client.as_mut() {
                        let per_msg = if app.batch.is_some() { 5 } else { 1 };
                        while app.queue.len() >= per_msg
                            || (!app.queue.is_empty() && app.batch.is_none())
                        {
                            if c.backlog() >= 24 {
                                break;
                            }
                            let mut payload = Vec::new();
                            for _ in 0..per_msg.min(app.queue.len()) {
                                payload.extend_from_slice(&app.pop_reading().unwrap());
                            }
                            let more = !app.queue.is_empty();
                            let n = (app.submitted / per_msg as u64) as u32;
                            c.post_block(payload, n, more);
                        }
                    }
                    if app.queue.is_empty() {
                        app.draining = false;
                    }
                }
            _ => {}
        }
    }

    /// Drain phase: sinks consume delivered data.
    fn app_drain(&mut self, i: usize, now: Instant) {
        let node = &mut self.nodes[i];
        if let App::Sink {
            received,
            first_byte,
            last_byte,
            capture,
        } = &mut node.app
        {
            let mut buf = [0u8; 2048];
            for s in node.transport.tcp.iter_mut() {
                loop {
                    let n = s.recv(&mut buf);
                    if n == 0 {
                        break;
                    }
                    *received += n as u64;
                    if first_byte.is_none() {
                        *first_byte = Some(now);
                    }
                    *last_byte = Some(now);
                    if let Some(cap) = capture.as_mut() {
                        // Keyed by remote endpoint: one entry per TCP
                        // connection (reconnects use fresh ports).
                        let key = s.remote();
                        match cap.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, bytes)) => bytes.extend_from_slice(&buf[..n]),
                            None => cap.push((key, buf[..n].to_vec())),
                        }
                    }
                }
            }
        }
    }

    fn on_app_tick(&mut self, i: usize, now: Instant) {
        let interval = if let App::Anemometer(app) = &mut self.nodes[i].app {
            app.generate_reading();
            Some(app.interval)
        } else {
            None
        };
        if let Some(iv) = interval {
            self.queue.schedule(now + iv, Event::AppTick(i));
        }
        self.pump_transport(i, now);
    }

    // ------------------------------------------------------------------
    // Interference
    // ------------------------------------------------------------------

    fn on_interferer_start(&mut self, i: usize, now: Instant) {
        let App::Interferer(app) = &self.nodes[i].app else {
            return;
        };
        let burst = app.burst;
        let handle = self.medium.begin_tx(RadioIdx(i), now, now + burst);
        self.interferer_handles.insert(i, (handle, now));
        self.queue.schedule(now + burst, Event::InterfererEnd(i));
    }

    fn on_interferer_end(&mut self, i: usize, now: Instant) {
        if let Some((handle, _)) = self.interferer_handles.remove(&i) {
            // Interference is noise: nobody decodes it.
            self.medium.end_tx(handle, &[]);
        }
        let App::Interferer(app) = &self.nodes[i].app else {
            return;
        };
        let gap = app.next_gap(now, &mut self.rng);
        self.queue
            .schedule(now + gap, Event::InterfererStart(i));
    }
}
