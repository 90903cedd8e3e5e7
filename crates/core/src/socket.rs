//! The TCPlp connection state machine.
//!
//! This is a sans-IO port of the FreeBSD-derived protocol logic the
//! paper describes (§4.1): the socket consumes decoded [`Segment`]s and
//! a caller-supplied clock, and produces segments via
//! [`TcpSocket::poll_transmit`]. It implements:
//!
//! - the full RFC 793 state machine (active/passive open, simultaneous
//!   open, orderly close, TIME_WAIT),
//! - sliding-window send/receive over the fixed-size buffers of §4.3,
//!   including the in-place reassembly queue,
//! - New Reno congestion control with fast retransmit/fast recovery
//!   (RFC 5681/6582) and SACK-based recovery (RFC 2018),
//! - RTT estimation with the timestamp option (RFC 7323, incl. PAWS)
//!   and Karn's algorithm as fallback,
//! - delayed ACKs, zero-window probes (persist timer), challenge ACKs
//!   (RFC 5961), header-prediction counters (FreeBSD's predicate), and
//!   optional ECN (RFC 3168) for the RED/ECN experiments of Appendix A.
//!
//! Omitted, as in the paper: window scaling, urgent pointer, TCP-MD5.
//! Passive opens go through a bounded RFC 4987-style SYN cache in
//! [`ListenSocket`] (with an optional stateless cookie fallback), so a
//! SYN flood costs slots and bytes the node has explicitly budgeted —
//! never a full socket per forged SYN.

use crate::cc::{CcAction, NewReno};
use crate::config::TcpConfig;
use crate::recvbuf::RecvBuffer;
use crate::rtt::RttEstimator;
use crate::sack::SackScoreboard;
use crate::sendbuf::SendBuffer;
use crate::seq::TcpSeq;
use crate::stats::{CwndTrace, RttTrace, TcpStats};
use crate::wire::{Flags, SackBlock, Segment, SegmentView, Timestamps};
use lln_netip::{Ecn, Ipv6Addr};
use lln_sim::{Duration, Instant};

/// TCP connection states (RFC 793).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Active open in progress; SYN sent or queued.
    SynSent,
    /// Passive/simultaneous open; SYN received, SYN-ACK in flight.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN in flight.
    FinWait1,
    /// Our FIN acked; awaiting peer FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both closed simultaneously; awaiting FIN ack.
    Closing,
    /// We closed after CloseWait; FIN in flight.
    LastAck,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
}

/// Why a connection reached `Closed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CloseReason {
    /// Normal close handshake completed.
    Normal,
    /// Peer sent RST.
    Reset,
    /// Retransmission limit exceeded (the paper's 12-retry bound, §9.4).
    TooManyRetransmits,
    /// Keepalive probes went unanswered.
    KeepaliveTimeout,
    /// Zero-window probes went unanswered past the retransmission
    /// limit: the peer (or a forger speaking for it) advertised a
    /// closed window and never reopened it. Dying here turns a silent
    /// persist-forever stall into a supervisable failure.
    PersistTimeout,
    /// Locally aborted.
    Aborted,
}

impl CloseReason {
    /// True for reasons that indicate an unexpected connection death —
    /// the signal a connection supervisor uses to decide whether to
    /// reconnect (as opposed to a deliberate local/remote close).
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            CloseReason::Reset
                | CloseReason::TooManyRetransmits
                | CloseReason::KeepaliveTimeout
                | CloseReason::PersistTimeout
        )
    }
}

/// A full-scale TCP endpoint.
#[derive(Clone, Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    state: TcpState,
    close_reason: Option<CloseReason>,

    local_addr: Ipv6Addr,
    local_port: u16,
    remote_addr: Ipv6Addr,
    remote_port: u16,

    // --- send sequence space ---
    iss: TcpSeq,
    snd_una: TcpSeq,
    snd_nxt: TcpSeq,
    snd_max: TcpSeq,
    snd_wnd: u32,
    snd_wl1: TcpSeq,
    snd_wl2: TcpSeq,
    sndbuf: SendBuffer,
    snd_mss: usize,
    fin_queued: bool,
    /// Sequence number consumed by our FIN, once transmitted.
    fin_seq: Option<TcpSeq>,

    // --- receive sequence space ---
    irs: TcpSeq,
    rcv_nxt: TcpSeq,
    rcvbuf: RecvBuffer,
    fin_received: bool,

    // --- negotiated options ---
    ts_enabled: bool,
    sack_enabled: bool,
    ecn_enabled: bool,
    ts_recent: u32,
    last_ack_sent: TcpSeq,

    // --- ECN signalling state ---
    ecn_send_ece: bool,
    ecn_send_cwr: bool,

    // --- congestion control / RTT / SACK ---
    cc: NewReno,
    rtt: RttEstimator,
    sack: SackScoreboard,
    /// Karn fallback: (sequence being timed, send time); invalidated by
    /// any retransmission.
    rtt_timing: Option<(TcpSeq, Instant)>,
    /// Budget of SACK-driven retransmissions unlocked by received ACKs.
    sack_rexmit_budget: u32,

    // --- timers (absolute deadlines) ---
    rexmit_deadline: Option<Instant>,
    persist_deadline: Option<Instant>,
    persist_backoff: u32,
    /// Zero-window probes sent since the window last opened; bounded by
    /// `max_retransmits` so a permanently closed (possibly forged)
    /// window kills the connection instead of stalling it forever.
    persist_probes: u32,
    delack_deadline: Option<Instant>,
    timewait_deadline: Option<Instant>,
    consecutive_rexmits: u32,

    // --- output triggers ---
    ack_now: bool,
    delack_segs: u32,
    rexmit_now: bool,
    probe_now: bool,
    keep_probe_now: bool,
    send_rst: bool,

    // --- RFC 5961 §5 challenge-ACK rate limit ---
    /// Start of the current challenge-ACK accounting window.
    chack_window_start: Option<Instant>,
    /// Challenge ACKs sent within the current window.
    chack_sent: u32,

    // --- keepalive (RFC 1122 §4.2.3.6; optional) ---
    keep_deadline: Option<Instant>,
    keep_probes_sent: u32,

    /// Timestamp clock cache (last TSval generated).
    last_ts_value: u32,

    /// Payload and SACK-block storage of segments handed back by
    /// [`TcpSocket::recycle`]; the next segments reuse it.
    spare_payload: Vec<u8>,
    spare_sack: Vec<SackBlock>,

    /// Statistics.
    pub stats: TcpStats,
    /// Optional cwnd trace (Figure 7a).
    pub cwnd_trace: CwndTrace,
    /// Optional RTT sample trace.
    pub rtt_trace: RttTrace,
}

impl TcpSocket {
    /// Creates a closed socket bound to `local_addr`:`local_port`.
    pub fn new(cfg: TcpConfig, local_addr: Ipv6Addr, local_port: u16) -> Self {
        let sndbuf = SendBuffer::new(cfg.send_buf);
        let rcvbuf = RecvBuffer::new(cfg.recv_buf);
        let cc = NewReno::new(cfg.mss);
        let rtt = RttEstimator::new(cfg.min_rto, cfg.max_rto, cfg.initial_rto);
        let mss = cfg.mss;
        TcpSocket {
            cfg,
            state: TcpState::Closed,
            close_reason: None,
            local_addr,
            local_port,
            remote_addr: Ipv6Addr::UNSPECIFIED,
            remote_port: 0,
            iss: TcpSeq(0),
            snd_una: TcpSeq(0),
            snd_nxt: TcpSeq(0),
            snd_max: TcpSeq(0),
            snd_wnd: 0,
            snd_wl1: TcpSeq(0),
            snd_wl2: TcpSeq(0),
            sndbuf,
            snd_mss: mss,
            fin_queued: false,
            fin_seq: None,
            irs: TcpSeq(0),
            rcv_nxt: TcpSeq(0),
            rcvbuf,
            fin_received: false,
            ts_enabled: false,
            sack_enabled: false,
            ecn_enabled: false,
            ts_recent: 0,
            last_ack_sent: TcpSeq(0),
            ecn_send_ece: false,
            ecn_send_cwr: false,
            cc,
            rtt,
            sack: SackScoreboard::new(),
            rtt_timing: None,
            sack_rexmit_budget: 0,
            rexmit_deadline: None,
            persist_deadline: None,
            persist_backoff: 0,
            persist_probes: 0,
            delack_deadline: None,
            timewait_deadline: None,
            consecutive_rexmits: 0,
            ack_now: false,
            delack_segs: 0,
            rexmit_now: false,
            probe_now: false,
            keep_probe_now: false,
            send_rst: false,
            chack_window_start: None,
            chack_sent: 0,
            keep_deadline: None,
            keep_probes_sent: 0,
            last_ts_value: 1,
            spare_payload: Vec::new(),
            spare_sack: Vec::new(),
            stats: TcpStats::default(),
            cwnd_trace: CwndTrace::new(),
            rtt_trace: RttTrace::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Why the socket closed, if it did.
    pub fn close_reason(&self) -> Option<CloseReason> {
        self.close_reason
    }

    /// Negotiated send MSS.
    pub fn mss(&self) -> usize {
        self.snd_mss
    }

    /// Remote endpoint.
    pub fn remote(&self) -> (Ipv6Addr, u16) {
        (self.remote_addr, self.remote_port)
    }

    /// Local endpoint.
    pub fn local(&self) -> (Ipv6Addr, u16) {
        (self.local_addr, self.local_port)
    }

    /// Bytes this connection pins against the node memory budget:
    /// send + receive buffers plus the control block (§4.3 / Table 3).
    /// A closed socket pins nothing — its buffers are reclaimable.
    pub fn mem_footprint(&self) -> usize {
        if self.state == TcpState::Closed {
            0
        } else {
            self.cfg.send_buf + self.cfg.recv_buf + crate::mem::TCP_CB_BYTES
        }
    }

    /// Bytes ready for the application to read.
    pub fn available(&self) -> usize {
        self.rcvbuf.available()
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        self.sndbuf.free()
    }

    /// Bytes buffered but not yet acknowledged (send side).
    pub fn send_queued(&self) -> usize {
        self.sndbuf.len()
    }

    /// True once the peer's FIN has been consumed and no data remains.
    pub fn peer_closed(&self) -> bool {
        self.fin_received && self.rcvbuf.available() == 0
    }

    /// True while the socket can accept data from the application.
    pub fn may_send(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynReceived
        ) && !self.fin_queued
    }

    /// Current congestion window (bytes), for telemetry.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Smoothed RTT estimate, if measured.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn flight_size(&self) -> u32 {
        self.snd_max.distance_from(self.snd_una)
    }

    /// True when ECN was negotiated on this connection: the IP layer
    /// should then send data packets with the ECT(0) codepoint.
    pub fn ecn_active(&self) -> bool {
        self.ecn_enabled
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Begins an active open toward `remote`; `iss` is the initial send
    /// sequence number (drawn by the host's RNG).
    pub fn connect(&mut self, remote_addr: Ipv6Addr, remote_port: u16, iss: u32, now: Instant) {
        assert_eq!(self.state, TcpState::Closed, "connect on non-closed socket");
        self.remote_addr = remote_addr;
        self.remote_port = remote_port;
        self.iss = TcpSeq(iss);
        self.snd_una = self.iss;
        self.snd_nxt = self.iss;
        self.snd_max = self.iss;
        self.state = TcpState::SynSent;
        self.close_reason = None;
        // Offer everything we support; negotiation trims on SYN-ACK.
        self.ts_enabled = self.cfg.use_timestamps;
        self.sack_enabled = self.cfg.use_sack;
        self.ecn_enabled = self.cfg.use_ecn;
        self.rexmit_deadline = Some(now + self.rtt.rto());
    }

    /// Accepts a connection from a received SYN (passive open). Called
    /// by [`ListenSocket`].
    #[allow(clippy::too_many_arguments)]
    fn accept(
        cfg: TcpConfig,
        local_addr: Ipv6Addr,
        local_port: u16,
        remote_addr: Ipv6Addr,
        remote_port: u16,
        syn: &Segment,
        iss: u32,
        now: Instant,
    ) -> TcpSocket {
        let mut s = TcpSocket::new(cfg, local_addr, local_port);
        s.remote_addr = remote_addr;
        s.remote_port = remote_port;
        s.state = TcpState::SynReceived;
        s.iss = TcpSeq(iss);
        s.snd_una = s.iss;
        s.snd_nxt = s.iss;
        s.snd_max = s.iss;
        s.snd_wnd = u32::from(syn.window);
        s.snd_wl1 = syn.seq;
        s.irs = syn.seq;
        s.rcv_nxt = syn.seq + 1;
        s.last_ack_sent = s.rcv_nxt;
        // Option negotiation.
        s.ts_enabled = s.cfg.use_timestamps && syn.timestamps.is_some();
        if let Some(ts) = syn.timestamps {
            s.ts_recent = ts.value;
        }
        s.sack_enabled = s.cfg.use_sack && syn.sack_permitted;
        s.ecn_enabled = s.cfg.use_ecn
            && syn.flags.contains(Flags::ECE)
            && syn.flags.contains(Flags::CWR);
        if let Some(mss) = syn.mss {
            s.snd_mss = s.cfg.mss.min(usize::from(mss));
        }
        s.cc.set_mss(s.snd_mss);
        s.rexmit_deadline = Some(now + s.rtt.rto());
        s
    }

    /// Appends data to the send stream; returns bytes accepted.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if !self.may_send() {
            return 0;
        }
        self.sndbuf.push(data)
    }

    /// Reads delivered stream data.
    pub fn recv(&mut self, out: &mut [u8]) -> usize {
        let had = self.rcvbuf.available();
        let n = self.rcvbuf.read(out);
        // Opening the window after the app drains data may warrant a
        // window-update ACK (avoid silly-window: only when substantial).
        if n > 0 && had >= self.rcvbuf.capacity() / 2 && !matches!(self.state, TcpState::Closed) {
            self.ack_now = true;
        }
        n
    }

    /// Initiates an orderly close (half-close of our direction).
    pub fn close(&mut self) {
        match self.state {
            TcpState::Closed | TcpState::SynSent => {
                self.enter_closed(CloseReason::Normal);
            }
            TcpState::SynReceived | TcpState::Established => {
                self.fin_queued = true;
                self.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.fin_queued = true;
                self.state = TcpState::LastAck;
            }
            _ => {}
        }
    }

    /// Hard abort: queue a RST and drop the connection.
    pub fn abort(&mut self) {
        if !matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            self.send_rst = true;
        }
        self.enter_closed(CloseReason::Aborted);
    }

    fn enter_closed(&mut self, reason: CloseReason) {
        self.state = TcpState::Closed;
        if self.close_reason.is_none() {
            self.close_reason = Some(reason);
        }
        self.rexmit_deadline = None;
        self.persist_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = None;
        self.keep_deadline = None;
        self.sack.clear();
    }

    /// Queues a challenge ACK (RFC 5961), subject to the §5 rate limit:
    /// at most `challenge_ack_limit` per `challenge_ack_window`. A
    /// blind attacker flooding in-window RSTs/SYNs earns a bounded
    /// number of responses per second; excess triggers are counted and
    /// dropped silently.
    fn send_challenge_ack(&mut self, now: Instant) {
        match self.chack_window_start {
            Some(start) if now.saturating_duration_since(start) < self.cfg.challenge_ack_window => {
            }
            _ => {
                self.chack_window_start = Some(now);
                self.chack_sent = 0;
            }
        }
        if self.chack_sent < self.cfg.challenge_ack_limit {
            self.chack_sent += 1;
            self.stats.challenge_acks += 1;
            self.ack_now = true;
        } else {
            self.stats.challenge_acks_limited += 1;
        }
    }

    /// Half-open discovery (RFC 9293 §3.5.1): queues one keepalive-style
    /// probe (`seq = snd_nxt - 1`) for the next [`Self::poll_transmit`].
    /// A live peer answers with an ACK; a peer that lost the connection
    /// (say, by rebooting) answers with an RST, which closes this side.
    /// Call it when the peer shows signs of a new incarnation, such as a
    /// SYN from the same address to the same port.
    pub fn probe_half_open(&mut self) {
        if self.state == TcpState::Established {
            self.keep_probe_now = true;
        }
    }

    /// (Re-)arms the keepalive idle timer, if keepalive is enabled.
    fn rearm_keepalive(&mut self, now: Instant) {
        if let Some(idle) = self.cfg.keepalive_idle {
            if self.state == TcpState::Established {
                self.keep_deadline = Some(now + idle);
                self.keep_probes_sent = 0;
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest instant at which [`Self::on_timer`] must be called.
    pub fn poll_at(&self) -> Option<Instant> {
        let mut t: Option<Instant> = None;
        for d in [
            self.rexmit_deadline,
            self.persist_deadline,
            self.delack_deadline,
            self.timewait_deadline,
            self.keep_deadline,
        ]
        .into_iter()
        .flatten()
        {
            t = Some(match t {
                None => d,
                Some(cur) => cur.min(d),
            });
        }
        t
    }

    /// Fires any timers whose deadlines have passed.
    pub fn on_timer(&mut self, now: Instant) {
        if let Some(d) = self.timewait_deadline {
            if now >= d {
                self.timewait_deadline = None;
                self.enter_closed(CloseReason::Normal);
            }
        }
        if let Some(d) = self.delack_deadline {
            if now >= d {
                self.delack_deadline = None;
                if self.delack_segs > 0 || self.rcvbuf.has_out_of_order() {
                    self.ack_now = true;
                }
            }
        }
        if let Some(d) = self.persist_deadline {
            if now >= d {
                self.persist_probes += 1;
                if self.persist_probes > self.cfg.max_retransmits {
                    self.enter_closed(CloseReason::PersistTimeout);
                    return;
                }
                self.persist_backoff = (self.persist_backoff + 1).min(10);
                let next = self
                    .cfg
                    .persist_base
                    .saturating_mul(1 << self.persist_backoff.min(6));
                self.persist_deadline = Some(now + next.min(Duration::from_secs(60)));
                self.probe_now = true;
            }
        }
        if let Some(d) = self.keep_deadline {
            if now >= d && self.state == TcpState::Established {
                self.keep_probes_sent += 1;
                if self.keep_probes_sent > self.cfg.keepalive_probes {
                    self.enter_closed(CloseReason::KeepaliveTimeout);
                    return;
                }
                self.keep_probe_now = true;
                self.keep_deadline = Some(now + self.cfg.keepalive_interval);
            }
        }
        if let Some(d) = self.rexmit_deadline {
            if now >= d {
                self.on_rexmit_timeout(now);
            }
        }
    }

    fn on_rexmit_timeout(&mut self, now: Instant) {
        self.rexmit_deadline = None;
        self.consecutive_rexmits += 1;
        if self.consecutive_rexmits > self.cfg.max_retransmits {
            self.enter_closed(CloseReason::TooManyRetransmits);
            return;
        }
        self.stats.rexmit_timeouts += 1;
        self.rtt.back_off();
        // Karn: a retransmitted segment must not be timed.
        self.rtt_timing = None;
        let flight = self.flight_size();
        self.cc.on_timeout(flight);
        self.trace_cwnd(now);
        self.sack.end_recovery();
        self.sack_rexmit_budget = 0;
        // Go-back-N: rewind snd_nxt so output resends from snd_una
        // (covers SYN, data, and FIN uniformly).
        self.snd_nxt = self.snd_una;
        if self.fin_seq.is_some() {
            // FIN will be re-emitted when data drains again.
            self.fin_seq = None;
        }
    }

    fn trace_cwnd(&mut self, now: Instant) {
        self.cwnd_trace
            .record(now, self.cc.cwnd(), self.cc.ssthresh().min(1 << 30));
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

    /// Processes an incoming, checksum-verified segment. `ecn` is the
    /// IP-layer codepoint (CE marking feeds the ECN machinery).
    /// Convenience wrapper over [`TcpSocket::on_segment_view`] for
    /// callers holding an owned [`Segment`].
    pub fn on_segment(&mut self, seg: &Segment, ecn: Ecn, now: Instant) {
        self.on_segment_view(seg.view(), ecn, now);
    }

    /// Processes an incoming, checksum-verified segment handed over as
    /// a borrowed view — the zero-copy input path: the payload slice
    /// is read straight into the receive buffer, never copied into an
    /// intermediate allocation.
    pub fn on_segment_view(&mut self, seg: SegmentView<'_>, ecn: Ecn, now: Instant) {
        if matches!(self.state, TcpState::Closed) {
            return;
        }
        self.stats.segs_rcvd += 1;
        self.rearm_keepalive(now);

        match self.state {
            TcpState::SynSent => self.input_syn_sent(seg, now),
            _ => self.input_general(seg, ecn, now),
        }
    }

    fn input_syn_sent(&mut self, seg: SegmentView<'_>, now: Instant) {
        let has_ack = seg.flags.contains(Flags::ACK);
        if has_ack && (seg.ack.le(self.iss) || seg.ack.gt(self.snd_max)) {
            // Unacceptable ACK; RFC 793 says send RST unless RST set.
            if !seg.flags.contains(Flags::RST) {
                self.send_rst = true;
            }
            return;
        }
        if seg.flags.contains(Flags::RST) {
            if has_ack {
                self.enter_closed(CloseReason::Reset);
            }
            return;
        }
        if !seg.flags.contains(Flags::SYN) {
            return;
        }
        // SYN (and possibly ACK) received.
        self.irs = seg.seq;
        self.rcv_nxt = seg.seq + 1;
        self.last_ack_sent = self.rcv_nxt;
        // Option negotiation.
        self.ts_enabled = self.ts_enabled && seg.timestamps.is_some();
        if let Some(ts) = seg.timestamps {
            if self.ts_enabled {
                self.ts_recent = ts.value;
            }
        }
        self.sack_enabled = self.sack_enabled && seg.sack_permitted;
        if let Some(m) = seg.mss {
            self.snd_mss = self.cfg.mss.min(usize::from(m));
            self.cc.set_mss(self.snd_mss);
        }
        if has_ack {
            // Standard open: SYN-ACK. ECN negotiation: SYN-ACK carries
            // ECE (without CWR) when the passive side agreed.
            self.ecn_enabled = self.ecn_enabled
                && seg.flags.contains(Flags::ECE)
                && !seg.flags.contains(Flags::CWR);
            self.snd_una = seg.ack;
            self.snd_wnd = u32::from(seg.window);
            self.snd_wl1 = seg.seq;
            self.snd_wl2 = seg.ack;
            self.consecutive_rexmits = 0;
            self.rexmit_deadline = None;
            // RTT from the handshake.
            if let Some(ts) = seg.timestamps {
                if self.ts_enabled {
                    self.take_ts_rtt_sample(ts.echo, now);
                }
            }
            self.state = TcpState::Established;
            self.rearm_keepalive(now);
            self.ack_now = true;
        } else {
            // Simultaneous open: become SYN-RECEIVED and re-emit our SYN
            // as SYN-ACK.
            self.state = TcpState::SynReceived;
            self.snd_nxt = self.iss;
            self.ecn_enabled = false; // keep the rare path simple
        }
    }

    #[allow(clippy::too_many_lines)]
    fn input_general(&mut self, seg: SegmentView<'_>, ecn: Ecn, now: Instant) {
        let rcv_wnd = self.rcvbuf.window() as u32;
        let seg_len = seg.seq_len();

        // --- PAWS (RFC 7323 §5.3) ---
        if self.ts_enabled {
            if let Some(ts) = seg.timestamps {
                if ts_lt(ts.value, self.ts_recent) && !seg.flags.contains(Flags::RST) {
                    self.stats.paws_drops += 1;
                    self.ack_now = true;
                    return;
                }
            }
        }

        // --- Header prediction (FreeBSD's predicate, counted) ---
        // In the established steady state almost every segment is
        // either the next pure ACK or the next in-order data segment.
        // The predicate is FreeBSD's: any miss (window change, SYN/FIN/
        // RST/URG, out-of-order seq, old or too-new ack) is not counted.
        // Matching segments are only counted; they take the general
        // machine below like every other segment. A separate short
        // path bought no host speed here (DESIGN.md §12).
        if self.state == TcpState::Established
            && seg.seq == self.rcv_nxt
            && !seg.flags.intersects(Flags::FIN | Flags::SYN | Flags::RST | Flags::URG)
            && seg.flags.contains(Flags::ACK)
        {
            if seg.payload.is_empty()
                && seg.ack.gt(self.snd_una)
                && seg.ack.le(self.snd_max)
                && u32::from(seg.window) == self.snd_wnd
            {
                self.stats.predicted_acks += 1;
            } else if !seg.payload.is_empty() && seg.ack == self.snd_una && rcv_wnd > 0 {
                self.stats.predicted_data += 1;
            }
        }

        // --- Sequence acceptability (RFC 793 p.26) ---
        let acceptable = if seg_len == 0 {
            if rcv_wnd == 0 {
                seg.seq == self.rcv_nxt
            } else {
                seg.seq.in_window(self.rcv_nxt, rcv_wnd) || seg.seq == self.rcv_nxt
            }
        } else if rcv_wnd == 0 {
            false
        } else {
            seg.seq.in_window(self.rcv_nxt, rcv_wnd)
                || (seg.seq + (seg_len - 1)).in_window(self.rcv_nxt, rcv_wnd)
                || self.rcv_nxt.in_window(seg.seq, seg_len)
        };
        if !acceptable {
            if !seg.flags.contains(Flags::RST) {
                self.ack_now = true; // dup/old segment: re-ACK
            }
            return;
        }

        // --- RST (RFC 5961 §3) ---
        if seg.flags.contains(Flags::RST) {
            if seg.seq == self.rcv_nxt {
                self.enter_closed(CloseReason::Reset);
            } else {
                // In-window but not exact: challenge ACK.
                self.send_challenge_ack(now);
            }
            return;
        }

        // --- SYN in window (RFC 5961 §4): challenge ACK ---
        if seg.flags.contains(Flags::SYN) {
            self.send_challenge_ack(now);
            return;
        }

        if !seg.flags.contains(Flags::ACK) {
            return;
        }

        self.update_ts_recent(seg, seg_len);

        // --- SYN-RECEIVED: does this ACK complete the handshake? ---
        if self.state == TcpState::SynReceived {
            if seg.ack.gt(self.snd_una) && seg.ack.le(self.snd_max) {
                self.state = TcpState::Established;
                self.rearm_keepalive(now);
                self.snd_wnd = u32::from(seg.window);
                self.snd_wl1 = seg.seq;
                self.snd_wl2 = seg.ack;
                self.consecutive_rexmits = 0;
            } else {
                self.send_rst = true;
                return;
            }
        }

        // --- ACK processing ---
        if seg.ack.gt(self.snd_max) {
            // ACK for data we never sent.
            self.ack_now = true;
            return;
        }

        // RFC 1122 §4.2.2.17: a peer that keeps acknowledging our
        // zero-window probes keeps the connection alive; only
        // *unanswered* probes advance toward PersistTimeout.
        if self.persist_deadline.is_some() {
            self.persist_probes = 0;
        }

        let had_sack_news = self.ingest_sack(seg);
        self.note_ecn_echo(seg, now);

        if seg.ack.gt(self.snd_una) {
            self.process_new_ack(seg, now);
        } else if seg.ack == self.snd_una {
            self.same_ack_dup_check(seg, seg_len, had_sack_news, now);
        }

        self.update_send_window(seg, now);

        // --- Payload processing ---
        if !seg.payload.is_empty()
            && matches!(
                self.state,
                TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
            )
        {
            self.process_payload(seg, ecn, now);
        } else if ecn == Ecn::Ce && self.ecn_enabled {
            self.ecn_send_ece = true;
            self.ack_now = true;
        }

        // Receiver side of CWR: peer says it reduced; stop echoing.
        if self.ecn_enabled && seg.flags.contains(Flags::CWR) {
            self.ecn_send_ece = false;
        }

        // --- FIN processing ---
        if seg.flags.contains(Flags::FIN) {
            let fin_seq = seg.seq + seg.payload.len() as u32;
            if fin_seq == self.rcv_nxt && !self.fin_received {
                self.rcv_nxt += 1;
                self.fin_received = true;
                self.ack_now = true;
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        // Our FIN not yet acked -> Closing; the ACK case
                        // is handled in process_new_ack.
                        self.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        self.timewait_deadline = Some(now + self.cfg.time_wait);
                    }
                    _ => {}
                }
            } else if fin_seq.gt(self.rcv_nxt) {
                // FIN beyond a hole; ignore until data arrives.
            }
        }
    }

    /// RFC 7323 §4.3: remember the peer's timestamp for segments that
    /// cover `last_ack_sent`.
    fn update_ts_recent(&mut self, seg: SegmentView<'_>, seg_len: u32) {
        if self.ts_enabled {
            if let Some(ts) = seg.timestamps {
                if seg.seq.le(self.last_ack_sent)
                    && self.last_ack_sent.lt(seg.seq + seg_len.max(1))
                {
                    self.ts_recent = ts.value;
                }
            }
        }
    }

    /// Ingest SACK blocks (and note whether they carried news, which
    /// makes a same-ack segment count as a dup ACK for recovery).
    fn ingest_sack(&mut self, seg: SegmentView<'_>) -> bool {
        if self.sack_enabled && !seg.sack_blocks().is_empty() {
            let before = self.sack.sacked_bytes();
            let res = self.sack.update(seg.sack_blocks(), self.snd_una, self.snd_max);
            self.stats.sack_blocks_rejected += u64::from(res.rejected);
            self.stats.dsack_rcvd += u64::from(res.dsack);
            self.sack.sacked_bytes() != before
        } else {
            false
        }
    }

    /// ECN echo from the receiver: reduce once per window.
    fn note_ecn_echo(&mut self, seg: SegmentView<'_>, now: Instant) {
        if self.ecn_enabled && seg.flags.contains(Flags::ECE)
            && self.cc.on_ecn_echo(self.snd_una, self.snd_max) {
                self.stats.ecn_reductions += 1;
                self.ecn_send_cwr = true;
                self.trace_cwnd(now);
            }
    }

    /// Same-ack handling: classify dup ACKs (RFC 5681 §3.2) and drive
    /// fast retransmit / SACK-based recovery.
    fn same_ack_dup_check(
        &mut self,
        seg: SegmentView<'_>,
        seg_len: u32,
        had_sack_news: bool,
        now: Instant,
    ) {
        let is_window_update = self.snd_wnd != u32::from(seg.window);
        let is_dup = seg.payload.is_empty()
            && seg_len == 0
            && !is_window_update
            && self.snd_max.gt(self.snd_una);
        if is_dup || (had_sack_news && self.snd_max.gt(self.snd_una)) {
            self.stats.dup_acks_rcvd += 1;
            let flight = self.flight_size();
            match self.cc.on_dup_ack(self.snd_una, self.snd_max, flight) {
                CcAction::FastRetransmit => {
                    self.stats.fast_rexmits += 1;
                    self.rexmit_now = true;
                    self.sack.start_recovery(self.snd_una);
                    self.sack_rexmit_budget = 1;
                    self.trace_cwnd(now);
                }
                _ => {
                    if self.cc.in_recovery() {
                        self.sack_rexmit_budget += 1;
                    }
                }
            }
        }
    }

    /// Window update (RFC 793 p.72), including persist-timer entry/exit.
    /// `persist_recover` lets a genuine window-opening ACK through
    /// even when a forged segment with an inflated seq has wedged
    /// snd_wl1 ahead of anything the real peer will send: while we
    /// are persisting, any ACK at snd_una that opens the window is
    /// believed. Without it a single forged zero-window ACK turns
    /// into a silent permanent stall.
    fn update_send_window(&mut self, seg: SegmentView<'_>, now: Instant) {
        let wl_ok = seg.seq.gt(self.snd_wl1)
            || (seg.seq == self.snd_wl1 && seg.ack.ge(self.snd_wl2));
        let persist_recover = self.persist_deadline.is_some()
            && seg.ack == self.snd_una
            && u32::from(seg.window) > 0;
        if wl_ok || persist_recover {
            self.snd_wnd = u32::from(seg.window);
            self.snd_wl1 = seg.seq;
            self.snd_wl2 = seg.ack;
            if self.snd_wnd == 0 && !self.sndbuf.is_empty() {
                if self.persist_deadline.is_none() {
                    self.persist_backoff = 0;
                    self.persist_probes = 0;
                    self.persist_deadline = Some(now + self.cfg.persist_base);
                }
            } else {
                self.persist_deadline = None;
                self.persist_backoff = 0;
                self.persist_probes = 0;
            }
        }
    }

    fn process_new_ack(&mut self, seg: SegmentView<'_>, now: Instant) {
        let flight_before = self.flight_size();
        let acked = seg.ack.distance_from(self.snd_una);

        // RTT sampling: timestamps make retransmitted segments safe to
        // time (§9.4); otherwise Karn's algorithm via rtt_timing.
        let mut sampled = false;
        if self.ts_enabled {
            if let Some(ts) = seg.timestamps {
                if ts.echo != 0 {
                    sampled = self.take_ts_rtt_sample(ts.echo, now);
                }
            }
        }
        if !sampled {
            if let Some((timed_seq, sent_at)) = self.rtt_timing {
                if seg.ack.gt(timed_seq) {
                    let rtt = now.saturating_duration_since(sent_at);
                    self.rtt.sample(rtt);
                    self.stats.rtt_samples += 1;
                    self.rtt_trace.record(now, rtt);
                    self.rtt_timing = None;
                }
            }
        }

        // Advance send buffer: data bytes acked excludes SYN/FIN seqs.
        let syn_in_flight = u32::from(self.snd_una == self.iss);
        let data_acked = (acked - syn_in_flight.min(acked)).min(self.sndbuf.len() as u32);
        if data_acked > 0 {
            self.sndbuf.advance(data_acked as usize);
        }
        self.snd_una = seg.ack;
        if self.snd_nxt.lt(self.snd_una) {
            self.snd_nxt = self.snd_una;
        }
        self.sack.advance(self.snd_una);
        self.consecutive_rexmits = 0;

        // Congestion control.
        match self.cc.on_new_ack(seg.ack, acked, flight_before) {
            CcAction::PartialAckRetransmit => {
                self.rexmit_now = true;
                self.sack_rexmit_budget += 1;
            }
            _ => {
                if !self.cc.in_recovery() {
                    self.sack.end_recovery();
                    self.sack_rexmit_budget = 0;
                }
            }
        }
        self.trace_cwnd(now);

        // Retransmission timer: stop if everything acked, else restart.
        if self.snd_una == self.snd_max {
            self.rexmit_deadline = None;
        } else {
            self.rexmit_deadline = Some(now + self.rtt.rto());
        }

        // Did this ACK cover our FIN?
        if let Some(fin) = self.fin_seq {
            if seg.ack.gt(fin) {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => {
                        self.state = TcpState::TimeWait;
                        self.timewait_deadline = Some(now + self.cfg.time_wait);
                    }
                    TcpState::LastAck => self.enter_closed(CloseReason::Normal),
                    _ => {}
                }
            }
        }
    }

    fn take_ts_rtt_sample(&mut self, echo: u32, now: Instant) -> bool {
        let now_ts = self.ts_clock(now);
        if echo == 0 || ts_lt(now_ts, echo) {
            return false;
        }
        let delta_ticks = now_ts.wrapping_sub(echo);
        // Discard absurd samples (e.g. echo from before a clock wrap).
        if delta_ticks > 1 << 28 {
            return false;
        }
        let rtt = Duration::from_micros(
            u64::from(delta_ticks) * self.cfg.ts_granularity.as_micros(),
        );
        self.rtt.sample(rtt);
        self.stats.rtt_samples += 1;
        self.rtt_trace.record(now, rtt);
        true
    }

    fn process_payload(&mut self, seg: SegmentView<'_>, ecn: Ecn, now: Instant) {
        // Trim data before rcv_nxt.
        let mut offset_in_seg = 0usize;
        let mut stream_off = 0usize;
        if seg.seq.lt(self.rcv_nxt) {
            offset_in_seg = self.rcv_nxt.distance_from(seg.seq) as usize;
            if offset_in_seg >= seg.payload.len() {
                // Entirely duplicate data.
                self.ack_now = true;
                return;
            }
        } else {
            stream_off = seg.seq.distance_from(self.rcv_nxt) as usize;
        }
        let data = &seg.payload[offset_in_seg..];
        let was_ooo = stream_off > 0;
        let conflicts_before = self.rcvbuf.conflicts();
        let newly = self.rcvbuf.write(stream_off, data);
        self.stats.reassembly_conflicts += self.rcvbuf.conflicts() - conflicts_before;
        self.rcv_nxt += newly as u32;
        self.stats.bytes_rcvd += newly as u64;
        if was_ooo {
            self.stats.ooo_segments += 1;
        }

        // CE mark on a data packet: echo congestion to the sender.
        if ecn == Ecn::Ce && self.ecn_enabled {
            self.ecn_send_ece = true;
        }

        // ACK policy: immediate ACK for out-of-order data, when a hole
        // was just filled (so the sender's SACK view updates promptly),
        // or with delayed ACKs disabled; otherwise delayed ACK every
        // second full segment.
        if was_ooo
            || self.rcvbuf.has_out_of_order()
            || newly > data.len()
            || !self.cfg.delayed_ack
        {
            self.ack_now = true;
        } else {
            self.delack_segs += 1;
            if self.delack_segs >= 2 {
                self.ack_now = true;
            } else if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + self.cfg.delack_timeout);
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment output
    // ------------------------------------------------------------------

    /// Produces the next segment to transmit, if any. Callers loop until
    /// `None`. The segment is fully formed except IP encapsulation.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<Segment> {
        // RST takes priority and is valid even when Closed. It also
        // subsumes any pending pure ACK: emitting an ACK after our own
        // RST would both waste a frame and re-open the peer's view of
        // the connection we just tore down.
        if self.send_rst {
            self.send_rst = false;
            self.ack_now = false;
            self.delack_segs = 0;
            self.delack_deadline = None;
            let mut seg = self.make_segment(Flags::RST | Flags::ACK);
            seg.seq = self.snd_nxt;
            seg.ack = self.rcv_nxt;
            self.stats.segs_sent += 1;
            return Some(seg);
        }
        match self.state {
            TcpState::Closed | TcpState::TimeWait => self.poll_ack_only(now),
            TcpState::SynSent => self.poll_syn(false, now),
            TcpState::SynReceived => self.poll_syn(true, now),
            TcpState::Established
            | TcpState::FinWait1
            | TcpState::FinWait2
            | TcpState::CloseWait
            | TcpState::Closing
            | TcpState::LastAck => self.poll_data(now),
        }
    }

    /// Hands back a segment from [`TcpSocket::poll_transmit`] once it
    /// has been encoded. Its payload and SACK-block storage carry the
    /// next segments, so a steady transfer stops allocating per
    /// segment. Optional: a segment that is simply dropped costs an
    /// allocation.
    pub fn recycle(&mut self, seg: Segment) {
        if seg.payload.capacity() > self.spare_payload.capacity() {
            self.spare_payload = seg.payload;
        }
        if seg.sack_blocks.capacity() > self.spare_sack.capacity() {
            self.spare_sack = seg.sack_blocks;
        }
    }

    fn poll_ack_only(&mut self, now: Instant) -> Option<Segment> {
        if self.ack_now && !matches!(self.state, TcpState::Closed) {
            Some(self.emit_ack(now))
        } else {
            None
        }
    }

    fn poll_syn(&mut self, with_ack: bool, now: Instant) -> Option<Segment> {
        if self.snd_nxt != self.iss {
            // SYN already in flight. A pending pure ACK must still go
            // out (e.g. re-ACKing the peer's retransmitted or crossed
            // SYN-ACK during simultaneous open).
            if with_ack && self.ack_now {
                return Some(self.emit_ack(now));
            }
            return None;
        }
        let mut flags = Flags::SYN;
        if with_ack {
            flags |= Flags::ACK;
        }
        // ECN setup handshake (RFC 3168 §6.1.1): SYN carries ECE|CWR,
        // SYN-ACK carries ECE only.
        if self.ecn_enabled {
            if with_ack {
                flags |= Flags::ECE;
            } else {
                flags |= Flags::ECE | Flags::CWR;
            }
        }
        let mut seg = self.make_segment(flags);
        seg.seq = self.iss;
        seg.ack = if with_ack { self.rcv_nxt } else { TcpSeq(0) };
        seg.window = self.rcvbuf.window().min(65535) as u16;
        seg.mss = Some(self.cfg.mss.min(65535) as u16);
        seg.sack_permitted = self.sack_enabled;
        if self.ts_enabled {
            seg.timestamps = Some(Timestamps {
                value: self.ts_clock(now),
                echo: if with_ack { self.ts_recent } else { 0 },
            });
        }
        self.snd_nxt = self.iss + 1;
        self.snd_max = self.snd_max.max(self.snd_nxt);
        if self.rexmit_deadline.is_none() {
            self.rexmit_deadline = Some(now + self.rtt.rto());
        }
        if self.rtt_timing.is_none() {
            self.rtt_timing = Some((self.iss, now));
        }
        self.stats.segs_sent += 1;
        self.ack_now = false;
        Some(seg)
    }

    fn poll_data(&mut self, now: Instant) -> Option<Segment> {
        // 1. Fast retransmit of the first unacked segment.
        if self.rexmit_now {
            self.rexmit_now = false;
            if self.snd_max.gt(self.snd_una) {
                return Some(self.emit_retransmission(self.snd_una, now));
            }
        }

        // 2. SACK-driven hole retransmissions (budgeted by ACK clock).
        if self.cc.in_recovery() && self.sack_enabled && self.sack_rexmit_budget > 0 {
            if let Some((start, len)) = self.sack.next_hole(self.snd_una, self.snd_mss as u32) {
                // Only data bytes can be retransmitted from the buffer.
                let off = start.distance_from(self.snd_una) as usize;
                if off < self.sndbuf.len() && len > 0 {
                    self.sack_rexmit_budget -= 1;
                    self.stats.sack_rexmits += 1;
                    return Some(self.emit_range(start, len as usize, now, true));
                }
            }
            self.sack_rexmit_budget = 0;
        }

        // 3. New data within min(cwnd, peer window).
        let probing = self.probe_now;
        self.probe_now = false;
        let in_flight = self.snd_nxt.distance_from(self.snd_una) as usize;
        let buffered = self.sndbuf.len();
        let unsent = buffered.saturating_sub(in_flight.min(buffered));
        let wnd =
            (self.cc.cwnd().min(self.snd_wnd.max(u32::from(probing)))) as usize;
        let usable = wnd.saturating_sub(in_flight);
        let mut len = unsent.min(usable).min(self.snd_mss);

        // Nagle: hold sub-MSS segments while data is outstanding.
        if len > 0
            && len < self.snd_mss
            && len < unsent.min(self.snd_mss)
        {
            // len limited by window, not by data: allow (window-limited
            // senders must still fill the window).
        } else if len > 0 && len == unsent && len < self.snd_mss && in_flight > 0 && self.cfg.nagle
            && !self.fin_queued && !probing {
                len = 0;
            }

        // Zero-window probe: force out one byte.
        if probing && len == 0 && unsent > 0 {
            len = 1;
        }
        if probing && len > 0 && self.snd_wnd == 0 {
            self.stats.zero_window_probes += 1;
        }

        // Arm the persist timer from the output path too (FreeBSD's
        // tcp_output does the same): data is waiting, the peer window
        // is closed, and nothing is in flight to trigger an ACK.
        if len == 0
            && unsent > 0
            && self.snd_wnd == 0
            && in_flight == 0
            && self.persist_deadline.is_none()
            && self.rexmit_deadline.is_none()
        {
            self.persist_backoff = 0;
            self.persist_probes = 0;
            self.persist_deadline = Some(now + self.cfg.persist_base);
        }

        if len > 0 {
            let seq = self.snd_nxt;
            let seg = self.emit_range(seq, len, now, false);
            self.snd_nxt += len as u32;
            let was_new = self.snd_nxt.gt(self.snd_max);
            if was_new {
                self.snd_max = self.snd_nxt;
                self.stats.bytes_sent += len as u64;
            } else {
                self.stats.segs_retransmitted += 1;
            }
            if self.rexmit_deadline.is_none() {
                self.rexmit_deadline = Some(now + self.rtt.rto());
            }
            if self.rtt_timing.is_none() && was_new {
                self.rtt_timing = Some((seq, now));
            }
            return Some(seg);
        }

        // 4. FIN, once all buffered data has been transmitted.
        if self.fin_queued
            && self.fin_seq.is_none()
            && in_flight >= buffered
            && matches!(
                self.state,
                TcpState::FinWait1 | TcpState::Closing | TcpState::LastAck
            )
        {
            let mut seg = self.make_segment(Flags::FIN | Flags::ACK);
            seg.seq = self.snd_nxt;
            seg.ack = self.rcv_nxt;
            self.fill_common(&mut seg, now);
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt += 1;
            self.snd_max = self.snd_max.max(self.snd_nxt);
            if self.rexmit_deadline.is_none() {
                self.rexmit_deadline = Some(now + self.rtt.rto());
            }
            self.stats.segs_sent += 1;
            self.ack_now = false;
            self.delack_segs = 0;
            self.delack_deadline = None;
            return Some(seg);
        }

        // 5. Keepalive probe: a bare ACK with seq = snd_nxt - 1 forces
        // the peer to respond (RFC 1122's garbage-less probe).
        if self.keep_probe_now {
            self.keep_probe_now = false;
            let mut seg = self.make_segment(Flags::ACK);
            seg.seq = self.snd_nxt - 1;
            seg.ack = self.rcv_nxt;
            self.fill_common(&mut seg, now);
            self.stats.segs_sent += 1;
            self.stats.keepalive_probes += 1;
            return Some(seg);
        }

        // 6. Pure ACK.
        if self.ack_now {
            return Some(self.emit_ack(now));
        }
        None
    }

    fn emit_retransmission(&mut self, seq: TcpSeq, now: Instant) -> Segment {
        let len = self
            .sndbuf
            .len()
            .min(self.snd_mss)
            .max(usize::from(self.sndbuf.is_empty() && self.fin_seq.is_some()));
        if len == 0 || self.sndbuf.is_empty() {
            // Only a FIN (or SYN edge) is outstanding; re-emit FIN.
            let mut seg = self.make_segment(Flags::FIN | Flags::ACK);
            seg.seq = seq;
            seg.ack = self.rcv_nxt;
            self.fill_common(&mut seg, now);
            self.stats.segs_sent += 1;
            self.stats.segs_retransmitted += 1;
            return seg;
        }
        self.emit_range(seq, len, now, true)
    }

    fn emit_range(&mut self, seq: TcpSeq, len: usize, now: Instant, is_rexmit: bool) -> Segment {
        let off = seq.distance_from(self.snd_una) as usize;
        let mut payload = std::mem::take(&mut self.spare_payload);
        self.sndbuf.copy_into(off, len, &mut payload);
        let mut flags = Flags::ACK;
        // PSH when this segment drains the currently buffered data.
        if off + payload.len() >= self.sndbuf.len() {
            flags |= Flags::PSH;
        }
        if self.ecn_send_cwr && !is_rexmit {
            flags |= Flags::CWR;
            self.ecn_send_cwr = false;
        }
        let mut seg = self.make_segment(flags);
        seg.seq = seq;
        seg.ack = self.rcv_nxt;
        seg.payload = payload;
        self.fill_common(&mut seg, now);
        self.stats.segs_sent += 1;
        if is_rexmit {
            self.stats.segs_retransmitted += 1;
            self.rtt_timing = None; // Karn
            if self.rexmit_deadline.is_none() {
                self.rexmit_deadline = Some(now + self.rtt.rto());
            }
        }
        self.ack_now = false;
        self.delack_segs = 0;
        self.delack_deadline = None;
        seg
    }

    fn emit_ack(&mut self, now: Instant) -> Segment {
        let mut seg = self.make_segment(Flags::ACK);
        seg.seq = self.snd_nxt;
        seg.ack = self.rcv_nxt;
        self.fill_common(&mut seg, now);
        self.stats.segs_sent += 1;
        self.stats.acks_sent += 1;
        self.ack_now = false;
        self.delack_segs = 0;
        self.delack_deadline = None;
        seg
    }

    fn make_segment(&self, flags: Flags) -> Segment {
        Segment::new(self.local_port, self.remote_port, TcpSeq(0), TcpSeq(0), flags)
    }

    fn fill_common(&mut self, seg: &mut Segment, now: Instant) {
        seg.window = self.rcvbuf.window().min(65535) as u16;
        self.last_ack_sent = self.rcv_nxt;
        if self.ts_enabled {
            seg.timestamps = Some(Timestamps {
                value: self.ts_clock(now),
                echo: self.ts_recent,
            });
        }
        if self.ecn_send_ece {
            seg.flags |= Flags::ECE;
        }
        self.attach_sack_blocks(seg);
    }

    fn attach_sack_blocks(&mut self, seg: &mut Segment) {
        if !self.sack_enabled || !self.rcvbuf.has_out_of_order() {
            return;
        }
        seg.sack_blocks = std::mem::take(&mut self.spare_sack);
        seg.sack_blocks.clear();
        // Most recent ranges first per RFC 2018; we report up to 3 in
        // ascending order (sufficient for a correct sender scoreboard).
        for &(s, e) in self.rcvbuf.out_of_order_ranges().iter().take(3) {
            seg.sack_blocks.push(SackBlock {
                start: self.rcv_nxt + s as u32,
                end: self.rcv_nxt + e as u32,
            });
        }
    }

    fn ts_clock(&mut self, now: Instant) -> u32 {
        let v = (now.as_micros() / self.cfg.ts_granularity.as_micros()).max(1) as u32;
        self.last_ts_value = v;
        v
    }

    /// Updates the cached timestamp clock; drivers call this once per
    /// event-loop iteration so pure ACKs carry a fresh TSval.
    pub fn tick(&mut self, now: Instant) {
        let _ = self.ts_clock(now);
    }
}

/// Modular "less than" for 32-bit timestamps (RFC 7323).
fn ts_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

/// SYN-cache parameters (RFC 4987 §3.2).
#[derive(Clone, Debug)]
pub struct SynCacheConfig {
    /// Half-open table size. When full, the oldest entry is evicted
    /// (or, with [`SynCacheConfig::stateless_fallback`], the SYN is
    /// answered with a cookie instead of a slot).
    pub slots: usize,
    /// Maximum accepted-and-live connections; SYNs beyond this are
    /// dropped silently so the client retries after the flood.
    pub accept_backlog: usize,
    /// SYN-ACK retransmissions before a half-open entry is reclaimed.
    pub synack_retries: u32,
    /// Initial SYN-ACK retransmit timeout (doubles per retry).
    pub synack_timeout: Duration,
    /// RFC 4987 §3.3: when the cache is full, answer with a stateless
    /// cookie SYN-ACK (ISS derived from a keyed hash of the 4-tuple)
    /// instead of evicting. Connections completed via cookie lose
    /// option negotiation, as real cookie implementations do.
    pub stateless_fallback: bool,
    /// Key for cookie generation (deterministic per listener; a real
    /// stack would rotate this).
    pub cookie_secret: u64,
}

impl Default for SynCacheConfig {
    fn default() -> Self {
        SynCacheConfig {
            slots: 8,
            accept_backlog: 8,
            synack_retries: 3,
            synack_timeout: Duration::from_secs(1),
            stateless_fallback: false,
            cookie_secret: 0x6c6c_6e5f_7379_6e63, // "lln_sync"
        }
    }
}

/// Counters kept by a [`ListenSocket`], digestable like
/// [`TcpStats`] so overload runs can be compared bit-for-bit.
#[derive(Clone, Debug, Default)]
pub struct ListenStats {
    /// SYNs received (including retransmissions and floods).
    pub syns_rcvd: u64,
    /// Retransmitted SYNs that matched an existing half-open entry
    /// (deduplicated: SYN-ACK re-sent, **no** second socket spawned).
    pub syn_dups: u64,
    /// Connections promoted to full sockets on handshake completion.
    pub spawned: u64,
    /// Oldest-entry evictions under cache pressure.
    pub evicted_oldest: u64,
    /// Entries reclaimed after SYN-ACK retry exhaustion.
    pub expired: u64,
    /// SYNs dropped because the accept backlog was full.
    pub backlog_denied: u64,
    /// Timer-driven SYN-ACK retransmissions.
    pub synack_rexmits: u64,
    /// Stateless cookie SYN-ACKs sent.
    pub cookies_sent: u64,
    /// Handshakes completed by a valid cookie ACK.
    pub cookies_accepted: u64,
    /// ACKs whose cookie failed validation.
    pub cookies_rejected: u64,
    /// Half-open entries aborted by an in-window RST.
    pub rst_aborts: u64,
    /// Non-handshake ACKs that matched no entry (the caller answers
    /// these with an RST, per RFC 4987 §3.6).
    pub bad_acks: u64,
}

impl ListenStats {
    /// Stable FNV-1a digest over every counter, in declaration order.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.syns_rcvd,
            self.syn_dups,
            self.spawned,
            self.evicted_oldest,
            self.expired,
            self.backlog_denied,
            self.synack_rexmits,
            self.cookies_sent,
            self.cookies_accepted,
            self.cookies_rejected,
            self.rst_aborts,
            self.bad_acks,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in fields {
            for b in f.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// One half-open connection: everything needed to regenerate the
/// SYN-ACK and to build the full socket if the handshake completes.
/// Costs [`crate::mem::SYN_ENTRY_BYTES`] against the node budget — a
/// fraction of the [`crate::mem::TCP_CB_BYTES`] + buffers a spawned
/// socket would pin.
#[derive(Clone, Debug)]
struct SynEntry {
    remote_addr: Ipv6Addr,
    remote_port: u16,
    irs: TcpSeq,
    iss: TcpSeq,
    peer_window: u16,
    peer_mss: Option<u16>,
    sack_permitted: bool,
    ts_val: Option<u32>,
    ecn: bool,
    created: Instant,
    rexmit_at: Instant,
    rexmits: u32,
}

/// What the listener decided about a segment.
#[derive(Debug)]
pub enum ListenerResponse {
    /// Not listener-relevant (the caller applies its no-socket policy,
    /// typically [`reset_for`]).
    None,
    /// Transmit this segment to the segment's source (a SYN-ACK from
    /// the cache, or a cookie SYN-ACK).
    Reply(Segment),
    /// The handshake-completing ACK validated: adopt this established
    /// socket.
    Spawn(Box<TcpSocket>),
}

impl ListenerResponse {
    /// The reply segment, if that's what this is.
    pub fn into_reply(self) -> Option<Segment> {
        match self {
            ListenerResponse::Reply(s) => Some(s),
            _ => None,
        }
    }

    /// The spawned socket, if that's what this is.
    pub fn into_spawn(self) -> Option<TcpSocket> {
        match self {
            ListenerResponse::Spawn(s) => Some(*s),
            _ => None,
        }
    }
}

/// A passive (listening) socket with a bounded RFC 4987-style SYN
/// cache. The paper's §4.1 observation — passive sockets carry almost
/// no state (Tables 3-4 report 12-16 B) — extends to connection
/// *setup*: a SYN costs one fixed-size cache slot, never a full socket.
/// The socket, with its §4.3 buffers, is allocated only when the
/// handshake-completing ACK proves the peer is real.
#[derive(Clone, Debug)]
pub struct ListenSocket {
    local_addr: Ipv6Addr,
    local_port: u16,
    cfg: TcpConfig,
    scfg: SynCacheConfig,
    entries: Vec<SynEntry>,
    /// Live accepted connections, reported by the owner via
    /// [`ListenSocket::sync_backlog`]; enforces the accept backlog.
    backlog_used: usize,
    /// Counters (every deny/evict, RFC 4987 event, and dedup).
    pub stats: ListenStats,
}

impl ListenSocket {
    /// Creates a listener on `local_addr`:`port` with the default SYN
    /// cache.
    pub fn new(cfg: TcpConfig, local_addr: Ipv6Addr, port: u16) -> Self {
        Self::with_syn_cache(cfg, local_addr, port, SynCacheConfig::default())
    }

    /// Creates a listener with an explicit SYN-cache configuration.
    pub fn with_syn_cache(
        cfg: TcpConfig,
        local_addr: Ipv6Addr,
        port: u16,
        scfg: SynCacheConfig,
    ) -> Self {
        assert!(scfg.slots > 0, "a SYN cache needs at least one slot");
        ListenSocket {
            local_addr,
            local_port: port,
            cfg,
            scfg,
            entries: Vec::new(),
            backlog_used: 0,
            stats: ListenStats::default(),
        }
    }

    /// The listening port.
    pub fn port(&self) -> u16 {
        self.local_port
    }

    /// The config spawned sockets inherit.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Half-open connections currently cached.
    pub fn half_open(&self) -> usize {
        self.entries.len()
    }

    /// Bytes the SYN cache currently charges against the node budget.
    pub fn half_open_bytes(&self) -> usize {
        self.entries.len() * crate::mem::SYN_ENTRY_BYTES
    }

    /// The memory footprint a spawned connection will pin (buffers +
    /// control block); owners check this against the budget *before*
    /// letting a handshake complete.
    pub fn child_footprint(&self) -> usize {
        self.cfg.send_buf + self.cfg.recv_buf + crate::mem::TCP_CB_BYTES
    }

    /// Reports how many accepted connections are currently live so the
    /// accept-backlog limit can be enforced (the listener cannot see
    /// its children close).
    pub fn sync_backlog(&mut self, used: usize) {
        self.backlog_used = used;
    }

    /// Handles a segment addressed to the listening port.
    ///
    /// - SYN: dedup against the cache by 4-tuple (a retransmitted SYN
    ///   re-answers with the *same* SYN-ACK — no duplicate state), or
    ///   park a new entry, evicting the oldest half-open when full.
    ///   `iss` is the initial sequence number for a new entry (drawn by
    ///   the host's RNG).
    /// - ACK: if it completes a cached (or cookie) handshake, the full
    ///   socket is built and returned; otherwise `None` so the caller
    ///   can RST.
    /// - RST: aborts the matching half-open entry (RFC 793).
    pub fn on_segment(
        &mut self,
        remote_addr: Ipv6Addr,
        seg: &Segment,
        iss: u32,
        now: Instant,
    ) -> ListenerResponse {
        if seg.flags.contains(Flags::RST) {
            if let Some(i) = self.find(remote_addr, seg.src_port) {
                // Acceptable RST for SYN-RECEIVED state: its sequence
                // number must be the entry's rcv_nxt (irs + 1).
                if seg.seq == self.entries[i].irs + 1 {
                    self.entries.remove(i);
                    self.stats.rst_aborts += 1;
                }
            }
            return ListenerResponse::None;
        }
        if seg.flags.contains(Flags::SYN) && !seg.flags.contains(Flags::ACK) {
            return self.on_syn(remote_addr, seg, iss, now);
        }
        if seg.flags.contains(Flags::ACK) && !seg.flags.contains(Flags::SYN) {
            return self.on_ack(remote_addr, seg, now);
        }
        ListenerResponse::None
    }

    fn on_syn(
        &mut self,
        remote_addr: Ipv6Addr,
        seg: &Segment,
        iss: u32,
        now: Instant,
    ) -> ListenerResponse {
        self.stats.syns_rcvd += 1;
        if let Some(i) = self.find(remote_addr, seg.src_port) {
            if seg.seq == self.entries[i].irs {
                // Satellite fix: a retransmitted SYN from the same
                // 4-tuple refreshes the entry and re-answers — it must
                // never mint an independent connection.
                self.stats.syn_dups += 1;
                let e = &mut self.entries[i];
                e.peer_window = seg.window;
                if let Some(ts) = seg.timestamps {
                    e.ts_val = Some(ts.value);
                }
                let reply = self.synack_for(i, now);
                return ListenerResponse::Reply(reply);
            }
            // Same 4-tuple, new ISN: the peer restarted. Replace the
            // stale half-open with a fresh entry (same slot).
            self.entries.remove(i);
        }
        if self.backlog_used >= self.scfg.accept_backlog {
            self.stats.backlog_denied += 1;
            return ListenerResponse::None;
        }
        if self.entries.len() >= self.scfg.slots {
            if self.scfg.stateless_fallback {
                self.stats.cookies_sent += 1;
                return ListenerResponse::Reply(self.cookie_synack(remote_addr, seg, now));
            }
            // Eviction policy: oldest half-open first (ISSUE eviction
            // order; established sockets are never touched).
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.created)
                .map(|(i, _)| i)
                .expect("cache full implies non-empty");
            self.entries.remove(oldest);
            self.stats.evicted_oldest += 1;
        }
        self.entries.push(SynEntry {
            remote_addr,
            remote_port: seg.src_port,
            irs: seg.seq,
            iss: TcpSeq(iss),
            peer_window: seg.window,
            peer_mss: seg.mss,
            sack_permitted: seg.sack_permitted,
            ts_val: seg.timestamps.map(|t| t.value),
            ecn: seg.flags.contains(Flags::ECE) && seg.flags.contains(Flags::CWR),
            created: now,
            rexmit_at: now + self.scfg.synack_timeout,
            rexmits: 0,
        });
        let reply = self.synack_for(self.entries.len() - 1, now);
        ListenerResponse::Reply(reply)
    }

    fn on_ack(&mut self, remote_addr: Ipv6Addr, seg: &Segment, now: Instant) -> ListenerResponse {
        if let Some(i) = self.find(remote_addr, seg.src_port) {
            // The completing ACK need not be the bare handshake ACK: if
            // that ACK was lost, the client's first data segments still
            // carry ack == iss+1 and an in-window seq, and must complete
            // the handshake (RFC 793 SYN-RECEIVED processing). Requiring
            // seq == irs+1 exactly made the cache reject them as bad
            // ACKs until the entry timed out and the connection died.
            let e = &self.entries[i];
            let ok = seg.ack == e.iss + 1
                && (seg.seq == e.irs + 1
                    || seg.seq.in_window(e.irs + 1, self.cfg.recv_buf as u32));
            if ok {
                let e = self.entries.remove(i);
                let sock = self.promote(&e, seg, now);
                self.stats.spawned += 1;
                return ListenerResponse::Spawn(Box::new(sock));
            }
            self.stats.bad_acks += 1;
            return ListenerResponse::None;
        }
        if self.scfg.stateless_fallback {
            // No entry: maybe our state was the cookie. Reconstruct the
            // ISS from the 4-tuple and the implied IRS (seq - 1).
            let irs = seg.seq - 1;
            let expected = TcpSeq(self.cookie(remote_addr, seg.src_port, irs));
            if seg.ack == expected + 1 {
                self.stats.cookies_accepted += 1;
                let e = SynEntry {
                    remote_addr,
                    remote_port: seg.src_port,
                    irs,
                    iss: expected,
                    peer_window: seg.window,
                    // Cookie mode forgets the options the SYN offered
                    // (they were never stored); fall back to a bare
                    // connection, as real SYN-cookie stacks do.
                    peer_mss: None,
                    sack_permitted: false,
                    ts_val: None,
                    ecn: false,
                    created: now,
                    rexmit_at: now,
                    rexmits: 0,
                };
                let sock = self.promote(&e, seg, now);
                self.stats.spawned += 1;
                return ListenerResponse::Spawn(Box::new(sock));
            }
            self.stats.cookies_rejected += 1;
        }
        self.stats.bad_acks += 1;
        ListenerResponse::None
    }

    /// Earliest SYN-ACK retransmit deadline, for the owner's timer.
    pub fn poll_at(&self) -> Option<Instant> {
        self.entries.iter().map(|e| e.rexmit_at).min()
    }

    /// Timer service: retransmits due SYN-ACKs (with exponential
    /// backoff) and reclaims entries whose retries are exhausted —
    /// RFC 4987's timeout-based reclamation. Returns at most one
    /// `(peer, SYN-ACK)` per call; drivers loop until `None`.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<(Ipv6Addr, Segment)> {
        loop {
            let due = self
                .entries
                .iter()
                .position(|e| e.rexmit_at <= now)?;
            if self.entries[due].rexmits >= self.scfg.synack_retries {
                self.entries.remove(due);
                self.stats.expired += 1;
                continue;
            }
            let backoff = {
                let e = &mut self.entries[due];
                e.rexmits += 1;
                self.scfg.synack_timeout.saturating_mul(1 << e.rexmits)
            };
            self.entries[due].rexmit_at = now + backoff;
            self.stats.synack_rexmits += 1;
            let peer = self.entries[due].remote_addr;
            let seg = self.synack_for(due, now);
            return Some((peer, seg));
        }
    }

    /// Drops every half-open entry that has outlived its full
    /// retry schedule as of `now` (explicit reclamation for owners
    /// that want to sweep without transmitting).
    pub fn reclaim(&mut self, now: Instant) {
        let retries = self.scfg.synack_retries;
        let before = self.entries.len();
        self.entries
            .retain(|e| !(e.rexmit_at <= now && e.rexmits >= retries));
        self.stats.expired += (before - self.entries.len()) as u64;
    }

    fn find(&self, remote_addr: Ipv6Addr, remote_port: u16) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.remote_addr == remote_addr && e.remote_port == remote_port)
    }

    /// Builds the SYN-ACK for entry `i` (also used verbatim for dedup
    /// replies and timer retransmissions).
    fn synack_for(&self, i: usize, now: Instant) -> Segment {
        let e = &self.entries[i];
        let mut s = Segment::new(
            self.local_port,
            e.remote_port,
            e.iss,
            e.irs + 1,
            Flags::SYN | Flags::ACK,
        );
        s.window = self.cfg.recv_buf.min(65535) as u16;
        s.mss = Some(self.cfg.mss.min(65535) as u16);
        s.sack_permitted = self.cfg.use_sack && e.sack_permitted;
        if self.cfg.use_timestamps {
            if let Some(v) = e.ts_val {
                s.timestamps = Some(Timestamps {
                    value: self.ts_clock(now),
                    echo: v,
                });
            }
        }
        // RFC 3168 §6.1.1: SYN-ACK answers ECE|CWR with ECE only.
        if self.cfg.use_ecn && e.ecn {
            s.flags |= Flags::ECE;
        }
        s
    }

    /// A stateless SYN-ACK whose ISS *is* the cookie: no options
    /// beyond MSS, no cache slot.
    fn cookie_synack(&self, remote_addr: Ipv6Addr, syn: &Segment, _now: Instant) -> Segment {
        let iss = self.cookie(remote_addr, syn.src_port, syn.seq);
        let mut s = Segment::new(
            self.local_port,
            syn.src_port,
            TcpSeq(iss),
            syn.seq + 1,
            Flags::SYN | Flags::ACK,
        );
        s.window = self.cfg.recv_buf.min(65535) as u16;
        s.mss = Some(self.cfg.mss.min(65535) as u16);
        s
    }

    /// Keyed FNV-1a over the 4-tuple and the client ISN.
    fn cookie(&self, remote_addr: Ipv6Addr, remote_port: u16, irs: TcpSeq) -> u32 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.scfg.cookie_secret;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(&remote_addr.0);
        mix(&remote_port.to_be_bytes());
        mix(&self.local_port.to_be_bytes());
        mix(&irs.0.to_be_bytes());
        (h >> 16) as u32
    }

    /// The listener's timestamp clock (same formula as
    /// [`TcpSocket::ts_clock`], so a promoted socket's TSvals continue
    /// the sequence the SYN-ACK started).
    fn ts_clock(&self, now: Instant) -> u32 {
        (now.as_micros() / self.cfg.ts_granularity.as_micros()).max(1) as u32
    }

    /// Builds the established socket from a cache entry plus the
    /// handshake-completing ACK.
    fn promote(&self, e: &SynEntry, ack: &Segment, now: Instant) -> TcpSocket {
        // Reconstruct the SYN the entry summarised and run it through
        // the normal passive-open negotiation.
        let mut syn = Segment::new(e.remote_port, self.local_port, e.irs, TcpSeq(0), Flags::SYN);
        syn.window = e.peer_window;
        syn.mss = e.peer_mss;
        syn.sack_permitted = e.sack_permitted;
        syn.timestamps = e.ts_val.map(|v| Timestamps { value: v, echo: 0 });
        if e.ecn {
            syn.flags |= Flags::ECE | Flags::CWR;
        }
        let mut s = TcpSocket::accept(
            self.cfg.clone(),
            self.local_addr,
            self.local_port,
            e.remote_addr,
            e.remote_port,
            &syn,
            e.iss.0,
            now,
        );
        // The SYN-ACK already went out from the cache: advance the
        // socket's send state past it (and account it) so the ACK we
        // are about to feed lands in-window.
        s.snd_nxt = s.iss + 1;
        s.snd_max = s.snd_nxt;
        s.stats.segs_sent += 1;
        s.on_segment(ack, Ecn::NotCapable, now);
        s
    }
}

/// Builds the RST segment RFC 793 prescribes for a segment that matched
/// no socket (used by the host dispatch layer).
pub fn reset_for(seg: &Segment) -> Option<Segment> {
    if seg.flags.contains(Flags::RST) {
        return None;
    }
    let mut rst = if seg.flags.contains(Flags::ACK) {
        Segment::new(seg.dst_port, seg.src_port, seg.ack, TcpSeq(0), Flags::RST)
    } else {
        let mut r = Segment::new(
            seg.dst_port,
            seg.src_port,
            TcpSeq(0),
            seg.seq + seg.seq_len(),
            Flags::RST | Flags::ACK,
        );
        r.ack = seg.seq + seg.seq_len();
        r
    };
    rst.window = 0;
    Some(rst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcpConfig;
    use lln_netip::NodeId;

    fn sock() -> TcpSocket {
        TcpSocket::new(TcpConfig::default(), NodeId(1).mesh_addr(), 49152)
    }

    fn handshake() -> (TcpSocket, TcpSocket) {
        let t = Instant::ZERO;
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        let mut a = sock();
        a.connect(b_addr, 80, 100, t);
        let syn = a.poll_transmit(t).unwrap();
        let mut l = ListenSocket::new(TcpConfig::default(), b_addr, 80);
        let synack = l
            .on_segment(a_addr, &syn, 200, t)
            .into_reply()
            .expect("SYN-ACK from the cache");
        a.on_segment(&synack, Ecn::NotCapable, t);
        let ack = a.poll_transmit(t).unwrap();
        let b = l
            .on_segment(a_addr, &ack, 0, t)
            .into_spawn()
            .expect("socket on handshake completion");
        (a, b)
    }

    #[test]
    fn fresh_socket_is_closed_and_quiet() {
        let mut s = sock();
        assert_eq!(s.state(), TcpState::Closed);
        assert!(s.poll_transmit(Instant::ZERO).is_none());
        assert!(s.poll_at().is_none());
        assert_eq!(s.send(b"data"), 0, "cannot send while closed");
        let mut buf = [0u8; 8];
        assert_eq!(s.recv(&mut buf), 0);
    }

    #[test]
    fn syn_carries_negotiation_options() {
        let mut s = sock();
        s.connect(NodeId(2).mesh_addr(), 80, 42, Instant::ZERO);
        assert_eq!(s.state(), TcpState::SynSent);
        let syn = s.poll_transmit(Instant::ZERO).expect("SYN");
        assert!(syn.flags.contains(Flags::SYN));
        assert!(!syn.flags.contains(Flags::ACK));
        assert_eq!(syn.seq, TcpSeq(42));
        assert_eq!(syn.mss, Some(462));
        assert!(syn.sack_permitted);
        assert!(syn.timestamps.is_some());
        assert!(syn.window > 0, "SYN advertises the receive window");
        // Only one SYN until a timeout.
        assert!(s.poll_transmit(Instant::ZERO).is_none());
        assert!(s.poll_at().is_some(), "rexmit timer armed");
    }

    #[test]
    fn peer_without_options_disables_them() {
        let t = Instant::ZERO;
        let mut a = sock();
        a.connect(NodeId(2).mesh_addr(), 80, 42, t);
        let _syn = a.poll_transmit(t).unwrap();
        // Hand-craft a SYN-ACK with no options at all.
        let mut synack = Segment::new(80, 49152, TcpSeq(7), TcpSeq(43), Flags::SYN | Flags::ACK);
        synack.window = 1000;
        a.on_segment(&synack, Ecn::NotCapable, t);
        assert_eq!(a.state(), TcpState::Established);
        let ack = a.poll_transmit(t).expect("handshake ACK");
        assert!(ack.timestamps.is_none(), "timestamps off when peer lacks them");
        a.send(b"x");
        let data = a.poll_transmit(t).expect("data");
        assert!(data.timestamps.is_none());
        assert!(data.sack_blocks.is_empty());
    }

    #[test]
    fn established_send_recv_roundtrip() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        assert_eq!(a.send(b"hello world"), 11);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment(&seg, Ecn::NotCapable, t);
        }
        assert_eq!(b.available(), 11);
        let mut buf = [0u8; 32];
        let n = b.recv(&mut buf);
        assert_eq!(&buf[..n], b"hello world");
        assert!(b.may_send(), "CloseWait not reached; b can speak");
    }

    #[test]
    fn close_states_progression() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        a.close();
        assert_eq!(a.state(), TcpState::FinWait1);
        assert!(!a.may_send(), "no new data after close");
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment(&seg, Ecn::NotCapable, t);
        }
        assert_eq!(b.state(), TcpState::CloseWait);
        assert!(b.peer_closed());
        while let Some(seg) = b.poll_transmit(t) {
            a.on_segment(&seg, Ecn::NotCapable, t);
        }
        assert_eq!(a.state(), TcpState::FinWait2, "FIN acked");
        b.close();
        assert_eq!(b.state(), TcpState::LastAck);
        while let Some(seg) = b.poll_transmit(t) {
            a.on_segment(&seg, Ecn::NotCapable, t);
        }
        assert_eq!(a.state(), TcpState::TimeWait);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment(&seg, Ecn::NotCapable, t);
        }
        assert_eq!(b.state(), TcpState::Closed);
        assert_eq!(b.close_reason(), Some(CloseReason::Normal));
        // TIME_WAIT expires on its own.
        let later = Instant::from_secs(60);
        a.on_timer(later);
        assert_eq!(a.state(), TcpState::Closed);
    }

    #[test]
    fn abort_emits_rst_once() {
        let (mut a, _b) = handshake();
        a.abort();
        assert_eq!(a.state(), TcpState::Closed);
        let rst = a.poll_transmit(Instant::ZERO).expect("RST");
        assert!(rst.flags.contains(Flags::RST));
        assert!(a.poll_transmit(Instant::ZERO).is_none(), "only one RST");
    }

    #[test]
    fn send_buffer_capacity_gates_send() {
        let (mut a, _b) = handshake();
        let big = vec![0u8; 10_000];
        let n = a.send(&big);
        assert_eq!(n, 1848, "bounded by the configured send buffer");
        assert_eq!(a.send_capacity(), 0);
        assert_eq!(a.send(&big), 0);
    }

    #[test]
    fn window_advertisement_tracks_receive_buffer() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        a.send(&[0u8; 462]);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment(&seg, Ecn::NotCapable, t);
        }
        // Force an immediate ACK via the second segment rule.
        a.send(&[0u8; 462]);
        while let Some(seg) = a.poll_transmit(t) {
            b.on_segment(&seg, Ecn::NotCapable, t);
        }
        let ack = b.poll_transmit(t).expect("delayed-ack fires on 2nd");
        assert_eq!(
            usize::from(ack.window),
            1848 - 924,
            "window shrinks by the undelivered bytes"
        );
    }

    #[test]
    fn duplicate_syn_ack_is_reacked_not_reprocessed() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        // Rebuild a stale SYN-ACK (seq = b's ISS = 200).
        let mut synack = Segment::new(80, 49152, TcpSeq(200), TcpSeq(101), Flags::SYN | Flags::ACK);
        synack.window = 1848;
        synack.timestamps = Some(Timestamps { value: 1, echo: 1 });
        let before = a.stats.segs_sent;
        a.on_segment(&synack, Ecn::NotCapable, t);
        assert_eq!(a.state(), TcpState::Established, "state unharmed");
        let out = a.poll_transmit(t);
        assert!(out.is_some(), "duplicate answered with an ACK");
        assert!(a.stats.segs_sent > before || out.is_some());
        let _ = &mut b;
    }

    #[test]
    fn flight_size_and_cwnd_accessors() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        assert_eq!(a.flight_size(), 0);
        a.send(&[0u8; 462]);
        let _ = a.poll_transmit(t).expect("segment");
        assert_eq!(a.flight_size(), 462);
        assert!(a.cwnd() >= 924);
        assert!(!a.ecn_active(), "default config has ECN off");
    }

    #[test]
    fn listener_caches_syn_and_spawns_on_completing_ack() {
        let mut l = ListenSocket::new(TcpConfig::default(), NodeId(9).mesh_addr(), 80);
        assert_eq!(l.port(), 80);
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        // A stray ACK matches no entry: nothing spawns, counter ticks.
        let stray = Segment::new(5, 80, TcpSeq(0), TcpSeq(0), Flags::ACK);
        assert!(l.on_segment(peer, &stray, 1, t).into_spawn().is_none());
        assert_eq!(l.stats.bad_acks, 1);
        // RST+SYN garbage is ignored.
        let rst = Segment::new(5, 80, TcpSeq(0), TcpSeq(0), Flags::RST | Flags::SYN);
        assert!(matches!(
            l.on_segment(peer, &rst, 1, t),
            ListenerResponse::None
        ));
        // A SYN parks in the cache and is answered — no socket yet.
        let mut syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        syn.mss = Some(300);
        let synack = l.on_segment(peer, &syn, 1, t).into_reply().expect("SYN-ACK");
        assert!(synack.flags.contains(Flags::SYN) && synack.flags.contains(Flags::ACK));
        assert_eq!(synack.seq, TcpSeq(1));
        assert_eq!(synack.ack, TcpSeq(78));
        assert_eq!(l.half_open(), 1);
        assert_eq!(l.half_open_bytes(), crate::mem::SYN_ENTRY_BYTES);
        // The completing ACK builds the socket with the SYN's options.
        let mut ack = Segment::new(5, 80, TcpSeq(78), TcpSeq(2), Flags::ACK);
        ack.window = 1000;
        let s = l.on_segment(peer, &ack, 0, t).into_spawn().expect("spawn");
        assert_eq!(s.state(), TcpState::Established);
        assert_eq!(s.mss(), 300, "negotiated down to the peer's MSS");
        assert_eq!(s.remote(), (peer, 5));
        assert_eq!(l.half_open(), 0, "entry promoted and freed");
        assert_eq!(l.stats.spawned, 1);
        assert!(s.mem_footprint() > 0, "live socket pins its buffers");
    }

    /// The lost-handshake-ACK fix: when the bare completing ACK is
    /// dropped in transit, the client (which moved to Established on
    /// the SYN-ACK) sends data segments whose seq sits *past* irs+1.
    /// Those must still complete the handshake — requiring seq to be
    /// exactly irs+1 strands the entry until it expires in a RST.
    #[test]
    fn lost_handshake_ack_completes_via_data_segment() {
        let mut l = ListenSocket::new(TcpConfig::default(), NodeId(9).mesh_addr(), 80);
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let _synack = l.on_segment(peer, &syn, 1, t).into_reply().expect("SYN-ACK");
        // The bare ACK (seq 78) is lost. A later data segment arrives
        // with an advanced seq but the right ack.
        let mut data = Segment::new(5, 80, TcpSeq(78 + 462), TcpSeq(2), Flags::ACK);
        data.payload = vec![0xCC; 100];
        let s = l
            .on_segment(peer, &data, 0, t + Duration::from_millis(800))
            .into_spawn()
            .expect("in-window data segment completes the handshake");
        assert_eq!(s.state(), TcpState::Established);
        assert_eq!(l.half_open(), 0);
        // A wrong-ack or far-out-of-window segment still does not.
        let syn2 = Segment::new(6, 80, TcpSeq(10), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(peer, &syn2, 1, t).into_reply().expect("SYN-ACK");
        let bad_before = l.stats.bad_acks;
        let wrong_ack = Segment::new(6, 80, TcpSeq(11), TcpSeq(999), Flags::ACK);
        assert!(l.on_segment(peer, &wrong_ack, 0, t).into_spawn().is_none());
        let far_seq = Segment::new(6, 80, TcpSeq(11 + (1 << 20)), TcpSeq(2), Flags::ACK);
        assert!(l.on_segment(peer, &far_seq, 0, t).into_spawn().is_none());
        assert_eq!(l.stats.bad_acks, bad_before + 2);
    }

    /// The satellite fix: a retransmitted SYN from the same 4-tuple
    /// must re-answer from the existing entry, never mint a second
    /// connection (the old listener spawned one socket per SYN copy).
    #[test]
    fn retransmitted_syn_deduplicates() {
        let mut l = ListenSocket::new(TcpConfig::default(), NodeId(9).mesh_addr(), 80);
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let first = l.on_segment(peer, &syn, 10, t).into_reply().unwrap();
        // Same SYN again, with a *different* candidate ISS: the cached
        // entry (and its ISS) must win.
        let again = l
            .on_segment(peer, &syn, 99, t + Duration::from_millis(500))
            .into_reply()
            .expect("dedup re-answers");
        assert_eq!(l.half_open(), 1, "one entry, not two");
        assert_eq!(l.stats.syn_dups, 1);
        assert_eq!(again.seq, first.seq, "same ISS re-offered");
        // A SYN with a new ISN from the same 4-tuple is a peer restart:
        // the stale entry is replaced, still exactly one slot used.
        let syn2 = Segment::new(5, 80, TcpSeq(500), TcpSeq(0), Flags::SYN);
        let fresh = l.on_segment(peer, &syn2, 42, t).into_reply().unwrap();
        assert_eq!(l.half_open(), 1);
        assert_eq!(fresh.ack, TcpSeq(501));
    }

    /// Under flood the cache evicts its oldest half-open entry; it
    /// never grows past its slot budget.
    #[test]
    fn syn_flood_evicts_oldest_within_slot_budget() {
        let scfg = SynCacheConfig {
            slots: 4,
            accept_backlog: 64,
            ..SynCacheConfig::default()
        };
        let mut l =
            ListenSocket::with_syn_cache(TcpConfig::default(), NodeId(9).mesh_addr(), 80, scfg);
        let mut t = Instant::ZERO;
        for i in 0..20u16 {
            let syn = Segment::new(1000 + i, 80, TcpSeq(u32::from(i)), TcpSeq(0), Flags::SYN);
            let r = l.on_segment(NodeId(1).mesh_addr(), &syn, u32::from(i) * 7, t);
            assert!(r.into_reply().is_some(), "every SYN still answered");
            assert!(l.half_open() <= 4, "cache bounded at its slot count");
            t += Duration::from_millis(10);
        }
        assert_eq!(l.stats.syns_rcvd, 20);
        assert_eq!(l.stats.evicted_oldest, 16);
        assert_eq!(l.half_open_bytes(), 4 * crate::mem::SYN_ENTRY_BYTES);
        // The four survivors are the newest four (oldest-first policy).
        let survivors: Vec<u16> = l.entries.iter().map(|e| e.remote_port).collect();
        assert_eq!(survivors, vec![1016, 1017, 1018, 1019]);
    }

    /// SYN-ACKs retransmit with backoff and the entry is reclaimed
    /// after the retry budget — RFC 4987 timeout reclamation.
    #[test]
    fn half_open_entries_retransmit_then_expire() {
        let scfg = SynCacheConfig {
            synack_retries: 2,
            synack_timeout: Duration::from_secs(1),
            ..SynCacheConfig::default()
        };
        let mut l =
            ListenSocket::with_syn_cache(TcpConfig::default(), NodeId(9).mesh_addr(), 80, scfg);
        let t0 = Instant::ZERO;
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(NodeId(1).mesh_addr(), &syn, 10, t0);
        assert_eq!(l.poll_at(), Some(t0 + Duration::from_secs(1)));
        // First retransmission at +1s, second at +1s+2s.
        let (peer, s1) = l.poll_transmit(t0 + Duration::from_secs(1)).expect("rexmit 1");
        assert_eq!(peer, NodeId(1).mesh_addr());
        assert!(s1.flags.contains(Flags::SYN) && s1.flags.contains(Flags::ACK));
        let t2 = t0 + Duration::from_secs(3);
        assert!(l.poll_transmit(t2).is_some(), "rexmit 2");
        assert_eq!(l.stats.synack_rexmits, 2);
        // Retries exhausted: the next due poll reclaims instead.
        let t3 = t0 + Duration::from_secs(8);
        assert!(l.poll_transmit(t3).is_none());
        assert_eq!(l.half_open(), 0);
        assert_eq!(l.stats.expired, 1);
        assert_eq!(l.poll_at(), None, "no timer left");
    }

    /// The accept-backlog limit drops SYNs while enough accepted
    /// children are alive, and admits again once they close.
    #[test]
    fn accept_backlog_limits_new_syns() {
        let scfg = SynCacheConfig {
            accept_backlog: 2,
            ..SynCacheConfig::default()
        };
        let mut l =
            ListenSocket::with_syn_cache(TcpConfig::default(), NodeId(9).mesh_addr(), 80, scfg);
        let t = Instant::ZERO;
        l.sync_backlog(2);
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        assert!(matches!(
            l.on_segment(NodeId(1).mesh_addr(), &syn, 10, t),
            ListenerResponse::None
        ));
        assert_eq!(l.stats.backlog_denied, 1);
        l.sync_backlog(1);
        assert!(l.on_segment(NodeId(1).mesh_addr(), &syn, 10, t).into_reply().is_some());
    }

    /// An acceptable RST tears down the matching half-open entry.
    #[test]
    fn rst_aborts_half_open_entry() {
        let mut l = ListenSocket::new(TcpConfig::default(), NodeId(9).mesh_addr(), 80);
        let t = Instant::ZERO;
        let peer = NodeId(1).mesh_addr();
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(peer, &syn, 10, t);
        // Out-of-window RST ignored.
        let bad = Segment::new(5, 80, TcpSeq(5000), TcpSeq(0), Flags::RST);
        let _ = l.on_segment(peer, &bad, 0, t);
        assert_eq!(l.half_open(), 1);
        // RST at rcv_nxt (irs+1) aborts.
        let rst = Segment::new(5, 80, TcpSeq(78), TcpSeq(0), Flags::RST);
        let _ = l.on_segment(peer, &rst, 0, t);
        assert_eq!(l.half_open(), 0);
        assert_eq!(l.stats.rst_aborts, 1);
    }

    /// Stateless fallback: when the cache is full, a cookie SYN-ACK is
    /// issued with no slot, and a valid cookie ACK still completes the
    /// handshake (without the SYN's options, as real cookies do).
    #[test]
    fn cookie_fallback_completes_without_cache_slot() {
        let scfg = SynCacheConfig {
            slots: 1,
            stateless_fallback: true,
            ..SynCacheConfig::default()
        };
        let mut l =
            ListenSocket::with_syn_cache(TcpConfig::default(), NodeId(9).mesh_addr(), 80, scfg);
        let t = Instant::ZERO;
        // Fill the single slot.
        let filler = Segment::new(9, 80, TcpSeq(1), TcpSeq(0), Flags::SYN);
        let _ = l.on_segment(NodeId(3).mesh_addr(), &filler, 10, t);
        // Overflow SYN gets a stateless cookie reply.
        let peer = NodeId(1).mesh_addr();
        let mut syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        syn.sack_permitted = true;
        syn.window = 2000;
        let synack = l.on_segment(peer, &syn, 11, t).into_reply().expect("cookie SYN-ACK");
        assert_eq!(l.half_open(), 1, "no extra slot consumed");
        assert_eq!(l.stats.cookies_sent, 1);
        assert!(!synack.sack_permitted, "cookie reply carries no options");
        assert!(synack.timestamps.is_none());
        // The honest client's ACK reconstructs the connection.
        let mut ack = Segment::new(5, 80, TcpSeq(78), synack.seq + 1, Flags::ACK);
        ack.window = 2000;
        let s = l.on_segment(peer, &ack, 0, t).into_spawn().expect("cookie spawn");
        assert_eq!(s.state(), TcpState::Established);
        assert_eq!(l.stats.cookies_accepted, 1);
        // A forged ACK with the wrong cookie is rejected.
        let forged = Segment::new(6, 80, TcpSeq(78), TcpSeq(12345), Flags::ACK);
        assert!(l.on_segment(peer, &forged, 0, t).into_spawn().is_none());
        assert_eq!(l.stats.cookies_rejected, 1);
    }

    /// The promoted socket is fully functional: data flows both ways
    /// with the options negotiated in the original SYN.
    #[test]
    fn promoted_socket_carries_data() {
        let (mut a, mut b) = handshake();
        let t = Instant::ZERO;
        assert_eq!(a.send(b"ping"), 4);
        let seg = a.poll_transmit(t).expect("data out");
        b.on_segment(&seg, Ecn::NotCapable, t);
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(b.send(b"pong"), 4);
        let back = b.poll_transmit(t).expect("reply data");
        a.on_segment(&back, Ecn::NotCapable, t);
        assert_eq!(a.recv(&mut buf), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    /// Listener stats digest is stable and counter-sensitive, like
    /// `TcpStats::digest`.
    #[test]
    fn listen_stats_digest_sensitivity() {
        let a = ListenStats::default();
        let mut b = ListenStats::default();
        assert_eq!(a.digest(), b.digest());
        b.syn_dups = 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn data_before_establishment_rejected() {
        let mut s = sock();
        s.connect(NodeId(2).mesh_addr(), 80, 42, Instant::ZERO);
        assert_eq!(s.send(b"early"), 5, "SynSent may buffer");
        let mut stray = Segment::new(80, 49152, TcpSeq(0), TcpSeq(43), Flags::ACK | Flags::PSH);
        stray.payload = vec![1, 2, 3];
        s.on_segment(&stray, Ecn::NotCapable, Instant::ZERO);
        assert_eq!(s.available(), 0, "no data accepted before SYN seen");
    }

    // ------------------------------------------------------------------
    // Hardening regressions (adversarial in-band traffic)
    // ------------------------------------------------------------------

    /// After `abort()`, exactly one RST leaves the socket — a pending
    /// ACK queued before the abort must not trail it.
    #[test]
    fn abort_emits_single_rst_and_nothing_else() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        // Out-of-order data queues an immediate ACK.
        let mut ooo = Segment::new(80, 49152, TcpSeq(301), TcpSeq(101), Flags::ACK | Flags::PSH);
        ooo.window = 1000;
        ooo.payload = vec![7; 4];
        a.on_segment(&ooo, Ecn::NotCapable, t);
        a.abort();
        let rst = a.poll_transmit(t).expect("the RST");
        assert!(rst.flags.contains(Flags::RST));
        assert!(a.poll_transmit(t).is_none(), "no ACK after our own RST");
        assert_eq!(a.close_reason(), Some(CloseReason::Aborted));
    }

    /// An unacceptable ACK in SYN-RECEIVED queues a RST while a
    /// challenge/re-ACK may already be pending; the RST must subsume
    /// it rather than be followed by an ACK that re-opens the
    /// conversation.
    #[test]
    fn rst_subsumes_pending_ack_in_syn_received() {
        let t = Instant::ZERO;
        let syn = Segment::new(5, 80, TcpSeq(77), TcpSeq(0), Flags::SYN);
        let mut s = TcpSocket::accept(
            TcpConfig::default(),
            NodeId(9).mesh_addr(),
            80,
            NodeId(1).mesh_addr(),
            5,
            &syn,
            300,
            t,
        );
        let _synack = s.poll_transmit(t).unwrap();
        // Duplicate SYN: queues a re-ACK/challenge.
        s.on_segment(&syn, Ecn::NotCapable, t);
        // Forged ACK for data we never sent: queues a RST.
        let mut bad = Segment::new(5, 80, TcpSeq(78), TcpSeq(300), Flags::ACK);
        bad.window = 1000;
        s.on_segment(&bad, Ecn::NotCapable, t);
        let first = s.poll_transmit(t).expect("RST first");
        assert!(first.flags.contains(Flags::RST), "got {:?}", first.flags);
        assert!(
            s.poll_transmit(t).is_none(),
            "pending ACK must coalesce into (be dropped by) the RST"
        );
    }

    /// A challenge ACK triggered while a delayed ACK is pending must
    /// produce exactly one pure ACK, not two.
    #[test]
    fn challenge_ack_coalesces_with_pending_delack() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        let mut data = Segment::new(80, 49152, TcpSeq(201), TcpSeq(101), Flags::ACK | Flags::PSH);
        data.window = 1000;
        data.payload = b"hi".to_vec();
        a.on_segment(&data, Ecn::NotCapable, t);
        assert!(a.poll_transmit(t).is_none(), "delack held");
        // Forged in-window (not exact) RST: challenge ACK.
        let rst = Segment::new(80, 49152, TcpSeq(300), TcpSeq(101), Flags::RST | Flags::ACK);
        a.on_segment(&rst, Ecn::NotCapable, t);
        assert_eq!(a.state(), TcpState::Established, "forged RST ignored");
        let ack = a.poll_transmit(t).expect("one challenge ACK");
        assert!(ack.payload.is_empty());
        assert_eq!(ack.ack, TcpSeq(203), "carries the data ACK too");
        assert!(a.poll_transmit(t).is_none(), "exactly one segment");
    }

    /// RFC 5961 §5: a blind RST flood earns at most
    /// `challenge_ack_limit` challenge ACKs per window; the budget
    /// refills in the next window.
    #[test]
    fn challenge_acks_rate_limited_per_window() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        for i in 0..50u32 {
            let rst = Segment::new(
                80,
                49152,
                TcpSeq(211 + i),
                TcpSeq(101),
                Flags::RST | Flags::ACK,
            );
            a.on_segment(&rst, Ecn::NotCapable, t);
            while a.poll_transmit(t).is_some() {}
        }
        assert_eq!(a.state(), TcpState::Established, "flood survived");
        assert_eq!(a.stats.challenge_acks, 10);
        assert_eq!(a.stats.challenge_acks_limited, 40);
        // Next window: budget refills.
        let t2 = t + Duration::from_secs(2);
        let rst = Segment::new(80, 49152, TcpSeq(300), TcpSeq(101), Flags::RST | Flags::ACK);
        a.on_segment(&rst, Ecn::NotCapable, t2);
        assert_eq!(a.stats.challenge_acks, 11);
    }

    /// A forged zero-window ACK with an inflated sequence number wedges
    /// snd_wl1 ahead of anything the genuine peer will send. The
    /// persist machinery must still probe, and a genuine
    /// window-opening ACK (losing the wl1 race) must still unfreeze
    /// the flow.
    #[test]
    fn forged_zero_window_ack_recovers_via_persist_probe() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        let mut forged = Segment::new(80, 49152, TcpSeq(1201), TcpSeq(101), Flags::ACK);
        forged.window = 0;
        a.on_segment(&forged, Ecn::NotCapable, t);
        assert_eq!(a.send(b"payload"), 7);
        assert!(a.poll_transmit(t).is_none(), "frozen by forged window");
        let due = a.poll_at().expect("persist timer armed");
        a.on_timer(due);
        let probe = a.poll_transmit(due).expect("zero-window probe");
        assert!(!probe.payload.is_empty(), "probe forces a byte out");
        assert!(a.stats.zero_window_probes >= 1);
        // Genuine peer ACKs the probe byte: real seq (201, far behind
        // the forged 1201), open window.
        let mut genuine = Segment::new(80, 49152, TcpSeq(201), TcpSeq(102), Flags::ACK);
        genuine.window = 1848;
        a.on_segment(&genuine, Ecn::NotCapable, due);
        let seg = a.poll_transmit(due).expect("flow resumes");
        assert!(!seg.payload.is_empty(), "data flows after recovery");
        assert_eq!(a.close_reason(), None);
    }

    /// If nothing ever answers the probes (peer dead, or the zero
    /// window was forged and the path is black-holed), the connection
    /// must die with a supervisable CloseReason — never stall
    /// silently forever.
    #[test]
    fn unrelieved_zero_window_dies_with_persist_timeout() {
        let (mut a, _b) = handshake();
        let t = Instant::ZERO;
        let mut forged = Segment::new(80, 49152, TcpSeq(1201), TcpSeq(101), Flags::ACK);
        forged.window = 0;
        a.on_segment(&forged, Ecn::NotCapable, t);
        a.send(b"payload");
        while a.poll_transmit(t).is_some() {}
        let mut guard = 0;
        while a.state() != TcpState::Closed {
            guard += 1;
            assert!(guard < 200, "must converge, not stall");
            let due = a.poll_at().expect("a timer is always armed");
            a.on_timer(due);
            while a.poll_transmit(due).is_some() {}
        }
        assert_eq!(a.close_reason(), Some(CloseReason::PersistTimeout));
        assert!(CloseReason::PersistTimeout.is_failure());
    }
}
