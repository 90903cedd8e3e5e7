//! TCPlp socket configuration.
//!
//! Defaults follow the paper's experimental configuration: an MSS of
//! five 802.15.4 frames (~460 B of payload), send/receive buffers of
//! four segments (1848 B, §7.3), SACK + timestamps + delayed ACKs on,
//! a minimum RTO suited to LLN RTTs, and up to 12 retransmissions with
//! exponential backoff (§9.4).

use lln_sim::Duration;

/// Configuration for a [`crate::socket::TcpSocket`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment) offered to the
    /// peer and used as the default send MSS.
    pub mss: usize,
    /// Send buffer capacity in bytes.
    pub send_buf: usize,
    /// Receive buffer capacity in bytes (also the advertised window
    /// ceiling; no window scaling, so at most 65535).
    pub recv_buf: usize,
    /// Offer/accept the SACK option (RFC 2018).
    pub use_sack: bool,
    /// Offer/accept the timestamps option (RFC 7323), enabling
    /// unambiguous RTT measurement of retransmitted segments — the
    /// property §9.4 credits for TCP beating CoCoA under loss.
    pub use_timestamps: bool,
    /// Negotiate ECN (RFC 3168); used with RED queues (Appendix A).
    pub use_ecn: bool,
    /// Delay pure ACKs (ack every 2nd full segment or on timer).
    pub delayed_ack: bool,
    /// Delayed-ACK timeout.
    pub delack_timeout: Duration,
    /// Nagle's algorithm (coalesce sub-MSS writes).
    pub nagle: bool,
    /// Lower bound for the retransmission timeout.
    pub min_rto: Duration,
    /// Upper bound for the retransmission timeout.
    pub max_rto: Duration,
    /// RTO before any RTT sample exists (RFC 6298 says 1 s).
    pub initial_rto: Duration,
    /// Maximum consecutive retransmissions of one segment before the
    /// connection is dropped (paper: "TCP performs up to 12
    /// retransmissions with exponential backoff", §9.4).
    pub max_retransmits: u32,
    /// Base interval for zero-window probes (persist timer).
    pub persist_base: Duration,
    /// TIME_WAIT duration (2×MSL; shortened for simulation).
    pub time_wait: Duration,
    /// Granularity of the timestamp clock.
    pub ts_granularity: Duration,
    /// Keepalive: probe an idle established connection after this long
    /// (None disables keepalive, the default — LLN applications poll
    /// deliberately and keepalives cost energy).
    pub keepalive_idle: Option<Duration>,
    /// Interval between unanswered keepalive probes.
    pub keepalive_interval: Duration,
    /// Unanswered probes before the connection is dropped.
    pub keepalive_probes: u32,
    /// RFC 5961 §5: maximum challenge ACKs sent per
    /// [`TcpConfig::challenge_ack_window`]. Forged in-window RST/SYN
    /// floods beyond this budget are dropped silently, bounding the
    /// ACK-reflection work (and radio energy) an attacker can induce.
    pub challenge_ack_limit: u32,
    /// The window over which the challenge-ACK budget refills.
    pub challenge_ack_window: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        // 4 segments of 462 B ~= the paper's 1848 B window.
        let mss = 462;
        TcpConfig {
            mss,
            send_buf: mss * 4,
            recv_buf: mss * 4,
            use_sack: true,
            use_timestamps: true,
            use_ecn: false,
            delayed_ack: true,
            delack_timeout: Duration::from_millis(100),
            nagle: true,
            min_rto: Duration::from_millis(300),
            max_rto: Duration::from_secs(60),
            initial_rto: Duration::from_secs(1),
            max_retransmits: 12,
            persist_base: Duration::from_millis(500),
            time_wait: Duration::from_secs(2),
            ts_granularity: Duration::from_millis(1),
            keepalive_idle: None,
            keepalive_interval: Duration::from_secs(10),
            keepalive_probes: 4,
            challenge_ack_limit: 10,
            challenge_ack_window: Duration::from_secs(1),
        }
    }
}

impl TcpConfig {
    /// Convenience: a config sized to `segs` segments of `mss` bytes,
    /// the way the paper describes window sizes ("4 segments, 1848 B").
    pub fn with_window_segments(mss: usize, segs: usize) -> Self {
        TcpConfig {
            mss,
            send_buf: mss * segs,
            recv_buf: mss * segs,
            ..TcpConfig::default()
        }
    }

    /// Window size in whole segments (as the paper reports it).
    pub fn window_segments(&self) -> usize {
        self.recv_buf / self.mss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_window() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 462);
        assert_eq!(c.send_buf, 1848);
        assert_eq!(c.window_segments(), 4);
        assert!(c.use_sack && c.use_timestamps && c.delayed_ack);
        assert_eq!(c.max_retransmits, 12);
    }

    #[test]
    fn with_window_segments_scales_buffers() {
        let c = TcpConfig::with_window_segments(408, 7);
        assert_eq!(c.send_buf, 2856);
        assert_eq!(c.recv_buf, 2856);
        assert_eq!(c.window_segments(), 7);
    }
}
