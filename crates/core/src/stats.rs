//! Per-connection statistics and traces.
//!
//! These counters drive the paper's Figure 7(b) (timeouts vs fast
//! retransmissions as the link-retry delay varies) and Figure 9(b)
//! (transport-layer retransmission counts under injected loss), and the
//! cwnd trace drives Figure 7(a).

use lln_sim::{Duration, Instant};

/// Counters kept by every [`crate::socket::TcpSocket`].
#[derive(Clone, Debug, Default)]
pub struct TcpStats {
    /// Segments transmitted (including retransmissions and pure ACKs).
    pub segs_sent: u64,
    /// Segments received and accepted for processing.
    pub segs_rcvd: u64,
    /// Stream payload bytes sent (first transmissions only).
    pub bytes_sent: u64,
    /// Stream payload bytes received in order (delivered to the app path).
    pub bytes_rcvd: u64,
    /// Retransmission timeouts fired (RTOs).
    pub rexmit_timeouts: u64,
    /// Fast retransmissions triggered by three duplicate ACKs.
    pub fast_rexmits: u64,
    /// Additional retransmissions driven by the SACK scoreboard.
    pub sack_rexmits: u64,
    /// Total segments retransmitted (any cause).
    pub segs_retransmitted: u64,
    /// Duplicate ACKs received.
    pub dup_acks_rcvd: u64,
    /// Pure ACK segments sent.
    pub acks_sent: u64,
    /// RTT samples taken (timestamp-based or timer-based).
    pub rtt_samples: u64,
    /// Challenge ACKs sent (RFC 5961 responses to in-window SYN/RST).
    pub challenge_acks: u64,
    /// Zero-window probes sent.
    pub zero_window_probes: u64,
    /// Pure ACKs of new data that matched the header-prediction predicate.
    pub predicted_acks: u64,
    /// In-sequence data segments that matched the header-prediction predicate.
    pub predicted_data: u64,
    /// Segments dropped by PAWS (RFC 7323 timestamp check).
    pub paws_drops: u64,
    /// ECN: congestion-window reductions due to ECE echoes.
    pub ecn_reductions: u64,
    /// Out-of-order segments accepted into the reassembly queue.
    pub ooo_segments: u64,
    /// Keepalive probes sent.
    pub keepalive_probes: u64,
    /// Challenge ACKs suppressed by the RFC 5961 §5 rate limit.
    pub challenge_acks_limited: u64,
    /// Inbound SACK blocks rejected as forged/out-of-window.
    pub sack_blocks_rejected: u64,
    /// D-SACK blocks received (duplicate reports at/below snd_una).
    pub dsack_rcvd: u64,
    /// Overlapping retransmissions whose payload conflicted with bytes
    /// already held in the reassembly buffer (first write wins; the
    /// conflicting rewrite was refused).
    pub reassembly_conflicts: u64,
}

impl TcpStats {
    /// Total transport-layer retransmissions (the quantity Figure 9b
    /// reports).
    pub fn total_retransmissions(&self) -> u64 {
        self.segs_retransmitted
    }

    /// Stable FNV-1a digest over every counter, in declaration order.
    /// Two runs of the same seeded simulation must produce identical
    /// digests — the torture tier and CI assert exactly this.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.segs_sent,
            self.segs_rcvd,
            self.bytes_sent,
            self.bytes_rcvd,
            self.rexmit_timeouts,
            self.fast_rexmits,
            self.sack_rexmits,
            self.segs_retransmitted,
            self.dup_acks_rcvd,
            self.acks_sent,
            self.rtt_samples,
            self.challenge_acks,
            self.zero_window_probes,
            self.predicted_acks,
            self.predicted_data,
            self.paws_drops,
            self.ecn_reductions,
            self.ooo_segments,
            self.keepalive_probes,
            self.challenge_acks_limited,
            self.sack_blocks_rejected,
            self.dsack_rcvd,
            self.reassembly_conflicts,
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

/// Optional congestion-window trace (Figure 7a). Records
/// `(time, cwnd, ssthresh)` whenever either changes.
#[derive(Clone, Debug, Default)]
pub struct CwndTrace {
    points: Vec<(Instant, u32, u32)>,
    enabled: bool,
}

impl CwndTrace {
    /// Creates a disabled trace (zero overhead until enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records a point if enabled and changed.
    pub fn record(&mut self, now: Instant, cwnd: u32, ssthresh: u32) {
        if !self.enabled {
            return;
        }
        if let Some(&(_, c, s)) = self.points.last() {
            if c == cwnd && s == ssthresh {
                return;
            }
        }
        self.points.push((now, cwnd, ssthresh));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(Instant, u32, u32)] {
        &self.points
    }

    /// Mean cwnd over a window, weighted by time (for reporting).
    pub fn mean_cwnd(&self, start: Instant, end: Instant) -> f64 {
        let mut weighted = 0.0;
        let mut prev: Option<(Instant, u32)> = None;
        for &(t, c, _) in &self.points {
            if let Some((pt, pc)) = prev {
                let lo = pt.max(start);
                let hi = t.min(end);
                if hi > lo {
                    weighted += (hi - lo).as_secs_f64() * pc as f64;
                }
            }
            prev = Some((t, c));
        }
        if let Some((pt, pc)) = prev {
            let lo = pt.max(start);
            if end > lo {
                weighted += (end - lo).as_secs_f64() * pc as f64;
            }
        }
        let span = (end.saturating_duration_since(start)).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            weighted / span
        }
    }
}

/// Collected RTT samples (for reporting median RTTs as in Table 9).
#[derive(Clone, Debug, Default)]
pub struct RttTrace {
    samples: Vec<(Instant, Duration)>,
    enabled: bool,
}

impl RttTrace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records a sample if enabled.
    pub fn record(&mut self, now: Instant, rtt: Duration) {
        if self.enabled {
            self.samples.push((now, rtt));
        }
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[(Instant, Duration)] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cwnd_trace_disabled_by_default() {
        let mut t = CwndTrace::new();
        t.record(Instant::from_secs(1), 100, 200);
        assert!(t.points().is_empty());
    }

    #[test]
    fn cwnd_trace_dedups_unchanged() {
        let mut t = CwndTrace::new();
        t.enable();
        t.record(Instant::from_secs(1), 100, 200);
        t.record(Instant::from_secs(2), 100, 200);
        t.record(Instant::from_secs(3), 150, 200);
        assert_eq!(t.points().len(), 2);
    }

    #[test]
    fn mean_cwnd_time_weighted() {
        let mut t = CwndTrace::new();
        t.enable();
        t.record(Instant::ZERO, 100, 0);
        t.record(Instant::from_secs(1), 300, 0);
        // 1s at 100, 1s at 300 -> mean 200 over [0, 2s).
        let m = t.mean_cwnd(Instant::ZERO, Instant::from_secs(2));
        assert!((m - 200.0).abs() < 1e-9, "mean {m}");
    }

    #[test]
    fn rtt_trace_records_when_enabled() {
        let mut t = RttTrace::new();
        t.record(Instant::ZERO, Duration::from_millis(100));
        assert!(t.samples().is_empty());
        t.enable();
        t.record(Instant::ZERO, Duration::from_millis(100));
        assert_eq!(t.samples().len(), 1);
    }

    #[test]
    fn total_retransmissions_sums() {
        let s = TcpStats {
            segs_retransmitted: 7,
            ..TcpStats::default()
        };
        assert_eq!(s.total_retransmissions(), 7);
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let a = TcpStats::default();
        let b = TcpStats::default();
        assert_eq!(a.digest(), b.digest(), "equal stats, equal digest");
        let c = TcpStats {
            challenge_acks_limited: 1,
            ..TcpStats::default()
        };
        assert_ne!(a.digest(), c.digest(), "any counter change shifts it");
        // Moving the same count to a different field must also shift it
        // (the digest is order-sensitive, not a plain sum).
        let d = TcpStats {
            dsack_rcvd: 1,
            ..TcpStats::default()
        };
        assert_ne!(c.digest(), d.digest());
    }
}
