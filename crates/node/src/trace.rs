//! Packet tracing: a tcpdump-style event log of everything that moves
//! through the simulated network.
//!
//! Disabled by default (zero overhead); enable with
//! [`crate::world::World::enable_trace`]. Each entry records the time,
//! the node observing the event, the direction, and a one-line
//! protocol summary (MAC frame type, 6LoWPAN fragmentation, TCP
//! flags/seq/ack or UDP ports). Experiments and downstream users can
//! dump the log to debug protocol behaviour the way the paper's
//! authors used sniffers on their testbed.

use lln_netip::NodeId;
use lln_sim::Instant;

/// What happened to the traced unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceDir {
    /// Frame handed to the radio for transmission.
    FrameTx,
    /// Frame received intact.
    FrameRx,
    /// Full IP packet delivered to the local transport.
    Deliver,
    /// Packet queued for forwarding.
    Forward,
    /// Packet or frame dropped (reason in the summary).
    Drop,
}

/// One trace entry.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When.
    pub at: Instant,
    /// Observing node.
    pub node: NodeId,
    /// Event kind.
    pub dir: TraceDir,
    /// Human-readable summary line.
    pub summary: String,
}

/// The packet trace log.
#[derive(Debug, Default)]
pub struct PacketTrace {
    enabled: bool,
    entries: Vec<TraceEntry>,
    capacity: usize,
}

impl PacketTrace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        PacketTrace {
            enabled: false,
            entries: Vec::new(),
            capacity: 100_000,
        }
    }

    /// Enables recording (bounded at `capacity` entries; the newest
    /// are dropped past that).
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity;
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event. The summary is built only when the entry is
    /// kept, so a disabled trace formats and allocates nothing.
    pub fn record<S: Into<String>>(
        &mut self,
        at: Instant,
        node: NodeId,
        dir: TraceDir,
        summary: impl FnOnce() -> S,
    ) {
        if !self.enabled || self.entries.len() >= self.capacity {
            return;
        }
        self.entries.push(TraceEntry {
            at,
            node,
            dir,
            summary: summary().into(),
        });
    }

    /// All recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Renders the log, one line per event.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{:>12.6}  node{:<3} {:<8} {}\n",
                e.at.as_secs_f64(),
                e.node.0,
                match e.dir {
                    TraceDir::FrameTx => "tx",
                    TraceDir::FrameRx => "rx",
                    TraceDir::Deliver => "deliver",
                    TraceDir::Forward => "forward",
                    TraceDir::Drop => "DROP",
                },
                e.summary
            ));
        }
        out
    }

    /// Entries observed by one node.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.node == node)
    }

    /// Count of drop events.
    pub fn drop_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.dir == TraceDir::Drop)
            .count()
    }
}

/// Builds the one-line summary for a MAC frame.
pub fn summarize_frame(frame: &lln_mac::frame::MacFrame) -> String {
    use lln_mac::frame::FrameType;
    match frame.frame_type {
        FrameType::Ack => format!(
            "802.15.4 ACK seq={}{}",
            frame.seq,
            if frame.pending { " [pending]" } else { "" }
        ),
        FrameType::Command => format!(
            "802.15.4 DATA-REQ {}->{} seq={}",
            frame.src.0, frame.dst.0, frame.seq
        ),
        FrameType::Data => {
            let frag = if lln_sixlowpan::frag::is_fragment(&frame.payload) {
                " frag"
            } else {
                ""
            };
            format!(
                "802.15.4 DATA {}->{} seq={} len={}{}{}",
                frame.src.0,
                frame.dst.0,
                frame.seq,
                frame.payload.len(),
                frag,
                if frame.pending { " [pending]" } else { "" }
            )
        }
    }
}

/// Builds the one-line summary for a delivered IP packet.
pub fn summarize_packet(hdr: &lln_netip::Ipv6Header, payload: &[u8]) -> String {
    match hdr.next_header {
        lln_netip::NextHeader::Tcp => {
            match tcplp::Segment::decode_view(hdr.src, hdr.dst, payload) {
                Some(seg) => format!(
                    "TCP {}->{} {:?} seq={} ack={} len={} win={}",
                    seg.src_port,
                    seg.dst_port,
                    seg.flags,
                    seg.seq.0,
                    seg.ack.0,
                    seg.payload.len(),
                    seg.window
                ),
                None => "TCP <checksum error>".to_string(),
            }
        }
        lln_netip::NextHeader::Udp => {
            match lln_netip::UdpHeader::decode_datagram(hdr.src, hdr.dst, payload) {
                Some((u, body)) => {
                    format!("UDP {}->{} len={}", u.src_port, u.dst_port, body.len())
                }
                None => "UDP <checksum error>".to_string(),
            }
        }
        lln_netip::NextHeader::Other(p) => format!("IPv6 proto={p}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = PacketTrace::new();
        t.record(Instant::ZERO, NodeId(1), TraceDir::FrameTx, || -> String {
            panic!("a disabled trace must not build the summary")
        });
        assert!(t.entries().is_empty());
    }

    #[test]
    fn enabled_trace_records_and_dumps() {
        let mut t = PacketTrace::new();
        t.enable(10);
        t.record(
            Instant::from_millis(5),
            NodeId(1),
            TraceDir::FrameTx,
            || "hello",
        );
        t.record(Instant::from_millis(6), NodeId(2), TraceDir::Drop, || "bad");
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.drop_count(), 1);
        let dump = t.dump();
        assert!(dump.contains("node1"));
        assert!(dump.contains("DROP"));
        assert!(dump.contains("hello"));
    }

    #[test]
    fn capacity_bounds_log() {
        let mut t = PacketTrace::new();
        t.enable(3);
        for i in 0..10 {
            t.record(
                Instant::from_millis(i),
                NodeId(1),
                TraceDir::FrameRx,
                || "e",
            );
        }
        assert_eq!(t.entries().len(), 3);
    }

    #[test]
    fn per_node_filter() {
        let mut t = PacketTrace::new();
        t.enable(10);
        t.record(Instant::ZERO, NodeId(1), TraceDir::FrameTx, || "a");
        t.record(Instant::ZERO, NodeId(2), TraceDir::FrameTx, || "b");
        assert_eq!(t.for_node(NodeId(1)).count(), 1);
    }

    #[test]
    fn frame_summaries() {
        use lln_mac::frame::MacFrame;
        let d = MacFrame::data(NodeId(3), NodeId(4), 9, vec![0x61, 1, 2]);
        let s = summarize_frame(&d);
        assert!(s.contains("DATA 3->4"), "{s}");
        let a = MacFrame::ack(9, true);
        assert!(summarize_frame(&a).contains("[pending]"));
        let dr = MacFrame::data_request(NodeId(5), NodeId(1), 2);
        assert!(summarize_frame(&dr).contains("DATA-REQ"));
    }

    #[test]
    fn packet_summaries() {
        use lln_netip::{Ipv6Header, NextHeader, NodeId};
        let src = NodeId(1).mesh_addr();
        let dst = NodeId(2).mesh_addr();
        let mut seg = tcplp::Segment::new(
            10,
            20,
            tcplp::TcpSeq(7),
            tcplp::TcpSeq(8),
            tcplp::Flags::ACK,
        );
        seg.payload = vec![1, 2, 3];
        let bytes = seg.encode(src, dst);
        let hdr = Ipv6Header::new(src, dst, NextHeader::Tcp, bytes.len() as u16);
        let s = summarize_packet(&hdr, &bytes);
        assert!(s.contains("TCP 10->20"), "{s}");
        assert!(s.contains("len=3"));
        let u = lln_netip::UdpHeader::encode_datagram(src, dst, 5683, 9, b"xy");
        let hdr = Ipv6Header::new(src, dst, NextHeader::Udp, u.len() as u16);
        assert!(summarize_packet(&hdr, &u).contains("UDP 5683->9"));
    }
}
