//! `lln-netip` — minimal IPv6 network layer for the TCPlp reproduction.
//!
//! Provides the wire formats that ride inside 6LoWPAN: the IPv6 header
//! (RFC 8200), the UDP header (RFC 768), the Internet checksum with the
//! IPv6 pseudo-header, and the forwarding-queue disciplines the paper
//! evaluates: plain FIFO tail-drop and Random Early Detection with ECN
//! marking (Appendix A / Table 9).

pub mod addr;
pub mod checksum;
pub mod ipv6;
pub mod pool;
pub mod queue;
pub mod udp;

pub use addr::{Ipv6Addr, NodeId};
pub use ipv6::{Ecn, Ipv6Header, NextHeader};
pub use pool::BufPool;
pub use queue::{BoundedDeque, FifoQueue, QueueOutcome, RedConfig, RedQueue};
pub use udp::UdpHeader;
