//! `lln-sixlowpan` — the 6LoWPAN adaptation layer (RFC 4944 + RFC 6282).
//!
//! 6LoWPAN is what makes IPv6 viable over 127-byte 802.15.4 frames and
//! is central to the paper's §6.1 MSS experiments and Table 6 overhead
//! accounting: the IPv6 header compresses from 40 bytes to as little as
//! 2, and packets larger than a frame are fragmented with a 4-byte
//! FRAG1 / 5-byte FRAGN header — so the *first* frame of a TCP segment
//! carries 50-107 bytes of headers while subsequent frames carry only
//! 28-35.
//!
//! Implemented here:
//! - IPHC header compression ([`iphc`]) with two shared contexts (the
//!   mesh-local and "cloud" prefixes), hop-limit compression, traffic
//!   class/ECN handling, and full address elision when the IID derives
//!   from the link-layer address;
//! - UDP next-header compression (RFC 6282 §4.3) for the CoAP stack;
//! - fragmentation (a borrowed [`Fragmenter`] writing into caller
//!   buffers) and reassembly ([`frag`]) with per-(source, tag)
//!   reassembly buffers and timeouts.

pub mod frag;
pub mod iphc;

pub use frag::{fragment, Fragment, Fragmenter, Reassembler, ReassemblyLimits};
pub use iphc::{compress, compress_into, decompress, decompress_view, IphcCache, Payload};

/// Maximum 802.15.4 MAC payload available to 6LoWPAN with the paper's
/// 23-byte MAC header+FCS (Table 6): 127 - 23 = 104 bytes.
pub const MAX_FRAME_PAYLOAD: usize = 104;
