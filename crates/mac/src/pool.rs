//! Pooled, reference-counted frame buffers.
//!
//! A [`FrameBuf`] pairs a decoded [`MacFrame`] with its wire encoding.
//! The encoding is computed on demand: the first [`FrameBuf::encoded`]
//! call builds it and every clone shares the cached bytes. Air time and
//! SPI cost need only [`FrameBuf::mpdu_len`], which is header
//! arithmetic, so in a simulation the bytes (and their CRC pass) are
//! built only for a frame that meets a bit-error burst. Cloning is a
//! reference-count bump, so a frame can sit in the MAC queue, ride the
//! medium, fan out to several receivers, and wait in the retransmit
//! path without its payload or encoding ever being copied or re-derived
//! — the same zero-copy buffering discipline TCPlp applies to its send
//! buffer on-mote (§5 of the paper).
//!
//! A [`FramePool`] recycles the underlying allocations: when the last
//! reference to a buffer is handed back via [`FramePool::reclaim`], its
//! heap storage (the `Arc` block and the payload `Vec`) is reused for
//! the next frame instead of going back to the allocator; a stale
//! encoding is dropped. [`FramePool::alloc_with`] writes the next
//! frame's payload straight into the recycled payload storage, so a
//! spare last used by an empty-payload link ACK still brings a data
//! frame its capacity.
//! The steady state of a busy node — one frame in flight, a handful
//! queued — runs entirely out of the pool.
//!
//! # Ownership rules
//!
//! - A `FrameBuf` is immutable. Anything that must differ between
//!   frames (the frame-pending bit, sequence number) is set on the
//!   `MacFrame` *before* the buffer is built.
//! - `reclaim` is an optimisation, never a requirement: dropping a
//!   `FrameBuf` is always correct, and `reclaim` quietly declines
//!   buffers that still have other holders.

use crate::frame::{MacFrame, MAX_MAC_PAYLOAD};
use std::sync::{Arc, OnceLock};

/// An immutable MAC frame plus its lazily built wire encoding.
#[derive(Clone, Debug)]
pub struct FrameBuf(Arc<FrameData>);

#[derive(Debug)]
struct FrameData {
    frame: MacFrame,
    encoded: OnceLock<Vec<u8>>,
}

impl FrameBuf {
    /// Builds a buffer for `frame`; nothing is encoded yet.
    pub fn new(frame: MacFrame) -> Self {
        FrameBuf(Arc::new(FrameData {
            frame,
            encoded: OnceLock::new(),
        }))
    }

    /// The decoded frame.
    pub fn frame(&self) -> &MacFrame {
        &self.0.frame
    }

    /// The wire bytes (identical to `self.frame().encode()`), encoded
    /// on the first call and shared by every clone afterwards.
    pub fn encoded(&self) -> &[u8] {
        self.0.encoded.get_or_init(|| self.0.frame.encode())
    }

    /// Encoded MPDU length in bytes (drives air-time computation),
    /// without encoding.
    pub fn mpdu_len(&self) -> usize {
        self.0.frame.mpdu_len()
    }
}

/// A free list of uniquely-owned frame buffers awaiting reuse.
pub struct FramePool {
    spares: Vec<Arc<FrameData>>,
    max_spares: usize,
    /// Allocations served from the free list.
    pub reused: u64,
    /// Allocations that had to hit the allocator.
    pub fresh: u64,
}

impl Default for FramePool {
    fn default() -> Self {
        Self::new(64)
    }
}

impl FramePool {
    /// Creates a pool retaining at most `max_spares` idle buffers.
    pub fn new(max_spares: usize) -> Self {
        FramePool {
            spares: Vec::new(),
            max_spares,
            reused: 0,
            fresh: 0,
        }
    }

    /// Builds a buffer for `frame`, reusing a spare allocation when one
    /// is available. Copies the payload into the spare's storage; the
    /// datapath fills it in place with [`FramePool::alloc_with`].
    pub fn alloc(&mut self, mut frame: MacFrame) -> FrameBuf {
        let payload = std::mem::take(&mut frame.payload);
        self.alloc_with(frame, |p| p.extend_from_slice(&payload))
    }

    /// Builds a buffer for `header` (its payload is ignored) whose
    /// payload `fill` appends to an empty, recycled payload buffer.
    /// Fresh buffers reserve a full frame, so a buffer never grows
    /// once built. A recycled spare's old encoding is dropped; the new
    /// frame is encoded only if someone asks for its bytes.
    pub fn alloc_with(&mut self, header: MacFrame, fill: impl FnOnce(&mut Vec<u8>)) -> FrameBuf {
        let mut arc = match self.spares.pop() {
            Some(arc) => {
                self.reused += 1;
                arc
            }
            None => {
                self.fresh += 1;
                let mut blank = MacFrame::ack(0, false);
                blank.payload.reserve_exact(MAX_MAC_PAYLOAD);
                Arc::new(FrameData {
                    frame: blank,
                    encoded: OnceLock::new(),
                })
            }
        };
        let d = Arc::get_mut(&mut arc).expect("spares are uniquely owned");
        let mut payload = std::mem::take(&mut d.frame.payload);
        payload.clear();
        fill(&mut payload);
        d.frame = MacFrame { payload, ..header };
        d.encoded.take();
        FrameBuf(arc)
    }

    /// Returns a buffer's allocation to the free list if this was the
    /// last reference; otherwise (or when the pool is full) the buffer
    /// simply drops.
    pub fn reclaim(&mut self, buf: FrameBuf) {
        if self.spares.len() < self.max_spares && Arc::strong_count(&buf.0) == 1 {
            self.spares.push(buf.0);
        }
    }

    /// Idle buffers currently held.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameType, MAC_OVERHEAD};
    use lln_netip::NodeId;

    fn data(payload: usize) -> MacFrame {
        MacFrame::data(NodeId(1), NodeId(2), 7, vec![0xAB; payload])
    }

    #[test]
    fn cached_encoding_matches_encode() {
        let f = data(40);
        let buf = FrameBuf::new(f.clone());
        assert_eq!(buf.encoded(), f.encode().as_slice());
        assert_eq!(buf.mpdu_len(), MAC_OVERHEAD + 40);
        assert_eq!(buf.frame(), &f);
    }

    #[test]
    fn mpdu_len_matches_encoding_for_every_frame_type() {
        let frames = [
            data(0),
            data(MAX_MAC_PAYLOAD),
            MacFrame::data_request(NodeId(4), NodeId(1), 9),
            MacFrame::command(NodeId(4), NodeId(1), 10),
            MacFrame::ack(11, false),
            MacFrame::ack(12, true),
        ];
        for f in frames {
            let buf = FrameBuf::new(f);
            let len = buf.mpdu_len();
            assert_eq!(len, buf.encoded().len(), "{:?}", buf.frame());
        }
    }

    #[test]
    fn clone_shares_storage() {
        let buf = FrameBuf::new(data(10));
        let others: Vec<_> = (0..3).map(|_| buf.clone()).collect();
        // The encoding is built by whichever clone asks first...
        let first = others[1].encoded();
        // ...and every other holder sees those very bytes.
        assert!(std::ptr::eq(first, buf.encoded()));
        for o in &others {
            assert!(std::ptr::eq(first, o.encoded()));
        }
    }

    #[test]
    fn recycled_spare_drops_its_stale_encoding() {
        let mut pool = FramePool::new(8);
        let a = pool.alloc(MacFrame::data(NodeId(1), NodeId(2), 1, vec![0x11; 60]));
        let stale = a.encoded().to_vec();
        pool.reclaim(a);
        let want = MacFrame::data(NodeId(2), NodeId(3), 2, vec![0x22; 60]);
        let b = pool.alloc(want.clone());
        assert_eq!(pool.reused, 1);
        assert_eq!(b.mpdu_len(), stale.len());
        assert_ne!(b.encoded(), stale.as_slice());
        assert_eq!(b.encoded(), want.encode().as_slice());
    }

    #[test]
    fn ack_buffer_encodes_ack() {
        let buf = FrameBuf::new(MacFrame::ack(9, true));
        assert_eq!(buf.mpdu_len(), crate::frame::ACK_MPDU_LEN);
        let dec = MacFrame::decode(buf.encoded()).unwrap();
        assert_eq!(dec.frame_type, FrameType::Ack);
        assert!(dec.pending);
    }

    #[test]
    fn pool_reuses_unique_buffers() {
        let mut pool = FramePool::new(8);
        let a = pool.alloc(data(20));
        assert_eq!(pool.fresh, 1);
        pool.reclaim(a);
        assert_eq!(pool.spares(), 1);
        let b = pool.alloc(data(90));
        assert_eq!(pool.reused, 1);
        assert_eq!(pool.spares(), 0);
        // The recycled buffer re-encodes the NEW frame correctly.
        assert_eq!(b.encoded(), b.frame().encode().as_slice());
        assert_eq!(b.frame().payload.len(), 90);
    }

    #[test]
    fn data_frame_on_an_ack_spare_matches_a_fresh_one() {
        let mut pool = FramePool::new(8);
        let ack = pool.alloc(MacFrame::ack(3, true));
        pool.reclaim(ack);
        let payload = vec![0x5a; MAX_MAC_PAYLOAD];
        let mut f = data(0);
        f.pending = true;
        let b = pool.alloc_with(f.clone(), |p| {
            assert!(p.is_empty() && p.capacity() >= MAX_MAC_PAYLOAD);
            p.extend_from_slice(&payload);
        });
        assert_eq!(pool.reused, 1);
        f.payload = payload;
        let fresh = FrameBuf::new(f.clone());
        assert_eq!(b.frame(), &f);
        assert_eq!(b.encoded(), fresh.encoded());
    }

    #[test]
    fn pool_declines_shared_buffers() {
        let mut pool = FramePool::new(8);
        let a = pool.alloc(data(20));
        let held = a.clone();
        pool.reclaim(a);
        assert_eq!(pool.spares(), 0, "shared buffer must not be recycled");
        drop(held);
    }

    #[test]
    fn pool_bounds_spares() {
        let mut pool = FramePool::new(2);
        let bufs: Vec<_> = (0..4).map(|_| pool.alloc(data(5))).collect();
        for b in bufs {
            pool.reclaim(b);
        }
        assert_eq!(pool.spares(), 2);
    }
}
