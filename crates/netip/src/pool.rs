//! A free list of reusable packet byte buffers.
//!
//! One pool per node backs every packet-sized buffer on the datapath:
//! TCP segments encode into a pooled buffer, the buffer rides the IP
//! queue as the packet payload, and it returns once the 6LoWPAN layer
//! has framed it. Reassembly buffers and forwarded payloads come from
//! and return to the same pool, so a node in steady state stops
//! allocating per packet.

/// Free-list of reusable byte buffers.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
}

/// Buffers retained in the free list; beyond this they just drop.
const BUF_POOL_CAP: usize = 16;

impl BufPool {
    /// Pops a cleared buffer, or a fresh one when the pool is empty.
    pub fn take(&mut self) -> Vec<u8> {
        self.free
            .pop()
            .map(|mut v| {
                v.clear();
                v
            })
            .unwrap_or_default()
    }

    /// Returns a buffer to the pool (capacity kept, contents ignored).
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < BUF_POOL_CAP {
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity_and_bounds_spares() {
        let mut p = BufPool::default();
        let mut b = p.take();
        b.extend_from_slice(&[1; 300]);
        let cap = b.capacity();
        p.put(b);
        let b = p.take();
        assert!(b.is_empty(), "a recycled buffer comes back cleared");
        assert_eq!(b.capacity(), cap, "and keeps its capacity");
        for _ in 0..2 * BUF_POOL_CAP {
            p.put(Vec::with_capacity(8));
        }
        for _ in 0..BUF_POOL_CAP {
            assert_eq!(p.take().capacity(), 8, "the pool keeps its cap of spares");
        }
        assert_eq!(p.take().capacity(), 0, "and drops the rest");
    }
}
