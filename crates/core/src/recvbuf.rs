//! The TCPlp receive buffer with **in-place reassembly queue**
//! (paper §4.3.2, Figure 1b).
//!
//! A flat circular buffer holds both in-sequence data (ready for the
//! application) and out-of-order segments, which are written into the
//! same buffer at their stream position past the in-sequence region. A
//! bitmap records which of those bytes hold valid out-of-order data;
//! when the hole before them fills, they are "absorbed" into the
//! in-sequence region by just advancing a pointer and clearing bits —
//! no copying, no separate mbuf-chain reassembly queue, and memory use
//! is deterministic (fixed at construction), which is the paper's
//! motivation versus FreeBSD's dynamic mbuf approach.
//!
//! Alongside the bitmap we track the out-of-order ranges as stream
//! offsets, which is exactly what the SACK option needs to advertise.

/// Fixed-capacity circular receive buffer with in-place reassembly.
#[derive(Clone, Debug)]
pub struct RecvBuffer {
    buf: Vec<u8>,
    /// Bitmap, one bit per buffer byte: set when the byte holds valid
    /// out-of-order data (relative to buffer positions, not stream).
    bitmap: Vec<u8>,
    /// Buffer index of the next in-sequence byte to deliver to the app.
    head: usize,
    /// Bytes of contiguous in-sequence data available to the app.
    avail: usize,
    /// Out-of-order ranges as (start, end) offsets from the current
    /// stream head (i.e. offset 0 == first undelivered byte... measured
    /// from `rcv_nxt`), kept sorted and disjoint. Used for SACK blocks.
    ranges: Vec<(usize, usize)>,
    /// Overlap-policy violations refused: a later write carried a byte
    /// that *differed* from one already held at the same stream
    /// position (first write wins; see [`RecvBuffer::write`]).
    conflicts: u64,
}

impl RecvBuffer {
    /// Creates a buffer of fixed `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RecvBuffer {
            buf: vec![0; capacity],
            bitmap: vec![0; capacity.div_ceil(8)],
            head: 0,
            avail: 0,
            ranges: Vec::new(),
            conflicts: 0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes ready for the application.
    pub fn available(&self) -> usize {
        self.avail
    }

    /// The receive window to advertise: capacity minus the data the
    /// application has not yet consumed (Figure 1a's relationship).
    pub fn window(&self) -> usize {
        self.capacity() - self.avail
    }

    /// True when the buffer holds any out-of-order data.
    pub fn has_out_of_order(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// Count of refused conflicting rewrites (overlapping writes whose
    /// byte value differed from the one already held).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Current out-of-order ranges as offsets from `rcv_nxt`
    /// (start, end), sorted ascending. The socket converts these to
    /// SACK blocks.
    pub fn out_of_order_ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    fn bit(&self, idx: usize) -> bool {
        self.bitmap[idx / 8] & (1 << (idx % 8)) != 0
    }

    fn set_bit(&mut self, idx: usize, v: bool) {
        if v {
            self.bitmap[idx / 8] |= 1 << (idx % 8);
        } else {
            self.bitmap[idx / 8] &= !(1 << (idx % 8));
        }
    }

    /// Writes segment payload whose first byte is `offset` bytes past
    /// `rcv_nxt` (offset 0 = in order). Bytes outside the window are
    /// discarded. Returns the number of *newly in-sequence* bytes made
    /// available by this write (0 for pure out-of-order arrivals).
    ///
    /// Overlap policy: **first write wins**. A byte position already
    /// holding out-of-order data is never rewritten — a retransmission
    /// (or a forged overlapping segment) carrying different bytes for
    /// the same sequence range cannot alter what will be delivered.
    /// Delivered (absorbed) bytes are unreachable by construction,
    /// since `offset` counts from `rcv_nxt`. Conflicting rewrites are
    /// tallied in [`RecvBuffer::conflicts`].
    pub fn write(&mut self, offset: usize, data: &[u8]) -> usize {
        let cap = self.capacity();
        // The valid stream span we may hold is [avail, window) for new
        // data; in-order data lands exactly at `avail` when offset==avail
        // relative to rcv_nxt==head+... — note: `offset` is relative to
        // rcv_nxt, and rcv_nxt corresponds to stream position `avail`
        // from the app's head. Buffer position of stream offset k (from
        // rcv_nxt) is (head + avail + k) % cap.
        let window = self.window();
        // Bulk in-order ingest: with no out-of-order data held, an
        // offset-0 write is a plain append — every target bit is clear
        // (the bitmap only covers `ranges`), so the per-byte
        // first-write-wins walk below would copy every byte anyway and
        // absorb the whole range immediately. Two slice copies (split
        // at the wrap point) replace bitmap churn and range merging.
        // This is the path header-predicted data takes.
        if offset == 0 && self.ranges.is_empty() {
            let wrote = data.len().min(window);
            if wrote == 0 {
                return 0;
            }
            let start = (self.head + self.avail) % cap;
            let first = wrote.min(cap - start);
            self.buf[start..start + first].copy_from_slice(&data[..first]);
            self.buf[..wrote - first].copy_from_slice(&data[first..wrote]);
            self.avail += wrote;
            return wrote;
        }
        let before_avail = self.avail;
        for (i, &b) in data.iter().enumerate() {
            let k = offset + i;
            if k >= window {
                break; // beyond advertised window: drop
            }
            let pos = (self.head + self.avail + k) % cap;
            // k counts from rcv_nxt; k < 0 impossible (caller trims).
            if self.bit(pos) {
                // First write wins: position already holds data.
                if self.buf[pos] != b {
                    self.conflicts += 1;
                }
            } else {
                self.buf[pos] = b;
                // Provisionally mark; absorbed below if contiguous.
                self.set_bit(pos, true);
            }
        }
        let wrote = data.len().min(window.saturating_sub(offset));
        if wrote == 0 {
            return 0;
        }
        self.insert_range(offset, offset + wrote);
        // Absorb: while the first range starts at 0, extend avail.
        if let Some(&(start, end)) = self.ranges.first() {
            if start == 0 {
                let n = end;
                for k in 0..n {
                    let pos = (self.head + self.avail + k) % cap;
                    self.set_bit(pos, false);
                }
                self.avail += n;
                self.ranges.remove(0);
                // Shift remaining ranges down by n.
                for r in &mut self.ranges {
                    r.0 -= n;
                    r.1 -= n;
                }
            }
        }
        self.avail - before_avail
    }

    fn insert_range(&mut self, start: usize, end: usize) {
        debug_assert!(start < end);
        // In place, so steady-state reordering allocates nothing: the
        // ranges wholly before the new one stay, the run it overlaps or
        // touches merges into it, and the rest stay after it.
        let r = &mut self.ranges;
        let lo = r.iter().position(|x| x.1 >= start).unwrap_or(r.len());
        let hi = lo + r[lo..].iter().take_while(|x| x.0 <= end).count();
        if lo == hi {
            r.insert(lo, (start, end));
        } else {
            r[lo] = r[lo..hi]
                .iter()
                .fold((start, end), |n, x| (n.0.min(x.0), n.1.max(x.1)));
            r.drain(lo + 1..hi);
        }
    }

    /// Reads up to `out.len()` in-sequence bytes into `out`, consuming
    /// them. Returns the count read.
    pub fn read(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.avail);
        let cap = self.capacity();
        for (i, slot) in out[..n].iter_mut().enumerate() {
            *slot = self.buf[(self.head + i) % cap];
        }
        self.head = (self.head + n) % cap;
        self.avail -= n;
        n
    }

    /// Peeks at in-sequence bytes without consuming.
    pub fn peek(&self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.avail);
        let cap = self.capacity();
        for (i, slot) in out[..n].iter_mut().enumerate() {
            *slot = self.buf[(self.head + i) % cap];
        }
        n
    }

    /// Internal consistency check used by tests and property tests:
    /// bitmap bits must exactly cover the out-of-order ranges.
    pub fn check_invariants(&self) {
        let cap = self.capacity();
        // Ranges sorted, disjoint, within window, non-empty.
        let mut prev_end = 0usize;
        for &(s, e) in &self.ranges {
            assert!(s < e, "empty range");
            assert!(s > prev_end || (prev_end == 0 && s > 0), "ranges must be disjoint, non-adjacent to head: ({s},{e}) after {prev_end}");
            assert!(e <= self.window(), "range beyond window");
            prev_end = e;
        }
        // Bitmap matches ranges.
        for k in 0..self.window() {
            let pos = (self.head + self.avail + k) % cap;
            let in_range = self.ranges.iter().any(|&(s, e)| k >= s && k < e);
            assert_eq!(
                self.bit(pos),
                in_range,
                "bitmap/range mismatch at stream offset {k}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut rb = RecvBuffer::new(16);
        assert_eq!(rb.write(0, b"hello"), 5);
        assert_eq!(rb.available(), 5);
        let mut out = [0u8; 5];
        assert_eq!(rb.read(&mut out), 5);
        assert_eq!(&out, b"hello");
        assert_eq!(rb.available(), 0);
        rb.check_invariants();
    }

    #[test]
    fn out_of_order_held_until_hole_fills() {
        let mut rb = RecvBuffer::new(16);
        assert_eq!(rb.write(5, b"world"), 0, "ooo data yields nothing yet");
        assert_eq!(rb.available(), 0);
        assert!(rb.has_out_of_order());
        assert_eq!(rb.out_of_order_ranges(), &[(5, 10)]);
        rb.check_invariants();
        // Filling the hole releases both pieces at once.
        assert_eq!(rb.write(0, b"hello"), 10);
        assert_eq!(rb.available(), 10);
        assert!(!rb.has_out_of_order());
        let mut out = [0u8; 10];
        rb.read(&mut out);
        assert_eq!(&out, b"helloworld");
        rb.check_invariants();
    }

    #[test]
    fn overlapping_ooo_segments_merge() {
        let mut rb = RecvBuffer::new(32);
        rb.write(4, b"defg");
        rb.write(6, b"fghij");
        assert_eq!(rb.out_of_order_ranges(), &[(4, 11)]);
        rb.write(12, b"LM");
        assert_eq!(rb.out_of_order_ranges(), &[(4, 11), (12, 14)]);
        rb.check_invariants();
        rb.write(0, b"abcd"); // releases first range only
        assert_eq!(rb.available(), 11);
        assert_eq!(rb.out_of_order_ranges(), &[(1, 3)]);
        rb.check_invariants();
    }

    #[test]
    fn window_shrinks_with_undelivered_data() {
        let mut rb = RecvBuffer::new(10);
        rb.write(0, b"abcdef");
        assert_eq!(rb.window(), 4);
        let mut out = [0u8; 6];
        rb.read(&mut out);
        assert_eq!(rb.window(), 10);
    }

    #[test]
    fn writes_beyond_window_are_trimmed() {
        let mut rb = RecvBuffer::new(8);
        assert_eq!(rb.write(0, b"0123456789ABC"), 8);
        assert_eq!(rb.available(), 8);
        let mut out = [0u8; 8];
        rb.read(&mut out);
        assert_eq!(&out, b"01234567");
        rb.check_invariants();
    }

    #[test]
    fn ooo_write_entirely_beyond_window_ignored() {
        let mut rb = RecvBuffer::new(8);
        assert_eq!(rb.write(9, b"zz"), 0);
        assert!(!rb.has_out_of_order());
        rb.check_invariants();
    }

    #[test]
    fn wraparound_reassembly() {
        let mut rb = RecvBuffer::new(8);
        rb.write(0, b"abcdef");
        let mut out = [0u8; 6];
        rb.read(&mut out); // head now 6
        // Write 7 bytes with a hole: [2..7) first, then [0..2).
        rb.write(2, b"CDEFG");
        assert_eq!(rb.available(), 0);
        rb.check_invariants();
        rb.write(0, b"AB");
        assert_eq!(rb.available(), 7);
        let mut out = [0u8; 7];
        rb.read(&mut out);
        assert_eq!(&out, b"ABCDEFG");
        rb.check_invariants();
    }

    #[test]
    fn duplicate_in_order_data_rewrites_harmlessly() {
        let mut rb = RecvBuffer::new(16);
        rb.write(0, b"abc");
        // Retransmission overlapping delivered region is the socket's
        // job to trim; here offset 0 now refers to *new* stream data
        // (post-rcv_nxt), so a fresh write lands after "abc".
        rb.write(0, b"def");
        assert_eq!(rb.available(), 6);
        let mut out = [0u8; 6];
        rb.read(&mut out);
        assert_eq!(&out, b"abcdef");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut rb = RecvBuffer::new(8);
        rb.write(0, b"xyz");
        let mut out = [0u8; 3];
        assert_eq!(rb.peek(&mut out), 3);
        assert_eq!(&out, b"xyz");
        assert_eq!(rb.available(), 3);
    }

    #[test]
    fn conflicting_overlap_first_write_wins() {
        let mut rb = RecvBuffer::new(32);
        rb.write(4, b"GOOD");
        // A forged overlapping retransmission with different bytes for
        // the same range must not alter the held data.
        assert_eq!(rb.write(4, b"EVIL"), 0);
        assert_eq!(rb.conflicts(), 4);
        rb.check_invariants();
        rb.write(0, b"xxxx");
        let mut out = [0u8; 8];
        assert_eq!(rb.read(&mut out), 8);
        assert_eq!(&out, b"xxxxGOOD", "first write delivered, not the rewrite");
    }

    #[test]
    fn partial_conflicting_overlap_keeps_held_prefix() {
        let mut rb = RecvBuffer::new(32);
        rb.write(6, b"cdef");
        // Overlap [4..10): new bytes for [4..6), conflicting for [6..10).
        assert_eq!(rb.write(4, b"abXXXX"), 0);
        assert_eq!(rb.out_of_order_ranges(), &[(4, 10)]);
        assert_eq!(rb.conflicts(), 4);
        rb.write(0, b"....");
        let mut out = [0u8; 10];
        rb.read(&mut out);
        assert_eq!(&out, b"....abcdef");
        rb.check_invariants();
    }

    #[test]
    fn identical_duplicate_overlap_counts_no_conflict() {
        let mut rb = RecvBuffer::new(16);
        rb.write(3, b"abc");
        rb.write(3, b"abc");
        assert_eq!(rb.conflicts(), 0, "benign dup retransmit is not a conflict");
        rb.check_invariants();
    }

    #[test]
    fn bulk_in_order_path_equals_bytewise_stream() {
        // Drive one buffer with in-order appends (bulk path, including
        // wraparound splits) interleaved with reads, and check the
        // delivered stream matches the source byte-for-byte. An OOO
        // write mid-stream forces the general path; once it drains the
        // bulk path must resume seamlessly.
        let mut rb = RecvBuffer::new(16);
        let src: Vec<u8> = (0u16..200).map(|i| (i * 31 % 251) as u8).collect();
        let mut fed = 0usize;
        let mut delivered = Vec::new();
        let mut step = 0usize;
        while delivered.len() < src.len() {
            step += 1;
            let n = 1 + (step * 7) % 11;
            if step == 5 && fed + n + 3 < src.len() && rb.window() > n + 3 {
                // One out-of-order interlude: future bytes first.
                assert_eq!(rb.write(n, &src[fed + n..fed + n + 3]), 0);
                let got = rb.write(0, &src[fed..fed + n]);
                assert_eq!(got, n + 3);
                fed += n + 3;
            } else if fed < src.len() {
                let take = n.min(src.len() - fed);
                let wrote = rb.write(0, &src[fed..fed + take]);
                fed += wrote;
            }
            rb.check_invariants();
            let mut out = [0u8; 6];
            let r = rb.read(&mut out);
            delivered.extend_from_slice(&out[..r]);
        }
        assert_eq!(delivered, src);
    }

    #[test]
    fn three_separate_holes_tracked_for_sack() {
        let mut rb = RecvBuffer::new(64);
        rb.write(10, b"aaaaa");
        rb.write(20, b"bbbbb");
        rb.write(30, b"ccccc");
        assert_eq!(
            rb.out_of_order_ranges(),
            &[(10, 15), (20, 25), (30, 35)]
        );
        rb.check_invariants();
        // Fill the first hole; second and third shift down by 15.
        rb.write(0, &[b'x'; 10]);
        assert_eq!(rb.available(), 15);
        assert_eq!(rb.out_of_order_ranges(), &[(5, 10), (15, 20)]);
        rb.check_invariants();
    }
}
