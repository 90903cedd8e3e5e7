//! 6LoWPAN fragmentation and reassembly (RFC 4944 §5.3).
//!
//! A compressed packet larger than one frame is split into a FRAG1
//! fragment (4-byte header: dispatch + datagram size + tag) and FRAGN
//! fragments (5 bytes: + offset in 8-byte units). The paper's §6.1
//! trade-off lives here: a 5-frame MSS amortises the 50-107 byte
//! first-frame header cost, but loses the whole packet if any one
//! frame is lost.
//!
//! Note on datagram size: RFC 4944 counts the size of the *uncompressed*
//! IPv6 datagram. Because our reassembler hands back exactly the bytes
//! given to [`fragment`], we carry the compressed length instead; the
//! semantics are equivalent inside one network.

use lln_netip::{BufPool, NodeId};
use lln_sim::{Duration, Instant};

const FRAG1_DISPATCH: u8 = 0b1100_0000;
const FRAGN_DISPATCH: u8 = 0b1110_0000;

/// Header size of the first fragment.
pub const FRAG1_HDR: usize = 4;
/// Header size of subsequent fragments.
pub const FRAGN_HDR: usize = 5;

/// One 6LoWPAN fragment, ready to ride in a MAC frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Encoded fragment: header + slice of the datagram.
    pub bytes: Vec<u8>,
}

/// Splits `packet` into fragments that each fit in `max_payload` bytes
/// of MAC payload. Returns a single unfragmented "fragment" (no 6LoWPAN
/// fragmentation header) when the packet fits directly. Collects the
/// output of a [`Fragmenter`].
pub fn fragment(packet: &[u8], tag: u16, max_payload: usize) -> Vec<Fragment> {
    let mut fragmenter = Fragmenter::new(packet, tag, max_payload);
    let mut frags = Vec::new();
    let mut bytes = Vec::new();
    while fragmenter.write_next(&mut bytes) {
        frags.push(Fragment {
            bytes: std::mem::take(&mut bytes),
        });
    }
    frags
}

/// A borrowed fragmenter: writes each fragment of a packet — header and
/// slice — into a buffer the caller supplies, such as a recycled frame
/// payload, so fragmenting allocates nothing.
#[derive(Clone, Debug)]
pub struct Fragmenter<'a> {
    packet: &'a [u8],
    tag: u16,
    max_payload: usize,
    /// Datagram offset of the next fragment; `None` once all are out.
    next: Option<usize>,
}

impl<'a> Fragmenter<'a> {
    /// Prepares to fragment `packet` with datagram tag `tag` into MAC
    /// payloads of at most `max_payload` bytes.
    pub fn new(packet: &'a [u8], tag: u16, max_payload: usize) -> Self {
        assert!(
            max_payload > FRAGN_HDR + 8,
            "frame too small to fragment into"
        );
        assert!(
            packet.len() <= max_payload || packet.len() < (1 << 11),
            "datagram exceeds the 11-bit 6LoWPAN size field"
        );
        Fragmenter {
            packet,
            tag,
            max_payload,
            next: Some(0),
        }
    }

    /// True once every fragment has been written.
    pub fn is_done(&self) -> bool {
        self.next.is_none()
    }

    /// Appends the next fragment to `out`. Returns false, writing
    /// nothing, once every fragment has been written.
    pub fn write_next(&mut self, out: &mut Vec<u8>) -> bool {
        let Some(offset) = self.next else {
            return false;
        };
        let p = self.packet;
        let take = if p.len() <= self.max_payload {
            out.extend_from_slice(p);
            p.len()
        } else {
            let size = p.len() as u16;
            let size_hi = (size >> 8) as u8 & 0x07;
            let take = if offset == 0 {
                // First fragment: payload must be a multiple of 8.
                out.push(FRAG1_DISPATCH | size_hi);
                (self.max_payload - FRAG1_HDR) & !7
            } else {
                out.push(FRAGN_DISPATCH | size_hi);
                let remaining = p.len() - offset;
                if remaining <= self.max_payload - FRAGN_HDR {
                    remaining
                } else {
                    (self.max_payload - FRAGN_HDR) & !7
                }
            };
            out.push(size as u8);
            out.extend_from_slice(&self.tag.to_be_bytes());
            if offset > 0 {
                out.push((offset / 8) as u8);
            }
            out.extend_from_slice(&p[offset..offset + take]);
            take
        };
        self.next = Some(offset + take).filter(|&o| o < p.len());
        true
    }
}

/// Returns true when `bytes` begins with a fragmentation header
/// (FRAG1 or FRAGN dispatch).
pub fn is_fragment(bytes: &[u8]) -> bool {
    matches!(bytes.first().map(|b| b >> 3), Some(0b11000) | Some(0b11100))
}

/// Words of the per-partial arrival bitmap: one bit per 8-byte unit of
/// the largest datagram the 11-bit size field can describe (2047 B).
const UNIT_WORDS: usize = (1 << 11) / 8 / 64;

#[derive(Clone, Debug)]
struct PartialDatagram {
    src: NodeId,
    tag: u16,
    size: usize,
    buf: Vec<u8>,
    have: [u64; UNIT_WORDS], // bit per 8-byte unit
    started: Instant,
}

impl PartialDatagram {
    fn units(&self) -> usize {
        self.size.div_ceil(8)
    }

    fn mark(&mut self, first_unit: usize, units: usize) {
        for u in first_unit..(first_unit + units).min(self.units()) {
            self.have[u / 64] |= 1 << (u % 64);
        }
    }

    fn complete(&self) -> bool {
        (0..self.units()).all(|u| self.have[u / 64] & (1 << (u % 64)) != 0)
    }
}

/// Fixed overhead charged per reassembly slot on top of the datagram
/// buffer (bitmap, bookkeeping) — mirrors `tcplp::mem::REASM_SLOT_BYTES`
/// without taking a dependency on the TCP crate.
const SLOT_OVERHEAD_BYTES: usize = 64;

/// Bounds on the reassembler, defending against fragment floods
/// (Hummen et al.'s 6LoWPAN fragmentation attacks): a flood of FRAG1s
/// claiming large datagrams would otherwise pin unbounded buffer
/// memory for a full timeout each.
#[derive(Clone, Copy, Debug)]
pub struct ReassemblyLimits {
    /// Total concurrent partial datagrams.
    pub max_slots: usize,
    /// Concurrent partial datagrams per source — one chatty (or
    /// spoofed) neighbour cannot monopolise the table.
    pub per_source_slots: usize,
    /// Total buffered bytes across all partials (claimed datagram
    /// sizes + per-slot overhead).
    pub max_bytes: usize,
    /// Partial datagrams expire after this long (RFC 4944 suggests up
    /// to 60 s; LLN stacks use a few seconds).
    pub timeout: Duration,
}

impl Default for ReassemblyLimits {
    fn default() -> Self {
        ReassemblyLimits {
            max_slots: 8,
            per_source_slots: 2,
            max_bytes: 8 * 1024,
            timeout: Duration::from_secs(4),
        }
    }
}

/// Per-neighbour reassembly buffers with timeout-based reclamation and
/// per-source/total slot and byte quotas.
#[derive(Clone, Debug)]
pub struct Reassembler {
    partials: Vec<PartialDatagram>,
    limits: ReassemblyLimits,
    /// Datagrams abandoned due to timeout (one lost frame kills the
    /// whole packet — the §6.1 reliability cost of a large MSS).
    pub timeouts: u64,
    /// New datagrams refused because the slot table was full.
    pub denied_slots: u64,
    /// Same-source partials evicted by the per-source quota
    /// (last-write-wins: a fresh datagram replaces the source's oldest
    /// partial rather than being refused, so one lost fragment never
    /// blocks the source's subsequent traffic until timeout).
    pub evicted_source: u64,
    /// New datagrams refused by the byte budget.
    pub denied_bytes: u64,
}

impl Default for Reassembler {
    fn default() -> Self {
        Self::with_limits(ReassemblyLimits::default())
    }
}

impl Reassembler {
    /// Creates a reassembler whose partial datagrams expire after
    /// `timeout`, with default quotas.
    pub fn new(timeout: Duration) -> Self {
        Self::with_limits(ReassemblyLimits {
            timeout,
            ..ReassemblyLimits::default()
        })
    }

    /// Creates a reassembler with explicit quotas.
    pub fn with_limits(limits: ReassemblyLimits) -> Self {
        assert!(limits.max_slots > 0 && limits.per_source_slots > 0);
        Reassembler {
            partials: Vec::new(),
            limits,
            timeouts: 0,
            denied_slots: 0,
            evicted_source: 0,
            denied_bytes: 0,
        }
    }

    /// Offers a received MAC payload from `src`. Returns the full
    /// datagram when this fragment completes one. Non-fragment payloads
    /// are returned immediately. Allocates every buffer; the datapath
    /// uses [`Reassembler::offer_pooled`].
    pub fn offer(&mut self, src: NodeId, bytes: &[u8], now: Instant) -> Option<Vec<u8>> {
        self.offer_pooled(src, bytes, now, &mut BufPool::default())
    }

    /// [`Reassembler::offer`] drawing the datagram buffer (a partial's
    /// buffer, or the copy of a non-fragment payload) from `pool`, and
    /// returning buffers of evicted partials to it. The caller puts the
    /// returned datagram back into `pool` once it is done with it.
    pub fn offer_pooled(
        &mut self,
        src: NodeId,
        bytes: &[u8],
        now: Instant,
        pool: &mut BufPool,
    ) -> Option<Vec<u8>> {
        self.expire(now);
        let whole = |pool: &mut BufPool| {
            let mut v = pool.take();
            v.extend_from_slice(bytes);
            Some(v)
        };
        if bytes.len() < FRAG1_HDR || bytes[0] & 0b1100_0000 != 0b1100_0000 {
            return whole(pool);
        }
        let is_first = bytes[0] >> 3 == 0b11000;
        let is_subseq = bytes[0] >> 3 == 0b11100;
        if !is_first && !is_subseq {
            return whole(pool);
        }
        let size = ((usize::from(bytes[0] & 0x07)) << 8) | usize::from(bytes[1]);
        let tag = u16::from_be_bytes([bytes[2], bytes[3]]);
        let (offset, data) = if is_first {
            (0usize, &bytes[FRAG1_HDR..])
        } else {
            if bytes.len() < FRAGN_HDR {
                return None;
            }
            (usize::from(bytes[4]) * 8, &bytes[FRAGN_HDR..])
        };
        if offset + data.len() > size || size == 0 {
            return None; // malformed
        }

        let idx = match self
            .partials
            .iter()
            .position(|p| p.src == src && p.tag == tag && p.size == size)
        {
            Some(i) => i,
            None => {
                // Admission control for a fresh slot. A source at its
                // quota recycles its own oldest partial (last-write-
                // wins): the bound on slots it can pin is unchanged,
                // but a datagram that died mid-flight cannot block the
                // source's later traffic until the timeout fires.
                // Eviction is strictly same-source — traffic from one
                // neighbour can never push out another's partials.
                let from_src = self.partials.iter().filter(|p| p.src == src).count();
                if from_src >= self.limits.per_source_slots {
                    let oldest = self
                        .partials
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.src == src)
                        .min_by_key(|(_, p)| p.started)
                        .map(|(i, _)| i)
                        .expect("quota reached implies partials from src");
                    pool.put(self.partials.remove(oldest).buf);
                    self.evicted_source += 1;
                } else if self.partials.len() >= self.limits.max_slots {
                    self.denied_slots += 1;
                    return None;
                }
                if self.pending_bytes() + size + SLOT_OVERHEAD_BYTES > self.limits.max_bytes {
                    self.denied_bytes += 1;
                    return None;
                }
                let mut buf = pool.take();
                buf.resize(size, 0);
                self.partials.push(PartialDatagram {
                    src,
                    tag,
                    size,
                    buf,
                    have: [0; UNIT_WORDS],
                    started: now,
                });
                self.partials.len() - 1
            }
        };
        {
            let p = &mut self.partials[idx];
            p.buf[offset..offset + data.len()].copy_from_slice(data);
            p.mark(offset / 8, data.len().div_ceil(8));
        }
        if self.partials[idx].complete() {
            let p = self.partials.remove(idx);
            Some(p.buf)
        } else {
            None
        }
    }

    fn expire(&mut self, now: Instant) {
        let timeout = self.limits.timeout;
        let before = self.partials.len();
        self.partials
            .retain(|p| now.saturating_duration_since(p.started) < timeout);
        self.timeouts += (before - self.partials.len()) as u64;
    }

    /// Timeout-based reclamation, callable without offering a frame —
    /// idle nodes sweep stale slots from a timer so a one-shot flood
    /// cannot pin buffers until the next genuine reception.
    pub fn reclaim(&mut self, now: Instant) {
        self.expire(now);
    }

    /// Number of incomplete datagrams held.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Bytes currently pinned by incomplete datagrams (claimed sizes
    /// plus per-slot overhead) — what the node budget charges.
    pub fn pending_bytes(&self) -> usize {
        self.partials
            .iter()
            .map(|p| p.size + SLOT_OVERHEAD_BYTES)
            .sum()
    }

    /// The earliest instant at which a held partial expires, for
    /// scheduling a [`Reassembler::reclaim`] sweep.
    pub fn next_expiry(&self) -> Option<Instant> {
        self.partials
            .iter()
            .map(|p| p.started + self.limits.timeout)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 256) as u8).collect()
    }

    #[test]
    fn small_packet_not_fragmented() {
        let p = pkt(80);
        let frags = fragment(&p, 1, 104);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].bytes, p);
    }

    #[test]
    fn five_frame_mss_fragments_as_paper_describes() {
        // A 462 B TCP segment + ~4 B compressed IP header needs 5 frames
        // of 104 B MAC payload (the paper's MSS = 5 frames).
        let p = pkt(466);
        let frags = fragment(&p, 7, 104);
        assert_eq!(frags.len(), 5, "fragments: {}", frags.len());
        for f in &frags {
            assert!(f.bytes.len() <= 104);
        }
        assert_eq!(frags[0].bytes[0] >> 3, 0b11000, "FRAG1 dispatch");
        assert_eq!(frags[1].bytes[0] >> 3, 0b11100, "FRAGN dispatch");
    }

    #[test]
    fn reassembly_roundtrip_in_order() {
        let p = pkt(400);
        let frags = fragment(&p, 3, 104);
        let mut r = Reassembler::default();
        let mut out = None;
        for f in &frags {
            out = r.offer(NodeId(5), &f.bytes, Instant::ZERO);
        }
        assert_eq!(out.expect("complete"), p);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembly_out_of_order() {
        let p = pkt(300);
        let frags = fragment(&p, 9, 104);
        let mut r = Reassembler::default();
        let mut done = None;
        for i in (0..frags.len()).rev() {
            done = r.offer(NodeId(5), &frags[i].bytes, Instant::ZERO);
        }
        assert_eq!(done.expect("complete"), p);
    }

    #[test]
    fn duplicate_fragments_harmless() {
        let p = pkt(300);
        let frags = fragment(&p, 9, 104);
        let mut r = Reassembler::default();
        let mut done = None;
        for f in &frags {
            // Offer each fragment twice; duplicates must be harmless.
            done = r.offer(NodeId(5), &f.bytes, Instant::ZERO).or(done);
            done = r.offer(NodeId(5), &f.bytes, Instant::ZERO).or(done);
        }
        assert_eq!(done.expect("complete"), p);
    }

    #[test]
    fn interleaved_sources_do_not_mix() {
        let pa = pkt(200);
        let pb: Vec<u8> = pkt(200).iter().map(|b| b ^ 0xff).collect();
        let fa = fragment(&pa, 1, 104);
        let fb = fragment(&pb, 1, 104); // same tag, different source
        let mut r = Reassembler::default();
        let mut da = None;
        let mut db = None;
        // Interleave the two sources fragment by fragment.
        for (a, b) in fa.iter().zip(fb.iter()) {
            da = r.offer(NodeId(1), &a.bytes, Instant::ZERO).or(da);
            db = r.offer(NodeId(2), &b.bytes, Instant::ZERO).or(db);
        }
        assert_eq!(da.unwrap(), pa);
        assert_eq!(db.unwrap(), pb);
    }

    #[test]
    fn missing_fragment_times_out() {
        let p = pkt(300);
        let frags = fragment(&p, 9, 104);
        let mut r = Reassembler::new(Duration::from_secs(2));
        r.offer(NodeId(5), &frags[0].bytes, Instant::ZERO);
        r.offer(NodeId(5), &frags[2].bytes, Instant::ZERO);
        assert_eq!(r.pending(), 1);
        // After the timeout, a new offer triggers expiry.
        let done = r.offer(NodeId(5), &frags[1].bytes, Instant::from_secs(3));
        assert!(done.is_none(), "stale partial expired; lone FRAGN pends");
        assert_eq!(r.timeouts, 1);
    }

    #[test]
    fn non_fragment_passthrough() {
        let mut r = Reassembler::default();
        let out = r.offer(NodeId(1), &[0x62, 0x33, 0x01], Instant::ZERO);
        assert_eq!(out.unwrap(), vec![0x62, 0x33, 0x01]);
    }

    #[test]
    fn malformed_fragment_dropped() {
        let mut r = Reassembler::default();
        // FRAG1 claiming size 16 but carrying 24 bytes of payload.
        let mut bad = vec![FRAG1_DISPATCH, 16, 0, 1];
        bad.extend_from_slice(&[0u8; 24]);
        assert!(r.offer(NodeId(1), &bad, Instant::ZERO).is_none());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn per_source_quota_recycles_oldest_same_source_partial() {
        let limits = ReassemblyLimits {
            per_source_slots: 2,
            ..ReassemblyLimits::default()
        };
        let mut r = Reassembler::with_limits(limits);
        // Three incomplete datagrams from the same source (distinct
        // tags): the third FRAG1 evicts the source's oldest partial
        // (tag 0) — the source never pins more than its quota, but a
        // dead datagram cannot block later traffic until timeout.
        for tag in 0..3u16 {
            let frags = fragment(&pkt(300), tag, 104);
            let t = Instant::from_millis(u64::from(tag));
            r.offer(NodeId(7), &frags[0].bytes, t);
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evicted_source, 1);
        // Another source is unaffected by node 7's appetite.
        let other = fragment(&pkt(300), 9, 104);
        r.offer(NodeId(8), &other[0].bytes, Instant::from_millis(3));
        assert_eq!(r.pending(), 3);
        // The evicted datagram (tag 0) can no longer complete: its
        // remaining fragments re-admit it as a fresh partial instead,
        // recycling the now-oldest tag 1.
        let frags = fragment(&pkt(300), 0, 104);
        let mut done = None;
        for f in &frags[1..] {
            done = r
                .offer(NodeId(7), &f.bytes, Instant::from_millis(4))
                .or(done);
        }
        assert!(done.is_none(), "evicted partial lost its FRAG1");
        // A surviving admitted datagram (tag 2) still completes.
        let frags = fragment(&pkt(300), 2, 104);
        let mut done = None;
        for f in &frags[1..] {
            done = r
                .offer(NodeId(7), &f.bytes, Instant::from_millis(5))
                .or(done);
        }
        assert_eq!(done.expect("admitted datagram completes"), pkt(300));
    }

    #[test]
    fn slot_and_byte_caps_bound_a_fragment_flood() {
        let limits = ReassemblyLimits {
            max_slots: 4,
            per_source_slots: 4,
            max_bytes: 900,
            ..ReassemblyLimits::default()
        };
        let mut r = Reassembler::with_limits(limits);
        // Flood FRAG1s from many spoofed sources, each claiming a
        // 400-byte datagram (400 + 64 overhead per slot).
        for s in 0..20u16 {
            let frags = fragment(&pkt(400), s, 104);
            r.offer(NodeId(100 + s), &frags[0].bytes, Instant::ZERO);
        }
        // Byte budget admits only one 464-byte slot (two would need 928).
        assert_eq!(r.pending(), 1);
        assert!(r.pending_bytes() <= 900, "bytes: {}", r.pending_bytes());
        assert_eq!(r.denied_bytes, 19);
        assert_eq!(r.denied_slots, 0, "byte cap bound first here");
    }

    #[test]
    fn reclaim_sweeps_stale_slots_without_traffic() {
        let mut r = Reassembler::new(Duration::from_secs(2));
        let frags = fragment(&pkt(300), 5, 104);
        r.offer(NodeId(3), &frags[0].bytes, Instant::ZERO);
        assert_eq!(r.pending(), 1);
        assert!(r.pending_bytes() > 0);
        assert_eq!(
            r.next_expiry(),
            Some(Instant::ZERO + Duration::from_secs(2))
        );
        // An idle sweep before the deadline keeps the slot...
        r.reclaim(Instant::from_secs(1));
        assert_eq!(r.pending(), 1);
        // ...and one after it reclaims slot, bytes, and schedule.
        r.reclaim(Instant::from_secs(3));
        assert_eq!(r.pending(), 0);
        assert_eq!(r.pending_bytes(), 0);
        assert_eq!(r.timeouts, 1);
        assert_eq!(r.next_expiry(), None);
    }

    #[test]
    fn datagram_tag_wraparound_keeps_streams_separate() {
        // Tags 0xFFFF and 0x0000 from the same source are adjacent on
        // the wrapping tag circle but must reassemble independently.
        let pa = pkt(200);
        let pb: Vec<u8> = pkt(200).iter().map(|b| b ^ 0x55).collect();
        let fa = fragment(&pa, 0xFFFF, 104);
        let fb = fragment(&pb, 0x0000, 104);
        let mut r = Reassembler::default();
        let mut da = None;
        let mut db = None;
        for (a, b) in fa.iter().zip(fb.iter()) {
            da = r.offer(NodeId(4), &a.bytes, Instant::ZERO).or(da);
            db = r.offer(NodeId(4), &b.bytes, Instant::ZERO).or(db);
        }
        assert_eq!(da.unwrap(), pa);
        assert_eq!(db.unwrap(), pb);
        assert_eq!(r.pending(), 0);
        // A tag reused after wraparound starts a *fresh* datagram
        // rather than resurrecting the completed one.
        let again = fragment(&pa, 0xFFFF, 104);
        assert!(r.offer(NodeId(4), &again[0].bytes, Instant::ZERO).is_none());
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn interleaved_sources_complete_within_quotas() {
        // Four sources interleave, all within per-source quota: every
        // datagram completes and the table drains to zero.
        let limits = ReassemblyLimits {
            max_slots: 4,
            per_source_slots: 1,
            ..ReassemblyLimits::default()
        };
        let mut r = Reassembler::with_limits(limits);
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| pkt(250 + usize::from(i))).collect();
        let frag_sets: Vec<Vec<Fragment>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| fragment(p, i as u16, 104))
            .collect();
        let mut done = vec![None; 4];
        let rounds = frag_sets.iter().map(|f| f.len()).max().unwrap();
        for round in 0..rounds {
            for (s, frags) in frag_sets.iter().enumerate() {
                if let Some(f) = frags.get(round) {
                    let out = r.offer(NodeId(10 + s as u16), &f.bytes, Instant::ZERO);
                    done[s] = out.or(done[s].take());
                }
            }
        }
        for (s, p) in payloads.iter().enumerate() {
            assert_eq!(done[s].as_ref().unwrap(), p, "source {s}");
        }
        assert_eq!(r.pending(), 0);
        assert_eq!(r.evicted_source + r.denied_slots + r.denied_bytes, 0);
    }

    #[test]
    fn fragment_payload_multiple_of_eight() {
        let p = pkt(500);
        for f in fragment(&p, 2, 104).iter().rev().skip(1) {
            let hdr = if f.bytes[0] >> 3 == 0b11000 {
                FRAG1_HDR
            } else {
                FRAGN_HDR
            };
            assert_eq!((f.bytes.len() - hdr) % 8, 0);
        }
    }
}
