//! The borrowed [`Fragmenter`] against a reference fragmenter that
//! builds one owned `Vec` per fragment, the way the datapath did before
//! fragments were written straight into recycled frame payloads.

use lln_netip::{BufPool, NodeId};
use lln_sim::Instant;
use lln_sixlowpan::frag::{FRAG1_HDR, FRAGN_HDR};
use lln_sixlowpan::{fragment, Fragmenter, Reassembler, MAX_FRAME_PAYLOAD};

/// RFC 4944 §5.3 fragmentation, one allocation per fragment.
fn reference_fragment(packet: &[u8], tag: u16, max_payload: usize) -> Vec<Vec<u8>> {
    if packet.len() <= max_payload {
        return vec![packet.to_vec()];
    }
    let size = packet.len() as u16;
    let mut frags = Vec::new();
    let first_room = (max_payload - FRAG1_HDR) & !7;
    let mut b = vec![0b1100_0000 | ((size >> 8) as u8 & 0x07), size as u8];
    b.extend_from_slice(&tag.to_be_bytes());
    b.extend_from_slice(&packet[..first_room]);
    frags.push(b);
    let mut offset = first_room;
    while offset < packet.len() {
        let remaining = packet.len() - offset;
        let take = if remaining <= max_payload - FRAGN_HDR {
            remaining
        } else {
            (max_payload - FRAGN_HDR) & !7
        };
        let mut b = vec![0b1110_0000 | ((size >> 8) as u8 & 0x07), size as u8];
        b.extend_from_slice(&tag.to_be_bytes());
        b.push((offset / 8) as u8);
        b.extend_from_slice(&packet[offset..offset + take]);
        frags.push(b);
        offset += take;
    }
    frags
}

fn packet(len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + salt * 7) % 251) as u8)
        .collect()
}

#[test]
fn borrowed_fragmenter_matches_the_reference_and_round_trips() {
    let mut reasm = Reassembler::default();
    let mut pool = BufPool::default();
    // One buffer reused for every fragment, as a recycled frame payload
    // is: it starts each fragment cleared but with capacity to spare.
    let mut payload = Vec::new();
    for max_payload in [MAX_FRAME_PAYLOAD, 48] {
        for tag in [0, 1, 0x1234, 0xFFFF] {
            for len in 1..=1280 {
                let p = packet(len, usize::from(tag));
                let want = reference_fragment(&p, tag, max_payload);
                let owned: Vec<Vec<u8>> = fragment(&p, tag, max_payload)
                    .into_iter()
                    .map(|f| f.bytes)
                    .collect();
                assert_eq!(
                    owned, want,
                    "fragment(): len {len} tag {tag:#x} max {max_payload}"
                );

                let mut frags = Fragmenter::new(&p, tag, max_payload);
                let mut done = None;
                for (k, want_frag) in want.iter().enumerate() {
                    assert!(!frags.is_done(), "len {len}: ended before fragment {k}");
                    payload.clear();
                    assert!(frags.write_next(&mut payload));
                    assert_eq!(&payload, want_frag, "len {len} tag {tag:#x} fragment {k}");
                    assert!(payload.len() <= max_payload);
                    let whole = reasm.offer_pooled(NodeId(9), &payload, Instant::ZERO, &mut pool);
                    assert!(whole.is_none() || k + 1 == want.len(), "completed early");
                    done = whole;
                }
                assert!(frags.is_done() && !frags.write_next(&mut payload));
                let whole = done.expect("the last fragment completes the datagram");
                assert_eq!(whole, p, "round trip: len {len} tag {tag:#x}");
                pool.put(whole);
                assert_eq!(reasm.pending(), 0);
            }
        }
    }
}
