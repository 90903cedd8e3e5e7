//! Protocol-level integration tests for the TCPlp socket: handshake,
//! bidirectional transfer, loss recovery (RTO, fast retransmit, SACK),
//! flow control, teardown, and robustness features.

mod common;

use common::{Dir, Fault, Harness};
use lln_netip::{Ecn, NodeId};
use lln_sim::{Duration, Instant};
use tcplp::{CloseReason, Flags, ListenSocket, TcpConfig, TcpSocket, TcpState};

fn cfg() -> TcpConfig {
    TcpConfig::default()
}

const LAT: Duration = Duration::from_millis(20);

#[test]
fn handshake_establishes_both_sides() {
    let h = Harness::establish(cfg(), LAT);
    assert_eq!(h.a.state(), TcpState::Established);
    assert_eq!(h.b.state(), TcpState::Established);
    assert_eq!(h.a.mss(), 462);
    assert_eq!(h.b.mss(), 462);
}

#[test]
fn mss_negotiated_to_minimum() {
    let mut small = cfg();
    small.mss = 300;
    // Server offers 300; client config stays 462 -> both use 300.
    let mut h = Harness::new(cfg(), LAT);
    let b_addr = h.b.local().0;
    let a_addr = h.a.local().0;
    h.a.connect(b_addr, common::B_PORT, 1, h.now);
    let syn = h.a.poll_transmit(h.now).unwrap();
    let mut listener = tcplp::ListenSocket::new(small, b_addr, common::B_PORT);
    h.b = common::accept_via_listener(&mut listener, &mut h.a, a_addr, &syn, 2, h.now, LAT);
    h.run_for(Duration::from_secs(2));
    assert_eq!(h.a.state(), TcpState::Established);
    assert_eq!(h.a.mss(), 300);
    assert_eq!(h.b.mss(), 300);
}

#[test]
fn simple_transfer_a_to_b() {
    let mut h = Harness::establish(cfg(), LAT);
    let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(30));
    assert_eq!(got, data);
}

#[test]
fn bidirectional_transfer() {
    let mut h = Harness::establish(cfg(), LAT);
    let up: Vec<u8> = (0..2000u32).map(|i| (i % 13) as u8).collect();
    let down: Vec<u8> = (0..2000u32).map(|i| (i % 17) as u8).collect();
    let mut got_up = Vec::new();
    let mut got_down = Vec::new();
    let mut off_up = 0;
    let mut off_down = 0;
    for _ in 0..200 {
        off_up += h.a.send(&up[off_up..]);
        off_down += h.b.send(&down[off_down..]);
        h.run_for(Duration::from_millis(100));
        let mut buf = [0u8; 2048];
        loop {
            let n = h.b.recv(&mut buf);
            if n == 0 {
                break;
            }
            got_up.extend_from_slice(&buf[..n]);
        }
        loop {
            let n = h.a.recv(&mut buf);
            if n == 0 {
                break;
            }
            got_down.extend_from_slice(&buf[..n]);
        }
        if got_up.len() == up.len() && got_down.len() == down.len() {
            break;
        }
    }
    assert_eq!(got_up, up);
    assert_eq!(got_down, down);
}

#[test]
fn delayed_ack_halves_pure_acks() {
    let mut h = Harness::establish(cfg(), LAT);
    let data = vec![7u8; 462 * 8];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(30));
    assert_eq!(got.len(), data.len());
    // With delayed ACKs, the receiver should ACK roughly every other
    // full segment, not every segment.
    let acks = h.b.stats.acks_sent;
    let segs = h.a.stats.segs_sent;
    assert!(
        acks < segs,
        "delayed ACKs should keep pure ACK count ({acks}) below segment count ({segs})"
    );
}

#[test]
fn rto_recovers_from_dropped_segment() {
    let mut h = Harness::establish(cfg(), LAT);
    // Drop the first data segment (first transmission only).
    let mut dropped = false;
    h.set_fault(move |dir, seg, _| {
        let mut f = Fault::default();
        if dir == Dir::AtoB && !seg.payload.is_empty() && !dropped {
            dropped = true;
            f.drop = true;
        }
        f
    });
    let data = vec![42u8; 400];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(30));
    assert_eq!(got, data);
    assert!(
        h.a.stats.rexmit_timeouts >= 1,
        "a single in-flight segment can only be recovered by RTO"
    );
}

#[test]
fn fast_retransmit_on_triple_dupack() {
    let mut h = Harness::establish(cfg(), LAT);
    // Drop exactly the first data segment; the following three segments
    // generate dup ACKs that trigger fast retransmit.
    let mut seen_data = 0u32;
    h.set_fault(move |dir, seg, _| {
        let mut f = Fault::default();
        if dir == Dir::AtoB && !seg.payload.is_empty() {
            seen_data += 1;
            if seen_data == 1 {
                f.drop = true;
            }
        }
        f
    });
    // 8 segments of data; window is 4 segments so dup ACKs flow.
    let data: Vec<u8> = (0..462 * 8).map(|i| (i % 256) as u8).collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(60));
    assert_eq!(got.len(), data.len());
    assert_eq!(got, data);
    assert!(
        h.a.stats.fast_rexmits >= 1,
        "expected a fast retransmit, stats: {:?}",
        h.a.stats
    );
}

#[test]
fn sack_recovery_with_multiple_losses() {
    let mut h = Harness::establish(cfg(), LAT);
    // Drop data segments #1 and #3 (first transmissions).
    let mut seen = 0u32;
    h.set_fault(move |dir, seg, _| {
        let mut f = Fault::default();
        if dir == Dir::AtoB && !seg.payload.is_empty() {
            seen += 1;
            if seen == 1 || seen == 3 {
                f.drop = true;
            }
        }
        f
    });
    let data: Vec<u8> = (0..462 * 10).map(|i| (i / 3 % 256) as u8).collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(60));
    assert_eq!(got, data);
    assert!(
        h.b.stats.ooo_segments >= 1,
        "receiver must have seen out-of-order data"
    );
}

#[test]
fn out_of_order_delivery_reassembled() {
    let mut h = Harness::establish(cfg(), LAT);
    // Delay every 2nd data segment by 120 ms to force reordering.
    let mut n = 0u32;
    h.set_fault(move |dir, seg, _| {
        let mut f = Fault::default();
        if dir == Dir::AtoB && !seg.payload.is_empty() {
            n += 1;
            if n.is_multiple_of(2) {
                f.extra_delay = Duration::from_millis(120);
            }
        }
        f
    });
    let data: Vec<u8> = (0..462 * 6).map(|i| (i % 256) as u8).collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(60));
    assert_eq!(got, data, "stream must be intact despite reordering");
}

#[test]
fn duplicate_segments_ignored() {
    let mut h = Harness::establish(cfg(), LAT);
    h.set_fault(|_, _, _| Fault {
        duplicate: true,
        ..Fault::default()
    });
    let data: Vec<u8> = (0..3000).map(|i| (i % 256) as u8).collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(30));
    assert_eq!(got, data, "duplicated segments must not corrupt the stream");
}

#[test]
fn flow_control_window_respected() {
    // Tiny receive buffer on B; A must never overrun it.
    let mut small = cfg();
    small.recv_buf = 600;
    let mut h = Harness::new(small.clone(), LAT);
    let b_addr = h.b.local().0;
    let a_addr = h.a.local().0;
    h.a.connect(b_addr, common::B_PORT, 1, h.now);
    let syn = h.a.poll_transmit(h.now).unwrap();
    let mut listener = tcplp::ListenSocket::new(small, b_addr, common::B_PORT);
    h.b = common::accept_via_listener(&mut listener, &mut h.a, a_addr, &syn, 2, h.now, LAT);
    h.run_for(Duration::from_secs(2));
    assert_eq!(h.a.state(), TcpState::Established);

    // Send 3 KiB without reading on B: B's buffer (600 B) bounds flight.
    let data = vec![9u8; 3000];
    let mut sent = h.a.send(&data);
    h.run_for(Duration::from_secs(3));
    assert!(h.b.available() <= 600);
    // Drain B and finish the transfer.
    let mut got = Vec::new();
    let mut buf = [0u8; 512];
    for _ in 0..100 {
        loop {
            let n = h.b.recv(&mut buf);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        sent += h.a.send(&data[sent..]);
        h.run_for(Duration::from_millis(300));
        if got.len() == data.len() {
            break;
        }
    }
    assert_eq!(got.len(), data.len());
}

#[test]
fn zero_window_probe_reopens_stalled_flow() {
    let mut small = cfg();
    small.recv_buf = 462;
    let mut h = Harness::new(small.clone(), LAT);
    let b_addr = h.b.local().0;
    let a_addr = h.a.local().0;
    h.a.connect(b_addr, common::B_PORT, 1, h.now);
    let syn = h.a.poll_transmit(h.now).unwrap();
    let mut listener = tcplp::ListenSocket::new(small, b_addr, common::B_PORT);
    h.b = common::accept_via_listener(&mut listener, &mut h.a, a_addr, &syn, 2, h.now, LAT);
    h.run_for(Duration::from_secs(2));

    // Fill B's buffer completely, leave it undrained: window goes to 0.
    let data = vec![5u8; 1500];
    let mut sent = h.a.send(&data);
    h.run_for(Duration::from_secs(4));
    assert!(h.a.send_queued() > 0, "stream must stall on zero window");

    // Now drain B slowly; persist probes must restart the flow.
    let mut got = Vec::new();
    let mut buf = [0u8; 128];
    for _ in 0..200 {
        let n = h.b.recv(&mut buf);
        got.extend_from_slice(&buf[..n]);
        sent += h.a.send(&data[sent..]);
        h.run_for(Duration::from_millis(500));
        if got.len() == data.len() {
            break;
        }
    }
    assert_eq!(got.len(), data.len(), "probe must unstick the flow");
}

#[test]
fn orderly_close_from_client() {
    let mut h = Harness::establish(cfg(), LAT);
    let data = vec![1u8; 500];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(10));
    assert_eq!(got.len(), 500);
    h.a.close();
    h.run_for(Duration::from_secs(2));
    assert!(
        h.b.peer_closed(),
        "server should observe client FIN, state {:?}",
        h.b.state()
    );
    assert_eq!(h.b.state(), TcpState::CloseWait);
    h.b.close();
    h.run_for(Duration::from_secs(10));
    assert_eq!(h.b.state(), TcpState::Closed);
    assert!(
        matches!(h.a.state(), TcpState::TimeWait | TcpState::Closed),
        "client in {:?}",
        h.a.state()
    );
    // TIME_WAIT expires.
    h.run_for(Duration::from_secs(10));
    assert_eq!(h.a.state(), TcpState::Closed);
    assert_eq!(h.a.close_reason(), Some(CloseReason::Normal));
}

#[test]
fn simultaneous_close() {
    let mut h = Harness::establish(cfg(), LAT);
    h.a.close();
    h.b.close();
    h.run_for(Duration::from_secs(20));
    assert_eq!(h.a.state(), TcpState::Closed);
    assert_eq!(h.b.state(), TcpState::Closed);
}

#[test]
fn abort_sends_rst() {
    let mut h = Harness::establish(cfg(), LAT);
    h.a.abort();
    assert_eq!(h.a.state(), TcpState::Closed);
    assert_eq!(h.a.close_reason(), Some(CloseReason::Aborted));
    h.run_for(Duration::from_secs(1));
    assert_eq!(h.b.state(), TcpState::Closed);
    assert_eq!(h.b.close_reason(), Some(CloseReason::Reset));
}

#[test]
fn retransmit_limit_drops_connection() {
    let mut fast = cfg();
    fast.max_retransmits = 3;
    fast.max_rto = Duration::from_secs(2);
    let mut h = Harness::establish(fast, LAT);
    // Cut the pipe entirely in the A->B direction after establishment.
    h.set_fault(|dir, _, _| Fault {
        drop: dir == Dir::AtoB,
        ..Fault::default()
    });
    h.a.send(b"doomed data");
    h.run_for(Duration::from_secs(60));
    assert_eq!(h.a.state(), TcpState::Closed);
    assert_eq!(h.a.close_reason(), Some(CloseReason::TooManyRetransmits));
    assert_eq!(
        h.a.stats.rexmit_timeouts, 3,
        "timeouts counted before the limit closes the connection"
    );
}

#[test]
fn syn_retransmission_on_lost_syn_ack() {
    // Drop the first SYN-ACK; handshake must still complete via RTO.
    let cfg = cfg();
    let mut h = Harness::new(cfg.clone(), LAT);
    let b_addr = h.b.local().0;
    let a_addr = h.a.local().0;
    let mut dropped = false;
    h.set_fault(move |dir, seg, _| {
        let mut f = Fault::default();
        if dir == Dir::BtoA
            && seg.flags.contains(Flags::SYN)
            && !dropped
        {
            dropped = true;
            f.drop = true;
        }
        f
    });
    h.a.connect(b_addr, common::B_PORT, 1, h.now);
    let syn = h.a.poll_transmit(h.now).unwrap();
    let mut listener = tcplp::ListenSocket::new(cfg, b_addr, common::B_PORT);
    h.b = common::accept_via_listener(&mut listener, &mut h.a, a_addr, &syn, 2, h.now, LAT);
    h.run_for(Duration::from_secs(10));
    assert_eq!(h.a.state(), TcpState::Established);
    assert_eq!(h.b.state(), TcpState::Established);
}

#[test]
fn rtt_estimator_converges_to_pipe_latency() {
    let mut h = Harness::establish(cfg(), LAT);
    let data: Vec<u8> = vec![3u8; 462 * 20];
    let _ = h.transfer_a_to_b(&data, Duration::from_secs(60));
    let srtt = h.a.srtt().expect("rtt measured");
    // One-way 20ms => RTT ~40ms plus serialisation and delayed-ACK
    // effects. The harness's handshake SYN skips the pipe, so the very
    // first sample is ~half an RTT, biasing srtt slightly low.
    assert!(
        srtt >= Duration::from_millis(25) && srtt <= Duration::from_millis(200),
        "srtt {srtt:?} implausible for a 40ms pipe"
    );
    assert!(h.a.stats.rtt_samples > 0);
}

#[test]
fn timestamps_sample_rtt_during_loss() {
    // Under heavy loss, timestamp-based sampling still collects RTTs
    // (the §9.4 advantage over CoCoA).
    let mut h = Harness::establish(cfg(), LAT);
    let mut n = 0u32;
    h.set_fault(move |dir, seg, _| {
        let mut f = Fault::default();
        if dir == Dir::AtoB && !seg.payload.is_empty() {
            n += 1;
            if n.is_multiple_of(5) {
                f.drop = true;
            }
        }
        f
    });
    let data: Vec<u8> = vec![8u8; 462 * 20];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(120));
    assert_eq!(got.len(), data.len());
    assert!(
        h.a.stats.rtt_samples as f64 >= 0.5 * h.a.stats.segs_sent as f64 * 0.2,
        "timestamps should keep sampling under loss: {:?}",
        h.a.stats
    );
}

#[test]
fn header_prediction_counts_fast_path() {
    let mut h = Harness::establish(cfg(), LAT);
    let data = vec![1u8; 462 * 12];
    let _ = h.transfer_a_to_b(&data, Duration::from_secs(30));
    assert!(
        h.b.stats.predicted_data > 0,
        "in-order data should hit header prediction: {:?}",
        h.b.stats
    );
}

/// Exact counts right at the header-prediction predicate: in-order
/// data and a new pure ACK each count once; a duplicate ACK, a
/// window-changing ACK and data arriving into a zero receive window
/// do not count.
#[test]
fn predicate_boundaries_match() {
    let cfg = cfg();
    let a_addr = NodeId(1).mesh_addr();
    let b_addr = NodeId(2).mesh_addr();
    let mut client = TcpSocket::new(cfg.clone(), a_addr, common::A_PORT);
    let mut listener = ListenSocket::new(cfg.clone(), b_addr, common::B_PORT);
    let now = Instant::ZERO;
    client.connect(b_addr, common::B_PORT, 1000, now);
    let syn = client.poll_transmit(now).expect("SYN");
    let synack = listener
        .on_segment(a_addr, &syn, 2000, now)
        .into_reply()
        .expect("SYN-ACK");
    client.on_segment(&synack, Ecn::NotCapable, now);
    let ack = client.poll_transmit(now).expect("ACK");
    let mut server = listener
        .on_segment(a_addr, &ack, 0, now)
        .into_spawn()
        .expect("spawn");

    // In-order data is predicted on the receiver.
    client.send(&[0xAA; 100]);
    let data = client.poll_transmit(now).expect("data");
    server.on_segment(&data, Ecn::NotCapable, now);
    assert_eq!(server.stats.predicted_data, 1);

    // The ACK for new data is predicted on the sender. Read first so
    // the delayed ACK re-advertises the full window; a shrunken window
    // is a deliberate predicate miss.
    let _ = server.recv(&mut [0u8; 128]);
    let later = now + Duration::from_millis(200);
    server.on_timer(later); // delack fires
    let ack = server.poll_transmit(later).expect("delayed ACK");
    client.on_segment(&ack, Ecn::NotCapable, later);
    assert_eq!(client.stats.predicted_acks, 1);

    // A duplicate of that same ACK is not predicted (ack == snd_una).
    client.on_segment(&ack, Ecn::NotCapable, later);
    assert_eq!(client.stats.predicted_acks, 1, "duplicate ACK");

    // A window change on an otherwise-predictable ACK is a miss: the
    // server keeps the data unread, so its next ACK shrinks the window.
    client.send(&[0xBB; 200]);
    let data2 = client.poll_transmit(later).expect("more data");
    server.on_segment(&data2, Ecn::NotCapable, later);
    assert_eq!(server.stats.predicted_data, 2);
    let later2 = later + Duration::from_millis(200);
    server.on_timer(later2); // delack with shrunken window
    let ack2 = server.poll_transmit(later2).expect("delayed ACK 2");
    client.on_segment(&ack2, Ecn::NotCapable, later2);
    assert_eq!(client.stats.predicted_acks, 1, "window-changing ACK");

    // Fill the server's receive buffer with one in-order segment (still
    // predicted), then offer the next in-order segment into the zero
    // window: it matches everything but `rcv_wnd > 0` and is not counted.
    let mut fill = data2.clone();
    fill.seq = data2.seq + data2.payload.len() as u32;
    fill.payload = vec![0xCC; cfg.recv_buf - data2.payload.len()];
    server.on_segment(&fill, Ecn::NotCapable, later2);
    assert_eq!(server.stats.predicted_data, 3);
    let mut overflow = fill.clone();
    overflow.seq = fill.seq + fill.payload.len() as u32;
    overflow.payload = vec![0xDD; 10];
    server.on_segment(&overflow, Ecn::NotCapable, later2);
    assert_eq!(server.stats.predicted_data, 3, "data into a zero window");
    assert_eq!(server.stats.bytes_rcvd, cfg.recv_buf as u64 + 100);
}

#[test]
fn stats_account_stream_bytes() {
    let mut h = Harness::establish(cfg(), LAT);
    let data = vec![1u8; 2500];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(20));
    assert_eq!(got.len(), 2500);
    assert_eq!(h.a.stats.bytes_sent, 2500);
    assert_eq!(h.b.stats.bytes_rcvd, 2500);
}

#[test]
fn transfer_under_random_loss_is_reliable() {
    // 10% uniform loss both ways — the paper's Figure 9 regime. TCP
    // must deliver everything intact.
    let mut h = Harness::establish(cfg(), LAT);
    let mut rng = lln_sim::Rng::new(0xfeed);
    h.set_fault(move |_, seg, _| Fault {
        // Never drop bare SYN/FIN control here? No: drop uniformly.
        drop: !seg.payload.is_empty() && rng.gen_bool(0.10),
        ..Fault::default()
    });
    let data: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 256) as u8).collect();
    let got = h.transfer_a_to_b(&data, Duration::from_secs(300));
    assert_eq!(got, data);
    assert!(h.a.stats.segs_retransmitted > 0);
}

#[test]
fn goodput_close_to_window_over_rtt() {
    // Sanity-check against the paper's model intuition: with no loss,
    // goodput ~= window / RTT.
    let mut h = Harness::establish(cfg(), LAT);
    let start = h.now;
    let data = vec![0u8; 50_000];
    let got = h.transfer_a_to_b(&data, Duration::from_secs(120));
    assert_eq!(got.len(), data.len());
    let elapsed = (h.now - start).as_secs_f64();
    let goodput = 50_000.0 * 8.0 / elapsed; // bits/s
    // window 1848 B, RTT ~40-90ms (delack) -> expect 150-400 kb/s.
    assert!(
        goodput > 100_000.0,
        "goodput {goodput:.0} b/s too low for a 40ms pipe"
    );
}
