//! Self-timed microbenchmarks for the hot paths of the reproduction:
//! codec throughput (TCP segments, IPHC, 6LoWPAN fragmentation), the
//! in-place reassembly receive buffer, the RED queue, the deterministic
//! RNG/event queue, an in-memory TCP socket pair, and a full simulated
//! single-hop transfer (events per second).
//!
//! Runs as a plain `harness = false` bench target so `cargo bench`
//! works offline with zero external dependencies. Each benchmark is
//! warmed up, then timed over a fixed iteration count; we report
//! ns/iter and, where a byte count is meaningful, MB/s.

use lln_mac::frame::MacFrame;
use lln_mac::pool::{FrameBuf, FramePool};
use lln_netip::{Ecn, Ipv6Header, NextHeader, NodeId, RedConfig, RedQueue};
use lln_sim::{Duration, EventQueue, Instant, Rng};
use std::hint::black_box;
use std::time::Instant as WallInstant;
use tcplp::{Flags, ListenSocket, RecvBuffer, Segment, SendBuffer, TcpConfig, TcpSeq, TcpSocket};

/// Times `iters` runs of `f` (after `warmup` untimed runs) and prints
/// one result line. Returns mean ns/iter.
fn bench(name: &str, bytes_per_iter: Option<u64>, iters: u32, mut f: impl FnMut()) {
    // MICROBENCH_QUICK=1 (CI's bench-smoke job) cuts iteration counts
    // ~20x: still exercises every bench body, finishes in seconds.
    let quick = std::env::var("MICROBENCH_QUICK").is_ok_and(|v| v != "0");
    let iters = if quick { (iters / 20).max(1) } else { iters };
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        f();
    }
    let start = WallInstant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / f64::from(iters);
    match bytes_per_iter {
        Some(b) if ns > 0.0 => {
            let mbps = b as f64 / ns * 1000.0; // bytes/ns -> MB/s
            println!("{name:<40} {ns:>12.1} ns/iter {mbps:>10.1} MB/s");
        }
        _ => println!("{name:<40} {ns:>12.1} ns/iter"),
    }
}

fn bench_wire_codec() {
    let src = NodeId(1).mesh_addr();
    let dst = NodeId(2).mesh_addr();
    let mut seg = Segment::new(49152, 80, TcpSeq(1000), TcpSeq(2000), Flags::ACK | Flags::PSH);
    seg.timestamps = Some(tcplp::Timestamps { value: 1, echo: 2 });
    seg.payload = vec![0xab; 462];
    let encoded = seg.encode(src, dst);
    let len = encoded.len() as u64;

    // Single-pass serialize+checksum into a recycled buffer: the
    // datapath's tx primitive (no allocation after warmup).
    let mut pooled = Vec::with_capacity(encoded.len());
    bench("tcp_wire/encode_into_pooled_462B", Some(len), 100_000, || {
        seg.encode_into(src, dst, &mut pooled);
        black_box(pooled.len());
    });
    // Borrowed-payload decode: the rx-side zero-copy primitive.
    bench("tcp_wire/decode_view_462B_segment", Some(len), 100_000, || {
        black_box(Segment::decode_view(src, dst, &encoded)).unwrap();
    });
}

fn bench_checksum() {
    use lln_netip::checksum::Checksum;
    let data = vec![0xA5u8; 1024];
    bench("checksum/word_at_a_time_1KiB", Some(1024), 200_000, || {
        let mut c = Checksum::new();
        c.add_bytes(&data);
        black_box(c.finish());
    });
}

fn bench_sixlowpan() {
    let hdr = Ipv6Header::new(
        NodeId(1).mesh_addr(),
        NodeId(2).mesh_addr(),
        NextHeader::Tcp,
        494,
    );
    let payload = vec![0x55u8; 494];
    let packet = lln_sixlowpan::compress(&hdr, NodeId(1), NodeId(2), &payload);
    let len = packet.len() as u64;

    bench("sixlowpan/iphc_compress", Some(len), 100_000, || {
        black_box(lln_sixlowpan::compress(&hdr, NodeId(1), NodeId(2), &payload));
    });
    bench("sixlowpan/iphc_decompress", Some(len), 100_000, || {
        black_box(lln_sixlowpan::decompress(&packet, NodeId(1), NodeId(2))).unwrap();
    });
    bench("sixlowpan/fragment_5_frames", None, 100_000, || {
        black_box(lln_sixlowpan::fragment(&packet, 7, 104));
    });
    let frags = lln_sixlowpan::fragment(&packet, 7, 104);
    bench("sixlowpan/reassemble_5_frames", None, 50_000, || {
        let mut r = lln_sixlowpan::Reassembler::default();
        let mut out = None;
        for f in &frags {
            out = r.offer(NodeId(1), &f.bytes, Instant::ZERO);
        }
        black_box(out);
    });
}

fn bench_recvbuf() {
    let data = vec![7u8; 462];
    let mut out = vec![0u8; 1848];
    bench("recvbuf/in_order_write_read_1848", None, 50_000, || {
        let mut rb = RecvBuffer::new(1848);
        for _ in 0..4 {
            rb.write(0, &data);
        }
        rb.read(&mut out);
        black_box(rb.available());
    });
    bench("recvbuf/out_of_order_reassembly", None, 50_000, || {
        let mut rb = RecvBuffer::new(1848);
        rb.write(1386, &data); // three holes fill backwards
        rb.write(924, &data);
        rb.write(462, &data);
        rb.write(0, &data);
        black_box(rb.available());
    });
}

fn bench_sendbuf() {
    let chunk = vec![1u8; 462];
    bench("sendbuf/push_view_advance", None, 50_000, || {
        let mut sb = SendBuffer::new(1848);
        for _ in 0..4 {
            sb.push(&chunk);
        }
        let (a, bb) = sb.view(0, 462);
        black_box((a.len(), bb.len()));
        sb.advance(924);
        sb.push(&chunk);
        black_box(sb.len());
    });
}

fn bench_red_queue() {
    bench("red_queue/offer_pop", None, 50_000, || {
        let mut q = RedQueue::<u32>::new(RedConfig::default());
        let mut rng = Rng::new(7);
        for i in 0..32u32 {
            q.offer(i, Ecn::Ect0, rng.gen_f64());
            if i % 2 == 0 {
                black_box(q.pop());
            }
        }
        black_box(q.len());
    });
}

fn bench_sim_primitives() {
    let mut rng = Rng::new(1);
    bench("sim/rng_next_u64", None, 1_000_000, || {
        black_box(rng.next_u64());
    });
    bench("sim/event_queue_schedule_pop_1k", None, 5_000, || {
        let mut q = EventQueue::<u32>::new();
        for i in 0..1000u32 {
            q.schedule(Instant::from_micros(u64::from(i * 7 % 997)), i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        black_box(n);
    });
    // The MAC-like mix (schedule backoff + ACK timer, cancel 80% of ACK
    // timers, drain): the simulator's actual event profile, where
    // cancels dominate.
    bench("sim/timer_wheel_mac_mix_1k", None, 5_000, || {
        let mut q = EventQueue::<u32>::new();
        let mut rng = Rng::new(3);
        for i in 0..500u32 {
            let now = q.now();
            q.schedule(now + Duration::from_micros(128 + rng.gen_range(4872)), i);
            let tok = q.schedule(now + Duration::from_micros(864), i);
            if rng.gen_range(10) < 8 {
                q.cancel(tok);
            }
            black_box(q.pop());
        }
        while q.pop().is_some() {}
        black_box(q.len());
    });
}

fn bench_frame_pool() {
    let frame = MacFrame::data(NodeId(1), NodeId(2), 7, vec![0xAB; 104]);
    let mpdu = frame.mpdu_len() as u64;
    // What a frame's first `FrameBuf::encoded()` call costs: in the
    // world only a receiver in a bit-error burst pays it.
    bench("frame/encode_104B_payload", Some(mpdu), 100_000, || {
        black_box(frame.encode());
    });
    // The world reads only the MPDU length when it loads, transmits and
    // delivers a frame, so neither of these encodes anything.
    let buf = FrameBuf::new(frame.clone());
    bench("frame/framebuf_clone_fanout4", Some(4 * mpdu), 100_000, || {
        for _ in 0..4 {
            let rx = buf.clone();
            black_box(rx.mpdu_len());
        }
    });
    bench("frame/pool_alloc_reclaim", Some(mpdu), 100_000, || {
        let mut pool = FramePool::new(4);
        for seq in 0..8u8 {
            let mut f = frame.clone();
            f.seq = seq;
            let b = pool.alloc(f);
            black_box(b.mpdu_len());
            pool.reclaim(b);
        }
        black_box(pool.spares());
    });
}

/// A full in-memory TCP transfer between two sockets (no simulator):
/// measures raw protocol-processing throughput.
fn bench_socket_pair() {
    let cfg = TcpConfig::default();
    bench("tcp_socket_pair/transfer_50_segs", Some(50 * 462), 200, || {
        let a_addr = NodeId(1).mesh_addr();
        let b_addr = NodeId(2).mesh_addr();
        let mut client = TcpSocket::new(cfg.clone(), a_addr, 49152);
        let mut listener = ListenSocket::new(cfg.clone(), b_addr, 80);
        let mut t = Instant::ZERO;
        client.connect(b_addr, 80, 1, t);
        let syn = client.poll_transmit(t).unwrap();
        let synack = listener
            .on_segment(a_addr, &syn, 2, t)
            .into_reply()
            .unwrap();
        client.on_segment(&synack, Ecn::NotCapable, t);
        let ack = client.poll_transmit(t).unwrap();
        let mut server = listener.on_segment(a_addr, &ack, 0, t).into_spawn().unwrap();
        let data = vec![0xaau8; 462];
        let mut received = 0usize;
        let mut buf = [0u8; 2048];
        let mut guard = 0;
        while received < 50 * 462 && guard < 10_000 {
            guard += 1;
            t += Duration::from_millis(1);
            client.send(&data);
            client.tick(t);
            if client.poll_at().is_some_and(|d| d <= t) {
                client.on_timer(t);
            }
            while let Some(seg) = client.poll_transmit(t) {
                server.on_segment(&seg, Ecn::NotCapable, t);
            }
            loop {
                let n = server.recv(&mut buf);
                if n == 0 {
                    break;
                }
                received += n;
            }
            server.tick(t);
            if server.poll_at().is_some_and(|d| d <= t) {
                server.on_timer(t);
            }
            while let Some(seg) = server.poll_transmit(t) {
                client.on_segment(&seg, Ecn::NotCapable, t);
            }
        }
        black_box(received);
    });
}

/// End-to-end simulated single-hop transfer: how fast the whole world
/// executes (simulated-seconds per wall-second proxy).
fn bench_world() {
    use lln_node::route::Topology;
    use lln_node::stack::NodeKind;
    use lln_node::world::{World, WorldConfig};
    bench("world/single_hop_30s_sim", None, 10, || {
        let topo = Topology::pair(0.999);
        let mut world = World::new(
            &topo,
            &[NodeKind::Router, NodeKind::Router],
            WorldConfig::default(),
        );
        world.add_tcp_listener(0, TcpConfig::default());
        world.set_sink(0);
        world.add_tcp_client(1, 0, TcpConfig::default(), Instant::from_millis(10));
        world.set_bulk_sender(1, Some(100_000));
        world.run_for(Duration::from_secs(30));
        black_box(world.nodes[0].app.sink_received());
    });
}

fn main() {
    println!("{:<40} {:>20} {:>15}", "benchmark", "time", "throughput");
    bench_wire_codec();
    bench_checksum();
    bench_sixlowpan();
    bench_recvbuf();
    bench_sendbuf();
    bench_red_queue();
    bench_sim_primitives();
    bench_frame_pool();
    bench_socket_pair();
    bench_world();
}
