//! One probe per layer. Each times, in a tight loop, the public
//! functions the world calls on that layer's hot path, with inputs
//! shaped like the workload's: its segment sizes and ACK mix, its loss
//! pattern, its link matrix and path, and its standing queue depths.
//! A probe reports wall nanoseconds per operation; the traced run
//! multiplies that by the exact operation count per segment.

use crate::workload::Scenario;
use crate::{median, slowdown};
use lln_mac::frame::MAX_MAC_PAYLOAD;
use lln_mac::{FramePool, MacConfig, MacFrame, TxProcess, TxStep};
use lln_netip::{Ecn, FifoQueue, Ipv6Addr, Ipv6Header, NextHeader, NodeId};
use lln_node::stack::{Node, OutPacket};
use lln_node::world::Event;
use lln_phy::{LinkMatrix, Medium, PhyConfig, RadioIdx};
use lln_sim::{Duration, EventQueue, Instant, Rng};
use lln_sixlowpan::{decompress_view, fragment, IphcCache};
use std::hint::black_box;
use std::time::Instant as Wall;
use tcplp::{ListenSocket, MemClass, NodeBudget, Segment, TcpConfig, TcpSocket};

/// Wall time each probe spends in timed batches.
const PROBE_SECONDS: f64 = 0.4;
/// Operations per timed batch.
const BATCH: usize = 4096;
/// Packets recorded from the socket pair to feed the lower layers.
const RECORDED: usize = 2048;

/// The workload's shape, as measured by its traced run.
pub struct Shape {
    /// Mean TCP payload of a first transmission, bytes.
    pub data_payload: usize,
    /// Share of data segments lost between sender and receiver.
    pub seg_loss: f64,
    /// Link retries per data-frame transmission.
    pub retry_per_tx: f64,
    /// Standing event-queue depth and mean simulated gap between
    /// instants.
    pub queue_depth: usize,
    pub instant_gap: Duration,
    /// Standing depth of the busiest IP queue.
    pub ip_depth: usize,
    /// Mean simulated gap between frames on the air.
    pub frame_gap: Duration,
    /// Mean simulated time per data segment.
    pub seg_gap: Duration,
    /// The workload's connectivity and MAC settings.
    pub links: LinkMatrix,
    pub mac: MacConfig,
    /// Sender and sink IPv6 addresses, and the radio path between them
    /// (sender first).
    pub src: Ipv6Addr,
    pub dst: Ipv6Addr,
    pub path: Vec<usize>,
}

impl Shape {
    /// Reads addresses and the radio path from the scenario's world.
    pub fn path_of(sc: &Scenario) -> (Ipv6Addr, Ipv6Addr, Vec<usize>) {
        let w = &sc.world;
        let (from, _) = sc.senders[0];
        // Off-mesh traffic leaves the radio path at the border router.
        let anchor = w.border.unwrap_or(sc.sink);
        let mut path = vec![from];
        let mut cur = from;
        while cur != anchor {
            let routes = &w.nodes[cur].routes;
            let Some(next) = routes
                .lookup(NodeId(anchor as u16))
                .or(routes.default_route)
            else {
                break;
            };
            cur = next.0 as usize;
            path.push(cur);
        }
        (w.nodes[from].ip_addr(), w.nodes[sc.sink].ip_addr(), path)
    }
}

/// Median wall nanoseconds per operation over timed batches, divided by
/// the host's [`slowdown`] just before. `setup` prepares a batch's
/// inputs untimed; `run` does the batch and returns how many operations
/// it did.
fn ns_per_op<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> u64) -> f64 {
    run(setup()); // warm caches and free lists
    let k = slowdown();
    let mut per_op = Vec::new();
    let t0 = Wall::now();
    while per_op.len() < 5 || t0.elapsed().as_secs_f64() < PROBE_SECONDS {
        let input = setup();
        let t = Wall::now();
        let ops = run(input);
        per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(per_op) / k
}

/// An IPv6 packet as the transport hands it down: header and encoded
/// TCP segment. `up` is the sender-to-sink direction.
pub struct Packet {
    hdr: Ipv6Header,
    bytes: Vec<u8>,
    up: bool,
}

/// A connected TCPlp socket pair exchanging a closed-loop stream, with
/// the workload's write size and data-segment loss.
struct Pair {
    client: TcpSocket,
    server: TcpSocket,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    now: Instant,
    step: Duration,
    write: usize,
    loss: f64,
    rng: Rng,
    wire: Vec<u8>,
}

impl Pair {
    fn new(shape: &Shape) -> Pair {
        let cfg = TcpConfig::default();
        let (src, dst) = (shape.src, shape.dst);
        let now = Instant::from_millis(10);
        let mut client = TcpSocket::new(cfg.clone(), src, 49152);
        let mut listener = ListenSocket::new(cfg, dst, 80);
        client.connect(dst, 80, 1, now);
        let syn = client.poll_transmit(now).expect("SYN");
        let synack = listener
            .on_segment(src, &syn, 2, now)
            .into_reply()
            .expect("SYN-ACK");
        client.on_segment(&synack, Ecn::NotCapable, now);
        let ack = client.poll_transmit(now).expect("handshake ACK");
        let server = listener
            .on_segment(src, &ack, 0, now)
            .into_spawn()
            .expect("established");
        Pair {
            client,
            server,
            src,
            dst,
            now,
            step: shape.seg_gap,
            write: shape.data_payload.max(1),
            loss: shape.seg_loss,
            rng: Rng::new(0x7c9),
            wire: Vec::new(),
        }
    }

    /// One round: timers, an application write, the client's segments
    /// to the server (data lost at the workload's rate), the server's
    /// read, and its segments back. Returns the segments processed.
    fn round(&mut self, mut record: Option<&mut Vec<Packet>>) -> u64 {
        const PATTERN: [u8; 2048] = {
            let mut p = [0u8; 2048];
            let mut i = 0;
            while i < p.len() {
                p[i] = i as u8;
                i += 1;
            }
            p
        };
        self.now += self.step;
        let now = self.now;
        for s in [&mut self.client, &mut self.server] {
            s.tick(now);
            if s.poll_at().is_some_and(|t| t <= now) {
                s.on_timer(now);
            }
        }
        let write = self.write.min(PATTERN.len());
        while self.client.send_capacity() >= write {
            self.client.send(&PATTERN[..write]);
        }
        let mut n = 0;
        while let Some(seg) = self.client.poll_transmit(now) {
            n += 1;
            seg.encode_into(self.src, self.dst, &mut self.wire);
            if let Some(r) = record.as_deref_mut() {
                r.push(packet(self.src, self.dst, &self.wire, true));
            }
            if !seg.payload.is_empty() && self.rng.gen_f64() < self.loss {
                continue;
            }
            let view = Segment::decode_view(self.src, self.dst, &self.wire).expect("valid");
            self.server.on_segment_view(view, Ecn::NotCapable, now);
        }
        let mut sink = [0u8; 2048];
        while self.server.recv(&mut sink) > 0 {}
        while let Some(seg) = self.server.poll_transmit(now) {
            n += 1;
            seg.encode_into(self.dst, self.src, &mut self.wire);
            if let Some(r) = record.as_deref_mut() {
                r.push(packet(self.dst, self.src, &self.wire, false));
            }
            let view = Segment::decode_view(self.dst, self.src, &self.wire).expect("valid");
            self.client.on_segment_view(view, Ecn::NotCapable, now);
        }
        n
    }

    /// Runs rounds until at least `want` segments have been processed,
    /// recording each one if asked. A pair that stops exchanging
    /// segments altogether has stalled, which is a bug.
    fn run(&mut self, want: u64, mut record: Option<&mut Vec<Packet>>) -> u64 {
        let mut n = 0;
        let mut idle = 0;
        while n < want {
            let k = self.round(record.as_deref_mut());
            idle = if k == 0 { idle + 1 } else { 0 };
            assert!(idle < 100_000, "socket pair stalled");
            n += k;
        }
        n
    }
}

fn packet(src: Ipv6Addr, dst: Ipv6Addr, wire: &[u8], up: bool) -> Packet {
    Packet {
        hdr: Ipv6Header::new(src, dst, NextHeader::Tcp, wire.len() as u16),
        bytes: wire.to_vec(),
        up,
    }
}

/// `tcplp`: one segment processed, meaning `poll_transmit`, the
/// encode with checksum, the borrowed decode and `on_segment_view` at
/// the peer, plus the timers and application copies around them.
/// Also records a sample of the packets the pair exchanges.
pub fn tcp(shape: &Shape) -> (f64, Vec<Packet>) {
    let mut pair = Pair::new(shape);
    let mut recorded = Vec::new();
    pair.run(RECORDED as u64, Some(&mut recorded));
    let ns = ns_per_op(|| (), |()| pair.run(BATCH as u64, None));
    (ns, recorded)
}

/// The link-layer hops a packet takes: along the path for the uplink,
/// back along it for the downlink.
fn hops(shape: &Shape, up: bool) -> Vec<(NodeId, NodeId)> {
    let id = |i: usize| NodeId(i as u16);
    let fwd: Vec<_> = shape
        .path
        .windows(2)
        .map(|h| (id(h[0]), id(h[1])))
        .collect();
    if up {
        fwd
    } else {
        fwd.iter().rev().map(|&(a, b)| (b, a)).collect()
    }
}

/// `lln-sixlowpan`: one packet over one hop, meaning IPHC compression
/// through the per-neighbour cache, fragmentation, reassembly of every
/// fragment and the borrowed decompression.
pub fn sixlowpan(shape: &Shape, packets: &[Packet]) -> f64 {
    let up = hops(shape, true);
    let down = hops(shape, false);
    let mut cache = IphcCache::new();
    let mut reasm = Node::reassembler_for(&NodeBudget::default());
    let mut compressed = Vec::new();
    let mut k = 0usize;
    let mut tag = 0u16;
    let now = Instant::from_secs(1);
    ns_per_op(
        || (),
        |()| {
            for _ in 0..BATCH {
                let p = &packets[k % packets.len()];
                let route = if p.up { &up } else { &down };
                let (src, dst) = route[(k / packets.len()) % route.len()];
                k += 1;
                tag = tag.wrapping_add(1);
                cache.compress_into(&p.hdr, src, dst, &p.bytes, &mut compressed);
                for f in fragment(&compressed, tag, MAX_MAC_PAYLOAD) {
                    if let Some(whole) = reasm.offer(src, &f.bytes, now) {
                        let view = decompress_view(&whole, src, dst).expect("round trip");
                        black_box(view.1.as_slice().len());
                    }
                }
            }
            BATCH as u64
        },
    )
}

/// The fragments the packets become on their first hop, each as a MAC
/// payload; and the mean MPDU length of those frames.
fn frame_payloads(shape: &Shape, packets: &[Packet]) -> (Vec<Vec<u8>>, usize) {
    let mut cache = IphcCache::new();
    let mut compressed = Vec::new();
    let mut out = Vec::new();
    for (k, p) in packets.iter().enumerate() {
        let (src, dst) = hops(shape, p.up)[0];
        cache.compress_into(&p.hdr, src, dst, &p.bytes, &mut compressed);
        out.extend(
            fragment(&compressed, k as u16, MAX_MAC_PAYLOAD)
                .into_iter()
                .map(|f| f.bytes),
        );
    }
    let mpdu: usize = out
        .iter()
        .map(|b| MacFrame::data(NodeId(1), NodeId(2), 0, b.clone()).mpdu_len())
        .sum();
    let mean = mpdu / out.len().max(1);
    (out, mean)
}

/// `lln-mac`: one data-frame transmission attempt, meaning a pooled
/// frame built and encoded on the first attempt, the CSMA/retry state
/// machine (clear channel, transmit, then the link ACK or, at the
/// workload's retry rate, its timeout), and the link ACK frame the
/// receiver builds.
pub fn mac(shape: &Shape, packets: &[Packet]) -> f64 {
    let (payloads, _) = frame_payloads(shape, packets);
    let mut pool = FramePool::default();
    let mut rng = Rng::new(0x3ac);
    let mut fate_rng = Rng::new(0x3ad);
    let mut next = 0usize;
    let mut seq = 0u8;
    ns_per_op(
        || {
            let fates: Vec<bool> = (0..BATCH)
                .map(|_| fate_rng.gen_f64() < shape.retry_per_tx)
                .collect();
            let frames: Vec<Vec<u8>> = (0..BATCH)
                .map(|i| payloads[(next + i) % payloads.len()].clone())
                .collect();
            next += BATCH;
            (fates, frames)
        },
        |(fates, frames)| {
            let mut frames = frames.into_iter();
            let mut cur = None;
            for lost in fates {
                let (frame, mut tx) = match cur.take() {
                    Some(c) => c,
                    None => {
                        seq = seq.wrapping_add(1);
                        let payload = frames.next().unwrap_or_default();
                        let f = pool.alloc(MacFrame::data(NodeId(1), NodeId(2), seq, payload));
                        let mut tx = TxProcess::new(shape.mac.clone(), true);
                        black_box(tx.start(&mut rng));
                        (f, tx)
                    }
                };
                black_box(tx.on_cca(false, &mut rng));
                black_box(frame.encoded().len());
                black_box(tx.on_tx_done());
                if lost {
                    if let TxStep::Done(_) = tx.on_ack_timeout(&mut rng) {
                        pool.reclaim(frame);
                    } else {
                        cur = Some((frame, tx));
                    }
                } else {
                    let ack = pool.alloc(MacFrame::ack(seq, false));
                    black_box(tx.on_ack());
                    pool.reclaim(ack);
                    pool.reclaim(frame);
                }
            }
            if let Some((frame, _)) = cur {
                pool.reclaim(frame);
            }
            BATCH as u64
        },
    )
}

/// `lln-phy`: one frame on the air, meaning the clear-channel check,
/// `begin_tx` and `end_tx` with every other radio listening, over the
/// workload's link matrix, with frames spaced as in the workload.
pub fn phy(shape: &Shape, packets: &[Packet]) -> f64 {
    let (_, mpdu) = frame_payloads(shape, packets);
    let air = PhyConfig::default().air_time(mpdu);
    let links = &shape.links;
    let n = links.len();
    let heard = |r: usize| (0..n).any(|j| j != r && links.audible(RadioIdx(r), RadioIdx(j)));
    let radios: Vec<usize> = (0..n).filter(|&r| heard(r)).collect();
    let listeners: Vec<Vec<RadioIdx>> = (0..n)
        .map(|r| {
            radios
                .iter()
                .filter(|&&j| j != r)
                .map(|&j| RadioIdx(j))
                .collect()
        })
        .collect();
    let mut medium = Medium::new(links.clone(), Rng::new(0x9e7));
    let gap = shape.frame_gap.max(air);
    let mut t = Instant::from_secs(1);
    let mut k = 0usize;
    ns_per_op(
        || (),
        |()| {
            for _ in 0..BATCH {
                let src = radios[k % radios.len()];
                k += 1;
                t += gap;
                black_box(medium.cca_busy(RadioIdx(src), t));
                let h = medium.begin_tx(RadioIdx(src), t, t + air);
                black_box(medium.end_tx(h, &listeners[src]));
            }
            BATCH as u64
        },
    )
}

/// `lln-netip`: one IP packet, meaning the header built, the
/// destination classified and the packet through a FIFO kept at the
/// workload's standing depth with the node budget's bounds.
pub fn netip(shape: &Shape, packets: &[Packet]) -> f64 {
    let budget = NodeBudget::default();
    let mut q = FifoQueue::with_byte_bound(budget.ip_queue_packets, budget.cap(MemClass::IpQueue));
    let weight = |p: &OutPacket| p.payload.len() + tcplp::mem::IP_OVERHEAD_BYTES;
    let depth = shape
        .ip_depth
        .min(budget.ip_queue_packets.saturating_sub(1));
    let mut spare: Vec<Vec<u8>> = packets.iter().map(|p| p.bytes.clone()).collect();
    for p in packets.iter().cycle().take(depth) {
        let pkt = OutPacket {
            hdr: p.hdr,
            payload: spare.pop().unwrap_or_default(),
            next_hop: NodeId(1),
        };
        let w = weight(&pkt);
        q.offer_weighed(pkt, w);
    }
    let mut k = 0usize;
    ns_per_op(
        || (),
        |()| {
            for _ in 0..BATCH {
                let p = &packets[k % packets.len()];
                k += 1;
                let hdr = Ipv6Header::new(p.hdr.src, p.hdr.dst, NextHeader::Tcp, p.hdr.payload_len);
                let next_hop = if hdr.dst.is_mesh_local() {
                    hdr.dst.node_id().unwrap_or(NodeId(0))
                } else {
                    NodeId(0)
                };
                let pkt = OutPacket {
                    hdr,
                    payload: spare.pop().unwrap_or_default(),
                    next_hop,
                };
                let w = weight(&pkt);
                q.offer_weighed(pkt, w);
                if let Some(out) = q.pop() {
                    spare.push(out.payload);
                }
            }
            BATCH as u64
        },
    )
}

/// `lln-sim`: one instant, meaning `peek_time`, `pop` and the
/// `schedule` of a follow-up event, on a queue holding the workload's
/// standing depth of world events. Delays are exponential with the mean
/// Little's law gives for that depth and the workload's instant rate.
pub fn sim(shape: &Shape) -> f64 {
    let depth = shape.queue_depth.max(1);
    let mean_us = depth as f64 * shape.instant_gap.as_micros() as f64;
    let mut rng = Rng::new(0x51);
    let delays: Vec<Duration> = (0..4096)
        .map(|_| Duration::from_micros((-mean_us * (1.0 - rng.gen_f64()).ln()) as u64 + 1))
        .collect();
    let mut q: EventQueue<Event> = EventQueue::new();
    for (i, &d) in delays.iter().cycle().take(depth).enumerate() {
        q.schedule(Instant::ZERO + d, Event::MacTimer(i));
    }
    let mut k = 0usize;
    ns_per_op(
        || (),
        |()| {
            for _ in 0..BATCH {
                let t = q.peek_time().expect("standing depth");
                let (_, ev) = q.pop().expect("peeked");
                q.schedule(t + delays[k % delays.len()], black_box(ev));
                k += 1;
            }
            BATCH as u64
        },
    )
}
