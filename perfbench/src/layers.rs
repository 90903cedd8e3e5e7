//! The traced run and the per-layer metrics.
//!
//! The traced run builds the same world as the untraced repetitions,
//! then steps the measured interval one instant at a time
//! (`while let Some(t) = peek_time() { run_until(t) }`), sampling the
//! event-queue and IP-queue depths between instants. Its counters and
//! simulated metrics must equal the untraced run's exactly. Each layer
//! then reports `ns_per_op` from its probe, `ops_per_seg` from the
//! counters, and `busy_pct`, the probe cost of those operations as a
//! share of the untraced wall time per segment.

use crate::probe::{self, Shape};
use crate::workload::{Observed, Workload};
use crate::{slowdown, Metric, Rep};
use lln_sim::Duration;
use std::time::Instant as Wall;

/// What stepping the measured interval observed.
struct Traced {
    obs: Observed,
    /// Wall time of the stepped interval, divided by [`slowdown`].
    wall_s: f64,
    instants: u64,
    /// `queue_hist[n]`: instants that began with `n` events pending.
    queue_hist: Vec<u64>,
    /// Sum over instants of the deepest IP queue in the world.
    ip_depth_sum: u64,
    checks: Vec<(&'static str, bool)>,
    shape: (lln_netip::Ipv6Addr, lln_netip::Ipv6Addr, Vec<usize>),
}

fn run_traced(w: Workload, seed: u64) -> Traced {
    let mut sc = w.build(seed, true);
    sc.warm_up();
    let start = sc.begin_measure();
    let end = sc.measure_end();
    let mut queue_hist = vec![0u64; 64];
    let mut ip_depth_sum = 0u64;
    let mut instants = 0u64;
    let k = slowdown();
    let t0 = Wall::now();
    while let Some(t) = sc.world.queue.peek_time() {
        if t > end {
            break;
        }
        let len = sc.world.queue.len();
        if len >= queue_hist.len() {
            queue_hist.resize(len + 1, 0);
        }
        queue_hist[len] += 1;
        ip_depth_sum += sc
            .world
            .nodes
            .iter()
            .map(|n| n.ip_queue.len())
            .max()
            .unwrap_or(0) as u64;
        sc.world.run_until(t);
        instants += 1;
        if instants.is_multiple_of(1024) {
            sc.tally_tags();
        }
    }
    let wall_s = t0.elapsed().as_secs_f64() / k;
    let obs = sc.observe(&start);
    let mut checks = sc.checks(&obs);
    checks.push((
        "delivered stream matches what the senders wrote",
        sc.stream_check(),
    ));
    checks.push((
        "fragment tags tallied without wrapping",
        obs.counts.packets >= obs.counts.packets_direct,
    ));
    Traced {
        obs,
        wall_s,
        instants,
        queue_hist,
        ip_depth_sum,
        checks,
        shape: Shape::path_of(&sc),
    }
}

/// Smallest queue length that at least `p` percent of instants began
/// at or below.
fn hist_percentile(hist: &[u64], p: f64) -> usize {
    let total: u64 = hist.iter().sum();
    let target = (p / 100.0 * total as f64).ceil() as u64;
    let mut seen = 0;
    for (len, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= target.max(1) {
            return len;
        }
    }
    hist.len().saturating_sub(1)
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Runs the traced run and the probes; returns every per-layer metric.
/// `rep` is an untraced repetition of the same seed and `untraced_s` the
/// median wall time of its measured interval. Host times here are all
/// divided by [`slowdown`] measured right before them, so that ones
/// taken minutes apart compare. The traced run's checks are appended to
/// `checks`.
pub fn per_layer(
    w: Workload,
    seed: u64,
    rep: &Rep,
    untraced_s: f64,
    checks: &mut Vec<(&'static str, bool)>,
) -> Vec<Metric> {
    let tr = run_traced(w, seed);
    checks.extend(tr.checks.iter().copied());
    checks.push(("traced run reproduces the untraced run", tr.obs == rep.obs));
    let d = &tr.obs.counts;
    let segs = d.data_segs();
    let measured_us = w.measured().as_micros();
    let per = |n: u64| Duration::from_micros(measured_us / n.max(1));
    let (src, dst, path) = tr.shape;
    let shape = Shape {
        data_payload: (d.sender.bytes_sent / (d.sender.data_sent() - d.sender.retransmitted).max(1))
            as usize,
        seg_loss: 1.0 - ratio(d.receiver.segs_rcvd, d.sender.data_sent()).min(1.0),
        retry_per_tx: ratio(d.link_retries, d.mac_frames),
        queue_depth: hist_percentile(&tr.queue_hist, 50.0),
        instant_gap: per(tr.instants),
        ip_depth: (tr.ip_depth_sum as f64 / tr.instants.max(1) as f64).round() as usize,
        frame_gap: per(d.phy_frames),
        seg_gap: per(d.sender.data_sent()),
        links: w.links(),
        mac: w.mac(),
        src,
        dst,
        path,
    };

    let (tcp_ns, packets) = probe::tcp(&shape);
    let layers: [(&str, f64, u64); 6] = [
        ("sim", probe::sim(&shape), tr.instants),
        ("phy", probe::phy(&shape, &packets), d.phy_frames),
        ("mac", probe::mac(&shape, &packets), d.mac_frames),
        ("sixlowpan", probe::sixlowpan(&shape, &packets), d.packets),
        ("netip", probe::netip(&shape, &packets), d.packets),
        ("tcp", tcp_ns, d.tcp.segs_sent),
    ];
    let wall_ns_per_seg = untraced_s * 1e9 / segs.max(1) as f64;
    let mut out = Vec::new();
    let mut busy_sum = 0.0;
    for (layer, ns, ops) in layers {
        let ops_per_seg = ratio(ops, segs);
        let busy = ns * ops_per_seg / wall_ns_per_seg * 100.0;
        busy_sum += busy;
        out.push(Metric::new(format!("{layer}.ns_per_op"), ns, "ns"));
        out.push(Metric::new(
            format!("{layer}.ops_per_seg"),
            ops_per_seg,
            "ops/seg",
        ));
        out.push(Metric::new(format!("{layer}.busy_pct"), busy, "%"));
    }
    let queue_max = tr.queue_hist.iter().rposition(|&c| c > 0).unwrap_or(0);
    let outcomes = d.deliveries + d.collisions + d.prr_drops;
    let finished = d.frames_delivered + d.frames_dropped;
    let secs = w.measured().as_secs_f64();
    out.extend([
        Metric::new("sim.queue_len.p50", shape.queue_depth as f64, "events"),
        Metric::new("sim.queue_len.max", queue_max as f64, "events"),
        Metric::new(
            "sim.instants_per_sim_s",
            tr.instants as f64 / secs,
            "1/sim-s",
        ),
        Metric::new(
            "phy.collision_frac",
            ratio(d.collisions, outcomes),
            "fraction",
        ),
        Metric::new(
            "phy.prr_drop_frac",
            ratio(d.prr_drops, outcomes),
            "fraction",
        ),
        Metric::new(
            "mac.retries_per_frame",
            ratio(d.link_retries, finished),
            "count",
        ),
        Metric::new("mac.drops", d.frames_dropped as f64, "count"),
        Metric::new(
            "mac.pool_reuse_frac",
            ratio(d.pool_reused, d.pool_reused + d.pool_fresh),
            "fraction",
        ),
        Metric::new(
            "sixlowpan.frags_per_packet",
            ratio(finished, d.packets),
            "count",
        ),
        Metric::new("sixlowpan.reasm_timeouts", d.reasm_timeouts as f64, "count"),
        Metric::new("netip.forwarded_per_seg", ratio(d.forwarded, segs), "count"),
        Metric::new("netip.drops", d.ip_drops as f64, "count"),
        Metric::new(
            "tcp.fastpath_frac",
            ratio(d.tcp.predicted, d.tcp.segs_rcvd),
            "fraction",
        ),
        Metric::new("tcp.acks_per_seg", ratio(d.tcp.acks_sent, segs), "count"),
        Metric::new("tcp.ooo_frac", ratio(d.tcp.ooo, segs), "fraction"),
        Metric::new("tcp.rto_count", d.tcp.rtos as f64, "count"),
        Metric::new("node.residual_pct", 100.0 - busy_sum, "%"),
        Metric::new(
            "node.allocs_per_instant",
            ratio(rep.allocs, tr.instants),
            "count",
        ),
        Metric::new("layers.busy_sum_pct", busy_sum, "%"),
        Metric::new(
            "trace.overhead_pct",
            (tr.wall_s - untraced_s) / untraced_s * 100.0,
            "%",
        ),
    ]);
    out
}
