//! Determinism regression tier: pinned-seed worlds must reproduce the
//! exact `TcpStats` FNV digests recorded before the simulator fast
//! path landed (timer-wheel event queue + pooled zero-copy frames).
//!
//! The constants below were captured on the `BinaryHeap`+`HashSet`
//! event queue and the per-hop `Vec<u8>` frame-clone delivery path.
//! Any event reordering, RNG-draw shift, or delivery change introduced
//! by a performance rework shows up here as a digest mismatch — the
//! fast path must be *bit-invisible* to seeded runs.
//!
//! To regenerate after an **intentional** schedule change, run with
//! `DETERMINISM_PRINT=1` and copy the printed values:
//!
//! ```sh
//! DETERMINISM_PRINT=1 cargo test -p lln-node --test determinism -- --nocapture
//! ```

use lln_node::adversary::AdversaryProfile;
use lln_node::app::InterfererApp;
use lln_node::fault::FaultPlan;
use lln_node::flood::FloodConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};
use tcplp::{NodeBudget, TcpConfig};

const SERVER: usize = 0;
const CLIENT: usize = 3;
const BULK_BYTES: u64 = 20_000;

/// Bounded-failure TCP config (mirrors the torture/overload tiers).
fn hardened_cfg() -> TcpConfig {
    TcpConfig {
        max_retransmits: 8,
        max_rto: Duration::from_secs(4),
        ..TcpConfig::default()
    }
}

fn chain_world(seed: u64, budget: NodeBudget) -> World {
    let topo = Topology::chain(4, 0.999);
    World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::Router,
        ],
        WorldConfig {
            seed,
            budget,
            ..WorldConfig::default()
        },
    )
}

/// FNV-1a fold of a word sequence into one digest.
fn fold(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything observable about a finished chain world, as one digest:
/// client + server socket stats, listener stats, per-node governor
/// digests, delivered byte count, and the final simulated time (the
/// last is the sharpest event-schedule probe of all).
fn world_digest(world: &World) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for n in &world.nodes {
        for s in &n.transport.tcp {
            words.push(s.stats.digest());
        }
        if let Some(l) = &n.transport.tcp_listener {
            words.push(l.stats.digest());
        }
        words.push(n.governor.digest());
    }
    let delivered: usize = world.nodes[SERVER]
        .app
        .sink_capture()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    words.push(delivered as u64);
    words.push(world.now().as_micros());
    words.push(world.medium.counters.get("frames_tx"));
    words.push(world.medium.counters.get("deliveries"));
    fold(&words)
}

/// Clean pinned-seed bulk transfer over the 3-hop chain.
fn clean_run_digest(seed: u64) -> u64 {
    let mut world = chain_world(seed, NodeBudget::default());
    world.add_tcp_listener(SERVER, hardened_cfg());
    world.set_sink_capture(SERVER);
    world.add_tcp_client(CLIENT, SERVER, hardened_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(CLIENT, Some(BULK_BYTES));
    world.run_for(Duration::from_secs(120));
    world_digest(&world)
}

/// Torture-tier pinned-seed run: full adversary on the server's
/// inbound path (the CI TORTURE_SEED scenario shape).
fn torture_run_digest(seed: u64) -> u64 {
    let mut world = chain_world(seed, NodeBudget::default());
    world.add_tcp_listener(SERVER, hardened_cfg());
    world.set_sink_capture(SERVER);
    world.attach_adversary(SERVER, AdversaryProfile::full(0.12));
    world.add_tcp_client(CLIENT, SERVER, hardened_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(CLIENT, Some(BULK_BYTES));
    world.run_for(Duration::from_secs(200));
    world_digest(&world)
}

/// Overload-tier pinned-seed run: SYN+fragment flood at the server
/// (the CI FLOOD_SEED scenario shape).
fn flood_run_digest(seed: u64) -> u64 {
    let mut world = chain_world(seed, NodeBudget::default());
    world.add_tcp_listener(SERVER, hardened_cfg());
    world.set_sink_capture(SERVER);
    world.attach_flood(
        SERVER,
        FloodConfig {
            start: Instant::from_millis(2_000),
            stop: Instant::from_millis(150_000),
            rate_hz: 80,
            syn: true,
            frag: true,
            spoofed_sources: 16,
            ..FloodConfig::default()
        },
    );
    world.add_tcp_client(CLIENT, SERVER, hardened_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(CLIENT, Some(BULK_BYTES));
    world.run_for(Duration::from_secs(200));
    world_digest(&world)
}

/// Fault-path pinned-seed run over a diamond (two disjoint relay paths
/// between server 0 and client 3, hidden from each other) plus an
/// interferer radio (node 4) jamming relay 1 and the client. The plan
/// reboots both relays repeatedly (some reboots cut a frame mid-air),
/// opens bit-error bursts at the server and the client (so the FCS
/// check runs and drops frames), blacks out the primary path and flaps
/// the client's route onto the other relay. Besides the usual digest,
/// the medium's frame counters and each node's bit-error counters are
/// folded in: these are the paths no other pin covers.
fn fault_run_digest(seed: u64) -> u64 {
    let mut links = LinkMatrix::new(5);
    links.set_symmetric(RadioIdx(0), RadioIdx(1), 0.999);
    links.set_symmetric(RadioIdx(1), RadioIdx(3), 0.999);
    links.set_symmetric(RadioIdx(0), RadioIdx(2), 0.97);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), 0.97);
    links.set_interference(RadioIdx(4), RadioIdx(1));
    links.set_interference(RadioIdx(4), RadioIdx(3));
    let topo = Topology::with_shortest_paths(links);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::Interferer,
        ],
        WorldConfig {
            seed,
            ..WorldConfig::default()
        },
    );
    world.add_tcp_listener(SERVER, hardened_cfg());
    world.set_sink_capture(SERVER);
    world.add_tcp_client(CLIENT, SERVER, hardened_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(CLIENT, Some(3 * BULK_BYTES));
    let mut plan = FaultPlan::new();
    for k in 0..60u64 {
        let relay = 1 + (k % 2) as usize;
        let at = Instant::from_micros(1_500_000 + k * 487_213);
        plan = plan.reboot(relay, at, Duration::from_millis(10 + 3 * (k % 8)));
    }
    plan = plan
        .bit_error_burst(SERVER, Instant::from_secs(4), Duration::from_secs(3), 2e-4)
        .bit_error_burst(CLIENT, Instant::from_secs(13), Duration::from_secs(3), 5e-4)
        .blackout(1, 3, Instant::from_secs(9), Duration::from_secs(3))
        .route_flap(CLIENT, Instant::from_millis(9_200));
    world.apply_fault_plan(&plan);
    let mut app = InterfererApp::office();
    app.day_occupancy = 0.05;
    app.night_occupancy = 0.05;
    world.start_interferer(4, app, Instant::from_millis(500));
    world.run_for(Duration::from_secs(120));

    let m = &world.medium.counters;
    let mut words = vec![
        world_digest(&world),
        m.get("frames_tx"),
        m.get("collisions"),
        m.get("deliveries"),
        m.get("prr_drops"),
    ];
    for n in &world.nodes {
        words.push(n.counters.get("ber_corrupted_frames"));
        words.push(n.counters.get("fcs_drops"));
    }
    let fcs_drops: u64 = world.nodes.iter().map(|n| n.counters.get("fcs_drops")).sum();
    assert!(fcs_drops > 0, "the bit-error bursts must reach the FCS check");
    assert!(m.get("collisions") > 0, "the interferer must collide with frames");
    fold(&words)
}

/// (seed, pinned digest) pairs captured on the pre-fast-path build.
const CLEAN_PINS: [(u64, u64); 2] = [
    (24001, 0xe6d4_137e_3c7e_22b8),
    (77003, 0x81a4_6762_4970_e34b),
];
const TORTURE_PINS: [(u64, u64); 2] = [
    (24001, 0xec25_e951_8494_1fc1),
    (77003, 0x1afa_e00d_f732_feaa),
];
const FLOOD_PINS: [(u64, u64); 2] = [
    (52001, 0x8ad6_d4c9_8be7_0082),
    (90017, 0x2af0_75b5_c307_1e94),
];

/// (seed, pinned digest) pairs captured with eager frame encoding and a
/// medium that kept every record of the last 100 ms.
const FAULT_PINS: [(u64, u64); 2] = [
    (31007, 0x9010_9e4d_21e8_4a4d),
    (64013, 0xb47b_33da_4dce_c2ce),
];

fn check(kind: &str, pins: &[(u64, u64)], run: fn(u64) -> u64) {
    let print = std::env::var("DETERMINISM_PRINT").is_ok();
    for &(seed, want) in pins {
        let got = run(seed);
        if print {
            println!("    ({seed}, {got:#018x}),   // {kind}");
            continue;
        }
        assert_eq!(
            got, want,
            "{kind} digest for pinned seed {seed} drifted: \
             got {got:#018x}, pinned {want:#018x} — the event schedule \
             or RNG draw order changed"
        );
    }
}

#[test]
fn clean_e2e_digests_are_pinned() {
    check("clean", &CLEAN_PINS, clean_run_digest);
}

#[test]
fn torture_digests_are_pinned() {
    check("torture", &TORTURE_PINS, torture_run_digest);
}

#[test]
fn flood_digests_are_pinned() {
    check("flood", &FLOOD_PINS, flood_run_digest);
}

#[test]
fn fault_digests_are_pinned() {
    check("fault", &FAULT_PINS, fault_run_digest);
}
