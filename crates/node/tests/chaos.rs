//! Chaos tier: composed fault plans against supervised connections.
//!
//! The paper's deployment argument (§3, §9) is that full-scale TCP plus
//! application-level supervision survives what LLN deployments actually
//! see: node reboots, RF blackouts, parent churn and bit-error bursts.
//! These tests compose [`FaultPlan`]s against supervised bulk and
//! anemometer workloads and assert *byte-exact* end-to-end integrity
//! after recovery, plus determinism of the whole fault schedule.

use lln_node::app::App;
use lln_node::fault::FaultPlan;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::supervisor::{RecordAssembler, SupervisorConfig};
use lln_node::world::{World, WorldConfig};
use lln_phy::{LinkMatrix, RadioIdx};
use lln_sim::{Duration, Instant};

/// The supervised bulk sender emits records whose concatenated payload
/// is the byte sequence `m % 256` (same pattern as the plain sender).
fn expected_pattern(n: usize) -> Vec<u8> {
    (0..n).map(|m| (m % 256) as u8).collect()
}

/// Reassembles everything a capture sink received, one ingest per TCP
/// connection.
fn reassemble(world: &World, sink: usize) -> RecordAssembler {
    let mut asm = RecordAssembler::new();
    for (_remote, bytes) in world.nodes[sink].app.sink_capture() {
        asm.ingest_connection(bytes);
    }
    asm
}

/// Supervisor config tuned so a 30 s blackout reliably kills the
/// connection (retransmit exhaustion) instead of stalling through it:
/// with the RTO capped at 4 s and 3 retransmits, a dead path is
/// declared within ~20 s.
fn chaos_supervisor_cfg() -> SupervisorConfig {
    let mut cfg = SupervisorConfig::default();
    cfg.tcp.max_retransmits = 3;
    cfg.tcp.max_rto = Duration::from_secs(4);
    cfg
}

const BULK_BYTES: usize = 120_000;

/// The acceptance scenario: 3-hop chain bulk transfer with a
/// mid-transfer relay reboot and a 30 s link blackout. The transfer
/// must complete byte-exactly and the supervisor must have reconnected
/// at least once.
fn run_chain_chaos(seed: u64) -> World {
    let topo = Topology::chain(4, 0.999);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::Router,
        ],
        WorldConfig {
            seed,
            ..WorldConfig::default()
        },
    );
    world.enable_trace(200_000);
    world.add_tcp_listener(0, tcplp::TcpConfig::default());
    world.set_sink_capture(0);
    world.add_supervised_client(3, 0, chaos_supervisor_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(3, Some(BULK_BYTES as u64));
    let plan = FaultPlan::new()
        .reboot(2, Instant::from_secs(8), Duration::from_secs(5))
        .blackout(
            1,
            2,
            Instant::from_secs(15),
            Duration::from_secs(30),
        );
    world.apply_fault_plan(&plan);
    world.run_for(Duration::from_secs(240));
    // The supervised connection stays live past the horizon, so assert
    // budget caps (no class ever over cap) rather than full drain.
    world.assert_governor_bounded();
    world
}

#[test]
fn chain_bulk_survives_relay_reboot_and_blackout() {
    let world = run_chain_chaos(0x5eed);

    // Byte-exact integrity: every record delivered exactly once after
    // dedup, reassembling to the original byte stream.
    let asm = reassemble(&world, 0);
    assert_eq!(asm.missing(), Vec::<u64>::new(), "no records may be lost");
    let got = asm.assembled().expect("gap-free");
    let want = expected_pattern(BULK_BYTES);
    let first_diff = got
        .iter()
        .zip(want.iter())
        .position(|(a, b)| a != b);
    assert_eq!(
        got,
        want,
        "reassembled stream must match the sent pattern byte-for-byte \
         (got {} bytes, want {}, first diff at {:?}, stats {:?})",
        got.len(),
        want.len(),
        first_diff,
        world.supervisor_stats(3)
    );

    // The blackout must actually have killed and revived the
    // connection.
    let stats = world.supervisor_stats(3).expect("supervised client");
    assert!(stats.deaths >= 1, "blackout must kill the connection");
    assert!(
        stats.reconnects >= 1,
        "supervisor must re-establish: {stats:?}"
    );
    assert!(
        stats.records_replayed >= 1,
        "unacknowledged records must be queued for replay: {stats:?}"
    );
    assert!(stats.downtime_us > 0);
    assert!(!world.nodes[3]
        .supervisor
        .as_ref()
        .expect("supervisor")
        .has_pending());

    // The relay rebooted exactly once and came back.
    assert_eq!(world.nodes[2].counters.get("reboots"), 1);
    assert_eq!(world.nodes[2].counters.get("boots"), 1);
    assert_eq!(world.nodes[1].counters.get("link_blackouts"), 1);

    // Counter mirror: world-level counters track the supervisor stats.
    assert_eq!(
        world.nodes[3].counters.get("sup_reconnects"),
        stats.reconnects
    );
    assert_eq!(world.nodes[3].counters.get("sup_deaths"), stats.deaths);
}

/// Same seed + same plan ⇒ bit-identical outcome: every node counter,
/// the supervisor stats, the medium's frame count, and the full packet
/// trace.
#[test]
fn chaos_run_is_deterministic() {
    let fingerprint = |world: &World| {
        let counters: Vec<Vec<(&'static str, u64)>> = world
            .nodes
            .iter()
            .map(|n| n.counters.iter().collect())
            .collect();
        let trace: Vec<(u64, u16, String)> = world
            .trace
            .entries()
            .iter()
            .map(|e| (e.at.as_micros(), e.node.0, format!("{:?} {}", e.dir, e.summary)))
            .collect();
        (
            counters,
            world.supervisor_stats(3),
            world.medium.counters.get("frames_tx"),
            world.nodes[0].app.sink_received(),
            trace,
        )
    };
    let a = run_chain_chaos(0xC0FFEE);
    let b = run_chain_chaos(0xC0FFEE);
    let (fa, fb) = (fingerprint(&a), fingerprint(&b));
    assert_eq!(fa.0, fb.0, "per-node counters must replay identically");
    assert_eq!(fa.1, fb.1, "supervisor stats must replay identically");
    assert_eq!(fa.2, fb.2, "frame counts must replay identically");
    assert_eq!(fa.3, fb.3, "sink bytes must replay identically");
    assert_eq!(fa.4.len(), fb.4.len(), "trace length must match");
    assert_eq!(fa.4, fb.4, "packet traces must replay identically");
}

/// A sleepy-leaf anemometer whose node reboots mid-run and whose
/// uplink router suffers a bit-error burst: every reading generated
/// while powered is delivered exactly once (the supervisor's flash
/// queue survives the reboot), and the corruption dies at the FCS
/// check rather than reaching any decoder.
#[test]
fn anemometer_survives_client_reboot_and_bit_errors() {
    let topo = Topology::chain(3, 0.999);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::SleepyLeaf,
        ],
        WorldConfig::default(),
    );
    world.add_tcp_listener(0, tcplp::TcpConfig::default());
    world.set_sink_capture(0);
    world.add_supervised_client(2, 0, SupervisorConfig::default(), Instant::from_millis(100));
    world.set_anemometer(2, 64, None, Instant::from_secs(1));
    let plan = FaultPlan::new()
        .reboot(2, Instant::from_secs(30), Duration::from_secs(8))
        .bit_error_burst(1, Instant::from_secs(60), Duration::from_secs(8), 2e-3);
    world.apply_fault_plan(&plan);
    world.run_for(Duration::from_secs(120));
    world.assert_governor_bounded();

    // The leaf rebooted; the supervisor noticed the wiped socket and
    // reconnected.
    assert_eq!(world.nodes[2].counters.get("reboots"), 1);
    let stats = world.supervisor_stats(2).expect("supervised leaf");
    assert!(stats.deaths >= 1, "reboot must register as a death");
    assert!(stats.reconnects >= 1, "leaf must reconnect after boot");

    // The bit-error burst corrupted frames and the FCS caught them.
    assert_eq!(world.nodes[1].counters.get("ber_bursts"), 1);
    assert!(
        world.nodes[1].counters.get("ber_corrupted_frames") > 0,
        "burst must corrupt traffic through the router"
    );
    assert!(
        world.nodes[1].counters.get("fcs_drops") > 0,
        "corrupted frames must die at the FCS check"
    );

    // Conservation: every reading is either still queued in the app,
    // retained in the supervisor, or delivered exactly once. Nothing
    // is lost, nothing duplicated after dedup.
    let asm = reassemble(&world, 0);
    assert_eq!(asm.missing(), Vec::<u64>::new());
    let App::Anemometer(app) = &world.nodes[2].app else {
        panic!("anemometer app expected");
    };
    let pending = world.nodes[2]
        .supervisor
        .as_ref()
        .expect("supervisor")
        .pending_records() as u64;
    assert_eq!(app.dropped, 0, "queue must never overflow in this run");
    assert_eq!(
        asm.record_count() as u64 + pending + app.queue.len() as u64,
        app.generated,
        "reading conservation: delivered + retained + queued == generated"
    );
    // Payload integrity: record k carries reading k (82 bytes, 8-byte
    // BE sequence prefix).
    let bytes = asm.assembled().expect("gap-free");
    assert_eq!(bytes.len() % lln_node::app::READING_BYTES, 0);
    for (k, reading) in bytes.chunks(lln_node::app::READING_BYTES).enumerate() {
        let seq = u64::from_be_bytes(reading[..8].try_into().expect("8B"));
        assert_eq!(seq, k as u64, "reading sequence must be contiguous");
    }
}

/// A sleepy leaf of the Figure 3 tree reboots while the other three
/// keep the border router's TCP-buffer budget full. The router's
/// socket for the dead incarnation only receives, so nothing on it
/// times out; the leaf's reconnect SYNs are refused for budget until
/// half-open discovery probes that socket and the leaf's RST frees it.
/// The leaf must reconnect and every reading must arrive exactly once.
#[test]
fn tree_leaf_reboot_reconnects_through_full_budget() {
    const ROUTERS: usize = 4;
    const LEAVES: usize = 4;
    let topo = Topology::office_tree(ROUTERS, LEAVES, 0.999);
    let mut kinds = vec![NodeKind::BorderRouter];
    kinds.extend(std::iter::repeat_n(NodeKind::Router, ROUTERS));
    kinds.extend(std::iter::repeat_n(NodeKind::SleepyLeaf, LEAVES));
    let mut world = World::new(&topo, &kinds, WorldConfig::default());
    world.add_tcp_listener(0, tcplp::TcpConfig::default());
    world.set_sink_capture(0);
    let first_leaf = 1 + ROUTERS;
    for l in 0..LEAVES {
        let leaf = first_leaf + l;
        let start = Instant::from_millis(100 + 40 * l as u64);
        world.add_supervised_client(leaf, 0, chaos_supervisor_cfg(), start);
        world.set_anemometer(leaf, 64, None, Instant::from_secs(1));
    }
    let plan = FaultPlan::new().reboot(first_leaf, Instant::from_secs(60), Duration::from_secs(20));
    world.apply_fault_plan(&plan);
    world.run_for(Duration::from_secs(180));
    world.assert_governor_bounded();

    assert_eq!(world.nodes[first_leaf].counters.get("reboots"), 1);
    let stats = world.supervisor_stats(first_leaf).expect("supervised leaf");
    assert!(stats.reconnects >= 1, "rebooted leaf never reconnected: {stats:?}");

    // Per leaf: no missing or duplicated records, and every reading is
    // delivered, retained by the supervisor, or still queued. A record
    // may be both delivered and retained (its ACK still in flight).
    for l in 0..LEAVES {
        let leaf = first_leaf + l;
        let addr = world.nodes[leaf].ip_addr();
        let mut asm = RecordAssembler::new();
        for ((remote, _port), bytes) in world.nodes[0].app.sink_capture() {
            if *remote == addr {
                asm.ingest_connection(bytes);
            }
        }
        assert_eq!(asm.missing(), Vec::<u64>::new(), "leaf {leaf}: missing records");
        assert_eq!(asm.duplicates(), 0, "leaf {leaf}: duplicated records");
        let App::Anemometer(app) = &world.nodes[leaf].app else {
            panic!("anemometer app expected");
        };
        let pending = world.nodes[leaf]
            .supervisor
            .as_ref()
            .expect("supervisor")
            .pending_records() as u64;
        assert!(
            asm.record_count() as u64 + pending + app.queue.len() as u64 >= app.generated,
            "leaf {leaf}: readings lost"
        );
    }
}

/// Route flap on a diamond: the client re-parents onto the alternate
/// path and the transfer still completes byte-exactly.
#[test]
fn route_flap_reparents_and_transfer_completes() {
    // 0 -- 1 -- 3 and 0 -- 2 -- 3: two equal-cost parents for node 3.
    let mut links = LinkMatrix::new(4);
    links.set_symmetric(RadioIdx(0), RadioIdx(1), 0.999);
    links.set_symmetric(RadioIdx(0), RadioIdx(2), 0.999);
    links.set_symmetric(RadioIdx(1), RadioIdx(3), 0.999);
    links.set_symmetric(RadioIdx(2), RadioIdx(3), 0.999);
    let topo = Topology::with_shortest_paths(links);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
            NodeKind::Router,
        ],
        WorldConfig::default(),
    );
    world.add_tcp_listener(0, tcplp::TcpConfig::default());
    world.set_sink_capture(0);
    world.add_supervised_client(3, 0, SupervisorConfig::default(), Instant::from_millis(10));
    world.set_bulk_sender(3, Some(20_000));
    let parent_before = world.nodes[3].routes.default_route;
    world.apply_fault_plan(&FaultPlan::new().route_flap(3, Instant::from_secs(5)));
    world.run_for(Duration::from_secs(120));
    world.assert_governor_bounded();

    assert_eq!(world.nodes[3].counters.get("route_flaps"), 1);
    let parent_after = world.nodes[3].routes.default_route;
    assert!(parent_before.is_some() && parent_after.is_some());
    assert_ne!(
        parent_before, parent_after,
        "flap must move the client to the alternate parent"
    );
    let asm = reassemble(&world, 0);
    assert_eq!(asm.assembled().expect("gap-free"), expected_pattern(20_000));
}

/// Blackouts restore the exact pre-fault PRRs when they end.
#[test]
fn blackout_zeroes_and_restores_link_quality() {
    let topo = Topology::chain(3, 0.95);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    let before = world.medium.links().prr(RadioIdx(1), RadioIdx(2));
    assert!(before > 0.0);
    world.apply_fault_plan(&FaultPlan::new().blackout(
        1,
        2,
        Instant::from_secs(1),
        Duration::from_secs(2),
    ));
    world.run_until(Instant::from_secs(2));
    assert_eq!(
        world.medium.links().prr(RadioIdx(1), RadioIdx(2)),
        0.0,
        "link must be dark mid-blackout"
    );
    assert_eq!(world.medium.links().prr(RadioIdx(2), RadioIdx(1)), 0.0);
    world.run_until(Instant::from_secs(5));
    assert_eq!(
        world.medium.links().prr(RadioIdx(1), RadioIdx(2)),
        before,
        "blackout end must restore the saved PRR"
    );
    assert_eq!(world.nodes[1].counters.get("link_blackouts"), 1);
}
