//! End-to-end tests of the full simulated stack: TCPlp over 6LoWPAN
//! over the CSMA MAC over the radio medium, through multihop routes,
//! the border router, sleepy leaves and the CoAP path.

use lln_node::app::App;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_sim::{Duration, Instant};
use tcplp::{TcpConfig, TcpState};

fn tcp_cfg() -> TcpConfig {
    TcpConfig::default()
}

/// Builds a bulk uplink flow from `src` to `dst` and runs it.
fn run_bulk(world: &mut World, src: usize, dst: usize, bytes: u64, span: Duration) -> f64 {
    world.add_tcp_listener(dst, tcp_cfg());
    world.set_sink(dst);
    world.add_tcp_client(src, dst, tcp_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(src, Some(bytes));
    world.run_for(span);
    // No-leak invariant: once the transfer quiesces, every transient
    // memory class must return to zero and never have exceeded its cap.
    world.assert_governor_drained();
    world.nodes[dst].app.sink_goodput_bps()
}

#[test]
fn single_hop_bulk_transfer_reaches_paper_range() {
    let topo = Topology::pair(0.999);
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    let goodput = run_bulk(&mut world, 1, 0, 200_000, Duration::from_secs(60));
    let received = world.nodes[0].app.sink_received();
    assert_eq!(received, 200_000, "all bytes must arrive");
    // Paper §6.3: 63-75 kb/s over a single hop depending on the stack.
    assert!(
        goodput > 45_000.0 && goodput < 85_000.0,
        "single-hop goodput {goodput:.0} b/s outside the paper's ballpark"
    );
    // The steady state matches FreeBSD's header-prediction predicate:
    // the receiver's in-order data and the sender's pure ACKs are
    // counted as predicted.
    let sender = &world.nodes[1].transport.tcp[0].stats;
    let receiver = &world.nodes[0].transport.tcp[0].stats;
    assert!(
        sender.predicted_acks > 0,
        "sender predicted no pure ACKs in a clean bulk transfer"
    );
    assert!(
        receiver.predicted_data > 0,
        "receiver predicted no in-order data in a clean bulk transfer"
    );
}

#[test]
fn three_hop_chain_transfer() {
    let topo = Topology::chain(4, 0.999);
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
    let goodput = run_bulk(&mut world, 3, 0, 100_000, Duration::from_secs(120));
    let received = world.nodes[0].app.sink_received();
    assert_eq!(received, 100_000);
    // Paper §7.2: ~19.5 kb/s over three hops (we accept a broad band).
    assert!(
        goodput > 10_000.0 && goodput < 35_000.0,
        "three-hop goodput {goodput:.0} b/s implausible"
    );
}

#[test]
fn transfer_survives_lossy_links() {
    let topo = Topology::chain(2, 0.90); // 10% frame loss, link retries mask it
    let mut world = World::new(
        &topo,
        &[NodeKind::Router, NodeKind::Router],
        WorldConfig::default(),
    );
    let _ = run_bulk(&mut world, 1, 0, 50_000, Duration::from_secs(120));
    assert_eq!(world.nodes[0].app.sink_received(), 50_000);
}

#[test]
fn leaf_to_cloud_over_border_router() {
    // leaf(3) -> router(2) -> border(1)... build chain: cloud(0) is
    // wired; mesh chain border(1) - router(2) - leaf(3)? Use a 4-node
    // matrix where node 0 has no radio links (cloud).
    let mut links = lln_phy::LinkMatrix::new(4);
    links.set_symmetric(lln_phy::RadioIdx(1), lln_phy::RadioIdx(2), 0.999);
    links.set_symmetric(lln_phy::RadioIdx(2), lln_phy::RadioIdx(3), 0.999);
    let topo = Topology::with_shortest_paths(links);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::CloudHost,
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
        ],
        WorldConfig::default(),
    );
    world.add_tcp_listener(0, tcp_cfg());
    world.set_sink(0);
    world.add_tcp_client(3, 0, tcp_cfg(), Instant::from_millis(10));
    world.set_bulk_sender(3, Some(30_000));
    world.run_for(Duration::from_secs(60));
    world.assert_governor_drained();
    assert_eq!(
        world.nodes[0].app.sink_received(),
        30_000,
        "cloud sink must receive everything via the wired segment"
    );
    let client = &world.nodes[3].transport.tcp[0];
    assert_eq!(client.state(), TcpState::Established);
}

#[test]
fn sleepy_leaf_tcp_roundtrip() {
    // leaf(2, sleepy) -> border(0); router 1 in between.
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
    world.add_tcp_listener(0, tcp_cfg());
    world.set_sink(0);
    world.add_tcp_client(2, 0, tcp_cfg(), Instant::from_millis(100));
    world.set_bulk_sender(2, Some(10_000));
    world.run_for(Duration::from_secs(120));
    // Indirect (sleepy-child) queues may legitimately hold a packet
    // awaiting the next poll at the horizon, so assert caps only.
    world.assert_governor_bounded();
    assert_eq!(
        world.nodes[0].app.sink_received(),
        10_000,
        "duty-cycled leaf must complete the transfer (SYN-ACK and TCP \
         ACKs flow through the indirect queue)"
    );
    // The leaf must actually have slept: duty cycle well below 100%.
    let now = world.now();
    let dc = world.nodes[2].meter.radio_duty_cycle(now);
    assert!(dc < 0.9, "sleepy leaf radio duty cycle {dc:.3} too high");
}

#[test]
fn anemometer_over_coap_delivers_readings() {
    let mut links = lln_phy::LinkMatrix::new(4);
    links.set_symmetric(lln_phy::RadioIdx(1), lln_phy::RadioIdx(2), 0.999);
    links.set_symmetric(lln_phy::RadioIdx(2), lln_phy::RadioIdx(3), 0.999);
    let topo = Topology::with_shortest_paths(links);
    let mut world = World::new(
        &topo,
        &[
            NodeKind::CloudHost,
            NodeKind::BorderRouter,
            NodeKind::Router,
            NodeKind::Router,
        ],
        WorldConfig::default(),
    );
    world.add_coap_server(0);
    world.add_coap_client(
        3,
        lln_coap::CoapClient::new(
            lln_coap::CoapClientConfig::default(),
            lln_coap::RtoAlgorithm::Default,
            &["sensors"],
        ),
    );
    world.set_anemometer(3, 104, None, Instant::from_secs(1));
    world.run_for(Duration::from_secs(60));
    // The anemometer keeps generating at the horizon: assert caps only.
    world.assert_governor_bounded();
    let server = world.nodes[0].transport.coap_server.as_ref().unwrap();
    let delivered = server.received_count();
    let App::Anemometer(app) = &world.nodes[3].app else {
        panic!("app")
    };
    assert!(
        delivered as u64 >= app.generated.saturating_sub(3),
        "CoAP must deliver readings: got {delivered} of {}",
        app.generated
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let topo = Topology::chain(3, 0.95);
        let mut world = World::new(
            &topo,
            &[NodeKind::Router, NodeKind::Router, NodeKind::Router],
            WorldConfig::default(),
        );
        let g = run_bulk(&mut world, 2, 0, 30_000, Duration::from_secs(60));
        (g, world.medium.counters.get("frames_tx"))
    };
    assert_eq!(run(), run(), "same seed, same world, same outcome");
}
