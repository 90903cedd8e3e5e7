//! Allocation budget of the steady-state frame path.
//!
//! A warmed-up bulk transfer must run out of the node, frame and
//! segment pools: PHY delivery, fragmentation, reassembly, forwarding
//! and the TCP transmit path allocate nothing per segment. The counting
//! allocator is per thread, so tests running in parallel do not pollute
//! each other's counts.

use lln_mac::MacConfig;
use lln_node::route::Topology;
use lln_node::stack::NodeKind;
use lln_node::world::{World, WorldConfig};
use lln_phy::LinkMatrix;
use lln_sim::{Duration, Instant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcplp::TcpConfig;

/// Counts this thread's allocation calls, then defers to `System`.
struct ThreadCounting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes
// and, being a const-initialised `Cell`, never allocates itself.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from our caller, who meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move the block, so it counts as an allocation.
        count();
        // SAFETY: `ptr` came from `System` with `layout`; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// An uplink bulk transfer over a `hops`-hop chain to a sink at node 0.
/// Chain neighbours two apart cannot hear each other, so every relay
/// sits between hidden terminals.
fn chain(hops: usize, relay_loss: f64) -> World {
    let topo = Topology::with_shortest_paths(LinkMatrix::chain(hops + 1, 0.999));
    let cfg = WorldConfig {
        seed: 7,
        mac: MacConfig {
            retry_delay_max: Duration::from_millis(40),
            ..MacConfig::default()
        },
        ..WorldConfig::default()
    };
    let mut world = World::new(&topo, &vec![NodeKind::Router; hops + 1], cfg);
    world.add_tcp_listener(0, TcpConfig::default());
    world.set_sink(0);
    world.add_tcp_client(hops, 0, TcpConfig::default(), Instant::from_millis(10));
    world.set_bulk_sender(hops, None);
    if relay_loss > 0.0 {
        world.set_injected_loss(1, relay_loss);
    }
    world
}

fn segs_accepted(world: &World) -> u64 {
    world.nodes[0]
        .transport
        .tcp
        .iter()
        .map(|s| s.stats.segs_rcvd)
        .sum()
}

/// Warms `world` up, then returns (allocations, accepted segments) over
/// the measured span.
fn measure(mut world: World, warmup: Duration, span: Duration) -> (u64, u64) {
    world.run_for(warmup);
    let (a0, s0) = (allocs(), segs_accepted(&world));
    world.run_for(span);
    (allocs() - a0, segs_accepted(&world) - s0)
}

fn assert_budget(name: &str, (allocs, segs): (u64, u64), per_seg: f64) {
    assert!(segs > 100, "{name}: only {segs} segments accepted");
    let rate = allocs as f64 / segs as f64;
    assert!(
        rate <= per_seg,
        "{name}: {allocs} allocations over {segs} accepted segments = {rate:.3}/segment, \
         budget {per_seg}"
    );
}

#[test]
fn one_hop_bulk_runs_out_of_the_pools() {
    let counts = measure(
        chain(1, 0.0),
        Duration::from_secs(10),
        Duration::from_secs(60),
    );
    assert_budget("1-hop bulk", counts, 1.0);
}

#[test]
fn lossy_three_hop_chain_runs_out_of_the_pools() {
    let counts = measure(
        chain(3, 0.05),
        Duration::from_secs(20),
        Duration::from_secs(200),
    );
    assert_budget("3-hop chain, 5% relay loss", counts, 3.0);
}
