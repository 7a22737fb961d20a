//! Allocation budget for the sim engine's per-hop path.
//!
//! Running a loaded leaf-spine simulation to completion must allocate at
//! most [`MAX_ALLOCS_PER_PACKET`] times per injected packet. A counting
//! `#[global_allocator]` wraps the system allocator and tallies every
//! `alloc`/`realloc` inside the measured window. The count is a pure
//! function of the scenario, so the bound cannot flake.
//!
//! What remains per packet is the hop counter's key (first hop only), the
//! growth of the packet's audit trail, and amortized growth of the
//! metrics vectors; departures wait in a pre-sorted stream rather than
//! the event heap, and each hop reuses the device's burst scratch.
//!
//! This file holds exactly one test so no sibling test thread can
//! allocate inside the counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use flexnet_sim::{generate, Command, FlowSpec, Pattern, Simulation, Topology};
use flexnet_types::{SimDuration, SimTime};

/// Counts allocations while `COUNTING` is set; otherwise a transparent
/// passthrough to the system allocator.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The budget, with headroom over the ≈3.4 per packet this scenario makes.
const MAX_ALLOCS_PER_PACKET: f64 = 6.0;

#[test]
fn engine_run_stays_within_allocation_budget_per_packet() {
    let (topo, spines, leaves, hosts) = Topology::leaf_spine(2, 4, 4);
    let mut sim = Simulation::new(topo);
    let firewall = flexnet_apps::security::firewall(256).expect("firewall builds");
    for &node in spines.iter().chain(&leaves) {
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node,
                bundle: firewall.clone(),
            },
        );
    }
    // Every host sends to the matching host one leaf over, so every packet
    // crosses leaf, spine, leaf.
    let flows: Vec<FlowSpec> = hosts
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            let mut f = FlowSpec::udp_cbr(
                src,
                hosts[(i + 4) % hosts.len()],
                0,
                SimTime::from_micros(10),
                SimDuration::from_millis(10),
            );
            f.pattern = Pattern::Poisson { mean_pps: 20_000 };
            f
        })
        .collect();
    sim.load(generate(&flows, 7));

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_to_completion();
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let sent = sim.metrics.sent;
    assert!(sent > 2_000, "sent {sent}");
    assert_eq!(sim.metrics.delivered, sent, "errors: {:?}", &sim.errors[..]);
    let per_packet = allocs as f64 / sent as f64;
    assert!(
        per_packet <= MAX_ALLOCS_PER_PACKET,
        "{allocs} allocations over {sent} packets = {per_packet:.2} per packet, \
         budget {MAX_ALLOCS_PER_PACKET}"
    );
}
