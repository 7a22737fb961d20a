//! Allocation budget for building packets.
//!
//! `generate` on a 16-flow TCP workload must allocate at most
//! [`MAX_ALLOCS_PER_PACKET`] times per generated packet. A counting
//! `#[global_allocator]` wraps the system allocator and tallies every
//! `alloc`/`realloc` inside the measured window. The count is a pure
//! function of the scenario, so the bound cannot flake.
//!
//! A TCP packet is one header vector, one field vector per header (eth,
//! ipv4, tcp) and one metadata vector holding `dst_node`: five
//! allocations, all names interned statics. What is left over is the
//! amortized growth of the departure vector and the sort's buffer.
//!
//! This file holds exactly one test so no sibling test thread can
//! allocate inside the counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use flexnet_sim::{generate, FlowSpec, Pattern};
use flexnet_types::{NodeId, SimDuration, SimTime};

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

/// The budget: five allocations per TCP packet, plus one of headroom.
const MAX_ALLOCS_PER_PACKET: f64 = 6.0;

#[test]
fn generate_stays_within_allocation_budget_per_packet() {
    let flows: Vec<FlowSpec> = (0..16u32)
        .map(|i| {
            let mut f = FlowSpec::udp_cbr(
                NodeId(i),
                NodeId((i + 4) % 16),
                0,
                SimTime::from_micros(10),
                SimDuration::from_millis(10),
            );
            f.proto = 6;
            f.pattern = Pattern::Poisson { mean_pps: 20_000 };
            f
        })
        .collect();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let deps = generate(&flows, 7);
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let packets = deps.len() as u64;
    assert!(packets > 2_000, "generated {packets}");
    assert!(deps.iter().all(|d| d.packet.has_header("tcp")));
    let per_packet = allocs as f64 / packets as f64;
    assert!(
        per_packet <= MAX_ALLOCS_PER_PACKET,
        "{allocs} allocations over {packets} packets = {per_packet:.2} per packet, \
         budget {MAX_ALLOCS_PER_PACKET}"
    );
}
