//! Allocation budget for sealed-frame admission.
//!
//! [`Device::process_sealed_burst`] parses each admitted frame in place
//! over the packet already in its output slot, so after one warm burst
//! the only per-frame allocation left is the payload buffer. A counting
//! `#[global_allocator]` (the one in `tests/burst_alloc.rs`) tallies every
//! `alloc`/`realloc` across steady-state bursts of 64 sealed frames on
//! the firewall program, one frame in 256 corrupted in flight; the
//! budget is 2 allocations per frame. Building a fresh packet per frame
//! costs about 33. Counts are deterministic, so the bound cannot flake.
//!
//! This file holds exactly one test so no sibling test thread can
//! allocate inside the counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use flexnet_dataplane::{
    encode_wire, flip_bits, seal_frame, Architecture, Device, FrameOutcome, StateEncoding,
};
use flexnet_types::{NodeId, Packet, SimTime};

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

const BURST: usize = 64;
const RING: usize = 256;
const MAX_ALLOCS_PER_FRAME: u64 = 2;

#[test]
fn steady_state_sealed_bursts_stay_within_allocation_budget_per_frame() {
    let bundle = flexnet_apps::security::firewall(64).expect("firewall builds");
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(bundle).expect("installs");

    let mut frames: Vec<Vec<u8>> = (0..RING as u64)
        .map(|i| {
            let pkt = Packet::tcp(i, (i % 251) as u32, (i % 17) as u32, 1, 80, 0x10);
            seal_frame(&encode_wire(&pkt))
        })
        .collect();
    flip_bits(&mut frames[RING / 2], 0xBAD5EED, 1);

    let mut pkts = Vec::new();
    let mut out = Vec::new();
    // Warmup: one burst grows the packet slots, the outcome and result
    // buffers, and the VM scratch to steady-state size.
    dev.process_sealed_burst(&frames[..BURST], 0, SimTime::ZERO, &mut pkts, &mut out)
        .expect("warmup burst");

    let mut processed = 0;
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for (b, burst) in frames.chunks(BURST).enumerate() {
        let first_id = (b * BURST) as u64;
        dev.process_sealed_burst(burst, first_id, SimTime::ZERO, &mut pkts, &mut out)
            .expect("measured burst");
        processed += out
            .iter()
            .filter(|o| matches!(o, FrameOutcome::Processed(_)))
            .count();
    }
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(processed, RING - 1, "all but the corrupted frame admitted");
    assert!(
        allocs <= MAX_ALLOCS_PER_FRAME * RING as u64,
        "sealed admission allocated {allocs} times across {RING} frames \
         ({:.2} per frame, budget {MAX_ALLOCS_PER_FRAME})",
        allocs as f64 / RING as f64
    );
}
