//! Paper §3.4: "in-network monitoring, execution tracking, and diagnosis
//! primitives will prove useful for runtime programmable app management …
//! These 'utility' functions for network control do not have a persistent
//! footprint inside the network, but are injected in real-time for
//! maintenance tasks and removed soon after."
//!
//! End-to-end: inject the path tracer onto every switch of a leaf-spine
//! fabric at runtime, verify a probe's fingerprint identifies its exact
//! path, then retire the utility and confirm the footprint is gone.

use flexnet::apps::telemetry::{path_tracer, trace_fingerprint};
use flexnet::prelude::*;

#[test]
fn inject_trace_retire_cycle() {
    let (topo, spines, leaves, hosts) = Topology::leaf_spine(2, 2, 1);
    let mut sim = Simulation::new(topo);

    // Baseline: switches run nothing (default forwarding); snapshot their
    // resource usage.
    let idle_use: Vec<_> = leaves
        .iter()
        .chain(spines.iter())
        .map(|&n| sim.topo.node(n).unwrap().device.used())
        .collect();

    // t=1ms: inject the tracer on every switch, at runtime.
    for &n in leaves.iter().chain(spines.iter()) {
        sim.schedule(
            SimTime::from_millis(1),
            Command::RuntimeReconfig {
                node: n,
                bundle: path_tracer(n.raw()).unwrap(),
            },
        );
    }
    // Wait out the transitions, then send one probe cross-pod.
    sim.run(SimTime::from_millis(200));
    let mut probe = Packet::udp(1, 1, 2, 3, 4);
    probe.metadata.insert("dst_node", hosts[1].raw() as u64);
    sim.metrics.keep_packets = true;
    sim.schedule(
        SimTime::from_millis(250),
        Command::Inject {
            node: hosts[0],
            packet: probe,
        },
    );
    sim.run(SimTime::from_millis(400));

    assert_eq!(sim.metrics.delivered, 1, "probe delivered: {:?}", sim.errors);
    let delivered = &sim.metrics.delivered_packets[0];
    let fingerprint = delivered.metadata["trace"];
    let depth = delivered.metadata["trace_depth"];

    // Reconstruct the path from the packet's device trace (ground truth)
    // and check the in-band fingerprint identifies exactly that switch
    // sequence.
    let switch_path: Vec<u32> = delivered
        .trace
        .iter()
        .map(|(n, _)| n.raw())
        .filter(|id| {
            leaves.iter().chain(spines.iter()).any(|s| s.raw() == *id)
        })
        .collect();
    assert_eq!(depth, switch_path.len() as u64);
    assert_eq!(fingerprint, trace_fingerprint(&switch_path));
    // Both pods' leaves were crossed (cross-pod probe).
    assert!(switch_path.len() >= 2);

    // Retire the utility everywhere: "removed soon after".
    for &n in leaves.iter().chain(spines.iter()) {
        sim.schedule(
            SimTime::from_millis(500),
            Command::RuntimeReconfig {
                node: n,
                bundle: ProgramBundle::new(
                    parse_program(
                        "program idle kind any { handler ingress(pkt) { forward(0); } }",
                    )
                    .unwrap(),
                ),
            },
        );
    }
    sim.run(SimTime::from_secs(2));
    for (i, &n) in leaves.iter().chain(spines.iter()).enumerate() {
        let dev = &sim.topo.node(n).unwrap().device;
        assert!(
            dev.program().unwrap().bundle.program.name == "idle",
            "tracer retired on {n}"
        );
        // No persistent footprint: usage back to (at most) baseline plus
        // the trivial idle handler.
        let now = dev.used().heuristic_weight();
        let before = idle_use[i].heuristic_weight();
        assert!(
            now <= before + 2,
            "{n}: footprint {now} should return to ~baseline {before}"
        );
    }
}
