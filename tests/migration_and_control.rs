//! Integration: state migration under live updates (paper §3.4), dRPC
//! dispatch from device invocation logs, replication failover, and a
//! Raft-backed controller surviving node loss.

use flexnet::apps::telemetry::{cms_estimate, count_min_sketch};
use flexnet::prelude::*;
use flexnet_controller::drpc::ExecutionSite;
use flexnet_controller::raft::Role;

fn sketch_device(id: u32) -> Device {
    let mut d = Device::new(
        NodeId(id),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    d.install(count_min_sketch(4, 256).unwrap()).unwrap();
    d
}

#[test]
fn sketch_migration_dataplane_lossless_controlplane_lossy() {
    let (depth, width) = (4, 256);
    let mut src = sketch_device(1);
    // 500 packets of one flow before migration starts.
    for i in 0..500 {
        let mut p = Packet::tcp(i, 10, 20, 1, 2, 0);
        src.process(&mut p, SimTime::ZERO).unwrap();
    }

    // Control-plane migration: 100 more packets land during the window.
    let mut dst_cp = sketch_device(2);
    let m = Migration::begin(&src, MigrationStrategy::ControlPlane, SimTime::ZERO).unwrap();
    for i in 500..600 {
        let mut p = Packet::tcp(i, 10, 20, 1, 2, 0);
        src.process(&mut p, SimTime::from_millis(1)).unwrap();
    }
    let done = m.completes_at();
    let rep_cp = m.finish(&src, &mut dst_cp, done).unwrap();
    let est_cp = cms_estimate(&dst_cp.program().unwrap().state, depth, width, 10, 20, 6);
    assert_eq!(est_cp, 500, "control-plane copy missed the 100 in-flight updates");
    assert!(rep_cp.blackout > SimDuration::ZERO);

    // Data-plane migration of the same source captures everything.
    let mut dst_dp = sketch_device(3);
    let m = Migration::begin(&src, MigrationStrategy::DataPlane, SimTime::ZERO).unwrap();
    for i in 600..650 {
        let mut p = Packet::tcp(i, 10, 20, 1, 2, 0);
        src.process(&mut p, SimTime::from_micros(1)).unwrap();
    }
    let done = m.completes_at();
    let rep_dp = m.finish(&src, &mut dst_dp, done).unwrap();
    let est_dp = cms_estimate(&dst_dp.program().unwrap().state, depth, width, 10, 20, 6);
    assert_eq!(est_dp, 650, "data-plane migration is lossless");
    assert_eq!(rep_dp.blackout, SimDuration::ZERO);
    assert!(
        rep_dp.completed.saturating_since(rep_dp.started)
            < rep_cp.completed.saturating_since(rep_cp.started),
        "data-plane migration is also faster"
    );
}

#[test]
fn device_invocations_flow_to_drpc_registry() {
    // A tenant program invokes the infra-provided migrate_state service;
    // the simulator logs it; the registry dispatches and times it.
    let bundle = {
        let file = parse_source(
            "program caller kind any {
               service require migrate_state(dst: u32);
               counter calls;
               handler ingress(pkt) {
                 if (tcp.dport == 4444) { invoke migrate_state(9); count(calls); }
                 forward(0);
               }
             }",
        )
        .unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    };
    let (topo, sw, hosts) = Topology::single_switch(2);
    let mut sim = Simulation::new(topo);
    sim.schedule(SimTime::ZERO, Command::Install { node: sw, bundle });
    let mut deps = Vec::new();
    for i in 0..5u64 {
        let mut p = Packet::tcp(i, 1, 2, 3, 4444, 0x10);
        p.metadata.insert("dst_node", hosts[1].raw() as u64);
        deps.push(flexnet_sim::Departure {
            at: SimTime::from_millis(1 + i),
            node: hosts[0],
            packet: p,
        });
    }
    sim.load(deps);
    sim.run_to_completion();
    assert_eq!(sim.invocation_log.len(), 5);

    let mut registry = ServiceRegistry::new();
    registry
        .register("migrate_state", sw, 1, ExecutionSite::DataPlane)
        .unwrap();
    let results = registry.dispatch(&sim.invocation_log, 2);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(registry.log.len(), 5);
    // dRPC latency is microseconds, far under the 2 ms controller RTT.
    assert!(registry.log[0].latency < SimDuration::from_millis(1));
}

#[test]
fn replication_failover_preserves_synced_state() {
    let mut primary = sketch_device(1);
    let mut replica = sketch_device(2);
    for i in 0..100 {
        let mut p = Packet::tcp(i, 5, 6, 1, 2, 0);
        primary.process(&mut p, SimTime::ZERO).unwrap();
    }
    let mut group = ReplicationGroup::new(NodeId(1), vec![NodeId(2)]);
    // Controller sync: cut an epoch, copy the snapshot, record it.
    let epoch = group.cut_epoch(SimTime::from_secs(1));
    let snap = primary.snapshot_state().unwrap();
    replica.restore_state(&snap).unwrap();
    group.record_applied(NodeId(2), epoch).unwrap();

    // Primary dies; replica promotes with zero lost epochs…
    let report = group.fail_node(NodeId(1)).unwrap().unwrap();
    assert_eq!(report.promoted, NodeId(2));
    assert_eq!(report.lost_epochs, 0);
    // …and serves the replicated counts.
    let est = cms_estimate(&replica.program().unwrap().state, 4, 256, 5, 6, 6);
    assert_eq!(est, 100);
}

#[test]
fn raft_controllers_keep_piloting_after_leader_loss() {
    let mut cluster = RaftCluster::new(5, 2026);
    let l1 = cluster
        .run_until_leader(SimDuration::from_secs(5))
        .expect("initial leader");
    cluster.propose("install infra@switch0").unwrap();
    cluster.propose("tenant 1 arrive vlan100").unwrap();
    cluster.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));

    cluster.kill(l1).unwrap();
    cluster.run_for(SimDuration::from_secs(2), SimDuration::from_millis(10));
    let l2 = cluster.leader().expect("re-elected");
    assert_ne!(l1, l2);
    assert_eq!(cluster.role(l2), Role::Leader);

    // The management log survived, and new decisions append to it.
    cluster.propose("tenant 2 arrive vlan101").unwrap();
    cluster.run_for(SimDuration::from_secs(1), SimDuration::from_millis(10));
    let log = cluster.committed(l2).unwrap();
    assert_eq!(
        log,
        vec![
            "install infra@switch0".to_string(),
            "tenant 1 arrive vlan100".to_string(),
            "tenant 2 arrive vlan101".to_string(),
        ]
    );
}
