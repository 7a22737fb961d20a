//! The `reconfig` workload: a closed loop of fleet-wide intents under
//! light background traffic.
//!
//! Each intent is FlexBPF source text, alternating between two firewall
//! variants. It goes through the front end and then
//! `logged_transactional_reconfig` over a 3-node Raft intent log on
//! simulated disks, reaching the six switches of a 2-spine, 4-leaf fabric
//! over a control fabric that loses 5% of messages. Between intents the
//! leaves take `add_entry`/`remove_entry` churn while background Poisson
//! traffic crosses the fabric, so writes to program, tables and log sit
//! beside packet reads.

use crate::ledger::Ledger;
use crate::pin;
use crate::report::{mean, median, peak_rss_mb, percentile, OpTimes, Report};
use flexnet_controller::retry::{LossyFabric, RetryPolicy};
use flexnet_controller::txn::{logged_transactional_reconfig, LoggedTxnOutcome};
use flexnet_controller::{IntendedStore, IntentRecord, ReplicatedIntentLog};
use flexnet_dataplane::device::InstalledProgram;
use flexnet_dataplane::{Architecture, Device, KeyMatch, StateEncoding, TableEntry};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::ProgramBundle;
use flexnet_sim::{generate, FlowSpec, Pattern, Simulation, Topology};
use flexnet_types::{NodeId, ProgramVersion, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Leaves and switches of the fleet, `leaf_spine(2, LEAVES, 2)`.
const LEAVES: usize = 4;
const SWITCHES: usize = 2 + LEAVES;
/// Controller replicas of the intent log.
const CONTROLLERS: usize = 3;
/// Loss probability of the controller-to-device fabric.
const CONTROL_LOSS: f64 = 0.05;
/// Simulated time each intent's traffic window spans: longer than a
/// typical intent takes to converge, so traffic crosses the flips.
const WINDOW: SimDuration = SimDuration::from_millis(100);
/// Mean packets per second of each background flow.
const BG_PPS: u64 = 50;
/// The log is compacted every this many intents.
const COMPACT_EVERY: u64 = 64;
/// Intents per fleet. A fleet's simulated-time figures are taken over
/// them, and every later fleet of the run must reproduce them exactly.
const FLEET_INTENTS: usize = 1024;
/// Intents per block of the packet-rate median.
const PPS_BLOCK: usize = 64;
/// Fleet builds timed alone at the start of a run; `setup_s` is the
/// mean of these and of every measured fleet's build.
const SETUPS: usize = 32;
/// Control messages a committed intent needs at least: a prepare and a
/// commit per switch.
const MIN_MESSAGES_PER_SWITCH: u32 = 2;

/// The firewall template; `EXTRA_DECL` and `EXTRA_STMT` tell the two
/// variants apart.
const TEMPLATE: &str = "program fw kind any {
  map blocked : map<u32, u8>[1024];
  counter dropped;
  EXTRA_DECL
  table acl {
    key { ipv4.src : exact; tcp.dport : exact; }
    action deny() { count(dropped); drop(); }
    action allow() { forward(0); }
    default allow();
    size 1024;
  }
  handler ingress(pkt) {
    EXTRA_STMT
    if (map_get(blocked, ipv4.src) == 1) { count(dropped); drop(); }
    apply acl;
    forward(0);
  }
}";

/// Source text of variant `v` (0 or 1).
fn variant(v: u64) -> String {
    let (decl, stmt) = if v == 0 {
        ("", "")
    } else {
        ("counter seen;", "count(seen);")
    };
    TEMPLATE
        .replace("EXTRA_DECL", decl)
        .replace("EXTRA_STMT", stmt)
}

/// The front end an intent's text goes through: parse, type check and
/// verify.
fn frontend(src: &str) -> ProgramBundle {
    flexnet_apps::build(src).expect("intent source builds")
}

/// A bootstrapped fleet with its controller.
struct Fleet {
    sim: Simulation,
    switches: Vec<NodeId>,
    leaves: Vec<NodeId>,
    flows: Vec<FlowSpec>,
    log: ReplicatedIntentLog,
    fabric: LossyFabric,
    policy: RetryPolicy,
    store: IntendedStore,
    seed: u64,
    intents: u64,
}

fn fleet(seed: u64) -> Fleet {
    let (topo, spines, leaves, hosts) = Topology::leaf_spine(2, LEAVES, 2);
    let mut sim = Simulation::new(topo);
    sim.metrics.keep_packets = true;
    let switches: Vec<NodeId> = spines.iter().chain(&leaves).copied().collect();
    let bundle = frontend(&variant(0));
    for &n in &switches {
        sim.topo
            .node_mut(n)
            .expect("switch exists")
            .device
            .install(bundle.clone())
            .expect("variant 0 installs");
    }
    let ip = |n: NodeId| 0x0a00_0000 | n.raw();
    // Each host sends to the host two places on, which sits on the next leaf.
    let flows = hosts
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            let dst = hosts[(i + 2) % hosts.len()];
            FlowSpec {
                src_node: src,
                dst_node: dst,
                src_ip: ip(src),
                dst_ip: ip(dst),
                src_port: 20_000 + i as u16,
                dst_port: 80,
                proto: 6,
                pattern: Pattern::Poisson { mean_pps: BG_PPS },
                start: SimTime::ZERO,
                duration: WINDOW,
                payload: 64 + 180 * i as u32,
            }
        })
        .collect();
    Fleet {
        sim,
        switches,
        leaves,
        flows,
        log: ReplicatedIntentLog::new(CONTROLLERS, seed).expect("intent log elects a leader"),
        fabric: LossyFabric::new(CONTROL_LOSS, seed),
        policy: RetryPolicy::default(),
        store: IntendedStore::new(),
        seed,
        intents: 0,
    }
}

/// Clock-free counts and simulated-time figures of one intent; a replay
/// of the same seed must reproduce them exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IntentCounts {
    messages: u32,
    fsyncs: u64,
    appends: u64,
    converge_ns: u64,
    delivered: u64,
}

/// Wall-clock parts of one intent.
#[derive(Debug, Default, Clone, Copy)]
struct IntentWall {
    total_ns: u64,
    frontend_ns: u64,
    insert_ns: u64,
    remove_ns: u64,
}

impl Fleet {
    fn fsyncs(&mut self) -> u64 {
        let cluster = self.log.cluster_mut();
        (0..CONTROLLERS)
            .map(|i| {
                cluster
                    .storage(i)
                    .map_or(0, |s| s.wal().disk().stats().fsyncs)
            })
            .sum()
    }

    fn committed_entries(&mut self) -> u64 {
        let cluster = self.log.cluster_mut();
        cluster
            .leader()
            .and_then(|l| cluster.commit_index(l).ok())
            .unwrap_or(0)
    }

    fn versions(&self) -> BTreeMap<NodeId, ProgramVersion> {
        self.switches
            .iter()
            .map(|&n| (n, self.sim.topo.node(n).expect("switch").device.version()))
            .collect()
    }

    fn digests_converged(&self) -> bool {
        let intended = self.store.intended_digests();
        self.switches.iter().all(|n| {
            intended.get(n)
                == Some(
                    &self
                        .sim
                        .topo
                        .node(*n)
                        .expect("switch")
                        .device
                        .config_digest(),
                )
        })
    }

    /// Runs one intent with its traffic window and churn, checking every
    /// outcome.
    fn intent(&mut self, report: &mut Report) -> (IntentCounts, IntentWall) {
        let k = self.intents;
        self.intents += 1;
        let t0 = self.sim.now();
        let flows: Vec<FlowSpec> = self
            .flows
            .iter()
            .map(|f| FlowSpec {
                start: t0,
                ..f.clone()
            })
            .collect();
        self.sim.load(generate(
            &flows,
            self.seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        let before = self.versions();
        let fsyncs0 = self.fsyncs();
        let appends0 = self.committed_entries();
        let delivered0 = self.sim.metrics.delivered;
        let lost0 = self.sim.metrics.total_lost();
        let mut wall = IntentWall::default();

        // The intent: source text to a committed transaction.
        let src = variant((k + 1) % 2);
        let start = Instant::now();
        let bundle = frontend(&src);
        wall.frontend_ns = start.elapsed().as_nanos() as u64;
        let targets: Vec<(NodeId, ProgramBundle)> =
            self.switches.iter().map(|&n| (n, bundle.clone())).collect();
        let rep = logged_transactional_reconfig(
            &mut self.sim,
            &targets,
            t0,
            &mut self.fabric,
            &self.policy,
            &mut self.log,
            None,
            Some(&mut self.store),
            None,
        );
        wall.total_ns = start.elapsed().as_nanos() as u64;
        let (messages, commit_at) = match &rep {
            Ok(r) if r.outcome == LoggedTxnOutcome::Committed => {
                (r.messages, r.commit_at.unwrap_or(r.finished_at))
            }
            other => {
                report.check(false, || format!("intent {k} did not commit: {other:?}"));
                (0, t0)
            }
        };

        // Convergence: every switch's digest equals the intended digest.
        let mut at = commit_at.max(t0);
        self.sim.run(at);
        while !self.digests_converged() && at < t0 + SimDuration::from_secs(1) {
            at += SimDuration::from_micros(100);
            self.sim.run(at);
        }
        let converged = self.digests_converged();
        report.check(converged, || {
            format!("intent {k}: fleet digests never converged")
        });

        // Churn: an entry in and out of every leaf's ACL, matching no flow.
        let entry = TableEntry::exact(
            &[0xc0a8_0000 | (k & 0xffff), 443],
            ActionCall {
                action: "deny".into(),
                args: vec![],
            },
        );
        for i in 0..self.leaves.len() {
            let leaf = self.leaves[i];
            let dev = &mut self.sim.topo.node_mut(leaf).expect("leaf").device;
            let start = Instant::now();
            let added = dev.add_entry("acl", entry.clone());
            wall.insert_ns += start.elapsed().as_nanos() as u64;
            report.check(added.is_ok(), || {
                format!("intent {k}: add_entry on {leaf}: {added:?}")
            });
        }
        self.sim.run(self.sim.now() + SimDuration::from_micros(200));
        let matches = vec![
            KeyMatch::Exact(0xc0a8_0000 | (k & 0xffff)),
            KeyMatch::Exact(443),
        ];
        for i in 0..self.leaves.len() {
            let leaf = self.leaves[i];
            let dev = &mut self.sim.topo.node_mut(leaf).expect("leaf").device;
            let start = Instant::now();
            let removed = dev.remove_entry("acl", &matches);
            wall.remove_ns += start.elapsed().as_nanos() as u64;
            report.check(matches!(removed, Ok(1)), || {
                format!("intent {k}: remove_entry on {leaf}: {removed:?}")
            });
        }
        let end = (t0 + WINDOW).max(self.sim.now());
        self.sim.run(end);
        report.check(self.digests_converged(), || {
            format!("intent {k}: digests diverged after churn")
        });

        // Old XOR new: each delivered packet saw one version per switch,
        // and that version was the switch's old or its new one.
        let after = self.versions();
        let packets = std::mem::take(&mut self.sim.metrics.delivered_packets);
        let mixed = packets
            .iter()
            .filter(|p| {
                let mut seen: BTreeMap<NodeId, ProgramVersion> = BTreeMap::new();
                p.trace.iter().any(|&(n, v)| {
                    let known = before
                        .get(&n)
                        .is_none_or(|&b| b == v || after.get(&n) == Some(&v));
                    !known || *seen.entry(n).or_insert(v) != v
                })
            })
            .count() as u64;
        report.tally(packets.len() as u64, mixed, || {
            format!("intent {k}: {mixed} delivered packets saw a mixed program")
        });
        let lost = self.sim.metrics.total_lost() - lost0;
        report.check(lost == 0, || {
            format!("intent {k}: {lost} background packets lost")
        });

        if (k + 1).is_multiple_of(COMPACT_EVERY) {
            let compacted = self.log.compact();
            report.check(compacted.is_ok(), || {
                format!("intent {k}: compaction: {compacted:?}")
            });
        }
        let counts = IntentCounts {
            messages,
            fsyncs: self.fsyncs() - fsyncs0,
            appends: self.committed_entries().saturating_sub(appends0),
            converge_ns: at.saturating_since(t0).as_nanos(),
            delivered: self.sim.metrics.delivered - delivered0,
        };
        (counts, wall)
    }
}

/// Simulated-time figures over one fleet's intents.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimFigures {
    converge_ns_p50: u64,
    converge_ns_p99: u64,
    latency_ns_p50: u64,
    latency_ns_p99: u64,
}

/// Everything one fleet's closed loop of [`FLEET_INTENTS`] intents
/// produced.
struct FleetRun {
    records: Vec<IntentCounts>,
    walls: Vec<IntentWall>,
    figures: SimFigures,
}

/// Sets up a fleet and runs [`FLEET_INTENTS`] intents through it in a
/// closed loop, calling `each` after every intent. Returns the run and
/// its set-up seconds.
fn fleet_run(
    seed: u64,
    report: &mut Report,
    mut each: impl FnMut(&mut Fleet, &IntentCounts, &IntentWall),
) -> (FleetRun, f64) {
    let start = Instant::now();
    let mut fleet = fleet(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let (mut records, mut walls) = (
        Vec::with_capacity(FLEET_INTENTS),
        Vec::with_capacity(FLEET_INTENTS),
    );
    for _ in 0..FLEET_INTENTS {
        let (c, w) = fleet.intent(report);
        each(&mut fleet, &c, &w);
        records.push(c);
        walls.push(w);
    }
    let conv: Vec<f64> = records
        .iter()
        .map(|r: &IntentCounts| r.converge_ns as f64)
        .collect();
    let lat = |p| {
        fleet
            .sim
            .metrics
            .latency_percentile(p)
            .map_or(0, |d| d.as_nanos())
    };
    let figures = SimFigures {
        converge_ns_p50: percentile(&conv, 50.0) as u64,
        converge_ns_p99: percentile(&conv, 99.0) as u64,
        latency_ns_p50: lat(50.0),
        latency_ns_p99: lat(99.0),
    };
    (
        FleetRun {
            records,
            walls,
            figures,
        },
        setup_s,
    )
}

/// Fleets of `seed` one after another, each pinned to the next CPU, until
/// `budget` is spent (at least two, and a whole round over the CPUs);
/// every fleet after the first must reproduce the first's per-intent
/// counts and simulated-time figures exactly.
fn fleets(
    seed: u64,
    budget: Duration,
    report: &mut Report,
    mut each: impl FnMut(&mut Fleet, &IntentCounts, &IntentWall),
) -> (Vec<FleetRun>, Vec<f64>) {
    let start = Instant::now();
    let (mut runs, mut setups): (Vec<FleetRun>, Vec<f64>) = (Vec::new(), Vec::new());
    // Whole rounds over the CPUs, so each gets the same number of fleets.
    while runs.len() < 2 || runs.len() % pin::cpus() != 0 || start.elapsed() < budget {
        pin::pin_part(runs.len());
        let (run, setup_s) = fleet_run(seed, report, &mut each);
        if let Some(first) = runs.first() {
            report.determinism("per-intent counts", &first.records, &run.records);
            report.determinism("simulated-time figures", &first.figures, &run.figures);
        }
        runs.push(run);
        setups.push(setup_s);
    }
    (runs, setups)
}

/// The untraced run: fleets of [`FLEET_INTENTS`] intents each, for
/// `seconds`.
pub fn run(seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    // Set-up alone, repeated: one build is well under a millisecond.
    let mut setups: Vec<f64> = (0..SETUPS)
        .map(|i| {
            pin::pin_part(i);
            let start = Instant::now();
            drop(fleet(seed));
            start.elapsed().as_secs_f64()
        })
        .collect();
    let mut block_pps = Vec::new();
    let mut block = (0u64, Instant::now());
    let (runs, fleet_setups) = fleets(
        seed,
        Duration::from_secs(seconds),
        &mut report,
        |f, c, _| {
            block.0 += c.delivered;
            if f.intents % PPS_BLOCK as u64 == 0 {
                block_pps.push(block.0 as f64 / block.1.elapsed().as_secs_f64());
                block = (0, Instant::now());
            }
        },
    );
    setups.extend(fleet_setups);
    let mut intents = OpTimes::new();
    for run in &runs {
        for w in &run.walls {
            intents.push(w.total_ns as f64);
        }
        intents.end_part();
    }
    // Blocks never straddle fleets: the per-fleet median, then the mean.
    let fleet_pps: Vec<f64> = block_pps
        .chunks(FLEET_INTENTS / PPS_BLOCK)
        .map(median)
        .collect();
    report.metric("setup_s", mean(&setups), "s");
    report.metric("pkt_pps", mean(&fleet_pps), "1/s");
    intents.report(&mut report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let f = &runs[0].figures;
    eprintln!(
        "{} fleets of {FLEET_INTENTS} intents; per fleet: converge p50 {:.3} ms p99 {:.3} ms, \
         background latency p50 {:.3} us p99 {:.3} us",
        runs.len(),
        f.converge_ns_p50 as f64 / 1e6,
        f.converge_ns_p99 as f64 / 1e6,
        f.latency_ns_p50 as f64 / 1e3,
        f.latency_ns_p99 as f64 / 1e3
    );
    report
}

/// The traced run: the control path's ledger over intents for about
/// `seconds`, half untraced as the overhead reference.
pub fn traced(seed: u64, seconds: f64, ledger: &mut Ledger) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds);

    // Probes beside the traced fleet: a device per variant for the
    // prepare, and a log of its own for the append.
    let mut probes: Vec<Device> = (0..2)
        .map(|v| {
            let mut d = Device::new(
                NodeId(900 + v),
                Architecture::rmt_default(),
                StateEncoding::StatefulTable,
            );
            d.install(frontend(&variant(v as u64)))
                .expect("probe installs");
            d
        })
        .collect();
    let mut probe_log = ReplicatedIntentLog::new(CONTROLLERS, seed ^ 1).expect("probe log elects");
    let mut probe_txn = 0u64;
    let mut trace = |f: &mut Fleet, _: &IntentCounts, w: &IntentWall| {
        let k = f.intents - 1;
        let to = (k + 1) % 2;
        ledger.record("controller.intent", None, w.total_ns);
        ledger.record("lang.frontend", Some("controller.intent"), w.frontend_ns);
        ledger.record("dataplane.table.insert", None, w.insert_ns);
        ledger.record("dataplane.table.remove", None, w.remove_ns);
        let bundle = frontend(&variant(to));
        let copy = bundle.clone();
        ledger.span("lang.compile", None, || {
            InstalledProgram::new(copy, StateEncoding::StatefulTable).expect("compiles")
        });
        let dev = &mut probes[(1 - to) as usize];
        let at = SimTime::from_secs(1 + k);
        ledger.span("dataplane.reconfig.prepare", None, || {
            dev.begin_runtime_reconfig(bundle, at)
                .expect("probe prepares")
        });
        dev.abort_reconfig(at).expect("probe aborts");
        probe_txn += 1;
        let record = IntentRecord::Intent {
            txn: probe_txn,
            devices: (0..SWITCHES as u64).collect(),
        };
        ledger.span("controller.wal.append", None, || {
            probe_log.append(&record).expect("probe appends")
        });
        if probe_txn.is_multiple_of(COMPACT_EVERY * 10) {
            probe_log.compact().expect("probe log compacts");
        }
    };
    // Untraced reference fleets alternate with traced ones, so the
    // overhead compares like with like.
    let start = Instant::now();
    let (mut untraced, mut runs): (Vec<f64>, Vec<FleetRun>) = (Vec::new(), Vec::new());
    while runs.len() < 2 || start.elapsed() < budget {
        let traced_first = runs.len() % 2 == 1;
        let (run, reference) = if traced_first {
            let run = fleet_run(seed, &mut report, &mut trace).0;
            (run, fleet_run(seed, &mut report, |_, _, _| {}).0)
        } else {
            let reference = fleet_run(seed, &mut report, |_, _, _| {}).0;
            (fleet_run(seed, &mut report, &mut trace).0, reference)
        };
        untraced.extend(reference.walls.iter().map(|w| w.total_ns as f64));
        report.determinism("per-intent counts", &reference.records, &run.records);
        report.determinism("simulated-time figures", &reference.figures, &run.figures);
        runs.push(run);
    }
    let records: Vec<&IntentCounts> = runs.iter().flat_map(|r| &r.records).collect();
    let walls: Vec<&IntentWall> = runs.iter().flat_map(|r| &r.walls).collect();
    let figures = &runs[0].figures;
    let n = records.len() as f64;
    let traced_ns: Vec<f64> = walls.iter().map(|w| w.total_ns as f64).collect();
    let us = |layer: &str| median(&ledger.samples(layer)) / 1e3;
    let appends = records.iter().map(|r| r.appends).sum::<u64>() as f64 / n;
    let messages = records.iter().map(|r| r.messages as u64).sum::<u64>() as f64 / n;
    let switches = SWITCHES as f64;
    let residual = median(&traced_ns) / 1e3
        - (us("lang.frontend")
            + switches * us("dataplane.reconfig.prepare")
            + appends * us("controller.wal.append"));
    report.metric("lang.frontend_us", us("lang.frontend"), "us");
    report.metric("lang.compile_us", us("lang.compile"), "us");
    report.metric(
        "dataplane.reconfig.prepare_us",
        us("dataplane.reconfig.prepare"),
        "us",
    );
    report.metric(
        "dataplane.table.insert_us",
        us("dataplane.table.insert") / LEAVES as f64,
        "us",
    );
    report.metric(
        "dataplane.table.remove_us",
        us("dataplane.table.remove") / LEAVES as f64,
        "us",
    );
    report.metric(
        "controller.wal.append_us",
        us("controller.wal.append"),
        "us",
    );
    report.metric("controller.wal.appends_per_intent", appends, "count");
    report.metric(
        "controller.storage.fsyncs_per_intent",
        records.iter().map(|r| r.fsyncs).sum::<u64>() as f64 / n,
        "count",
    );
    report.metric("controller.txn.msgs_per_intent", messages, "count");
    report.metric(
        "controller.txn.useful_ratio",
        MIN_MESSAGES_PER_SWITCH as f64 * switches / messages,
        "ratio",
    );
    report.metric("controller.txn.residual_us", residual, "us");
    report.metric(
        "controller.converge_sim_ms_p50",
        figures.converge_ns_p50 as f64 / 1e6,
        "ms",
    );
    report.metric(
        "controller.converge_sim_ms_p99",
        figures.converge_ns_p99 as f64 / 1e6,
        "ms",
    );
    report.metric(
        "controller.bg_latency_us_p50",
        figures.latency_ns_p50 as f64 / 1e3,
        "us",
    );
    report.metric(
        "controller.bg_latency_us_p99",
        figures.latency_ns_p99 as f64 / 1e3,
        "us",
    );
    report.metric(
        "trace.reconfig_overhead_pct",
        100.0 * (median(&traced_ns) - median(&untraced)) / median(&untraced),
        "%",
    );
    report
}
