//! The `fabric` workload: the sim engine on a 2-spine, 4-leaf, 16-host
//! leaf-spine fabric, the path experiments E1–E21 run on.
//!
//! Leaves run the firewall with about 1k deny entries and two of the 16
//! sources blocklisted; spines run the LPM router with a route per host.
//! Sixteen Poisson flows in 4:1 incast load each incast host link to about
//! 60%, so p99 reflects queueing. Traffic is open loop in simulated time
//! and runs to completion.

use crate::alloc::allocs;
use crate::ledger::Ledger;
use crate::pin;
use crate::report::{mean, median, peak_rss_mb, OpTimes, Report};
use flexnet_dataplane::{KeyMatch, TableEntry};
use flexnet_lang::ast::ActionCall;
use flexnet_sim::{generate, Departure, FlowSpec, LossKind, Pattern, Simulation, Topology};
use flexnet_types::{NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Mean packets per second of each flow: four flows into one 10 Gb/s
/// host link at 1054 wire bytes a packet load it to about 60%.
const FLOW_PPS: u64 = 178_000;
/// Simulated time during which flows send.
const SEND_FOR: SimDuration = SimDuration::from_millis(30);
/// Simulated time per timed slice of the run.
const SLICE: SimDuration = SimDuration::from_micros(10);
/// ACL deny entries per leaf.
const DENY_ENTRIES: usize = 1000;
/// Filler LPM routes per spine besides the per-host /32s.
const FILLER_ROUTES: usize = 240;
/// Fewest simulations a run makes, whatever its time budget.
const MIN_ITERATIONS: usize = 3;

fn action(name: &str, args: Vec<u64>) -> ActionCall {
    ActionCall {
        action: name.into(),
        args,
    }
}

/// A loaded simulation and what its traffic must come to.
struct Setup {
    sim: Simulation,
    /// Packets whose source is blocklisted: each must be a policy drop.
    blocked_pkts: u64,
    /// All other packets: each must be delivered.
    allowed_pkts: u64,
    /// Departure instant of the last packet.
    last_departure: SimTime,
}

/// Builds the fabric, its programs, tables and traffic for `seed`,
/// recording the generate, load and install spans when traced.
fn setup(seed: u64, mut ledger: Option<&mut Ledger>) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let (topo, spines, leaves, hosts) = Topology::leaf_spine(2, 4, 4);
    let mut sim = Simulation::new(topo);
    let ip = |n: NodeId| 0x0a00_0000 | n.raw();

    let install_start = Instant::now();
    let firewall = flexnet_apps::security::firewall(4096).expect("firewall builds");
    let router = flexnet_apps::routing::l3_router(1024).expect("router builds");
    let blocked: BTreeSet<usize> = {
        let mut b = BTreeSet::new();
        while b.len() < 2 {
            b.insert(rng.gen_range(0..hosts.len()));
        }
        b
    };
    // Deny entries keyed on sources outside the fabric: they fill the
    // table without matching any flow.
    let deny: Vec<(u64, u64)> = (0..DENY_ENTRIES)
        .map(|_| {
            (
                0x0b00_0000 | rng.gen_range(0..0x100_0000u64),
                rng.gen_range(1..1024u64),
            )
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for &leaf in &leaves {
        let dev = &mut sim.topo.node_mut(leaf).expect("leaf exists").device;
        dev.install(firewall.clone()).expect("firewall installs");
        for &(src, dport) in &deny {
            dev.add_entry(
                "acl",
                TableEntry::exact(&[src, dport], action("deny", vec![])),
            )
            .expect("deny entry fits");
        }
        let state = &mut dev.program_mut().expect("installed").state;
        for &b in &blocked {
            state
                .map_put("blocked", ip(hosts[b]) as u64, 1)
                .expect("blocklist fits");
        }
    }
    let lpm = |value: u64, prefix_len: u8| KeyMatch::Lpm {
        value,
        prefix_len,
        width: 32,
    };
    for &spine in &spines {
        let dev = &mut sim.topo.node_mut(spine).expect("spine exists").device;
        dev.install(router.clone()).expect("router installs");
        // Leaf `li` hangs off spine port `li`; host `h` sits under leaf h/4.
        for (h, &host) in hosts.iter().enumerate() {
            let entry = TableEntry {
                matches: vec![lpm(ip(host) as u64, 32)],
                priority: 0,
                action: action("out", vec![(h / 4) as u64]),
            };
            dev.add_entry("routes", entry).expect("host route fits");
        }
        for k in 0..FILLER_ROUTES as u64 {
            let entry = TableEntry {
                matches: vec![lpm(0xac10_0000 | (k << 8), 24)],
                priority: 0,
                action: action("blackhole", vec![]),
            };
            dev.add_entry("routes", entry).expect("filler route fits");
        }
    }
    if let Some(l) = ledger.as_deref_mut() {
        l.record(
            "dataplane.install",
            Some("setup"),
            install_start.elapsed().as_nanos() as u64,
        );
    }

    // 4:1 incast: the four hosts of leaf g send to host g of leaf g+1.
    let flows: Vec<FlowSpec> = hosts
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            let g = i / 4;
            let dst = hosts[((g + 1) % 4) * 4 + g];
            FlowSpec {
                src_node: src,
                dst_node: dst,
                src_ip: ip(src),
                dst_ip: ip(dst),
                src_port: 10_000 + i as u16,
                dst_port: 80,
                proto: 6,
                pattern: Pattern::Poisson { mean_pps: FLOW_PPS },
                start: SimTime::from_micros(10),
                duration: SEND_FOR,
                payload: 1000,
            }
        })
        .collect();
    let gen_seed = rng.gen::<u64>();
    let gen_start = Instant::now();
    let departures: Vec<Departure> = generate(&flows, gen_seed);
    let gen_ns = gen_start.elapsed().as_nanos() as u64;
    let blocked_nodes: BTreeSet<NodeId> = blocked.iter().map(|&b| hosts[b]).collect();
    let blocked_pkts = departures
        .iter()
        .filter(|d| blocked_nodes.contains(&d.node))
        .count() as u64;
    let allowed_pkts = departures.len() as u64 - blocked_pkts;
    let last_departure = departures.last().map_or(SimTime::ZERO, |d| d.at);
    let load_start = Instant::now();
    sim.load(departures);
    if let Some(l) = ledger {
        l.record("sim.generate", Some("setup"), gen_ns);
        l.record(
            "sim.load",
            Some("setup"),
            load_start.elapsed().as_nanos() as u64,
        );
    }
    Setup {
        sim,
        blocked_pkts,
        allowed_pkts,
        last_departure,
    }
}

/// Clock-free counts and simulated-time figures of one simulation; two
/// simulations of one seed must agree on all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    sent: u64,
    delivered: u64,
    losses: BTreeMap<LossKind, u64>,
    hops: u64,
    allocs: u64,
    latency_ns_p50: u64,
    latency_ns_p99: u64,
}

/// Runs a loaded simulation to completion in [`SLICE`]s of simulated
/// time, timing each slice, then checks every packet's fate.
fn simulate(
    mut s: Setup,
    slices_ns: &mut OpTimes,
    report: &mut Report,
    ledger: Option<&mut Ledger>,
) -> (Outcome, f64) {
    let mut run_allocs = 0;
    let run_start = Instant::now();
    let end = s.last_departure + SimDuration::from_millis(2);
    let mut t = SimTime::ZERO;
    while t < end {
        t += SLICE;
        let (a0, start) = (allocs(), Instant::now());
        s.sim.run(t);
        let ns = start.elapsed().as_nanos() as f64;
        run_allocs += allocs() - a0;
        slices_ns.push(ns);
    }
    let a0 = allocs();
    s.sim.run_to_completion();
    run_allocs += allocs() - a0;
    let run_s = run_start.elapsed().as_secs_f64();

    let pct_start = Instant::now();
    let p50 = s
        .sim
        .metrics
        .latency_percentile(50.0)
        .map_or(0, |d| d.as_nanos());
    let p99 = s
        .sim
        .metrics
        .latency_percentile(99.0)
        .map_or(0, |d| d.as_nanos());
    if let Some(l) = ledger {
        l.record("sim.run", None, (run_s * 1e9) as u64);
        l.record(
            "sim.percentile",
            None,
            pct_start.elapsed().as_nanos() as u64,
        );
    }
    let m = &s.sim.metrics;
    let policy = m.losses.get(&LossKind::PolicyDrop).copied().unwrap_or(0);
    let other: u64 = m.total_lost() - policy;
    let sent = s.blocked_pkts + s.allowed_pkts;
    let deviating = m.sent.abs_diff(sent)
        + m.delivered.abs_diff(s.allowed_pkts)
        + policy.abs_diff(s.blocked_pkts)
        + other
        + s.sim.errors.len() as u64;
    report.tally(sent, deviating, || {
        format!(
            "fabric fates: sent {}/{sent}, delivered {}/{}, policy drops {policy}/{}, \
             other losses {:?}, errors {}",
            m.sent,
            m.delivered,
            s.allowed_pkts,
            s.blocked_pkts,
            m.losses,
            s.sim.errors.len()
        )
    });
    let hops: u64 = s.sim.topo.nodes().map(|n| n.device.stats().processed).sum();
    let outcome = Outcome {
        sent: m.sent,
        delivered: m.delivered,
        losses: m.losses.clone(),
        hops,
        allocs: run_allocs,
        latency_ns_p50: p50,
        latency_ns_p99: p99,
    };
    (outcome, run_s)
}

/// The untraced run: simulations of one seed for `seconds`, each set up
/// from scratch and pinned to the next CPU.
pub fn run(seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut setups, mut pps) = (Vec::new(), Vec::new());
    let mut slices = OpTimes::new();
    let mut first: Option<Outcome> = None;
    // Whole rounds over the CPUs, so each gets the same number of parts.
    while setups.len() < MIN_ITERATIONS
        || setups.len() % pin::cpus() != 0
        || start.elapsed() < budget
    {
        pin::pin_part(setups.len());
        let setup_start = Instant::now();
        let s = setup(seed, None);
        setups.push(setup_start.elapsed().as_secs_f64());
        let completed = s.allowed_pkts + s.blocked_pkts;
        let (outcome, run_s) = simulate(s, &mut slices, &mut report, None);
        slices.end_part();
        pps.push(completed as f64 / run_s);
        match &first {
            None => first = Some(outcome),
            Some(f) => report.determinism("fabric outcome", f, &outcome),
        }
    }
    let f = first.expect("at least one simulation");
    report.metric("setup_s", mean(&setups), "s");
    report.metric("pkt_pps", mean(&pps), "1/s");
    slices.report(&mut report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "{} simulations of {} packets: delivered {}, losses {:?}, hops/pkt {:.3}, allocs/pkt {:.2}, \
         sim latency p50 {:.3} us p99 {:.3} us",
        setups.len(),
        f.sent,
        f.delivered,
        f.losses,
        f.hops as f64 / f.sent as f64,
        f.allocs as f64 / f.sent as f64,
        f.latency_ns_p50 as f64 / 1e3,
        f.latency_ns_p99 as f64 / 1e3
    );
    report
}

/// The traced run: the engine's layers, measured over simulations of
/// `seed` for about `seconds`, plus the tracing overhead against an
/// untraced simulation made in between.
pub fn traced(seed: u64, seconds: f64, ledger: &mut Ledger) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut untraced_run, mut traced_run) = (Vec::new(), Vec::new());
    let mut slices = OpTimes::new();
    let mut first: Option<Outcome> = None;
    let mut n = 0u32;
    while n < 2 || start.elapsed() < budget {
        // A traced simulation and an untraced reference of the same seed,
        // alternating which goes first.
        let traced_first = n.is_multiple_of(2);
        for traced in [traced_first, !traced_first] {
            let outcome = if traced {
                let setup_start = Instant::now();
                let s = setup(seed, Some(ledger));
                ledger.record("setup", None, setup_start.elapsed().as_nanos() as u64);
                let (outcome, run_s) = simulate(s, &mut slices, &mut report, Some(ledger));
                traced_run.push(run_s);
                outcome
            } else {
                let (outcome, run_s) = simulate(setup(seed, None), &mut slices, &mut report, None);
                untraced_run.push(run_s);
                outcome
            };
            match &first {
                None => first = Some(outcome),
                Some(f) => report.determinism("fabric outcome", f, &outcome),
            }
        }
        n += 1;
    }
    let f = first.expect("at least one simulation");
    let per = |layer: &str| ledger.total_ns(layer) as f64 / 1e9 / n as f64;
    report.metric("sim.generate_s", per("sim.generate"), "s");
    report.metric("sim.load_s", per("sim.load"), "s");
    report.metric("sim.run_s", median(&traced_run), "s");
    report.metric("sim.percentile_s", per("sim.percentile"), "s");
    report.metric(
        "sim.allocs_per_pkt",
        f.allocs as f64 / f.sent as f64,
        "count",
    );
    report.metric("sim.hops_per_pkt", f.hops as f64 / f.sent as f64, "count");
    report.metric("sim.latency_us_p50", f.latency_ns_p50 as f64 / 1e3, "us");
    report.metric("sim.latency_us_p99", f.latency_ns_p99 as f64 / 1e3, "us");
    report.metric("sim.install_us", per("dataplane.install") * 1e6, "us");
    report.metric(
        "sim.setup_residual_s",
        ledger.self_ns("setup") as f64 / 1e9 / n as f64,
        "s",
    );
    report.metric(
        "trace.fabric_overhead_pct",
        100.0 * (median(&traced_run) - median(&untraced_run)) / median(&untraced_run),
        "%",
    );
    report
}
