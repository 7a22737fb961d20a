//! The FlexNet benchmark of record.
//!
//! ```text
//! flexnet-perfbench --workload <fabric|fastpath|wire|reconfig> --seed <n>
//!                   --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced for `--seconds` and
//! the last line of standard output is a JSON object holding every
//! end-to-end metric. With `--trace 1` the run fills the per-layer ledger
//! instead: each layer is measured on the workload it belongs to, so a
//! traced run covers all four workloads, a quarter of the time each.
//! Human-readable tables go to standard error. See `README.md`.

mod alloc;
mod fabric;
mod fastpath;
mod ledger;
mod pin;
mod reconfig;
mod report;

use ledger::Ledger;
use report::Report;

/// End-to-end metrics, reported by every workload of an untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pkt_pps", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.generate_s", "s"),
    ("sim.load_s", "s"),
    ("sim.run_s", "s"),
    ("sim.percentile_s", "s"),
    ("sim.allocs_per_pkt", "count"),
    ("sim.hops_per_pkt", "count"),
    ("sim.latency_us_p50", "us"),
    ("sim.latency_us_p99", "us"),
    ("sim.install_us", "us"),
    ("sim.setup_residual_s", "s"),
    ("dataplane.install_us", "us"),
    ("dataplane.process_ns", "ns"),
    ("dataplane.burst1_ns", "ns"),
    ("dataplane.ab.burst1_over_process", "ratio"),
    ("dataplane.ab.ratio_iqr", "ratio"),
    ("dataplane.burst_ns", "ns"),
    ("dataplane.vm_ops_per_pkt", "count"),
    ("dataplane.allocs_per_pkt", "count"),
    ("dataplane.parser_ns", "ns"),
    ("dataplane.field_gather_ns", "ns"),
    ("dataplane.table.lookup_ns", "ns"),
    ("dataplane.exec_residual_ns", "ns"),
    ("dataplane.ledger_gap_pct", "%"),
    ("dataplane.wire.open_ns", "ns"),
    ("dataplane.wire.parse_ns", "ns"),
    ("dataplane.wire.admission_ns", "ns"),
    ("dataplane.wire.residual_ns", "ns"),
    ("dataplane.wire.allocs_per_frame", "count"),
    ("dataplane.table.insert_us", "us"),
    ("dataplane.table.remove_us", "us"),
    ("dataplane.reconfig.prepare_us", "us"),
    ("lang.frontend_us", "us"),
    ("lang.compile_us", "us"),
    ("controller.wal.append_us", "us"),
    ("controller.wal.appends_per_intent", "count"),
    ("controller.storage.fsyncs_per_intent", "count"),
    ("controller.txn.msgs_per_intent", "count"),
    ("controller.txn.useful_ratio", "ratio"),
    ("controller.txn.residual_us", "us"),
    ("controller.converge_sim_ms_p50", "ms"),
    ("controller.converge_sim_ms_p99", "ms"),
    ("controller.bg_latency_us_p50", "us"),
    ("controller.bg_latency_us_p99", "us"),
    ("trace.fabric_overhead_pct", "%"),
    ("trace.fastpath_overhead_pct", "%"),
    ("trace.reconfig_overhead_pct", "%"),
];

const WORKLOADS: [&str; 4] = ["fabric", "fastpath", "wire", "reconfig"];

/// A workload's traced phase: seed and seconds in, ledger filled.
type TracedPhase = fn(u64, f64, &mut Ledger) -> Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flexnet-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (report, keep) = if args.trace {
        let share = args.seconds as f64 / WORKLOADS.len() as f64;
        let mut report = Report::default();
        // Smallest footprint first: the fabric's large heap, once freed,
        // would leave the allocator in a state the others then pay for.
        let phases: [(&str, TracedPhase, f64); 3] = [
            ("fastpath + wire", fastpath::traced, 2.0),
            ("reconfig", reconfig::traced, 1.0),
            ("fabric", fabric::traced, 1.0),
        ];
        for (name, phase, shares) in phases {
            let mut ledger = Ledger::default();
            report.absorb(phase(args.seed, shares * share, &mut ledger));
            ledger.print(name);
        }
        (report, PER_LAYER)
    } else {
        let report = match args.workload.as_str() {
            "fabric" => fabric::run(args.seed, args.seconds),
            "fastpath" => fastpath::run(args.seed, args.seconds, false),
            "wire" => fastpath::run(args.seed, args.seconds, true),
            _ => reconfig::run(args.seed, args.seconds),
        };
        (report, END_TO_END)
    };
    report.print_table(&format!(
        "{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    ));
    println!("{}", report.json(keep));
}
