//! E18 — data-plane sandbox vs. rogue programs and poison packets.
//!
//! Runs every seed through the rogue-program chaos harness
//! (`flexnet_controller::sandbox`). Four scenarios rotate by seed: a
//! runaway loop against the gas meter, a runtime state shrink turning a
//! correct program into an out-of-bounds trap storm, a malformed-frame
//! flood against the wire parser, and a trapping canary candidate
//! shipped mid-rollout against the quarantine guard.
//!
//! The claim under test: the sandbox contains every attack **before
//! neighbor tenants see SLO impact** — the victim's trap storm dies
//! inside its trap window (atomic swap to the digest-verified
//! last-known-good image), poison bytes never indict the program they
//! never ran, no packet input ever panics a device, and the rollout's
//! quarantine guard aborts a trap storm inside wave 1.
//!
//! Writes `E18_summary.json` with the per-scenario containment numbers
//! so CI can archive the run.
//!
//! Usage: `e18_sandbox [seeds]`

use flexnet_bench::{header, row, sep};
use flexnet_controller::{run_sandbox_seed, SandboxReport};
use flexnet_sim::RogueScenario;

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    header(
        "E18",
        "data-plane sandbox: gas metering, typed traps, quarantine",
        "a runtime-programmable network invites third-party programs \
         into the packet path; a hostile or buggy one must trap, not \
         panic, and be quarantined before its tenant's neighbors notice",
    );
    println!("sweep: seeds 0..{seeds} (scenario = seed mod 4)\n");

    let reports: Vec<SandboxReport> = flexnet_bench::par_sweep(seeds, |s| {
        run_sandbox_seed(s).unwrap_or_else(|e| panic!("seed {s}: harness error: {e}"))
    });

    let mut failed: Vec<(u64, Vec<String>)> = Vec::new();
    for (seed, r) in reports.iter().enumerate() {
        if !r.passed() {
            failed.push((seed as u64, r.violations.clone()));
        }
    }

    row(&[
        "scenario",
        "runs",
        "contained",
        "traps (sum)",
        "parse traps",
        "lost/delivered",
    ]);
    sep(6);
    let mut scenario_rows: Vec<(String, usize, usize, u64, u64, u64, u64)> = Vec::new();
    for scenario in RogueScenario::ALL {
        let cohort: Vec<&SandboxReport> = reports
            .iter()
            .filter(|r| r.schedule.scenario == scenario)
            .collect();
        let contained = cohort.iter().filter(|r| r.passed()).count();
        let traps: u64 = cohort.iter().map(|r| r.victim_traps).sum();
        let parse_traps: u64 = cohort.iter().map(|r| r.victim_parse_traps).sum();
        let lost: u64 = cohort.iter().map(|r| r.lost).sum();
        let delivered: u64 = cohort.iter().map(|r| r.delivered).sum();
        row(&[
            scenario.label(),
            &cohort.len().to_string(),
            &contained.to_string(),
            &traps.to_string(),
            &parse_traps.to_string(),
            &format!("{lost}/{delivered}"),
        ]);
        scenario_rows.push((
            scenario.label().to_string(),
            cohort.len(),
            contained,
            traps,
            parse_traps,
            lost,
            delivered,
        ));
    }
    sep(6);

    let total_lost: u64 = reports.iter().map(|r| r.lost).sum();
    let total_delivered: u64 = reports.iter().map(|r| r.delivered).sum();
    let fleet_ppm = (total_lost * 1_000_000)
        .checked_div(total_lost + total_delivered)
        .unwrap_or(0);
    let rollbacks = reports.iter().filter(|r| r.rollout.is_some()).count();
    println!(
        "\nfleet loss across the whole sweep: {total_lost}/{} packets \
         ({fleet_ppm} ppm — every storm contained inside the 2% canary \
         budget); {rollbacks} trap-storm rollouts aborted by the \
         quarantine guard",
        total_lost + total_delivered,
    );

    // --- E18_summary.json ----------------------------------------------
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"e18_sandbox\",\n");
    json.push_str(&format!("  \"seeds\": {seeds},\n"));
    json.push_str(&format!(
        "  \"contained\": {},\n",
        seeds - failed.len() as u64
    ));
    json.push_str(&format!("  \"fleet_loss_ppm\": {fleet_ppm},\n"));
    json.push_str("  \"scenarios\": [\n");
    for (i, (label, runs, contained, traps, parse_traps, lost, delivered)) in
        scenario_rows.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{ \"scenario\": \"{label}\", \"runs\": {runs}, \
             \"contained\": {contained}, \"traps\": {traps}, \
             \"parse_traps\": {parse_traps}, \"lost\": {lost}, \
             \"delivered\": {delivered} }}{}\n",
            if i + 1 < scenario_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write("E18_summary.json", &json).expect("write E18_summary.json");

    println!(
        "\n{}/{} runs upheld every invariant (typed traps only, \
         quarantine before SLO impact, digest-verified fallback, zero \
         neighbor loss); wrote E18_summary.json",
        seeds - failed.len() as u64,
        seeds,
    );
    if !failed.is_empty() {
        println!("\nFAILED SEEDS:");
        for (seed, violations) in &failed {
            println!("  seed {seed}:");
            for v in violations {
                println!("    - {v}");
            }
        }
        std::process::exit(1);
    }
}
