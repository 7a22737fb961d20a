//! The `fastpath` and `wire` workloads: one dRMT device running the
//! firewall, fed from a fixed ring of packets in bursts of 64, closed loop.
//!
//! `fastpath` hands the device pre-parsed packets
//! ([`Device::process_burst`]): VM dispatch, table lookup and the
//! accounting epilogue do the work, and the sim engine does none.
//! `wire` hands the same device the same packets as sealed byte frames
//! ([`Device::process_sealed_burst`]), one in 256 corrupted in flight, so
//! checksum, wire parse and packet construction come on top.

use crate::alloc::allocs;
use crate::ledger::Ledger;
use crate::pin;
use crate::report::{iqr, mean, median, peak_rss_mb, OpTimes, Report, Samples};
use flexnet_dataplane::parser::ProtoCache;
use flexnet_dataplane::{
    encode_wire, flip_bits, open_frame, parse_wire, seal_frame, Architecture, Device, FrameOutcome,
    ProcessResult, StateEncoding, TableEntry,
};
use flexnet_lang::ast::ActionCall;
use flexnet_types::{NodeId, Packet, SimTime, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Packets in the ring.
const RING: usize = 4096;
/// Packets per burst.
const BURST: usize = 64;
/// ACL capacity and installed entries.
const ACL_ENTRIES: usize = 4096;
/// Sources in the blocklist map.
const BLOCKED_SOURCES: usize = 256;
/// One frame in this many is corrupted in the `wire` ring.
const CORRUPT_EVERY: usize = 256;
/// Rigs per untraced run. Each is set up afresh and driven for an equal
/// share of the time, so one run samples several heap layouts, hash seeds
/// and CPUs, and `setup_s` is the mean of their set-ups.
const SEGMENTS: usize = 16;
/// A/B pairs of the traced run per round over the ring.
const AB_PAIRS_PER_ROUND: usize = 4;
/// The fields the firewall reads from each packet.
const READ_FIELDS: [&str; 2] = ["ipv4.src", "tcp.dport"];

/// What a ring slot must come out as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Forward,
    Drop,
    ChecksumDrop,
}

/// A device with the firewall and its tables loaded, plus the ring.
struct Rig {
    dev: Device,
    ring: Vec<Packet>,
    frames: Vec<Vec<u8>>,
    expect: Vec<Expect>,
    frame_expect: Vec<Expect>,
}

fn action(name: &str) -> ActionCall {
    ActionCall {
        action: name.into(),
        args: vec![],
    }
}

/// The device alone: firewall installed, ACL and blocklist loaded. The
/// generated keys come back for building the ring.
fn device(rng: &mut StdRng) -> (Device, Vec<(u32, u16, bool)>, Vec<u32>) {
    let mut dev = Device::new(
        NodeId(1),
        Architecture::drmt_default(),
        StateEncoding::StatefulTable,
    );
    dev.install(flexnet_apps::security::firewall(ACL_ENTRIES as u64).expect("firewall builds"))
        .expect("firewall installs");
    // Half deny, half explicit allow; sources from 10.1/16, so they never
    // collide with the blocklist's 10.2/16.
    let mut seen = BTreeSet::new();
    let mut acl = Vec::with_capacity(ACL_ENTRIES);
    while acl.len() < ACL_ENTRIES {
        let src = 0x0a01_0000 | rng.gen_range(0..0x1_0000u32);
        let dport = rng.gen_range(1..1024u16);
        if seen.insert((src, dport)) {
            acl.push((src, dport, acl.len() % 2 == 0));
        }
    }
    for &(src, dport, deny) in &acl {
        let act = if deny { "deny" } else { "allow" };
        dev.add_entry(
            "acl",
            TableEntry::exact(&[src as u64, dport as u64], action(act)),
        )
        .expect("ACL entry fits");
    }
    let blocked: Vec<u32> = (0..BLOCKED_SOURCES)
        .map(|i| 0x0a02_0000 | (i as u32 * 7919 + rng.gen_range(0..7919u32)) & 0xffff)
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    let state = &mut dev.program_mut().expect("firewall installed").state;
    for &src in &blocked {
        state
            .map_put("blocked", src as u64, 1)
            .expect("blocklist fits");
    }
    (dev, acl, blocked)
}

/// Builds the device and a ring of [`RING`] packets: about 25% hit a
/// deny entry, 25% an allow entry, 5% come from a blocklisted source and
/// the rest miss the ACL. `sealed` also builds the frame ring.
fn rig(seed: u64, sealed: bool) -> Rig {
    let mut rng = StdRng::seed_from_u64(seed);
    let (dev, acl, blocked) = device(&mut rng);
    let acl_keys: BTreeSet<(u32, u16)> = acl.iter().map(|&(s, d, _)| (s, d)).collect();
    let mut ring = Vec::with_capacity(RING);
    let mut expect = Vec::with_capacity(RING);
    for id in 0..RING as u64 {
        let roll = rng.gen_range(0..100u32);
        let (src, dport, verdict) = if roll < 50 {
            let want_deny = roll < 25;
            let (s, d, deny) = loop {
                let e = acl[rng.gen_range(0..acl.len())];
                if e.2 == want_deny {
                    break e;
                }
            };
            (s, d, if deny { Expect::Drop } else { Expect::Forward })
        } else if roll < 55 {
            let s = blocked[rng.gen_range(0..blocked.len())];
            (s, rng.gen_range(1..1024u16), Expect::Drop)
        } else {
            let (s, d) = loop {
                let k = (
                    0x0a01_0000 | rng.gen_range(0..0x1_0000u32),
                    rng.gen_range(1..1024u16),
                );
                if !acl_keys.contains(&k) {
                    break k;
                }
            };
            (s, d, Expect::Forward)
        };
        let dst = 0x0a03_0000 | rng.gen_range(0..0x1_0000u32);
        ring.push(Packet::tcp(
            id,
            src,
            dst,
            rng.gen_range(1024..65535u16),
            dport,
            0x10,
        ));
        expect.push(verdict);
    }
    let (mut frames, mut frame_expect) = (Vec::new(), Vec::new());
    if sealed {
        for (k, pkt) in ring.iter().enumerate() {
            let mut frame = seal_frame(&encode_wire(pkt));
            if k % CORRUPT_EVERY == CORRUPT_EVERY / 2 {
                flip_bits(&mut frame, seed ^ k as u64, 1);
                frame_expect.push(Expect::ChecksumDrop);
            } else {
                frame_expect.push(expect[k]);
            }
            frames.push(frame);
        }
    }
    Rig {
        dev,
        ring,
        frames,
        expect,
        frame_expect,
    }
}

fn verdict_ok(r: &ProcessResult, want: Expect) -> bool {
    !r.refused
        && r.trap.is_none()
        && match want {
            Expect::Forward => r.verdict == Verdict::Forward(0),
            Expect::Drop => r.verdict == Verdict::Drop,
            Expect::ChecksumDrop => false,
        }
}

/// Builds the rig and makes one untimed pass: it builds the VM image,
/// faults in state and grows the reused output buffers to their size.
fn warm_rig(seed: u64, sealed: bool, report: &mut Report, scratch: &mut Scratch) -> Rig {
    let mut rig = rig(seed, sealed);
    pass(&mut rig, false, None, report, scratch);
    if sealed {
        pass(&mut rig, true, None, report, scratch);
    }
    rig
}

/// Per-pass clock-free counts, compared across passes of one ring.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PassCounts {
    ops: u64,
    forwarded: u64,
    dropped: u64,
    checksum_drops: u64,
    allocs: u64,
}

/// One pass over the ring in bursts of [`BURST`], each burst timed on its
/// own; every outcome is checked against the slot's expectation outside
/// the timed region. Returns the pass's counts and its summed burst ns.
fn pass(
    rig: &mut Rig,
    sealed: bool,
    mut record: Option<&mut dyn FnMut(f64)>,
    report: &mut Report,
    scratch: &mut Scratch,
) -> (PassCounts, f64) {
    let mut c = PassCounts::default();
    let mut total_ns = 0.0;
    for k in (0..RING).step_by(BURST) {
        let a0 = allocs();
        let ns;
        if sealed {
            let start = Instant::now();
            rig.dev
                .process_sealed_burst(
                    &rig.frames[k..k + BURST],
                    k as u64,
                    SimTime::ZERO,
                    &mut scratch.pkts,
                    &mut scratch.outcomes,
                )
                .expect("sealed burst");
            ns = start.elapsed().as_nanos() as f64;
            c.allocs += allocs() - a0;
            let mut ok = scratch.outcomes.len() == BURST;
            for (j, o) in scratch.outcomes.iter().enumerate() {
                let want = rig.frame_expect[k + j];
                ok &= match o {
                    FrameOutcome::ChecksumDrop => {
                        c.checksum_drops += 1;
                        want == Expect::ChecksumDrop
                    }
                    FrameOutcome::Processed(r) => {
                        c.ops += r.ops;
                        tally(&mut c, r);
                        verdict_ok(r, want)
                    }
                    FrameOutcome::ParseDrop(_) => false,
                };
            }
            report.check(ok, || format!("wire burst at slot {k}: outcomes deviate"));
        } else {
            let slice = &mut rig.ring[k..k + BURST];
            for pkt in slice.iter_mut() {
                pkt.trace.clear();
            }
            let start = Instant::now();
            rig.dev
                .process_burst(slice, SimTime::ZERO, &mut scratch.results)
                .expect("burst");
            ns = start.elapsed().as_nanos() as f64;
            c.allocs += allocs() - a0;
            let mut ok = scratch.results.len() == BURST;
            for (j, r) in scratch.results.iter().enumerate() {
                c.ops += r.ops;
                tally(&mut c, r);
                ok &= verdict_ok(r, rig.expect[k + j]);
            }
            report.check(ok, || {
                format!("fastpath burst at slot {k}: verdicts deviate")
            });
        }
        total_ns += ns;
        if let Some(record) = record.as_deref_mut() {
            record(ns);
        }
    }
    (c, total_ns)
}

fn tally(c: &mut PassCounts, r: &ProcessResult) {
    match r.verdict {
        Verdict::Forward(_) => c.forwarded += 1,
        _ => c.dropped += 1,
    }
}

/// Reusable output buffers of the device calls.
#[derive(Default)]
struct Scratch {
    results: Vec<ProcessResult>,
    pkts: Vec<Packet>,
    outcomes: Vec<FrameOutcome>,
}

/// The untraced run: [`SEGMENTS`] rigs in turn (rounded up to a multiple
/// of the CPUs), each pinned to the next CPU, set up afresh and driven
/// through ring passes for its share of `seconds`.
pub fn run(seed: u64, seconds: u64, sealed: bool) -> Report {
    let mut report = Report::default();
    let mut scratch = Scratch::default();
    let mut bursts = OpTimes::new();
    let (mut setups, mut part_pps) = (Vec::new(), Vec::new());
    let mut first: Option<PassCounts> = None;
    let mut passes = 0;
    let parts = SEGMENTS.next_multiple_of(pin::cpus());
    let share = Duration::from_secs_f64(seconds as f64 / parts as f64);
    for part in 0..parts {
        pin::pin_part(part);
        let start = Instant::now();
        let mut rig = warm_rig(seed, sealed, &mut report, &mut scratch);
        setups.push(start.elapsed().as_secs_f64());
        let mut pass_pps = Vec::new();
        let start = Instant::now();
        while pass_pps.is_empty() || start.elapsed() < share {
            let (counts, ns) = pass(
                &mut rig,
                sealed,
                Some(&mut |ns| bursts.push(ns)),
                &mut report,
                &mut scratch,
            );
            pass_pps.push(RING as f64 * 1e9 / ns);
            match &first {
                None => first = Some(counts),
                Some(f) => {
                    report.determinism("per-pass counts (ops, verdicts, allocations)", f, &counts)
                }
            }
        }
        passes += pass_pps.len();
        part_pps.push(median(&pass_pps));
        bursts.end_part();
    }
    let first = first.expect("at least one pass");
    report.metric("setup_s", mean(&setups), "s");
    report.metric("pkt_pps", mean(&part_pps), "1/s");
    bursts.report(&mut report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "{passes} passes of {RING} packets over {parts} rigs; vm ops/pkt {:.2}, allocs/pass {}",
        first.ops as f64 / RING as f64,
        first.allocs
    );
    report
}

/// Per-packet ns of one timed ring pass through `f`, which handles one
/// chunk of the ring per call.
fn timed_pass(rig: &mut Rig, chunk: usize, mut f: impl FnMut(&mut Device, &mut [Packet])) -> f64 {
    let start = Instant::now();
    for k in (0..RING).step_by(chunk) {
        f(&mut rig.dev, &mut rig.ring[k..k + chunk]);
    }
    start.elapsed().as_nanos() as f64 / RING as f64
}

/// The traced run: the per-layer ledger of the device fast path and of
/// wire admission, measured for about `seconds`.
pub fn traced(seed: u64, seconds: f64, ledger: &mut Ledger) -> Report {
    let mut report = Report::default();
    let mut scratch = Scratch::default();
    let mut rig = warm_rig(seed, true, &mut report, &mut scratch);
    // Install and entry loading alone, on a fresh device.
    let start = Instant::now();
    black_box(device(&mut StdRng::seed_from_u64(seed)));
    ledger.record("dataplane.install", None, start.elapsed().as_nanos() as u64);
    report.metric(
        "dataplane.install_us",
        ledger.total_ns("dataplane.install") as f64 / 1e3,
        "us",
    );
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();

    // Untraced reference: the end-to-end measurement method, per burst.
    let mut reference = Vec::new();
    let mut bursts = Samples::new();
    let mut results = Vec::new();
    let mut cache = ProtoCache::default();
    let mut keys: Vec<u64> = Vec::with_capacity(BURST * 2);
    let mut hits: Vec<u32> = Vec::with_capacity(BURST);
    let (mut a_process, mut b_burst1, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ops, mut counted, mut alloc_n, mut wire_alloc_n) = (0u64, 0u64, 0u64, 0u64);
    let mut round = 0u64;
    while round < 4 || start.elapsed() < budget {
        // Warm the ring and the device after the previous round's wire work.
        pass(&mut rig, false, None, &mut report, &mut scratch);

        // Paired, interleaved A/B: single-packet `process` against a
        // burst of one on the same ring, alternating which goes first.
        let single = |rig: &mut Rig| {
            timed_pass(rig, 1, |dev, p| {
                p[0].trace.clear();
                black_box(dev.process(&mut p[0], SimTime::ZERO).expect("process"));
            })
        };
        let burst1 = |rig: &mut Rig, out: &mut Vec<ProcessResult>| {
            timed_pass(rig, 1, |dev, p| {
                p[0].trace.clear();
                dev.process_burst(p, SimTime::ZERO, out)
                    .expect("burst of one");
            })
        };
        for pair in 0..AB_PAIRS_PER_ROUND {
            let (a, b) = if pair % 2 == 0 {
                let a = single(&mut rig);
                (a, burst1(&mut rig, &mut results))
            } else {
                let b = burst1(&mut rig, &mut results);
                (single(&mut rig), b)
            };
            ledger.record("dataplane.process", None, (a * RING as f64) as u64);
            ledger.record("dataplane.burst1", None, (b * RING as f64) as u64);
            a_process.push(a);
            b_burst1.push(b);
            ratios.push(b / a);
        }

        // Untraced reference, by the end-to-end method, right before the
        // traced pass so both see the same cache state.
        bursts.clear();
        pass(
            &mut rig,
            false,
            Some(&mut |ns| bursts.push(ns)),
            &mut report,
            &mut scratch,
        );
        reference.push(bursts.percentile(50.0) / BURST as f64);

        // The burst of 64, one span per burst.
        for k in (0..RING).step_by(BURST) {
            let slice = &mut rig.ring[k..k + BURST];
            for pkt in slice.iter_mut() {
                pkt.trace.clear();
            }
            let a0 = allocs();
            ledger.span("dataplane.burst", None, || {
                rig.dev
                    .process_burst(slice, SimTime::ZERO, &mut results)
                    .expect("burst")
            });
            alloc_n += allocs() - a0;
            ops += results.iter().map(|r| r.ops).sum::<u64>();
            counted += BURST as u64;
        }

        // Layer probes over the same ring: parser, field gather, lookup.
        let parser = rig.dev.parser().clone();
        for k in (0..RING).step_by(BURST) {
            let slice = &rig.ring[k..k + BURST];
            ledger.span("dataplane.parser", None, || {
                cache.reset();
                for p in slice {
                    black_box(parser.all_visible_cached(p, &mut cache));
                }
            });
            ledger.span("dataplane.field_gather", None, || {
                for p in slice {
                    for f in READ_FIELDS {
                        black_box(p.get_field(f));
                    }
                }
            });
            keys.clear();
            for p in slice {
                keys.push(p.get_field("ipv4.src").unwrap_or(0));
                keys.push(p.get_field("tcp.dport").unwrap_or(0));
            }
            let table = rig.dev.table("acl").expect("acl table");
            ledger.span("dataplane.table.lookup", None, || {
                table.lookup_burst(&keys, 2, &mut hits);
            });
            black_box(&hits);
        }

        // Wire admission: the sealed burst, and its open/parse layers.
        for k in (0..RING).step_by(BURST) {
            let frames = &rig.frames[k..k + BURST];
            let a0 = allocs();
            ledger.span("dataplane.wire.sealed_burst", None, || {
                rig.dev
                    .process_sealed_burst(
                        frames,
                        k as u64,
                        SimTime::ZERO,
                        &mut scratch.pkts,
                        &mut scratch.outcomes,
                    )
                    .expect("sealed burst")
            });
            wire_alloc_n += allocs() - a0;
            let bodies: Vec<&[u8]> = ledger.span("dataplane.wire.open", None, || {
                frames.iter().filter_map(|f| open_frame(f).ok()).collect()
            });
            ledger.span("dataplane.wire.parse", None, || {
                for (j, b) in bodies.iter().enumerate() {
                    black_box(parse_wire(b, j as u64).ok());
                }
            });
        }
        round += 1;
    }

    // Every layer span covers one burst: report its median per packet.
    let per_pkt = |layer: &str| median(&ledger.samples(layer)) / BURST as f64;
    let untraced = median(&reference);
    let burst_ns = per_pkt("dataplane.burst");
    let parser_ns = per_pkt("dataplane.parser");
    let gather_ns = per_pkt("dataplane.field_gather");
    let lookup_ns = per_pkt("dataplane.table.lookup");
    let residual = burst_ns - (parser_ns + gather_ns + lookup_ns);
    let ledger_sum = parser_ns + gather_ns + lookup_ns + residual.max(0.0);
    let gap_pct = 100.0 * (ledger_sum - untraced) / untraced;
    let sealed_ns = per_pkt("dataplane.wire.sealed_burst");
    report.metric("dataplane.process_ns", median(&a_process), "ns");
    report.metric("dataplane.burst1_ns", median(&b_burst1), "ns");
    report.metric("dataplane.ab.burst1_over_process", median(&ratios), "ratio");
    report.metric("dataplane.ab.ratio_iqr", iqr(&ratios), "ratio");
    report.metric("dataplane.burst_ns", burst_ns, "ns");
    report.metric(
        "dataplane.vm_ops_per_pkt",
        ops as f64 / counted as f64,
        "count",
    );
    report.metric(
        "dataplane.allocs_per_pkt",
        alloc_n as f64 / counted as f64,
        "count",
    );
    report.metric("dataplane.parser_ns", parser_ns, "ns");
    report.metric("dataplane.field_gather_ns", gather_ns, "ns");
    report.metric("dataplane.table.lookup_ns", lookup_ns, "ns");
    report.metric("dataplane.exec_residual_ns", residual, "ns");
    report.metric("dataplane.ledger_gap_pct", gap_pct, "%");
    report.metric(
        "trace.fastpath_overhead_pct",
        100.0 * (burst_ns - untraced) / untraced,
        "%",
    );
    report.metric(
        "dataplane.wire.open_ns",
        per_pkt("dataplane.wire.open"),
        "ns",
    );
    report.metric(
        "dataplane.wire.parse_ns",
        per_pkt("dataplane.wire.parse"),
        "ns",
    );
    report.metric("dataplane.wire.admission_ns", sealed_ns - burst_ns, "ns");
    report.metric(
        "dataplane.wire.residual_ns",
        sealed_ns - burst_ns - per_pkt("dataplane.wire.open") - per_pkt("dataplane.wire.parse"),
        "ns",
    );
    report.metric(
        "dataplane.wire.allocs_per_frame",
        wire_alloc_n as f64 / counted as f64,
        "count",
    );
    eprintln!(
        "fastpath ledger: parser {parser_ns:.1} + gather {gather_ns:.1} + lookup {lookup_ns:.1} \
         + residual {residual:.1} = {ledger_sum:.1} ns/pkt against untraced burst {untraced:.1} ns/pkt \
         ({gap_pct:+.1}%): sum check {}",
        if gap_pct.abs() <= 10.0 { "PASS" } else { "FAIL (beyond 10%)" }
    );
    eprintln!(
        "A/B process vs burst-of-one: {:.1} vs {:.1} ns/pkt, paired ratio median {:.3} (IQR {:.3}) over {} pairs",
        median(&a_process),
        median(&b_burst1),
        median(&ratios),
        iqr(&ratios),
        ratios.len()
    );
    report
}
