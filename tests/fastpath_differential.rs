//! Differential tests for the fast packet path: the install-time bytecode
//! VM must be observationally identical to the reference AST interpreter —
//! same verdict, same op count (so latency models agree), same packet
//! mutations, same logical state, same config digest — on every program in
//! the app gallery and on randomized packets.
//!
//! Deterministic sweeps use a pinned xorshift stream (regression seeds à la
//! the chaos suites); the proptest section explores arbitrary packets and
//! records its own regressions file.

use flexnet::prelude::*;
use flexnet_dataplane::device::{ExecMode, ProcessResult};
use flexnet_dataplane::table::{KeyMatch, TableEntry};
use flexnet_dataplane::SandboxConfig;
use flexnet_lang::ast::{ActionCall, MatchKind, TableDecl};
use flexnet_lang::parser::parse_source;
use flexnet_types::Trap;
use proptest::prelude::*;

/// Every program the app gallery can produce, spanning maps, registers,
/// counters, meters, exact/LPM/ternary tables, punts, and services.
fn gallery() -> Vec<(&'static str, ProgramBundle)> {
    use flexnet::apps as a;
    vec![
        ("cms", a::telemetry::count_min_sketch(4, 1024).unwrap()),
        ("heavy_hitter", a::telemetry::heavy_hitter(256, 16).unwrap()),
        ("path_tracer", a::telemetry::path_tracer(7).unwrap()),
        ("firewall", a::security::firewall(64).unwrap()),
        ("syn_defense", a::security::syn_defense(20, 100).unwrap()),
        ("rate_limiter", a::security::rate_limiter(1_000, 64).unwrap()),
        ("l3_router", a::routing::l3_router(64).unwrap()),
        ("vlan_gateway", a::routing::vlan_gateway().unwrap()),
        ("ecmp", a::lb::ecmp(4).unwrap()),
        ("hula", a::lb::hula(4).unwrap()),
        ("ecn_marking", a::cc::ecn_marking(100).unwrap()),
        ("dctcp_host", a::cc::dctcp_host().unwrap()),
        ("hpcc_nic", a::cc::hpcc_nic().unwrap()),
        ("bbr_host", a::cc::bbr_host().unwrap()),
    ]
}

/// A tiny deterministic RNG (xorshift64*), seeded per program so failures
/// pin to a reproducible stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }
}

/// Synthesizes a few entries for `decl` matching its declared key kinds and
/// action signatures, so table-driven programs take real hit paths.
fn synth_entries(decl: &TableDecl, rng: &mut Rng) -> Vec<TableEntry> {
    let mut out = Vec::new();
    for i in 0..6u64 {
        let matches: Vec<KeyMatch> = decl
            .keys
            .iter()
            .map(|k| match k.match_kind {
                // Small values so the packet generator actually hits them.
                MatchKind::Exact => KeyMatch::Exact(rng.next() % 32),
                MatchKind::Lpm => KeyMatch::Lpm {
                    value: rng.next() & 0xffff_ffff,
                    prefix_len: (rng.next() % 25) as u8,
                    width: 32,
                },
                MatchKind::Ternary => KeyMatch::Ternary {
                    value: rng.next() % 64,
                    mask: 0x1f,
                },
                MatchKind::Range => {
                    let lo = rng.next() % 64;
                    KeyMatch::Range {
                        lo,
                        hi: lo + rng.next() % 64,
                    }
                }
            })
            .collect();
        let action = &decl.actions[(i as usize) % decl.actions.len()];
        out.push(TableEntry {
            matches,
            priority: (rng.next() % 4) as i32,
            action: ActionCall {
                action: action.name.clone(),
                args: action.params.iter().map(|_| rng.next() % 1024).collect(),
            },
        });
    }
    out
}

fn dev(mode: ExecMode, kind: flexnet_lang::ast::ProgramKind) -> Device {
    use flexnet_lang::ast::ProgramKind;
    let arch = match kind {
        ProgramKind::Host | ProgramKind::Nic => Architecture::host_default(),
        _ => Architecture::drmt_default(),
    };
    let mut d = Device::new(NodeId(1), arch, StateEncoding::StatefulTable);
    d.set_exec_mode(mode);
    d
}

/// Installs `bundle` on two devices (one per execution mode) with identical
/// synthesized table entries, then checks both process `packets` packets
/// identically, observing verdicts, op counts, packet mutations, logical
/// state, stats, and the config digest.
fn assert_modes_agree(name: &str, bundle: &ProgramBundle, packets: &[Packet]) {
    assert_modes_agree_sandboxed(name, bundle, packets, SandboxConfig::default());
}

/// Like [`assert_modes_agree`], under an explicit sandbox — the gas-sweep
/// tests pin both engines to the same (tiny) budget and require identical
/// trap behaviour, not just identical verdicts.
fn assert_modes_agree_sandboxed(
    name: &str,
    bundle: &ProgramBundle,
    packets: &[Packet],
    sandbox: SandboxConfig,
) {
    let mut interp = dev(ExecMode::Interpreter, bundle.program.kind);
    let mut byte = dev(ExecMode::Bytecode, bundle.program.kind);
    interp.set_sandbox(sandbox);
    byte.set_sandbox(sandbox);
    interp.install(bundle.clone()).expect("installs");
    byte.install(bundle.clone()).expect("installs");
    let mut rng = Rng(0x5eed_0000 ^ name.len() as u64);
    for t in &bundle.program.tables {
        for e in synth_entries(t, &mut rng) {
            interp.add_entry(&t.name, e.clone()).expect("entry fits");
            byte.add_entry(&t.name, e).expect("entry fits");
        }
    }
    for (i, pkt) in packets.iter().enumerate() {
        let now = SimTime::from_millis(i as u64 * 3);
        let mut pa = pkt.clone();
        let mut pb = pkt.clone();
        let ra = interp.process(&mut pa, now);
        let rb = byte.process(&mut pb, now);
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.verdict, rb.verdict, "{name}: verdict, pkt {i}");
                assert_eq!(ra.ops, rb.ops, "{name}: ops, pkt {i}");
                assert_eq!(ra.latency, rb.latency, "{name}: latency, pkt {i}");
                assert_eq!(pa, pb, "{name}: packet mutation, pkt {i}");
                // Trap identity: same variant at the same gas count.
                // UnknownAction payloads name the action differently per
                // engine (source name vs slot index), so payloads compare
                // everywhere else only.
                assert_eq!(
                    ra.trap.as_ref().map(Trap::label),
                    rb.trap.as_ref().map(Trap::label),
                    "{name}: trap kind, pkt {i}"
                );
                if !matches!(ra.trap, Some(Trap::UnknownAction { .. })) {
                    assert_eq!(ra.trap, rb.trap, "{name}: trap payload, pkt {i}");
                }
            }
            (ra, rb) => panic!("{name}: pkt {i} diverged: {ra:?} vs {rb:?}"),
        }
    }
    assert_eq!(
        interp.snapshot_state(),
        byte.snapshot_state(),
        "{name}: logical state"
    );
    assert_eq!(interp.stats(), byte.stats(), "{name}: device stats");
    assert_eq!(
        interp.config_digest(),
        byte.config_digest(),
        "{name}: config digest"
    );
}

/// A deterministic packet stream biased toward small field values (so
/// synthesized table entries and thresholds actually trigger) but with
/// occasional full-range outliers.
fn packet_stream(seed: u64, n: usize) -> Vec<Packet> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| {
            let wide = rng.next().is_multiple_of(8);
            let m = |v: u64| if wide { v } else { v % 32 };
            let mut p = Packet::tcp(
                i as u64,
                m(rng.next()) as u32,
                m(rng.next()) as u32,
                m(rng.next()) as u16,
                m(rng.next()) as u16,
                (rng.next() % 64) as u8,
            );
            p.payload_len = (rng.next() % 1500) as u32;
            p
        })
        .collect()
}

#[test]
fn bytecode_matches_interpreter_on_every_gallery_program() {
    for (name, bundle) in gallery() {
        let pkts = packet_stream(0xfeed ^ name.len() as u64, 200);
        assert_modes_agree(name, &bundle, &pkts);
    }
}

/// Pinned regression seeds, mirroring the chaos suites' convention: any
/// stream that ever exposed a divergence stays here forever.
#[test]
fn bytecode_matches_interpreter_on_regression_seeds() {
    for seed in [1u64, 42, 0xdead_beef, 0x5eed_cafe] {
        for (name, bundle) in gallery() {
            assert_modes_agree(name, &bundle, &packet_stream(seed, 50));
        }
    }
}

/// Gas sweep: every gallery program, both engines, the same tiny budgets.
/// Exhaustion must be a typed `GasExhausted` trap (fail-closed drop) at the
/// identical op count in both modes — the differential invariant extended
/// to the metering layer.
#[test]
fn gas_exhaustion_is_identical_across_modes_on_every_gallery_program() {
    for (name, bundle) in gallery() {
        for gas in [1u64, 3, 7, 19, 47] {
            let pkts = packet_stream(0x9a5 ^ gas ^ name.len() as u64, 40);
            assert_modes_agree_sandboxed(
                name,
                &bundle,
                &pkts,
                SandboxConfig {
                    gas_limit: gas,
                    ..SandboxConfig::default()
                },
            );
        }
    }
}

fn bundle_of(src: &str) -> ProgramBundle {
    let file = parse_source(src).expect("trap program parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

/// Trapping inputs: programs built to hit each typed-trap path on real
/// packets. Both engines must trap with the same variant, the same op
/// count, and the same fail-closed drop — on streams that mix trapping
/// and clean packets.
#[test]
fn trapping_inputs_trap_identically_in_both_modes() {
    let cases: [(&str, &str, &str); 3] = [
        (
            "div_zero",
            "program p kind any {
               map d : map<u32, u32>[16];
               handler ingress(pkt) {
                 let x = 1000 / map_get(d, ipv4.src);
                 forward(1);
               }
             }",
            "div-by-zero",
        ),
        (
            "mod_zero",
            "program p kind any {
               register r : u64[4];
               handler ingress(pkt) {
                 let x = 7 % reg_read(r, 0);
                 forward(1);
               }
             }",
            "div-by-zero",
        ),
        (
            "reg_oob",
            // The verifier proves the modulo bound at install time; a
            // runtime `ModifyState` shrink (applied below) then moves the
            // bound out from under the proof — the state-bomb vector.
            "program p kind any {
               register r : u64[8];
               handler ingress(pkt) {
                 reg_write(r, ipv4.src % 8, 1);
                 forward(1);
               }
             }",
            "state-oob",
        ),
    ];
    for (name, src, want) in cases {
        let bundle = bundle_of(src);
        let mut interp = dev(ExecMode::Interpreter, bundle.program.kind);
        let mut byte = dev(ExecMode::Bytecode, bundle.program.kind);
        interp.install(bundle.clone()).expect("installs");
        byte.install(bundle).expect("installs");
        if name == "reg_oob" {
            use flexnet_lang::ast::{StateDecl, StateKind};
            let shrink = flexnet_lang::diff::ReconfigOp::ModifyState(StateDecl {
                name: "r".into(),
                kind: StateKind::Register { width: 64 },
                size: 2,
            });
            for d in [&mut interp, &mut byte] {
                d.program_mut().unwrap().apply_op(&shrink).expect("shrinks");
            }
        }
        let mut trapped = 0usize;
        for (i, pkt) in packet_stream(0x7a9 ^ name.len() as u64, 80).iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            let ra = interp.process(&mut pkt.clone(), now).expect("processes");
            let rb = byte.process(&mut pkt.clone(), now).expect("processes");
            assert_eq!(ra.verdict, rb.verdict, "{name}: verdict, pkt {i}");
            assert_eq!(ra.ops, rb.ops, "{name}: ops, pkt {i}");
            assert_eq!(ra.trap, rb.trap, "{name}: trap, pkt {i}");
            if let Some(t) = &ra.trap {
                trapped += 1;
                assert_eq!(t.label(), want, "{name}: trap kind, pkt {i}");
                assert_eq!(ra.verdict, Verdict::Drop, "{name}: traps fail closed");
            }
        }
        assert!(trapped > 0, "{name}: the stream never hit the trap path");
        assert_eq!(interp.stats(), byte.stats(), "{name}: device stats");
    }
}

// ---------------------------------------------------------------------------
// Burst differential: `Device::process_burst` must be observationally
// identical to a per-packet `Device::process` loop — same per-packet
// results (verdict, ops, latency, trap, version), same packet mutations,
// same logical state, stats, and config digest — for every gallery
// program, every burst size, and across bursts that straddle trap,
// quarantine, and recirculation boundaries.
// ---------------------------------------------------------------------------

/// Burst sizes the suite sweeps: the degenerate burst, a tiny odd burst
/// (forces mid-stream chunk boundaries), and the two bench operating
/// points.
const BURST_SIZES: [usize; 4] = [1, 3, 64, 256];

/// Drives `packets` through two identically configured devices — one via
/// per-packet [`Device::process`], one via [`Device::process_burst`] in
/// chunks of `burst` — and requires identical observable behaviour. Each
/// chunk shares one timestamp on both paths, mirroring how a burst shares
/// its `now`.
fn assert_burst_matches_single(
    name: &str,
    bundle: &ProgramBundle,
    packets: &[Packet],
    burst: usize,
    mode: ExecMode,
) {
    let mut single = dev(mode, bundle.program.kind);
    let mut bursty = dev(mode, bundle.program.kind);
    single.install(bundle.clone()).expect("installs");
    bursty.install(bundle.clone()).expect("installs");
    let mut rng = Rng(0x5eed_0000 ^ name.len() as u64);
    for t in &bundle.program.tables {
        for e in synth_entries(t, &mut rng) {
            single.add_entry(&t.name, e.clone()).expect("entry fits");
            bursty.add_entry(&t.name, e).expect("entry fits");
        }
    }
    let mut out = Vec::new();
    for (ci, chunk) in packets.chunks(burst.max(1)).enumerate() {
        let now = SimTime::from_millis(ci as u64 * 3);
        let mut singles = Vec::with_capacity(chunk.len());
        let mut single_pkts = Vec::with_capacity(chunk.len());
        for pkt in chunk {
            let mut p = pkt.clone();
            singles.push(single.process(&mut p, now).expect("processes"));
            single_pkts.push(p);
        }
        let mut burst_pkts: Vec<Packet> = chunk.to_vec();
        bursty
            .process_burst(&mut burst_pkts, now, &mut out)
            .expect("processes");
        assert_eq!(
            out, singles,
            "{name}: burst {burst} {mode:?}, chunk {ci} results"
        );
        assert_eq!(
            burst_pkts, single_pkts,
            "{name}: burst {burst} {mode:?}, chunk {ci} packet mutations"
        );
    }
    assert_eq!(
        single.snapshot_state(),
        bursty.snapshot_state(),
        "{name}: burst {burst} {mode:?} logical state"
    );
    assert_eq!(
        single.stats(),
        bursty.stats(),
        "{name}: burst {burst} {mode:?} device stats"
    );
    assert_eq!(
        single.config_digest(),
        bursty.config_digest(),
        "{name}: burst {burst} {mode:?} config digest"
    );
    assert_eq!(
        single.version(),
        bursty.version(),
        "{name}: burst {burst} {mode:?} program version"
    );
    assert_eq!(
        single.quarantined(),
        bursty.quarantined(),
        "{name}: burst {burst} {mode:?} quarantine flag"
    );
}

#[test]
fn burst_matches_single_on_every_gallery_program() {
    for (name, bundle) in gallery() {
        // 300 packets: burst 256 straddles into a 44-packet tail chunk.
        let pkts = packet_stream(0xb0257 ^ name.len() as u64, 300);
        for burst in BURST_SIZES {
            for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
                assert_burst_matches_single(name, &bundle, &pkts, burst, mode);
            }
        }
    }
}

/// Bursts straddling the quarantine boundary: a storm of trapping packets
/// flips the device to its transparent-forward fallback *mid-burst*; the
/// per-packet sequence (traps before the flip, forwards at the bumped
/// version after) must match the single-packet path exactly.
#[test]
fn burst_matches_single_across_trap_and_quarantine_boundaries() {
    let storm = bundle_of(
        "program storm kind any {
           map d : map<u32, u32>[16];
           handler ingress(pkt) {
             let x = 1000 / map_get(d, ipv4.src);
             forward(1);
           }
         }",
    );
    // Every packet traps (the map is empty ⇒ map_get = 0 ⇒ ÷0) until the
    // quarantine flips mid-stream.
    let pkts = packet_stream(0x57012, 100);
    for burst in BURST_SIZES {
        for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
            assert_burst_matches_single("storm", &storm, &pkts, burst, mode);
        }
    }
}

/// Bursts straddling recirculation boundaries: a stateful program whose
/// recirculation depth varies per packet (register-counted passes), plus
/// one that always recirculates into the MAX_RECIRCULATIONS fail-closed
/// drop.
#[test]
fn burst_matches_single_across_recirculation_boundaries() {
    let counted = bundle_of(
        "program spiral kind any {
           register passes : u64[4];
           handler ingress(pkt) {
             let n = reg_read(passes, 0);
             reg_write(passes, 0, n + 1);
             if (n % 4 == 3) { forward(1); }
             recirculate();
           }
         }",
    );
    let runaway = bundle_of(
        "program runaway kind any {
           handler ingress(pkt) { recirculate(); }
         }",
    );
    for bundle in [&counted, &runaway] {
        let pkts = packet_stream(0x2ec12c, 120);
        for burst in BURST_SIZES {
            for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
                assert_burst_matches_single(&bundle.program.name, bundle, &pkts, burst, mode);
            }
        }
    }
}

/// Gas-boundary bursts: tiny budgets make exhaustion land mid-burst; the
/// typed `GasExhausted` trap and its op count must be chunk-invariant.
#[test]
fn burst_matches_single_under_tiny_gas_budgets() {
    for (name, bundle) in [
        ("cms", flexnet::apps::telemetry::count_min_sketch(4, 1024).unwrap()),
        ("firewall", flexnet::apps::security::firewall(64).unwrap()),
    ] {
        for gas in [3u64, 19] {
            let pkts = packet_stream(0x9a5b ^ gas, 90);
            for burst in BURST_SIZES {
                let mut single = dev(ExecMode::Bytecode, bundle.program.kind);
                let mut bursty = dev(ExecMode::Bytecode, bundle.program.kind);
                let sandbox = SandboxConfig {
                    gas_limit: gas,
                    ..SandboxConfig::default()
                };
                single.set_sandbox(sandbox);
                bursty.set_sandbox(sandbox);
                single.install(bundle.clone()).expect("installs");
                bursty.install(bundle.clone()).expect("installs");
                let mut out = Vec::new();
                for (ci, chunk) in pkts.chunks(burst).enumerate() {
                    let now = SimTime::from_millis(ci as u64);
                    let singles: Vec<ProcessResult> = chunk
                        .iter()
                        .map(|p| single.process(&mut p.clone(), now).expect("processes"))
                        .collect();
                    let mut burst_pkts: Vec<Packet> = chunk.to_vec();
                    bursty
                        .process_burst(&mut burst_pkts, now, &mut out)
                        .expect("processes");
                    assert_eq!(out, singles, "{name}: gas {gas} burst {burst} chunk {ci}");
                }
                assert_eq!(single.stats(), bursty.stats(), "{name}: gas {gas} stats");
            }
        }
    }
}

proptest! {
    // Arbitrary packet streams and arbitrary burst sizes against the two
    // most stateful gallery programs: the chunked burst path must be
    // indistinguishable from the per-packet loop.
    #[test]
    fn burst_matches_single_on_arbitrary_streams(
        seed in any::<u64>(),
        n in 1usize..80,
        burst in 1usize..300,
    ) {
        for bundle in [
            flexnet::apps::telemetry::heavy_hitter(64, 3).unwrap(),
            flexnet::apps::security::firewall(16).unwrap(),
        ] {
            let pkts = packet_stream(seed, n);
            assert_burst_matches_single(
                &bundle.program.name, &bundle, &pkts, burst, ExecMode::Bytecode,
            );
        }
    }
}

proptest! {
    // Arbitrary packets against the two most stateful gallery programs:
    // heavy_hitter (map + punt) and firewall (table + counter).
    #[test]
    fn bytecode_matches_interpreter_on_arbitrary_packets(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        flags in any::<u8>(),
        payload in 0u32..4096,
        reps in 1usize..8,
    ) {
        for bundle in [
            flexnet::apps::telemetry::heavy_hitter(64, 3).unwrap(),
            flexnet::apps::security::firewall(16).unwrap(),
        ] {
            let mut p = Packet::tcp(1, src, dst, sport, dport, flags);
            p.payload_len = payload;
            // Repeat the same packet so threshold/punt paths can fire.
            let pkts = vec![p; reps];
            assert_modes_agree(&bundle.program.name, &bundle, &pkts);
        }
    }
}

// ---------------------------------------------------------------------------
// Sealed-burst differential: `Device::process_sealed_burst`, parsing in
// place over one `pkts` Vec recycled across every burst, must be
// observationally identical to feeding the same frames one at a time
// through `Device::process_sealed_bytes` — same per-frame outcomes, same
// stats — and must leave every admitted packet exactly as a fresh parse
// plus `Device::process` leaves it, trace and metadata included.
// ---------------------------------------------------------------------------

/// A sealed frame stream: TCP and UDP frames, some VLAN-tagged, some with
/// payload, with checksum and parse poison at the first frame, the last
/// frame, and at, inside and at the end of 3- and 64-frame bursts.
fn sealed_stream() -> Vec<Vec<u8>> {
    use flexnet_dataplane::{encode_wire, flip_bits, seal_frame};
    let mut rng = Rng(0x5ea1ed);
    let mut frames: Vec<Vec<u8>> = packet_stream(0x5ea1, 200)
        .into_iter()
        .enumerate()
        .map(|(i, tcp)| {
            let mut p = if i % 5 == 2 {
                Packet::udp(i as u64, (rng.next() % 32) as u32, 9, 5, 53)
            } else {
                tcp
            };
            if i % 7 == 3 {
                p.insert_header(flexnet_types::Header::vlan(rng.next() % 4096), Some("eth"));
            }
            p.payload = vec![i as u8; (rng.next() % 24) as usize].into();
            seal_frame(&encode_wire(&p))
        })
        .collect();
    let last = frames.len() - 1;
    for k in [0, 32, 63, 130, last] {
        flip_bits(&mut frames[k], 0xc0ffee ^ k as u64, 2);
    }
    // Validly sealed bodies the parser rejects: junk, and a TCP frame
    // whose IPv4 total length overruns the frame.
    let mut overrun = encode_wire(&Packet::tcp(0, 1, 2, 3, 4, 0));
    overrun[16] = 0xff;
    for k in [1, 33, 64, 100, last - 1] {
        let body: &[u8] = if k % 2 == 0 { &[0xff; 5] } else { &overrun };
        frames[k] = seal_frame(body);
    }
    frames
}

/// Depending on the source address, writes metadata, removes the `tcp`
/// header or pushes a VLAN tag — so the slots the next burst recycles are
/// dirty in every way a program can make them, and stale dirt shows.
const RECYCLING_PROGRAM: &str = "program recycler kind any {
   counter seen;
   handler ingress(pkt) {
     count(seen);
     if (ipv4.src % 2 == 0) { meta.mark = hash(ipv4.src, pktlen()); }
     if (ipv4.src % 3 == 1) { remove_header(tcp); }
     if (ipv4.src % 3 == 2 && !valid(vlan)) {
       add_header(vlan);
       vlan.vid = ipv4.dst % 4096;
     }
     forward(1);
   }
 }";

#[test]
fn sealed_burst_matches_sealed_single_across_recycled_bursts() {
    use flexnet_dataplane::device::FrameOutcome;
    use flexnet_dataplane::{open_frame, parse_wire};
    let bundle = bundle_of(RECYCLING_PROGRAM);
    let frames = sealed_stream();
    // One Vec for every burst of every run: slots always start dirty.
    let mut pkts: Vec<Packet> = Vec::new();
    let mut out = Vec::new();
    for mode in [ExecMode::Interpreter, ExecMode::Bytecode] {
        for burst in [1usize, 3, 64] {
            let mut bursty = dev(mode, bundle.program.kind);
            let mut single = dev(mode, bundle.program.kind);
            let mut fresh = dev(mode, bundle.program.kind);
            for d in [&mut bursty, &mut single, &mut fresh] {
                d.install(bundle.clone()).expect("installs");
            }
            for (ci, chunk) in frames.chunks(burst).enumerate() {
                let now = SimTime::from_millis(ci as u64 * 3);
                let first_id = (ci * burst) as u64;
                bursty
                    .process_sealed_burst(chunk, first_id, now, &mut pkts, &mut out)
                    .expect("sealed burst");
                assert_eq!(out.len(), chunk.len(), "{mode:?} burst {burst}, chunk {ci}");
                let mut admitted = pkts.iter();
                for (j, (frame, got)) in chunk.iter().zip(&out).enumerate() {
                    let at = format!("{mode:?} burst {burst}, chunk {ci}, frame {j}");
                    let id = first_id + j as u64;
                    let r = single.process_sealed_bytes(frame, id, now);
                    // The reference packet: a fresh parse run through the
                    // single-packet path on a third twin.
                    let reference = open_frame(frame).map(|body| parse_wire(body, id));
                    match (got, r, reference) {
                        (
                            FrameOutcome::ChecksumDrop,
                            Err(FlexError::ChecksumMismatch { .. }),
                            Err(_),
                        ) => {}
                        (FrameOutcome::ParseDrop(g), Ok(r), Ok(Err(_))) => {
                            assert_eq!(*g, r, "{at}")
                        }
                        (FrameOutcome::Processed(g), Ok(r), Ok(Ok(mut p))) => {
                            assert_eq!(*g, r, "{at}: result");
                            let rf = fresh.process(&mut p, now).expect("processes");
                            assert_eq!(rf, r, "{at}: single-packet result");
                            assert_eq!(admitted.next(), Some(&p), "{at}: admitted packet");
                        }
                        (got, r, reference) => {
                            panic!("{at}: burst {got:?} vs single {r:?} (reference {reference:?})")
                        }
                    }
                }
                assert_eq!(
                    admitted.next(),
                    None,
                    "{mode:?} burst {burst}, chunk {ci}: extra packets"
                );
            }
            assert_eq!(
                bursty.stats(),
                single.stats(),
                "{mode:?} burst {burst}: device stats"
            );
            assert_eq!(
                bursty.snapshot_state(),
                fresh.snapshot_state(),
                "{mode:?} burst {burst}: logical state"
            );
        }
    }
}
