//! Sandbox fuzzing: arbitrary bytes against the wire parser and
//! arbitrary (bounded) generated programs against both execution
//! engines.
//!
//! Two properties anchor the isolation story (E18):
//!
//! 1. **No panic, ever.** Any byte string fed to [`parse_wire`] (or to a
//!    device's `process_bytes`) either parses or surfaces a typed
//!    [`Trap::MalformedPacket`] — the packet path has no `unwrap` left
//!    for hostile input to reach.
//! 2. **Gas termination with parity.** Any generated program, under any
//!    small gas budget, terminates within the budget (plus the widest
//!    single charge) in BOTH engines, with identical verdicts, op
//!    counts, and trap variants.
//!
//! A third property anchors the E20 integrity story: any sealed frame
//! corrupted in flight (1–8 flipped bits) is rejected by the checksum
//! **before** program execution — it never panics, never parse-traps,
//! and never counts against the program's quarantine ledger.
//!
//! Failures pin to `tests/sandbox_fuzz.proptest-regressions`, mirroring
//! the existing property suites.

use flexnet::prelude::*;
use flexnet_dataplane::device::ExecMode;
use flexnet_dataplane::{encode_wire, parse_wire, parse_wire_into, SandboxConfig};
use flexnet_lang::parser::parse_source;
use flexnet_types::{FlexError, Header, Trap};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Wire parser: arbitrary bytes.
// ---------------------------------------------------------------------

proptest! {
    /// Any byte soup: the parser returns a packet or a typed malformed-
    /// packet trap. Nothing panics, nothing else errors.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match parse_wire(&bytes, 1) {
            Ok(_) => {}
            Err(FlexError::Trap(Trap::MalformedPacket { .. })) => {}
            Err(e) => prop_assert!(false, "non-trap error from parser: {e}"),
        }
    }

    /// Frames that do parse survive an encode/re-parse round trip with
    /// identical headers (the codec is self-consistent).
    #[test]
    fn parsed_frames_round_trip(bytes in proptest::collection::vec(any::<u8>(), 14..192)) {
        if let Ok(pkt) = parse_wire(&bytes, 7) {
            let encoded = encode_wire(&pkt);
            let again = parse_wire(&encoded, 7);
            prop_assert!(again.is_ok(), "re-parse failed: {:?}", again.err());
            prop_assert_eq!(&pkt.headers, &again.unwrap().headers);
        }
    }

    /// In-place parsing over a recycled packet is indistinguishable from a
    /// fresh parse: same `Ok`/`Err`, same trap reason, and on `Ok` the
    /// slot equals the fresh packet whatever it held before. `steer`
    /// rewrites the ethertype and IPv4 preamble of longer soups so the
    /// property also reaches the IPv4/TCP/UDP layers.
    #[test]
    fn in_place_parse_matches_fresh_parse(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        steer in 0u8..3,
        prior in (0u8..4, any::<u32>(), any::<u64>()),
    ) {
        let mut bytes = bytes;
        if steer > 0 && bytes.len() >= 34 {
            let ip_len = (bytes.len() - 14) as u16;
            bytes[12..16].copy_from_slice(&[0x08, 0x00, 0x45, 0x00]);
            bytes[16..18].copy_from_slice(&ip_len.to_be_bytes());
            bytes[23] = if steer == 1 { 6 } else { 17 };
        }
        let mut slot = prior_packet(prior);
        let in_place = parse_wire_into(&bytes, 5, &mut slot);
        match (parse_wire(&bytes, 5), in_place) {
            (Ok(fresh), Ok(())) => prop_assert_eq!(slot, fresh),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "fresh {a:?} vs in place {b:?}"),
        }
    }

    /// The device-level poison entry point: arbitrary bytes against a
    /// live program never panic and never indict the program.
    #[test]
    fn process_bytes_never_panics_or_quarantines(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..24),
    ) {
        let bundle = flexnet::apps::security::firewall(16).unwrap();
        let mut d = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle).unwrap();
        for (i, f) in frames.iter().enumerate() {
            let r = d.process_bytes(f, i as u64, SimTime::from_millis(i as u64));
            prop_assert!(r.is_ok(), "frame {i}: {:?}", r.err());
        }
        prop_assert!(!d.quarantined(), "poison bytes quarantined the program");
        let stats = d.stats();
        prop_assert_eq!(
            stats.parse_traps + stats.processed,
            frames.len() as u64,
            "every frame either parsed or parse-trapped"
        );
    }

    /// Corrupt-in-flight (E20): a *valid* frame is sealed with its FNV
    /// checksum, then 1–8 bits flip on the wire. The device rejects it at
    /// the integrity boundary — a typed `ChecksumMismatch`, never a
    /// panic — and the damage is billed to the fabric (`checksum_drops`),
    /// never to the program: no parse trap, no processed packet, no
    /// quarantine.
    #[test]
    fn corrupted_sealed_frames_never_reach_the_program(
        srcs in proptest::collection::vec(any::<u32>(), 1..16),
        flip_seed in any::<u64>(),
        flips in 1u32..=8,
    ) {
        use flexnet_dataplane::{flip_bits, seal_frame};
        let bundle = flexnet::apps::security::firewall(16).unwrap();
        let mut d = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle).unwrap();
        let before = d.stats();
        for (i, &s) in srcs.iter().enumerate() {
            let pkt = Packet::tcp(i as u64, s, s ^ 9, 1000, 80, 0);
            let mut sealed = seal_frame(&encode_wire(&pkt));
            flip_bits(&mut sealed, flip_seed.wrapping_add(i as u64), flips);
            let r = d.process_sealed_bytes(&sealed, i as u64, SimTime::from_millis(i as u64));
            prop_assert!(
                matches!(r, Err(FlexError::ChecksumMismatch { .. })),
                "frame {i}: corruption slipped past the checksum: {r:?}"
            );
        }
        let after = d.stats();
        prop_assert_eq!(after.checksum_drops, srcs.len() as u64, "every frame billed to the fabric");
        prop_assert_eq!(after.parse_traps, before.parse_traps, "no parse trap for wire damage");
        prop_assert_eq!(after.processed, before.processed, "no corrupted frame executed");
        prop_assert_eq!(after.traps, before.traps, "no program trap for wire damage");
        prop_assert!(!d.quarantined(), "wire corruption quarantined the program");
    }
}

/// A packet left dirty the ways a recycled burst slot can be: program-
/// mutated TCP, TCP missing its `tcp` header, UDP with an extra tenant
/// header, or empty.
fn prior_packet((kind, addr, meta): (u8, u32, u64)) -> Packet {
    let mut p = match kind {
        0 => Packet::new(0, Vec::new(), 0),
        1 => {
            let mut p = Packet::tcp(meta, addr, !addr, 1, 2, 0x10);
            p.header_mut("tcp").unwrap().set("mark", meta);
            p
        }
        2 => {
            let mut p = Packet::tcp(meta, addr, addr, 3, 4, 0);
            p.remove_header("tcp");
            p
        }
        _ => {
            let mut p = Packet::udp(meta, addr, 9, 5, 6);
            p.headers.push(Header::new("tenant", [("id", meta)]));
            p
        }
    };
    p.metadata.insert("mark", meta);
    p.trace.push((NodeId(addr), ProgramVersion(meta)));
    p.ingress_time = SimTime::from_millis(meta % 1000);
    p.payload = vec![addr as u8; (meta % 32) as usize].into();
    p
}

// ---------------------------------------------------------------------
// Generated programs: both engines, tiny gas budgets.
// ---------------------------------------------------------------------

/// One generated statement, drawn from the sandbox-relevant vocabulary:
/// state reads/writes, arithmetic that can divide by zero, bounded
/// loops, table applies, and verdicts.
#[derive(Debug, Clone)]
enum GenStmt {
    Count,
    RegBump { idx: u64, add: u64 },
    DivByMap { num: u64 },
    ModByReg { num: u64 },
    Repeat { times: u64, inner: u64 },
    IfDrop { threshold: u64 },
    Apply,
    Forward { port: u64 },
}

fn gen_stmt() -> impl Strategy<Value = GenStmt> {
    prop_oneof![
        Just(GenStmt::Count),
        (0u64..8, 1u64..64).prop_map(|(idx, add)| GenStmt::RegBump { idx, add }),
        (1u64..1000).prop_map(|num| GenStmt::DivByMap { num }),
        (1u64..1000).prop_map(|num| GenStmt::ModByReg { num }),
        (1u64..6, 1u64..4).prop_map(|(times, inner)| GenStmt::Repeat { times, inner }),
        (0u64..64).prop_map(|threshold| GenStmt::IfDrop { threshold }),
        Just(GenStmt::Apply),
        (1u64..4).prop_map(|port| GenStmt::Forward { port }),
    ]
}

impl GenStmt {
    fn render(&self) -> String {
        match self {
            GenStmt::Count => "count(c);".into(),
            GenStmt::RegBump { idx, add } => format!(
                "reg_write(r, {idx} % 8, reg_read(r, {idx} % 8) + {add});"
            ),
            GenStmt::DivByMap { num } => {
                format!("let q{num} = {num} / map_get(m, ipv4.src);")
            }
            GenStmt::ModByReg { num } => {
                format!("let w{num} = {num} % reg_read(r, 1);")
            }
            GenStmt::Repeat { times, inner } => format!(
                "repeat ({times}) {{ repeat ({inner}) {{ reg_write(r, 0, reg_read(r, 0) + 1); }} }}"
            ),
            GenStmt::IfDrop { threshold } => {
                format!("if (reg_read(r, 2) > {threshold}) {{ drop(); }}")
            }
            GenStmt::Apply => "apply t;".into(),
            GenStmt::Forward { port } => format!("forward({port});"),
        }
    }
}

/// Renders a generated statement list into a full program with the state
/// and table vocabulary the statements reference.
fn render_program(stmts: &[GenStmt]) -> String {
    let body: String = stmts.iter().map(|s| s.render() + "\n").collect();
    format!(
        "program fuzzed kind any {{
           counter c;
           register r : u64[8];
           map m : map<u32, u32>[16];
           table t {{
             key {{ ipv4.src : exact; }}
             action fwd(port: u16) {{ forward(port); }}
             default fwd(1);
             size 8;
           }}
           handler ingress(pkt) {{
             {body}
             forward(1);
           }}
         }}"
    )
}

/// Pinned regressions: generated shapes that once broke the harness or
/// the engines stay here forever, chaos-suite style, independent of the
/// proptest seed file.
#[test]
fn pinned_generated_program_regressions() {
    let pinned: [&[GenStmt]; 3] = [
        // `apply` is statement syntax (`apply t;`), and an apply charges
        // 4 gas in one tick — the widest single charge.
        &[GenStmt::Apply, GenStmt::Count],
        // Division by an empty-map lookup traps on every packet.
        &[GenStmt::DivByMap { num: 1000 }, GenStmt::Forward { port: 1 }],
        // A mod whose divisor register is bumped first: traps only until
        // the bump lands, then runs clean — exercises mixed streams.
        &[
            GenStmt::ModByReg { num: 7 },
            GenStmt::RegBump { idx: 1, add: 3 },
        ],
    ];
    for (case, stmts) in pinned.iter().enumerate() {
        let src = render_program(stmts);
        let file = parse_source(&src).expect("pinned source parses");
        let bundle = ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        };
        for gas in [1u64, 5, 64] {
            let mut devs: Vec<Device> = [ExecMode::Interpreter, ExecMode::Bytecode]
                .iter()
                .map(|&mode| {
                    let mut d = Device::new(
                        NodeId(1),
                        Architecture::drmt_default(),
                        StateEncoding::StatefulTable,
                    );
                    d.set_exec_mode(mode);
                    d.set_sandbox(SandboxConfig {
                        gas_limit: gas,
                        ..SandboxConfig::default()
                    });
                    d
                })
                .collect();
            for d in &mut devs {
                d.install(bundle.clone()).expect("pinned program installs");
            }
            for i in 0..12u64 {
                let now = SimTime::from_millis(i);
                let pkt = Packet::tcp(i, i as u32, 3, 1000, 80, 0);
                let ra = devs[0].process(&mut pkt.clone(), now).unwrap();
                let rb = devs[1].process(&mut pkt.clone(), now).unwrap();
                assert_eq!(ra.verdict, rb.verdict, "case {case} gas {gas} pkt {i}");
                assert_eq!(ra.ops, rb.ops, "case {case} gas {gas} pkt {i}");
                assert_eq!(
                    ra.trap.as_ref().map(Trap::label),
                    rb.trap.as_ref().map(Trap::label),
                    "case {case} gas {gas} pkt {i}"
                );
            }
            assert_eq!(devs[0].stats(), devs[1].stats(), "case {case} gas {gas}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated programs under tiny budgets: both engines agree on
    /// verdict, op count, and trap variant for every packet, and gas
    /// exhaustion halts within the budget plus the widest single charge
    /// (an `apply` bills 4 ops at once).
    #[test]
    fn generated_programs_agree_and_terminate_under_gas(
        stmts in proptest::collection::vec(gen_stmt(), 1..8),
        gas in 1u64..96,
        srcs in proptest::collection::vec(0u32..64, 1..6),
    ) {
        let src = render_program(&stmts);
        let file = parse_source(&src).expect("generated source parses");
        let bundle = ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        };
        let mut devs: Vec<Device> = [ExecMode::Interpreter, ExecMode::Bytecode]
            .iter()
            .map(|&mode| {
                let mut d = Device::new(
                    NodeId(1),
                    Architecture::drmt_default(),
                    StateEncoding::StatefulTable,
                );
                d.set_exec_mode(mode);
                d.set_sandbox(SandboxConfig { gas_limit: gas, ..SandboxConfig::default() });
                d
            })
            .collect();
        let installs: Vec<bool> = devs
            .iter_mut()
            .map(|d| d.install(bundle.clone()).is_ok())
            .collect();
        // The verifier may reject a generated program (e.g. an unprovable
        // bound) — but it must reject it identically for both engines.
        prop_assert_eq!(installs[0], installs[1], "install divergence");
        if !installs[0] {
            return Ok(());
        }
        for (i, &s) in srcs.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            let pkt = Packet::tcp(i as u64, s, s ^ 5, 1000, 80, 0);
            let ra = devs[0].process(&mut pkt.clone(), now).expect("interp processes");
            let rb = devs[1].process(&mut pkt.clone(), now).expect("bytecode processes");
            prop_assert_eq!(&ra.verdict, &rb.verdict, "verdict, pkt {}", i);
            prop_assert_eq!(ra.ops, rb.ops, "ops, pkt {}", i);
            prop_assert_eq!(
                ra.trap.as_ref().map(Trap::label),
                rb.trap.as_ref().map(Trap::label),
                "trap kind, pkt {}", i
            );
            // Gas termination: however hostile the program, the per-
            // packet work is bounded by the budget plus one max charge,
            // times the recirculation allowance baked into `process`.
            prop_assert!(
                ra.ops <= (gas + 4) * 5,
                "pkt {} burned {} ops against budget {}", i, ra.ops, gas
            );
            if matches!(ra.trap, Some(Trap::GasExhausted { .. })) {
                prop_assert_eq!(&ra.verdict, &Verdict::Drop, "gas traps fail closed");
            }
        }
        prop_assert_eq!(devs[0].stats(), devs[1].stats(), "device stats");
        prop_assert_eq!(
            devs[0].snapshot_state(),
            devs[1].snapshot_state(),
            "logical state"
        );
    }
}
