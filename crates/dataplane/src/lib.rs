//! # flexnet-dataplane — runtime-reconfigurable device models
//!
//! The data-plane substrate of the FlexNet reproduction ("A Vision for
//! Runtime Programmable Networks", HotNets '21). In place of the paper's
//! hardware targets (Spectrum/Tofino/Trident4 ASICs, SmartNICs, host
//! kernels) this crate provides behaviourally-faithful simulators:
//!
//! - [`arch`] — RMT, dRMT, tiled/elastic-pipe, SmartNIC, and host resource
//!   models with architecture-specific fungibility (paper §3.3 i–iv).
//! - [`table`] — the match/action engine (exact/LPM/ternary/range).
//! - [`state`] — stateful-state encodings (registers, flow instruction
//!   sets, stateful tables) behind a virtualized logical K/V layer (§3.1).
//! - [`parser`] — the parser graph with runtime state add/remove (§2).
//! - [`device`] — the device: placement, packet processing, statistics.
//! - [`reconfig`] — hitless runtime reconfiguration (shadow program +
//!   atomic version flip), the drain/reflash compile-time baseline, and an
//!   unsafe in-place ablation (§2).
//! - [`baseline`] — Mantis- and HyPer4-style approximations (§1.1).
//! - [`cost`] — per-architecture latency/reconfiguration/energy models.
//! - [`wire`] — the raw-bytes wire codec feeding the sandbox's
//!   poison-packet entry point ([`device::Device::process_bytes`]).
//! - [`graph`] — the burst hot path: a forwarding graph of composable
//!   nodes (parse → exec → sched → emit) over reusable packet vectors,
//!   built on [`device::Device::process_burst`].
//! - [`sched`] — the weighted (deficit) round-robin egress scheduler
//!   behind the graph's queue stage.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arch;
pub mod baseline;
pub mod cost;
pub mod device;
pub mod graph;
pub mod parser;
pub mod reconfig;
pub mod sched;
pub mod state;
pub mod table;
pub mod wire;

pub use arch::{ArchAllocator, ArchClass, Architecture, Location};
pub use baseline::{Hyper4Device, MantisDevice};
pub use cost::CostModel;
pub use device::{
    config_digest_of, Device, DeviceStats, ExecMode, FrameOutcome, InstalledProgram,
    ProcessResult, SandboxConfig, DEDUP_WINDOW, EMPTY_CONFIG_DIGEST,
};
pub use graph::{
    BurstLanes, Classifier, EmitNode, ExecNode, ForwardingGraph, GraphCtx, GraphNode, SchedNode,
};
pub use parser::ParserGraph;
pub use reconfig::{ReconfigMode, ReconfigOutcome, ReconfigReport, TxnTag};
pub use sched::EgressScheduler;
pub use state::{DeviceState, LogicalState, StateEncoding};
pub use table::{KeyMatch, TableEntry, TableInstance, TableSet, BURST_MISS};
pub use wire::{
    encode_wire, flip_bits, frame_checksum, open_frame, parse_wire, parse_wire_into, seal_frame,
};
