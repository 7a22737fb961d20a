//! The discrete-event simulation engine.
//!
//! Packets traverse the topology hop by hop: each hop costs the device's
//! processing latency (from its cost model and the program's op count), the
//! link's serialization delay, queueing at both the device and the link, and
//! propagation. Control actions (runtime reconfigurations, reflashes, table
//! entry changes) are scheduled as timed [`Command`]s, so experiments can
//! reprogram the network *while traffic is in flight* — the whole point of
//! FlexNet.
//!
//! Events come from two sources merged by `(at, seq)`: a heap of scheduled
//! commands and in-flight hops, and the pre-sorted stream of loaded
//! departures, so event order is exactly that of one combined queue. Each
//! hop runs on its device as a burst of one.

use crate::metrics::{LossKind, Metrics};
use crate::topology::{NodeKind, Topology};
use crate::workload::Departure;
use flexnet_dataplane::reconfig::ReconfigReport;
use flexnet_dataplane::table::{KeyMatch, TableEntry};
use flexnet_dataplane::ProcessResult;
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::{names, LinkId, NodeId, Packet, SimDuration, SimTime, Verdict};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Maximum hops before a packet is declared looping.
pub const HOP_LIMIT: u64 = 32;
/// Device ingress queue bound, expressed as waiting time.
pub const DEVICE_QUEUE_BOUND: SimDuration = SimDuration::from_millis(1);

/// A scheduled control action.
#[derive(Debug, Clone)]
pub enum Command {
    /// Inject a packet at a node.
    Inject {
        /// Injecting node.
        node: NodeId,
        /// The packet.
        packet: Packet,
    },
    /// Install a program immediately (setup-time; not a live reconfig).
    Install {
        /// Target node.
        node: NodeId,
        /// The bundle to install.
        bundle: ProgramBundle,
    },
    /// Begin a hitless runtime reconfiguration.
    RuntimeReconfig {
        /// Target node.
        node: NodeId,
        /// The new bundle.
        bundle: ProgramBundle,
    },
    /// Begin a compile-time drain/reflash.
    Reflash {
        /// Target node.
        node: NodeId,
        /// The new bundle.
        bundle: ProgramBundle,
    },
    /// Begin the unsafe in-place ablation.
    UnsafeReconfig {
        /// Target node.
        node: NodeId,
        /// The new bundle.
        bundle: ProgramBundle,
    },
    /// Add a table entry.
    AddEntry {
        /// Target node.
        node: NodeId,
        /// Table name.
        table: String,
        /// The entry.
        entry: TableEntry,
    },
    /// Remove table entries matching exactly.
    RemoveEntry {
        /// Target node.
        node: NodeId,
        /// Table name.
        table: String,
        /// Key matches identifying the entries.
        matches: Vec<KeyMatch>,
    },
    /// Fault injection: crash a device. Packets arriving at it are lost,
    /// an in-flight reconfiguration is discarded, and routes recompute
    /// around it.
    CrashDevice {
        /// The device to crash.
        node: NodeId,
    },
    /// Fault injection: restart a crashed device with its runtime state
    /// wiped (counters, registers, maps, table entries).
    RestartDevice {
        /// The device to restart.
        node: NodeId,
    },
    /// Fault injection: take a link (and its reverse direction) up or
    /// down. Routes recompute around the change.
    SetLinkState {
        /// Either direction of the affected link pair.
        link: LinkId,
        /// `true` to restore the link, `false` to cut it.
        up: bool,
    },
    /// Fault injection: abort an in-flight reconfiguration on a device,
    /// rolling back to the exact pre-reconfig program and state.
    AbortReconfig {
        /// The device whose transition to abort.
        node: NodeId,
    },
}

#[derive(Debug)]
enum EventKind {
    Command(Command),
    Arrive { node: NodeId, packet: Packet },
}

#[derive(Debug)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Default capacity cap for the simulation's observability logs.
///
/// Generous enough that every experiment in `EXPERIMENTS.md` records every
/// event, but bounds memory on adversarial or very long runs (a punt storm
/// used to grow `punt_log` without limit). Overflow is *counted*, never
/// silent — see [`LogBuffer::dropped`].
pub const DEFAULT_LOG_CAP: usize = 100_000;

/// A bounded append-only event log: keeps the first `cap` records and
/// counts (rather than stores) everything past the cap.
///
/// Dereferences to a slice, so reading code treats it exactly like the
/// `Vec` it replaced (`len`, `is_empty`, indexing, iteration).
#[derive(Debug, Clone)]
pub struct LogBuffer<T> {
    items: Vec<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Default for LogBuffer<T> {
    fn default() -> Self {
        LogBuffer::with_cap(DEFAULT_LOG_CAP)
    }
}

impl<T> LogBuffer<T> {
    /// An empty log that stores at most `cap` records.
    pub fn with_cap(cap: usize) -> LogBuffer<T> {
        LogBuffer {
            items: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Appends a record, or counts it as dropped once the cap is reached.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of records discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the log, retaining its allocation, so a long-lived buffer
    /// can serve as per-run scratch (e.g. the burst sweep driver's
    /// per-burst records) without reallocating each run.
    pub fn clear(&mut self) {
        self.items.clear();
        self.dropped = 0;
    }
}

impl<T> std::ops::Deref for LogBuffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<'a, T> IntoIterator for &'a LogBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// The simulation: topology + event queue + metrics.
#[derive(Debug)]
pub struct Simulation {
    /// The network.
    pub topo: Topology,
    routes: BTreeMap<(NodeId, NodeId), LinkId>,
    queue: BinaryHeap<Reverse<Event>>,
    /// Loaded departures with their sequence numbers, in `(at, seq)` order.
    departures: VecDeque<(u64, Departure)>,
    /// Reused result buffer for each hop's burst of one.
    results: Vec<ProcessResult>,
    /// Collected metrics.
    pub metrics: Metrics,
    now: SimTime,
    seq: u64,
    /// Reconfiguration reports, in initiation order.
    pub reconfig_reports: Vec<(SimTime, NodeId, ReconfigReport)>,
    /// dRPC invocations observed at devices: (time, node, service, args).
    pub invocation_log: LogBuffer<(SimTime, NodeId, String, Vec<u64>)>,
    /// Packets punted to the controller: (time, node, packet).
    pub punt_log: LogBuffer<(SimTime, NodeId, Packet)>,
    /// Command errors (failed reconfigs etc.): (time, description).
    pub errors: LogBuffer<(SimTime, String)>,
}

impl Simulation {
    /// Builds a simulation over `topo`, computing shortest-path routes.
    pub fn new(topo: Topology) -> Simulation {
        let routes = topo.compute_routes();
        Simulation {
            topo,
            routes,
            queue: BinaryHeap::new(),
            departures: VecDeque::new(),
            results: Vec::with_capacity(1),
            metrics: Metrics::default(),
            now: SimTime::ZERO,
            seq: 0,
            reconfig_reports: Vec::new(),
            invocation_log: LogBuffer::default(),
            punt_log: LogBuffer::default(),
            errors: LogBuffer::default(),
        }
    }

    /// Recomputes routes (after topology edits).
    pub fn recompute_routes(&mut self) {
        self.routes = self.topo.compute_routes();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a command at `at`.
    pub fn schedule(&mut self, at: SimTime, command: Command) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            kind: EventKind::Command(command),
        }));
    }

    /// Schedules a correlated mass restart: every node in `nodes`
    /// crashes at `crash_at` and restarts `downtime` later with its
    /// runtime state wiped — the power-event shape the overload chaos
    /// scenarios use to stampede the controller with simultaneous
    /// resync demand.
    pub fn schedule_mass_restart(
        &mut self,
        nodes: &[NodeId],
        crash_at: SimTime,
        downtime: SimDuration,
    ) {
        for &node in nodes {
            self.schedule(crash_at, Command::CrashDevice { node });
            self.schedule(crash_at + downtime, Command::RestartDevice { node });
        }
    }

    /// Loads a generated packet schedule.
    ///
    /// Each departure gets its sequence number in input order, exactly as
    /// if it were [`Simulation::schedule`]d as a [`Command::Inject`], but
    /// waits in the departure stream rather than the event heap.
    pub fn load(&mut self, departures: Vec<Departure>) {
        let mut batch: Vec<(u64, Departure)> = departures
            .into_iter()
            .map(|d| {
                self.seq += 1;
                (self.seq, d)
            })
            .collect();
        // Sequence numbers ascend in input order, so a stable sort by time
        // is the `(at, seq)` order; `generate` output is already in it.
        if !batch.is_sorted_by_key(|(_, d)| d.at) {
            batch.sort_by_key(|(_, d)| d.at);
        }
        let last_waiting = self.departures.back().map(|(_, d)| d.at);
        let first_new = batch.first().map(|(_, d)| d.at);
        match (last_waiting, first_new) {
            (None, _) => self.departures = batch.into(),
            (Some(last), Some(first)) if first < last => {
                // Every new sequence number is larger, so at equal times
                // the departures already waiting go first.
                let mut waiting = std::mem::take(&mut self.departures).into_iter().peekable();
                let mut merged = VecDeque::with_capacity(waiting.len() + batch.len());
                for b in batch {
                    while let Some(w) = waiting.next_if(|(_, w)| w.at <= b.1.at) {
                        merged.push_back(w);
                    }
                    merged.push_back(b);
                }
                merged.extend(waiting);
                self.departures = merged;
            }
            _ => self.departures.extend(batch),
        }
    }

    /// The time of the next event by `(at, seq)`, and whether it is a
    /// departure rather than a heap event.
    fn next_event(&self) -> Option<(SimTime, bool)> {
        let heap = self.queue.peek().map(|Reverse(e)| (e.at, e.seq));
        let stream = self.departures.front().map(|(seq, d)| (d.at, *seq));
        match (heap, stream) {
            (Some(h), Some(s)) if s < h => Some((s.0, true)),
            (Some(h), _) => Some((h.0, false)),
            (None, Some(s)) => Some((s.0, true)),
            (None, None) => None,
        }
    }

    /// Runs until no events remain or the next one is after `until`.
    pub fn run(&mut self, until: SimTime) {
        while let Some((at, departure)) = self.next_event() {
            if at > until {
                break;
            }
            self.now = self.now.max(at);
            if departure {
                let (_, d) = self.departures.pop_front().expect("peeked above");
                self.inject(d.node, d.packet);
            } else {
                let Reverse(ev) = self.queue.pop().expect("peeked above");
                match ev.kind {
                    EventKind::Command(cmd) => self.exec_command(cmd),
                    EventKind::Arrive { node, packet } => self.arrive(node, packet),
                }
            }
        }
        // Let devices commit any reconfig that completes before `until`.
        for n in self.topo.nodes_mut() {
            n.device.tick(until);
        }
        self.now = self.now.max(until);
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self) {
        self.run(SimTime::MAX);
    }

    fn exec_command(&mut self, cmd: Command) {
        let now = self.now;
        match cmd {
            Command::Inject { node, packet } => self.inject(node, packet),
            Command::Install { node, bundle } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.install(bundle));
                if let Err(e) = r {
                    self.errors.push((now, format!("install on {node}: {e}")));
                }
            }
            Command::RuntimeReconfig { node, bundle } => {
                match self.topo.node_mut(node) {
                    Some(n) => match n.device.begin_runtime_reconfig(bundle, now) {
                        Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                        Err(e) => self
                            .errors
                            .push((now, format!("runtime reconfig on {node}: {e}"))),
                    },
                    None => self.errors.push((now, format!("unknown node {node}"))),
                }
            }
            Command::Reflash { node, bundle } => match self.topo.node_mut(node) {
                Some(n) => match n.device.begin_reflash(bundle, now) {
                    Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                    Err(e) => self.errors.push((now, format!("reflash on {node}: {e}"))),
                },
                None => self.errors.push((now, format!("unknown node {node}"))),
            },
            Command::UnsafeReconfig { node, bundle } => match self.topo.node_mut(node) {
                Some(n) => match n.device.begin_unsafe_inplace(bundle, now) {
                    Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                    Err(e) => self
                        .errors
                        .push((now, format!("unsafe reconfig on {node}: {e}"))),
                },
                None => self.errors.push((now, format!("unknown node {node}"))),
            },
            Command::AddEntry { node, table, entry } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.add_entry(&table, entry));
                if let Err(e) = r {
                    self.errors.push((now, format!("add entry on {node}: {e}")));
                }
            }
            Command::RemoveEntry {
                node,
                table,
                matches,
            } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.remove_entry(&table, &matches).map(|_| ()));
                if let Err(e) = r {
                    self.errors
                        .push((now, format!("remove entry on {node}: {e}")));
                }
            }
            Command::CrashDevice { node } => {
                match self.topo.node_mut(node) {
                    Some(n) => n.device.crash(now),
                    None => self.errors.push((now, format!("unknown node {node}"))),
                }
                self.recompute_routes();
            }
            Command::RestartDevice { node } => {
                let r = self
                    .topo
                    .node_mut(node)
                    .ok_or_else(|| flexnet_types::FlexError::NotFound(node.to_string()))
                    .and_then(|n| n.device.restart(now));
                if let Err(e) = r {
                    self.errors.push((now, format!("restart {node}: {e}")));
                }
                self.recompute_routes();
            }
            Command::SetLinkState { link, up } => {
                // Links come in symmetric pairs; flip both directions.
                let pair = self.topo.link(link).map(|l| (l.from, l.to));
                match pair {
                    Some((from, to)) => {
                        let reverse = self
                            .topo
                            .links()
                            .find(|l| l.from == to && l.to == from)
                            .map(|l| l.id);
                        for id in std::iter::once(link).chain(reverse) {
                            if let Some(l) = self.topo.link_mut(id) {
                                l.up = up;
                            }
                        }
                    }
                    None => self.errors.push((now, format!("unknown link {link:?}"))),
                }
                self.recompute_routes();
            }
            Command::AbortReconfig { node } => match self.topo.node_mut(node) {
                Some(n) => match n.device.abort_reconfig(now) {
                    Ok(rep) => self.reconfig_reports.push((now, node, rep)),
                    Err(e) => self.errors.push((now, format!("abort on {node}: {e}"))),
                },
                None => self.errors.push((now, format!("unknown node {node}"))),
            },
        }
    }

    fn inject(&mut self, node: NodeId, mut packet: Packet) {
        self.metrics.record_sent();
        if packet.ingress_time == SimTime::ZERO {
            packet.ingress_time = self.now;
        }
        self.arrive(node, packet);
    }

    fn arrive(&mut self, node_id: NodeId, mut pkt: Packet) {
        let now = self.now;
        // Hop limit guard; the counter's key is a static name.
        match pkt.metadata.get_mut(names::HOPS) {
            Some(hops) if *hops >= HOP_LIMIT => {
                self.metrics.record_lost(LossKind::HopLimit, now);
                return;
            }
            Some(hops) => *hops += 1,
            None => {
                pkt.metadata.insert(names::HOPS, 1);
            }
        }

        let Some(node) = self.topo.node_mut(node_id) else {
            self.metrics.record_lost(LossKind::NoRoute, now);
            return;
        };
        if !node.device.is_up() {
            self.metrics.record_lost(LossKind::DeviceDown, now);
            return;
        }

        // Device service (throughput) model: packets queue for the device;
        // bounded waiting, then serialized service time.
        let service = SimDuration::from_nanos(
            1_000_000_000 / node.device.cost_model().throughput_pps.max(1),
        );
        let start = now.max(node.busy_until);
        let wait = start.saturating_since(now);
        if wait > DEVICE_QUEUE_BOUND {
            self.metrics.record_lost(LossKind::DeviceOverload, now);
            return;
        }
        node.busy_until = start + service;

        let burst = std::slice::from_mut(&mut pkt);
        if let Err(e) = node.device.process_burst(burst, now, &mut self.results) {
            self.errors.push((now, format!("process at {node_id}: {e}")));
            self.metrics.record_lost(LossKind::PolicyDrop, now);
            return;
        }
        let result = self.results.pop().expect("a burst of one has one result");
        let node_kind = node.kind;
        for (svc, args) in node.device.take_invocations() {
            self.invocation_log.push((now, node_id, svc, args));
        }

        if result.refused {
            self.metrics.record_lost(LossKind::Refused, now);
            return;
        }

        let done_at = now + wait + result.latency;
        match result.verdict {
            Verdict::Drop => {
                self.metrics.record_lost(LossKind::PolicyDrop, now);
            }
            Verdict::ToController => {
                self.metrics.record_punted();
                self.punt_log.push((now, node_id, pkt));
            }
            Verdict::Recirculate => {
                // Devices bound recirculation internally; reaching here
                // means a device returned it anyway — drop defensively.
                self.metrics.record_lost(LossKind::PolicyDrop, now);
            }
            Verdict::Forward(port) => {
                let dst = pkt
                    .metadata
                    .get(names::DST_NODE)
                    .map(|v| NodeId(*v as u32));
                // Delivered when we are the destination host.
                if dst == Some(node_id) && node_kind == NodeKind::Host {
                    self.metrics.record_delivered(&pkt, done_at);
                    return;
                }
                // Resolve egress. Port 0 is the "routed" convention: the
                // program delegates next-hop selection to the routing
                // substrate. Any other port is explicit steering, with a
                // route fallback when the port is not wired.
                let link_id = if port == 0 {
                    dst.and_then(|d| self.routes.get(&(node_id, d)).copied())
                } else {
                    self.topo
                        .node(node_id)
                        .and_then(|n| n.ports.get(&port).copied())
                        .or_else(|| dst.and_then(|d| self.routes.get(&(node_id, d)).copied()))
                };
                let Some(link_id) = link_id else {
                    self.metrics.record_lost(LossKind::NoRoute, now);
                    return;
                };
                let wire = pkt.wire_len();
                let (next, deliver_at, drop_queue) = {
                    let Some(link) = self.topo.link_mut(link_id) else {
                        self.metrics.record_lost(LossKind::NoRoute, now);
                        return;
                    };
                    if !link.up {
                        self.metrics.record_lost(LossKind::LinkDown, now);
                        return;
                    }
                    let ser = link.serialization(wire);
                    let tx_start = done_at.max(link.busy_until);
                    let backlog = tx_start.saturating_since(done_at);
                    let backlog_pkts = if ser.as_nanos() == 0 {
                        0
                    } else {
                        backlog.as_nanos() / ser.as_nanos()
                    };
                    if backlog_pkts > link.queue_cap as u64 {
                        (link.to, SimTime::ZERO, true)
                    } else {
                        link.busy_until = tx_start + ser;
                        (link.to, tx_start + ser + link.latency, false)
                    }
                };
                if drop_queue {
                    self.metrics.record_lost(LossKind::QueueDrop, now);
                    return;
                }
                self.seq += 1;
                self.queue.push(Reverse(Event {
                    at: deliver_at,
                    seq: self.seq,
                    kind: EventKind::Arrive { node: next, packet: pkt },
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, FlowSpec};
    use flexnet_lang::parser::parse_source;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn forwarding() -> ProgramBundle {
        bundle("program fwd kind any { handler ingress(pkt) { forward(0); } }")
    }

    #[test]
    fn cbr_flow_fully_delivered() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            10_000,
            SimTime::from_millis(1),
            SimDuration::from_millis(100),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert_eq!(sim.metrics.sent, 1000);
        assert_eq!(sim.metrics.delivered, 1000, "errors: {:?}", sim.errors);
        assert_eq!(sim.metrics.total_lost(), 0);
        assert!(sim.metrics.latency_mean().unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn policy_drop_counts() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: bundle("program deny kind any { handler ingress(pkt) { drop(); } }"),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(1),
            SimDuration::from_millis(10),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert_eq!(sim.metrics.delivered, 0);
        assert_eq!(
            sim.metrics.losses.get(&LossKind::PolicyDrop).copied(),
            Some(10)
        );
    }

    #[test]
    fn reflash_window_refuses_traffic() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        // Steady 1k pps for 40 s; reflash at 2 s.
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(1),
            SimDuration::from_secs(40),
        );
        sim.load(generate(&[flow], 1));
        sim.schedule(
            SimTime::from_secs(2),
            Command::Reflash {
                node: sw,
                bundle: forwarding(),
            },
        );
        sim.run_to_completion();
        let refused = sim.metrics.losses.get(&LossKind::Refused).copied().unwrap_or(0);
        assert!(refused >= 25_000, "~30s of downtime at 1kpps, got {refused}");
        assert!(sim.metrics.disruption_window().unwrap() > SimDuration::from_secs(20));
    }

    #[test]
    fn runtime_reconfig_causes_no_loss() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(1),
            SimDuration::from_secs(5),
        );
        sim.load(generate(&[flow], 1));
        sim.schedule(
            SimTime::from_secs(2),
            Command::RuntimeReconfig {
                node: sw,
                bundle: bundle(
                    "program fwd kind any {
                       counter seen;
                       handler ingress(pkt) { count(seen); forward(0); }
                     }",
                ),
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.metrics.total_lost(), 0, "hitless means zero loss");
        assert_eq!(sim.metrics.delivered, 5000);
        assert_eq!(sim.reconfig_reports.len(), 1);
        // Both versions processed some packets at the switch.
        let versions = sim.metrics.versions_seen(sw);
        assert_eq!(versions.len(), 2, "old and new versions observed");
    }

    #[test]
    fn hop_limit_breaks_loops() {
        // Two switches explicitly steering to each other forever.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Switch, flexnet_dataplane::Architecture::drmt_default());
        let b = topo.add_node(NodeKind::Switch, flexnet_dataplane::Architecture::drmt_default());
        topo.connect(a, 1, b, 1, SimDuration::from_micros(1), 1_000_000_000)
            .unwrap();
        let mut sim = Simulation::new(topo);
        for n in [a, b] {
            sim.schedule(
                SimTime::ZERO,
                Command::Install {
                    node: n,
                    bundle: bundle(
                        "program pingpong kind any { handler ingress(pkt) { forward(1); } }",
                    ),
                },
            );
        }
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        pkt.metadata.insert("dst_node", 99); // unreachable dst
        sim.schedule(SimTime::from_millis(1), Command::Inject { node: a, packet: pkt });
        sim.run_to_completion();
        assert_eq!(
            sim.metrics.losses.get(&LossKind::HopLimit).copied(),
            Some(1)
        );
    }

    #[test]
    fn no_route_detected() {
        let (topo, _sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        pkt.metadata.insert("dst_node", 999);
        sim.schedule(
            SimTime::from_millis(1),
            Command::Inject {
                node: hosts[0],
                packet: pkt,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.metrics.losses.get(&LossKind::NoRoute).copied(), Some(1));
    }

    #[test]
    fn punts_logged() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: bundle("program p kind any { handler ingress(pkt) { punt(); } }"),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            100,
            SimTime::from_millis(1),
            SimDuration::from_millis(50),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert_eq!(sim.metrics.punted, 5);
        assert_eq!(sim.punt_log.len(), 5);
        assert_eq!(sim.punt_log[0].1, sw);
    }

    #[test]
    fn failed_commands_recorded_not_fatal() {
        let (topo, sw, _hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: bundle("program bad kind any { handler ingress(pkt) { apply nope; } }"),
            },
        );
        sim.schedule(
            SimTime::from_millis(1),
            Command::AddEntry {
                node: NodeId(99),
                table: "t".into(),
                entry: TableEntry::exact(&[1], flexnet_lang::ast::ActionCall {
                    action: "a".into(),
                    args: vec![],
                }),
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.errors.len(), 2);
    }

    #[test]
    fn overload_drops_excess_traffic() {
        // Host devices do 5 Mpps; offer 2x that to force overload drops.
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            10_000_000,
            SimTime::from_millis(1),
            SimDuration::from_millis(20),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        assert!(
            sim.metrics
                .losses
                .get(&LossKind::DeviceOverload)
                .copied()
                .unwrap_or(0)
                > 0,
            "offered 10 Mpps to a 5 Mpps host: {:?}",
            sim.metrics.losses
        );
    }

    #[test]
    fn restart_during_in_flight_reconfig_discards_shadow_keeps_old_program() {
        use flexnet_dataplane::config_digest_of;
        let (topo, sw, _hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        let v1 = forwarding();
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: v1.clone(),
            },
        );
        // The crash lands at the same instant the reconfiguration
        // starts (commands are sequenced), so the shadow is guaranteed
        // still in flight — it dies with the device's volatile state.
        sim.schedule(
            SimTime::from_millis(10),
            Command::RuntimeReconfig {
                node: sw,
                bundle: bundle(
                    "program fwd kind any { counter c; handler ingress(pkt) { count(c); forward(0); } }",
                ),
            },
        );
        sim.schedule(SimTime::from_millis(10), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(20), Command::RestartDevice { node: sw });
        sim.run_to_completion();
        assert!(sim.errors.is_empty(), "{:?}", sim.errors);
        let dev = &sim.topo.node(sw).unwrap().device;
        assert!(dev.is_up());
        assert_eq!(dev.boot_id(), 2, "one restart bumps the boot id once");
        assert!(!dev.reconfig_in_progress(), "the shadow did not survive");
        assert!(dev.txn_in_doubt().is_none());
        assert_eq!(
            dev.config_digest(),
            config_digest_of(&v1, &[]),
            "the flashed v1 image survives the restart, v2 does not"
        );
    }

    #[test]
    fn double_restart_bumps_boot_id_monotonically_and_rejects_restart_while_up() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        // Two full crash/restart cycles before any reconciliation could
        // run, plus one bogus restart of an already-up device.
        sim.schedule(SimTime::from_millis(10), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(20), Command::RestartDevice { node: sw });
        sim.schedule(SimTime::from_millis(30), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(40), Command::RestartDevice { node: sw });
        sim.schedule(SimTime::from_millis(50), Command::RestartDevice { node: sw });
        let flow = FlowSpec::udp_cbr(
            hosts[0],
            hosts[1],
            1000,
            SimTime::from_millis(60),
            SimDuration::from_millis(10),
        );
        sim.load(generate(&[flow], 1));
        sim.run_to_completion();
        let dev = &sim.topo.node(sw).unwrap().device;
        assert_eq!(dev.boot_id(), 3, "two restarts: 1 -> 2 -> 3");
        assert_eq!(
            sim.errors.len(),
            1,
            "restarting an up device is an error, not a crash: {:?}",
            sim.errors
        );
        assert_eq!(sim.metrics.delivered, 10, "the final incarnation forwards");
    }

    /// One scenario fed through [`Simulation::load`] or, with `via_load`
    /// false, with every departure sent through [`Simulation::schedule`].
    fn stream_merge_scenario(via_load: bool) -> Simulation {
        let send = |sim: &mut Simulation, departures: Vec<Departure>| {
            if via_load {
                sim.load(departures);
            } else {
                for d in departures {
                    sim.schedule(
                        d.at,
                        Command::Inject {
                            node: d.node,
                            packet: d.packet,
                        },
                    );
                }
            }
        };
        let (topo, sw, hosts) = Topology::single_switch(3);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        // Two flows on one clock tie at every instant; reversed, the
        // vector is out of order, ties included.
        let flows = [0, 1].map(|i| {
            FlowSpec::udp_cbr(
                hosts[i],
                hosts[2],
                100_000,
                SimTime::from_micros(100),
                SimDuration::from_millis(1),
            )
        });
        let mut first = generate(&flows, 1);
        first.reverse();
        let at = |us: u64| SimTime::from_micros(us);
        // Scheduled before the load, so they run before the departures
        // at their instants: hosts[1] is down when its packet at 300 us
        // leaves, and the switch starts a reconfig as a packet is sent.
        sim.schedule(at(300), Command::CrashDevice { node: hosts[1] });
        sim.schedule(at(340), Command::RestartDevice { node: hosts[1] });
        sim.schedule(
            at(400),
            Command::RuntimeReconfig {
                node: sw,
                bundle: bundle(
                    "program fwd kind any {
                       counter seen;
                       handler ingress(pkt) { count(seen); forward(0); }
                     }",
                ),
            },
        );
        send(&mut sim, first);
        // Scheduled after the load, so they run after the departures at
        // their instants: hosts[0]'s packet at 500 us still leaves.
        sim.schedule(at(500), Command::CrashDevice { node: hosts[0] });
        sim.schedule(at(520), Command::RestartDevice { node: hosts[0] });
        sim.schedule(
            at(900),
            Command::Install {
                node: sw,
                bundle: bundle("program p kind any { handler ingress(pkt) { punt(); } }"),
            },
        );
        sim.run(at(600));
        // A second load interleaves with departures still waiting, and
        // ties with them at every instant.
        let mut second = generate(
            &[FlowSpec::udp_cbr(
                hosts[1],
                hosts[2],
                100_000,
                at(700),
                SimDuration::from_millis(1),
            )],
            2,
        );
        for d in &mut second {
            d.packet.id += 1_000_000;
        }
        second.swap(0, 5);
        send(&mut sim, second);
        sim.run_to_completion();
        sim
    }

    #[test]
    fn departure_stream_orders_events_exactly_as_scheduled_injects() {
        let streamed = stream_merge_scenario(true);
        let scheduled = stream_merge_scenario(false);
        let (a, b) = (&streamed.metrics, &scheduled.metrics);
        assert_eq!(a.sent, 300);
        assert!(a.losses.get(&LossKind::DeviceDown).is_some_and(|&n| n > 0));
        assert!(a.punted > 0 && a.delivered > 0, "{a:?}");
        assert_eq!(
            (a.sent, a.delivered, a.punted),
            (b.sent, b.delivered, b.punted)
        );
        assert_eq!(a.losses, b.losses);
        for p in [50.0, 99.0] {
            assert_eq!(a.latency_percentile(p), b.latency_percentile(p));
        }
        assert_eq!(a.version_counts, b.version_counts);
        assert_eq!(&streamed.punt_log[..], &scheduled.punt_log[..]);
        assert_eq!(&streamed.errors[..], &scheduled.errors[..]);
        assert_eq!(streamed.reconfig_reports.len(), 1);
    }

    #[test]
    fn log_buffer_caps_and_counts_overflow() {
        let mut log: LogBuffer<u64> = LogBuffer::with_cap(3);
        for i in 0..10 {
            log.push(i);
        }
        assert_eq!(log.len(), 3, "stores only up to the cap");
        assert_eq!(&log[..], &[0, 1, 2], "keeps the earliest records");
        assert_eq!(log.dropped(), 7, "overflow is counted, not silent");
        assert!(!log.is_empty());
        assert_eq!(log.iter().sum::<u64>(), 3);
        // The simulation's logs default to a cap high enough that no
        // experiment in this repo ever drops a record.
        let sim = Simulation::new(Topology::single_switch(1).0);
        assert_eq!(sim.errors.dropped(), 0);
        assert_eq!(sim.punt_log.dropped(), 0);
    }

    #[test]
    fn never_provisioned_device_restarts_with_empty_digest() {
        use flexnet_dataplane::EMPTY_CONFIG_DIGEST;
        let (topo, sw, _hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        // No Install: the device has never been provisioned.
        sim.schedule(SimTime::from_millis(10), Command::CrashDevice { node: sw });
        sim.schedule(SimTime::from_millis(20), Command::RestartDevice { node: sw });
        sim.run_to_completion();
        assert!(sim.errors.is_empty(), "{:?}", sim.errors);
        let dev = &sim.topo.node(sw).unwrap().device;
        assert!(dev.is_up());
        assert_eq!(dev.boot_id(), 2);
        assert!(dev.program().is_none(), "still nothing installed");
        assert_eq!(dev.config_digest(), EMPTY_CONFIG_DIGEST);
    }
}
