//! Network topology: nodes (hosts, SmartNICs, switches) and links.
//!
//! Nodes wrap runtime-programmable [`Device`]s; links carry latency,
//! bandwidth, and a bounded queue. Builders provide the shapes the
//! experiments use (single switch, line, leaf-spine).

use flexnet_dataplane::{Architecture, Device, StateEncoding};
use flexnet_types::{FlexError, LinkId, NodeId, Result, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The role of a node in the vertical stack (paper §3.1: host stacks vs.
/// NICs vs. switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host (kernel stack).
    Host,
    /// A SmartNIC attached to a host.
    Nic,
    /// A switch.
    Switch,
}

/// One topology node.
#[derive(Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Role.
    pub kind: NodeKind,
    /// The programmable device at this node.
    pub device: Device,
    /// Port number → outgoing link.
    pub ports: BTreeMap<u16, LinkId>,
    /// Device service backlog clears at this instant (throughput model).
    pub busy_until: SimTime,
}

/// One directed link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Link id.
    pub id: LinkId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum queue depth in packets (tail drop beyond).
    pub queue_cap: u32,
    /// Serialization backlog clears at this instant.
    pub busy_until: SimTime,
    /// Whether the link is carrying traffic (fault injection).
    pub up: bool,
}

impl Link {
    /// Serialization delay of `bytes` on this link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        if self.bandwidth_bps == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// The physical network.
#[derive(Debug, Default)]
pub struct Topology {
    nodes: BTreeMap<NodeId, Node>,
    links: BTreeMap<LinkId, Link>,
    next_node: u32,
    next_link: u32,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node with the given role and device architecture.
    pub fn add_node(&mut self, kind: NodeKind, arch: Architecture) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let encoding = match kind {
            NodeKind::Switch => StateEncoding::StatefulTable,
            NodeKind::Nic => StateEncoding::FlowInstructionSet,
            NodeKind::Host => StateEncoding::StatefulTable,
        };
        self.nodes.insert(
            id,
            Node {
                id,
                kind,
                device: Device::new(id, arch, encoding),
                ports: BTreeMap::new(),
                busy_until: SimTime::ZERO,
            },
        );
        id
    }

    /// Connects `a.port_a` to `b` and `b.port_b` back to `a` with symmetric
    /// characteristics. Returns the two directed link ids.
    pub fn connect(
        &mut self,
        a: NodeId,
        port_a: u16,
        b: NodeId,
        port_b: u16,
        latency: SimDuration,
        bandwidth_bps: u64,
    ) -> Result<(LinkId, LinkId)> {
        if !self.nodes.contains_key(&a) || !self.nodes.contains_key(&b) {
            return Err(FlexError::Sim("connect: unknown node".into()));
        }
        let mk = |topo: &mut Topology, from: NodeId, to: NodeId| {
            let id = LinkId(topo.next_link);
            topo.next_link += 1;
            topo.links.insert(
                id,
                Link {
                    id,
                    from,
                    to,
                    latency,
                    bandwidth_bps,
                    queue_cap: 1000,
                    busy_until: SimTime::ZERO,
                    up: true,
                },
            );
            id
        };
        let ab = mk(self, a, b);
        let ba = mk(self, b, a);
        self.nodes
            .get_mut(&a)
            .expect("checked above")
            .ports
            .insert(port_a, ab);
        self.nodes
            .get_mut(&b)
            .expect("checked above")
            .ports
            .insert(port_b, ba);
        Ok((ab, ba))
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Borrows a node mutably.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// Borrows a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(&id)
    }

    /// Borrows a link mutably.
    pub fn link_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        self.links.get_mut(&id)
    }

    /// Iterates over nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Iterates over nodes mutably, in id order.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.values_mut()
    }

    /// Iterates over node ids (avoids borrowing issues in the engine).
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Iterates over links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.values()
    }

    /// Whether `link` is usable: up, with both endpoint devices up.
    fn link_usable(&self, link: &Link) -> bool {
        link.up
            && self.nodes.get(&link.from).is_some_and(|n| n.device.is_up())
            && self.nodes.get(&link.to).is_some_and(|n| n.device.is_up())
    }

    /// All-pairs next hops by BFS (hop count), skipping down links and
    /// crashed devices — recomputing after a fault reroutes around it.
    /// Returns a map from `(at, destination)` to the link to take.
    pub fn compute_routes(&self) -> BTreeMap<(NodeId, NodeId), LinkId> {
        let mut routes = BTreeMap::new();
        for &dst in self.nodes.keys() {
            // BFS backwards from dst over reversed edges = forwards works
            // too since links are symmetric; do forward BFS from dst on the
            // reverse graph.
            let mut radj: BTreeMap<NodeId, Vec<(NodeId, LinkId)>> = BTreeMap::new();
            for l in self.links.values().filter(|l| self.link_usable(l)) {
                radj.entry(l.to).or_default().push((l.from, l.id));
            }
            let mut queue = std::collections::VecDeque::new();
            let mut seen = std::collections::BTreeSet::new();
            queue.push_back(dst);
            seen.insert(dst);
            while let Some(n) = queue.pop_front() {
                for (prev, link) in radj.get(&n).into_iter().flatten() {
                    if seen.insert(*prev) {
                        routes.insert((*prev, dst), *link);
                        queue.push_back(*prev);
                    }
                }
            }
        }
        routes
    }

    // -- builders -------------------------------------------------------------

    /// `n_hosts` hosts attached to one switch. Host i uses switch port i;
    /// each host's port 0 faces the switch.
    pub fn single_switch(n_hosts: usize) -> (Topology, NodeId, Vec<NodeId>) {
        let mut t = Topology::new();
        let sw = t.add_node(NodeKind::Switch, Architecture::drmt_default());
        let mut hosts = Vec::new();
        for i in 0..n_hosts {
            let h = t.add_node(NodeKind::Host, Architecture::host_default());
            t.connect(
                sw,
                i as u16,
                h,
                0,
                SimDuration::from_micros(1),
                10_000_000_000,
            )
            .expect("nodes exist");
            hosts.push(h);
        }
        (t, sw, hosts)
    }

    /// `n` independent src-host → switch → dst-host lanes. Each lane's
    /// traffic crosses exactly one switch, so a misbehaving program on
    /// one switch affects only its own lane — the topology used by the
    /// canary-rollout harness to make blast radius measurable per wave.
    /// Returns `(topology, switches, lanes)` where `lanes[i]` is the
    /// `(src, dst)` host pair behind `switches[i]`.
    #[allow(clippy::type_complexity)]
    pub fn parallel_lanes(n: usize) -> (Topology, Vec<NodeId>, Vec<(NodeId, NodeId)>) {
        let mut t = Topology::new();
        let lat = SimDuration::from_micros(1);
        let bw = 10_000_000_000u64;
        let mut switches = Vec::new();
        let mut lanes = Vec::new();
        for _ in 0..n {
            let src = t.add_node(NodeKind::Host, Architecture::host_default());
            let sw = t.add_node(NodeKind::Switch, Architecture::drmt_default());
            let dst = t.add_node(NodeKind::Host, Architecture::host_default());
            t.connect(src, 1, sw, 0, lat, bw).expect("nodes exist");
            t.connect(sw, 1, dst, 0, lat, bw).expect("nodes exist");
            switches.push(sw);
            lanes.push((src, dst));
        }
        (t, switches, lanes)
    }

    /// A host → NIC → switch → NIC → host line (the vertical stack).
    #[allow(clippy::type_complexity)]
    pub fn host_nic_switch_line() -> (Topology, [NodeId; 5]) {
        let mut t = Topology::new();
        let h1 = t.add_node(NodeKind::Host, Architecture::host_default());
        let n1 = t.add_node(NodeKind::Nic, Architecture::smartnic_default());
        let sw = t.add_node(NodeKind::Switch, Architecture::drmt_default());
        let n2 = t.add_node(NodeKind::Nic, Architecture::smartnic_default());
        let h2 = t.add_node(NodeKind::Host, Architecture::host_default());
        let lat = SimDuration::from_micros(1);
        let bw = 100_000_000_000;
        t.connect(h1, 1, n1, 0, lat, bw).expect("nodes exist");
        t.connect(n1, 1, sw, 0, lat, bw).expect("nodes exist");
        t.connect(sw, 1, n2, 0, lat, bw).expect("nodes exist");
        t.connect(n2, 1, h2, 0, lat, bw).expect("nodes exist");
        (t, [h1, n1, sw, n2, h2])
    }

    /// A two-tier leaf-spine fabric with hosts.
    pub fn leaf_spine(
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let mut t = Topology::new();
        let lat = SimDuration::from_micros(2);
        let bw = 40_000_000_000u64;
        let spine_ids: Vec<NodeId> = (0..spines)
            .map(|_| t.add_node(NodeKind::Switch, Architecture::drmt_default()))
            .collect();
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|_| t.add_node(NodeKind::Switch, Architecture::rmt_default()))
            .collect();
        let mut host_ids = Vec::new();
        for (li, &leaf) in leaf_ids.iter().enumerate() {
            for (si, &spine) in spine_ids.iter().enumerate() {
                t.connect(leaf, (100 + si) as u16, spine, li as u16, lat, bw)
                    .expect("nodes exist");
            }
            for hi in 0..hosts_per_leaf {
                let h = t.add_node(NodeKind::Host, Architecture::host_default());
                t.connect(leaf, hi as u16, h, 0, SimDuration::from_micros(1), 10_000_000_000)
                    .expect("nodes exist");
                host_ids.push(h);
            }
        }
        (t, spine_ids, leaf_ids, host_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_shape() {
        let (t, sw, hosts) = Topology::single_switch(4);
        assert_eq!(hosts.len(), 4);
        assert_eq!(t.node(sw).unwrap().ports.len(), 4);
        assert_eq!(t.nodes().count(), 5);
        assert_eq!(t.links().count(), 8, "4 bidirectional pairs");
    }

    #[test]
    fn connect_rejects_unknown_nodes() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, Architecture::host_default());
        assert!(t
            .connect(a, 0, NodeId(99), 0, SimDuration::ZERO, 1)
            .is_err());
    }

    #[test]
    fn serialization_delay() {
        let l = Link {
            id: LinkId(0),
            from: NodeId(0),
            to: NodeId(1),
            latency: SimDuration::ZERO,
            bandwidth_bps: 1_000_000_000, // 1 Gbps
            queue_cap: 10,
            busy_until: SimTime::ZERO,
            up: true,
        };
        // 1250 bytes = 10_000 bits = 10 us at 1 Gbps.
        assert_eq!(l.serialization(1250), SimDuration::from_micros(10));
    }

    #[test]
    fn routes_reach_all_destinations() {
        let (t, _, hosts) = Topology::single_switch(3);
        let routes = t.compute_routes();
        // From host 0 to host 2 there must be a next hop.
        assert!(routes.contains_key(&(hosts[0], hosts[2])));
        // And from the switch to each host.
        for h in &hosts {
            assert!(routes.keys().any(|(at, dst)| dst == h && at != h));
        }
    }

    #[test]
    fn leaf_spine_routes_cross_pod() {
        let (t, _spines, _leaves, hosts) = Topology::leaf_spine(2, 2, 2);
        assert_eq!(hosts.len(), 4);
        let routes = t.compute_routes();
        // Cross-pod host pair reachable.
        assert!(routes.contains_key(&(hosts[0], hosts[3])));
    }

    #[test]
    fn line_topology_ports_wired() {
        let (t, [h1, n1, sw, _n2, _h2]) = Topology::host_nic_switch_line();
        // h1 port 1 leads to n1.
        let l = t.node(h1).unwrap().ports[&1];
        assert_eq!(t.link(l).unwrap().to, n1);
        let l = t.node(n1).unwrap().ports[&1];
        assert_eq!(t.link(l).unwrap().to, sw);
    }
}
