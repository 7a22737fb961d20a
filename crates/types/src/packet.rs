//! Packets, header stacks, and flow keys.
//!
//! FlexNet programs are protocol-independent (FlexBPF parsers can add and
//! remove header types at runtime, paper §2), so a packet carries a generic
//! *header stack*: an ordered list of named headers, each a map from field
//! name to value. Well-known protocols get convenience constructors, but a
//! tenant extension is free to invent `myproto.flags` and a runtime parser
//! update will start extracting it — without recompiling this crate.

use crate::id::{NodeId, ProgramVersion};
use crate::name::names::*;
use crate::name::{Fields, Name, NameKey};
use crate::time::SimTime;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One parsed header instance in a packet's header stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Protocol name, e.g. `"ipv4"`, `"tcp"`, or a tenant-defined name.
    pub proto: Name,
    /// Field name → value. Field widths are declared in FlexBPF header
    /// declarations; the packet representation stores raw values.
    pub fields: Fields,
}

impl Header {
    /// Creates a header with the given protocol name and fields. String
    /// names are interned; the well-known constructors below use the
    /// static names instead.
    pub fn new<K: NameKey>(
        proto: impl NameKey,
        fields: impl IntoIterator<Item = (K, u64)>,
    ) -> Header {
        Header {
            proto: proto.name(),
            fields: fields.into_iter().collect(),
        }
    }

    /// A header from interned names, with `fields` already in string
    /// order and distinct — one allocation and no interning.
    pub fn from_sorted<const N: usize>(proto: Name, fields: [(Name, u64); N]) -> Header {
        Header {
            proto,
            fields: Fields::from_sorted(Vec::from(fields)),
        }
    }

    /// Standard Ethernet header.
    pub fn ethernet(src: u64, dst: u64, ethertype: u64) -> Header {
        Header::from_sorted(ETH, [(DST, dst), (ETHERTYPE, ethertype), (SRC, src)])
    }

    /// 802.1Q VLAN tag.
    pub fn vlan(vid: u64) -> Header {
        Header::from_sorted(VLAN, [(PCP, 0), (VID, vid)])
    }

    /// IPv4 header (addresses as u32-in-u64, `proto` is the IP protocol
    /// number: 6 = TCP, 17 = UDP).
    pub fn ipv4(src: u32, dst: u32, proto: u8) -> Header {
        Header::from_sorted(
            IPV4,
            [
                (DSCP, 0),
                (DST, dst as u64),
                (ECN, 0),
                (PROTO, proto as u64),
                (SRC, src as u64),
                (TTL, 64),
            ],
        )
    }

    /// TCP header. `flags` uses the usual bit layout (0x02 = SYN, 0x10 = ACK,
    /// 0x01 = FIN, 0x04 = RST).
    pub fn tcp(sport: u16, dport: u16, flags: u8) -> Header {
        Header::from_sorted(
            TCP,
            [
                (ACK, 0),
                (DPORT, dport as u64),
                (FLAGS, flags as u64),
                (SEQ, 0),
                (SPORT, sport as u64),
                (WINDOW, 65_535),
            ],
        )
    }

    /// UDP header.
    pub fn udp(sport: u16, dport: u16) -> Header {
        Header::from_sorted(UDP, [(DPORT, dport as u64), (SPORT, sport as u64)])
    }

    /// Reads a field value; `None` if the field is absent.
    #[inline]
    pub fn get(&self, field: impl NameKey) -> Option<u64> {
        self.fields.get(field).copied()
    }

    /// Writes a field value (creating the field if absent).
    #[inline]
    pub fn set(&mut self, field: impl NameKey, value: u64) {
        self.fields.insert(field, value);
    }
}

/// The final disposition of a packet after data-plane processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// Forward out of the given egress port.
    Forward(u16),
    /// Silently discard.
    Drop,
    /// Punt to the control plane.
    ToController,
    /// Re-inject into the pipeline for another pass.
    Recirculate,
}

/// The classic 5-tuple flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// IPv4 source address.
    pub src_ip: u32,
    /// IPv4 destination address.
    pub dst_ip: u32,
    /// Transport source port (0 when absent).
    pub src_port: u16,
    /// Transport destination port (0 when absent).
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FlowKey {
    /// Extracts the 5-tuple from a packet's header stack; `None` when the
    /// packet has no IPv4 header.
    pub fn extract(pkt: &Packet) -> Option<FlowKey> {
        let ip = pkt.header(IPV4)?;
        let proto = ip.get(PROTO).unwrap_or(0) as u8;
        let l4 = match proto {
            6 => pkt.header(TCP),
            17 => pkt.header(UDP),
            _ => None,
        };
        Some(FlowKey {
            src_ip: ip.get(SRC).unwrap_or(0) as u32,
            dst_ip: ip.get(DST).unwrap_or(0) as u32,
            src_port: l4.and_then(|h| h.get(SPORT)).unwrap_or(0) as u16,
            dst_port: l4.and_then(|h| h.get(DPORT)).unwrap_or(0) as u16,
            proto,
        })
    }

    /// A stable 64-bit hash of the key (used to index sketches and ECMP
    /// buckets deterministically across the codebase).
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the packed tuple: deterministic across platforms and
        // runs, unlike `DefaultHasher` which is seeded per-process.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u64| {
            for i in 0..8 {
                h ^= (b >> (i * 8)) & 0xff;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.src_ip as u64);
        mix(self.dst_ip as u64);
        mix(((self.src_port as u64) << 32) | (self.dst_port as u64) << 8 | self.proto as u64);
        h
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{} ({})",
            self.src_ip >> 24,
            (self.src_ip >> 16) & 0xff,
            (self.src_ip >> 8) & 0xff,
            self.src_ip & 0xff,
            self.src_port,
            self.dst_ip >> 24,
            (self.dst_ip >> 16) & 0xff,
            (self.dst_ip >> 8) & 0xff,
            self.dst_ip & 0xff,
            self.dst_port,
            self.proto,
        )
    }
}

/// A packet traversing the simulated network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique packet id (assigned by the workload generator).
    pub id: u64,
    /// The parsed header stack, outermost first.
    pub headers: Vec<Header>,
    /// Payload length in bytes (wire size accounting includes headers via
    /// [`Packet::wire_len`]).
    pub payload_len: u32,
    /// Optional payload contents (most experiments only need lengths).
    #[serde(skip)]
    pub payload: Bytes,
    /// Per-packet scratch metadata written by programs (like P4 metadata or
    /// eBPF per-packet context).
    pub metadata: Fields,
    /// When the packet entered the network.
    pub ingress_time: SimTime,
    /// Audit trail: which device processed this packet with which program
    /// version. This is how experiment E1 verifies the paper's claim that
    /// during a transition "packets are either processed by the new program
    /// or old one in a consistent manner" (§2).
    pub trace: Vec<(NodeId, ProgramVersion)>,
}

impl Packet {
    /// Creates a packet with the given id and header stack.
    pub fn new(id: u64, headers: Vec<Header>, payload_len: u32) -> Packet {
        Packet {
            id,
            headers,
            payload_len,
            payload: Bytes::new(),
            metadata: Fields::new(),
            ingress_time: SimTime::ZERO,
            trace: Vec::new(),
        }
    }

    /// Convenience: a TCP packet with the given 5-tuple and flags.
    pub fn tcp(id: u64, src: u32, dst: u32, sport: u16, dport: u16, flags: u8) -> Packet {
        Packet::new(
            id,
            vec![
                Header::ethernet(1, 2, 0x0800),
                Header::ipv4(src, dst, 6),
                Header::tcp(sport, dport, flags),
            ],
            1000,
        )
    }

    /// Convenience: a UDP packet with the given 5-tuple.
    pub fn udp(id: u64, src: u32, dst: u32, sport: u16, dport: u16) -> Packet {
        Packet::new(
            id,
            vec![
                Header::ethernet(1, 2, 0x0800),
                Header::ipv4(src, dst, 17),
                Header::udp(sport, dport),
            ],
            512,
        )
    }

    /// Total wire length: headers are charged a nominal encoded size plus
    /// the payload.
    #[inline]
    pub fn wire_len(&self) -> u32 {
        let hdr: u32 = self
            .headers
            .iter()
            .map(|h| match h.proto {
                p if p == ETH => 14,
                p if p == VLAN => 4,
                p if p == IPV4 || p == TCP => 20,
                p if p == UDP => 8,
                _ => (4 * h.fields.len().max(1)) as u32,
            })
            .sum();
        hdr + self.payload_len
    }

    /// Finds the first header with the given protocol name.
    #[inline]
    pub fn header(&self, proto: impl NameKey) -> Option<&Header> {
        self.headers.iter().find(|h| proto.is(h.proto))
    }

    /// Finds the first header with the given protocol name, mutably.
    #[inline]
    pub fn header_mut(&mut self, proto: impl NameKey) -> Option<&mut Header> {
        self.headers.iter_mut().find(|h| proto.is(h.proto))
    }

    /// Whether the stack contains a header of the given protocol.
    #[inline]
    pub fn has_header(&self, proto: impl NameKey) -> bool {
        self.header(proto).is_some()
    }

    /// Reads a field by dotted path, e.g. `"ipv4.src"` or `"meta.mark"`
    /// (the pseudo-protocol `meta` reads packet metadata).
    pub fn get_field(&self, path: &str) -> Option<u64> {
        let (proto, field) = path.split_once('.')?;
        self.get_field_at(proto, field)
    }

    /// Reads a field by pre-split path parts — the split-free form of
    /// [`Packet::get_field`]. With [`Name`]s (as compiled programs hold
    /// them) every comparison is a pointer compare.
    #[inline]
    pub fn get_field_at(&self, proto: impl NameKey, field: impl NameKey) -> Option<u64> {
        if proto.is(META) {
            return self.metadata.get(field).copied();
        }
        self.header(proto)?.get(field)
    }

    /// Writes a field by dotted path; returns `false` when the header does
    /// not exist (metadata writes always succeed).
    pub fn set_field(&mut self, path: &str, value: u64) -> bool {
        let Some((proto, field)) = path.split_once('.') else {
            return false;
        };
        self.set_field_at(proto, field, value)
    }

    /// Writes a field by pre-split path parts — the split-free form of
    /// [`Packet::set_field`].
    #[inline]
    pub fn set_field_at(&mut self, proto: impl NameKey, field: impl NameKey, value: u64) -> bool {
        if proto.is(META) {
            self.metadata.insert(field, value);
            return true;
        }
        match self.header_mut(proto) {
            Some(h) => {
                h.set(field, value);
                true
            }
            None => false,
        }
    }

    /// Pushes a header after the outermost header of `after_proto`
    /// (or at the top of the stack when `after_proto` is `None`).
    pub fn insert_header<K: NameKey>(&mut self, header: Header, after_proto: Option<K>) {
        match after_proto.and_then(|p| self.headers.iter().position(|h| p.is(h.proto))) {
            Some(idx) => self.headers.insert(idx + 1, header),
            None => self.headers.insert(0, header),
        }
    }

    /// Removes the first header of the given protocol; returns it if present.
    pub fn remove_header(&mut self, proto: impl NameKey) -> Option<Header> {
        let idx = self.headers.iter().position(|h| proto.is(h.proto))?;
        Some(self.headers.remove(idx))
    }

    /// Records that `node` processed this packet under `version`.
    pub fn record_processing(&mut self, node: NodeId, version: ProgramVersion) {
        self.trace.push((node, version));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_constructor_builds_full_stack() {
        let p = Packet::tcp(1, 0x0a000001, 0x0a000002, 1234, 80, 0x02);
        assert!(p.has_header("eth"));
        assert!(p.has_header("ipv4"));
        assert!(p.has_header("tcp"));
        assert_eq!(p.get_field("tcp.dport"), Some(80));
        assert_eq!(p.get_field("ipv4.proto"), Some(6));
    }

    #[test]
    fn flow_key_extraction_tcp_and_udp() {
        let t = Packet::tcp(1, 10, 20, 5, 80, 0);
        let k = FlowKey::extract(&t).unwrap();
        assert_eq!((k.src_ip, k.dst_ip, k.src_port, k.dst_port, k.proto), (10, 20, 5, 80, 6));

        let u = Packet::udp(2, 11, 21, 53, 5353);
        let k = FlowKey::extract(&u).unwrap();
        assert_eq!(k.proto, 17);
        assert_eq!(k.src_port, 53);
    }

    #[test]
    fn flow_key_requires_ipv4() {
        let p = Packet::new(1, vec![Header::ethernet(1, 2, 0x0806)], 64);
        assert!(FlowKey::extract(&p).is_none());
    }

    #[test]
    fn field_paths_read_and_write() {
        let mut p = Packet::tcp(1, 1, 2, 3, 4, 0);
        assert!(p.set_field("ipv4.ttl", 10));
        assert_eq!(p.get_field("ipv4.ttl"), Some(10));
        assert!(!p.set_field("ipv6.src", 1), "missing header rejected");
        assert!(p.set_field("meta.mark", 7), "metadata always writable");
        assert_eq!(p.get_field("meta.mark"), Some(7));
        assert_eq!(p.get_field("nodots"), None);
    }

    #[test]
    fn insert_and_remove_headers() {
        let mut p = Packet::tcp(1, 1, 2, 3, 4, 0);
        p.insert_header(Header::vlan(42), Some("eth"));
        assert_eq!(p.headers[1].proto, "vlan");
        assert_eq!(p.get_field("vlan.vid"), Some(42));
        let v = p.remove_header("vlan").unwrap();
        assert_eq!(v.get("vid"), Some(42));
        assert!(!p.has_header("vlan"));
        assert!(p.remove_header("vlan").is_none());
    }

    #[test]
    fn insert_header_top_of_stack() {
        let mut p = Packet::new(1, vec![Header::ipv4(1, 2, 6)], 10);
        p.insert_header(Header::ethernet(9, 9, 0x0800), None::<&str>);
        assert_eq!(p.headers[0].proto, "eth");
    }

    #[test]
    fn well_known_constructors_match_header_new() {
        let ipv4 = [("src", 1), ("dst", 2), ("proto", 6)];
        let ipv4_rest = [("ttl", 64), ("ecn", 0), ("dscp", 0)];
        let tcp = [("sport", 1), ("dport", 2), ("flags", 3)];
        let tcp_rest = [("seq", 0), ("ack", 0), ("window", 65_535)];
        let cases = [
            (
                Header::ethernet(1, 2, 3),
                Header::new("eth", [("src", 1), ("dst", 2), ("ethertype", 3)]),
            ),
            (
                Header::vlan(7),
                Header::new("vlan", [("vid", 7), ("pcp", 0)]),
            ),
            (
                Header::ipv4(1, 2, 6),
                Header::new("ipv4", ipv4.into_iter().chain(ipv4_rest)),
            ),
            (
                Header::tcp(1, 2, 3),
                Header::new("tcp", tcp.into_iter().chain(tcp_rest)),
            ),
            (
                Header::udp(1, 2),
                Header::new("udp", [("sport", 1), ("dport", 2)]),
            ),
        ];
        for (fast, slow) in cases {
            assert_eq!(fast, slow);
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        }
    }

    #[test]
    fn wire_len_counts_headers_and_payload() {
        let p = Packet::tcp(1, 1, 2, 3, 4, 0);
        // eth(14) + ipv4(20) + tcp(20) + payload(1000)
        assert_eq!(p.wire_len(), 1054);
    }

    #[test]
    fn custom_header_wire_len_scales_with_fields() {
        let mut p = Packet::new(1, vec![], 0);
        p.insert_header(Header::new("custom", [("a", 1), ("b", 2)]), None::<&str>);
        assert_eq!(p.wire_len(), 8);
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        let a = FlowKey {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            proto: 6,
        };
        let b = FlowKey { src_port: 5, ..a };
        assert_eq!(a.stable_hash(), a.stable_hash());
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn processing_trace_records_versions() {
        let mut p = Packet::udp(1, 1, 2, 3, 4);
        p.record_processing(NodeId(7), ProgramVersion(2));
        assert_eq!(p.trace, vec![(NodeId(7), ProgramVersion(2))]);
    }

    #[test]
    fn flow_key_display_is_dotted_quad() {
        let k = FlowKey {
            src_ip: 0x0a000001,
            dst_ip: 0x0a000002,
            src_port: 1,
            dst_port: 2,
            proto: 6,
        };
        assert_eq!(k.to_string(), "10.0.0.1:1 -> 10.0.0.2:2 (6)");
    }
}
