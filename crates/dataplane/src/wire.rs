//! The raw-bytes wire codec.
//!
//! Everything else in the stack works on [`Packet`]s — already-parsed
//! header stacks. This module is the boundary where *untrusted bytes*
//! enter: [`parse_wire`] turns an Ethernet frame into a `Packet`, and
//! every way the bytes can lie (truncated header, impossible length
//! field, unsupported version, runaway VLAN stack) is a typed
//! [`Trap::MalformedPacket`] — never a panic, never an out-of-bounds
//! read. A malformed frame indicts the *packet*, not the installed
//! program, so the device counts parse traps separately and they never
//! feed program quarantine.
//!
//! There is one parser, [`parse_wire_into`], which writes into a packet
//! the caller already owns, the way an RMT parser fills a packet header
//! vector that already exists. Header slots of the right shape keep
//! their maps and only take new values, so sealed-burst admission
//! (`Device::process_sealed_burst`) recycles the previous burst's packets
//! instead of allocating fresh ones. [`parse_wire`] is the same parser
//! run into a new packet; the two agree on every input.
//!
//! [`encode_wire`] is the inverse for the protocols the codec speaks;
//! round-tripping is pinned by tests and exploited by the fuzz harness
//! (valid frames must parse; arbitrary bytes must parse-or-trap).

use flexnet_types::names::*;
use flexnet_types::{FlexError, Header, Name, Packet, Result, SimTime, Trap};

/// Maximum 802.1Q tags the parser will walk before declaring the frame
/// malformed (real pipelines bound VLAN stacking the same way).
pub const MAX_VLAN_DEPTH: usize = 4;

/// Length of the integrity trailer appended by [`seal_frame`]: a
/// big-endian FNV-1a checksum of everything before it.
pub const FRAME_CHECKSUM_LEN: usize = 8;

/// FNV-1a over the frame bytes — the end-to-end integrity check for
/// links that can corrupt in flight.
///
/// FNV is not cryptographic; the threat model is a *faulty* fabric
/// (bit flips, truncation), not a malicious one, and a 64-bit FNV
/// catches any burst the chaos fabric can inject while staying cheap
/// enough for the per-frame hot path.
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the integrity trailer: `bytes ++ BE64(frame_checksum(bytes))`.
///
/// Sealed frames travel links modeled by the adversarial fabric;
/// [`open_frame`] verifies and strips the trailer at the receiver.
pub fn seal_frame(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() + FRAME_CHECKSUM_LEN);
    out.extend_from_slice(bytes);
    out.extend_from_slice(&frame_checksum(bytes).to_be_bytes());
    out
}

/// Verifies and strips the integrity trailer sealed by [`seal_frame`].
///
/// Returns the original frame bytes, or [`FlexError::ChecksumMismatch`]
/// if any bit of the frame (or the trailer itself) changed in flight.
/// The error is a typed *transport* failure — it feeds the retry/breaker
/// machinery and is never billed to a program as a parse trap, so
/// corruption can never push a tenant toward quarantine.
pub fn open_frame(bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < FRAME_CHECKSUM_LEN {
        // Too short to even carry a trailer: treat as a zero-want
        // mismatch so the caller still sees a transport failure.
        return Err(FlexError::ChecksumMismatch {
            want: 0,
            got: frame_checksum(bytes),
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - FRAME_CHECKSUM_LEN);
    let want = u64::from_be_bytes(trailer.try_into().expect("8-byte trailer"));
    let got = frame_checksum(body);
    if want != got {
        return Err(FlexError::ChecksumMismatch { want, got });
    }
    Ok(body)
}

/// Flips `flips` pseudo-randomly chosen bits of `bytes` in place, seeded
/// by `seed` — the chaos harness's in-flight corruption primitive.
///
/// Deterministic: the same `(len, seed, flips)` always mangles the same
/// bits, so E20 corruption schedules replay exactly. Distinct flip
/// positions are chosen (a bit is never flipped back by a later draw),
/// guaranteeing the frame genuinely differs from the original whenever
/// `flips > 0` and the buffer is non-empty.
pub fn flip_bits(bytes: &mut [u8], seed: u64, flips: u32) {
    if bytes.is_empty() {
        return;
    }
    let total_bits = bytes.len() as u64 * 8;
    let mut state = seed;
    let mut chosen = Vec::with_capacity(flips as usize);
    for _ in 0..flips.min(total_bits as u32) {
        // splitmix64 step — same generator the fabric schedules use.
        let mut pos;
        loop {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            pos = (z ^ (z >> 31)) % total_bits;
            if !chosen.contains(&pos) {
                break;
            }
        }
        chosen.push(pos);
        bytes[(pos / 8) as usize] ^= 1 << (pos % 8);
    }
}

fn trap(reason: impl Into<String>) -> flexnet_types::FlexError {
    Trap::MalformedPacket {
        reason: reason.into(),
    }
    .into()
}

/// Reads a big-endian u16 at `off`.
fn be16(b: &[u8], off: usize) -> u64 {
    ((b[off] as u64) << 8) | b[off + 1] as u64
}

/// Reads a big-endian u32 at `off`.
fn be32(b: &[u8], off: usize) -> u64 {
    ((b[off] as u64) << 24) | ((b[off + 1] as u64) << 16) | ((b[off + 2] as u64) << 8)
        | b[off + 3] as u64
}

/// Reads a big-endian u48 (MAC address) at `off`.
fn be48(b: &[u8], off: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..6 {
        v = (v << 8) | b[off + i] as u64;
    }
    v
}

/// Parses one Ethernet frame into a [`Packet`] with the given id.
///
/// Fails closed: any inconsistency in the bytes is a
/// [`Trap::MalformedPacket`] naming what was wrong. Unknown ethertypes
/// and IP protocols are *not* malformed — parsing stops and the rest of
/// the frame becomes payload, exactly like a real pipeline punting an
/// unparsed protocol past its last known header.
pub fn parse_wire(bytes: &[u8], id: u64) -> Result<Packet> {
    let mut pkt = Packet::new(id, Vec::new(), 0);
    parse_wire_into(bytes, id, &mut pkt)?;
    Ok(pkt)
}

/// Parses one Ethernet frame into a packet the caller already owns.
///
/// This is [`parse_wire`]'s only parser: for any bytes and any prior
/// contents of `pkt`, it returns the same `Ok`/`Err(Trap)` as
/// `parse_wire(bytes, id)`, and on `Ok` leaves `pkt` equal to that fresh
/// parse. Every field is overwritten — metadata and trace are cleared,
/// `ingress_time` reset — but the allocations behind them are kept: a
/// header slot that already holds the same protocol with the same field
/// names has its values updated in place, any other slot is rebuilt, and
/// slots past the parsed stack are truncated away. On `Err` the packet's
/// contents are unspecified.
pub fn parse_wire_into(bytes: &[u8], id: u64, pkt: &mut Packet) -> Result<()> {
    if bytes.len() < 14 {
        return Err(trap(format!("ethernet frame truncated (len {})", bytes.len())));
    }
    let dst = be48(bytes, 0);
    let src = be48(bytes, 6);
    let mut ethertype = be16(bytes, 12);
    let mut off = 14usize;

    // 802.1Q tags, bounded.
    let mut tcis = [0u64; MAX_VLAN_DEPTH];
    let mut vlans = 0usize;
    while ethertype == 0x8100 {
        if vlans == MAX_VLAN_DEPTH {
            return Err(trap(format!("vlan stack deeper than {MAX_VLAN_DEPTH}")));
        }
        if bytes.len() < off + 4 {
            return Err(trap("vlan tag truncated"));
        }
        tcis[vlans] = be16(bytes, off);
        vlans += 1;
        ethertype = be16(bytes, off + 2);
        off += 4;
    }
    // The eth header goes outermost-first; vlan tags sit after it.
    let headers = &mut pkt.headers;
    fill_header(
        headers,
        0,
        ETH,
        [(DST, dst), (ETHERTYPE, ethertype), (SRC, src)],
    );
    for (i, tci) in tcis[..vlans].iter().enumerate() {
        fill_header(
            headers,
            1 + i,
            VLAN,
            [(PCP, tci >> 13), (VID, tci & 0x0fff)],
        );
    }
    let mut used = 1 + vlans;

    // Non-IP frame: everything after the L2 headers is payload.
    let (mut payload_start, mut payload_end) = (off, bytes.len());
    if ethertype == 0x0800 {
        if bytes.len() < off + 20 {
            return Err(trap(format!(
                "ipv4 header truncated ({} bytes after ethernet)",
                bytes.len() - off
            )));
        }
        let version = bytes[off] >> 4;
        if version != 4 {
            return Err(trap(format!("ipv4 version {version} unsupported")));
        }
        let ihl = (bytes[off] & 0x0f) as usize;
        if ihl < 5 {
            return Err(trap(format!("ipv4 ihl {ihl} below minimum 5")));
        }
        let hdr_len = ihl * 4;
        if bytes.len() < off + hdr_len {
            return Err(trap(format!(
                "ipv4 options truncated (ihl {ihl} needs {hdr_len} bytes)"
            )));
        }
        let total_len = be16(bytes, off + 2) as usize;
        if total_len < hdr_len {
            return Err(trap(format!(
                "ipv4 total length {total_len} below header length {hdr_len}"
            )));
        }
        if total_len > bytes.len() - off {
            return Err(trap(format!(
                "ipv4 total length {total_len} exceeds frame ({} bytes left)",
                bytes.len() - off
            )));
        }
        let tos = bytes[off + 1] as u64;
        let proto = bytes[off + 9];
        fill_header(
            headers,
            used,
            IPV4,
            [
                (DSCP, tos >> 2),
                (DST, be32(bytes, off + 16)),
                (ECN, tos & 0x3),
                (PROTO, proto as u64),
                (SRC, be32(bytes, off + 12)),
                (TTL, bytes[off + 8] as u64),
            ],
        );
        used += 1;
        let l4_end = off + total_len;
        off += hdr_len;
        payload_start = off;
        // Payload length comes from the IP total length, not the frame
        // (frames may carry padding past the datagram).
        payload_end = l4_end;

        match proto {
            6 => {
                if l4_end < off + 20 || bytes.len() < off + 20 {
                    return Err(trap(format!(
                        "tcp header truncated ({} bytes after ipv4)",
                        l4_end.saturating_sub(off)
                    )));
                }
                let data_off = (bytes[off + 12] >> 4) as usize;
                if data_off < 5 {
                    return Err(trap(format!("tcp data offset {data_off} below minimum 5")));
                }
                if l4_end < off + data_off * 4 {
                    return Err(trap(format!(
                        "tcp options truncated (data offset {data_off} needs {} bytes)",
                        data_off * 4
                    )));
                }
                fill_header(
                    headers,
                    used,
                    TCP,
                    [
                        (ACK, be32(bytes, off + 8)),
                        (DPORT, be16(bytes, off + 2)),
                        (FLAGS, bytes[off + 13] as u64),
                        (SEQ, be32(bytes, off + 4)),
                        (SPORT, be16(bytes, off)),
                        (WINDOW, be16(bytes, off + 14)),
                    ],
                );
                used += 1;
                payload_start = off + data_off * 4;
            }
            17 => {
                if l4_end < off + 8 || bytes.len() < off + 8 {
                    return Err(trap(format!(
                        "udp header truncated ({} bytes after ipv4)",
                        l4_end.saturating_sub(off)
                    )));
                }
                let udp_len = be16(bytes, off + 4) as usize;
                if udp_len < 8 {
                    return Err(trap(format!("udp length field {udp_len} below minimum 8")));
                }
                if udp_len > l4_end - off {
                    return Err(trap(format!(
                        "udp length field {udp_len} exceeds ipv4 payload ({} bytes)",
                        l4_end - off
                    )));
                }
                fill_header(
                    headers,
                    used,
                    UDP,
                    [(DPORT, be16(bytes, off + 2)), (SPORT, be16(bytes, off))],
                );
                used += 1;
                payload_start = off + 8;
            }
            // Unknown L4: the rest of the IP datagram is payload.
            _ => {}
        }
    }

    headers.truncate(used);
    pkt.id = id;
    pkt.payload_len = (payload_end - payload_start) as u32;
    pkt.payload = bytes[payload_start..payload_end].into();
    pkt.metadata.clear();
    pkt.ingress_time = SimTime::ZERO;
    pkt.trace.clear();
    Ok(())
}

/// Writes header `at` of a stack being parsed in place: `proto` with
/// exactly the fields `fields`, given in string order.
///
/// When the slot already holds `proto` with the same field names (a
/// pointer compare per name), only the values are written. Any other slot
/// is rebuilt, and a slot one past the end is pushed.
fn fill_header<const N: usize>(
    headers: &mut Vec<Header>,
    at: usize,
    proto: Name,
    fields: [(Name, u64); N],
) {
    let Some(h) = headers.get_mut(at) else {
        headers.push(Header::from_sorted(proto, fields));
        return;
    };
    let same_shape =
        h.proto == proto && h.fields.keys().copied().eq(fields.iter().map(|&(k, _)| k));
    if same_shape {
        for (slot, (_, v)) in h.fields.values_mut().zip(fields) {
            *slot = v;
        }
    } else {
        *h = Header::from_sorted(proto, fields);
    }
}

fn push16(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&[(v >> 8) as u8, v as u8]);
}

fn push32(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&[(v >> 24) as u8, (v >> 16) as u8, (v >> 8) as u8, v as u8]);
}

fn push48(out: &mut Vec<u8>, v: u64) {
    for i in (0..6).rev() {
        out.push((v >> (i * 8)) as u8);
    }
}

/// Encodes a packet back to wire bytes for the protocols the codec
/// speaks (eth, vlan, ipv4, tcp, udp). Headers the codec does not know
/// are skipped — the encoder exists to make *valid* frames for tests
/// and the chaos suite, not to be a general serializer.
pub fn encode_wire(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let eth = pkt.header(ETH);
    push48(&mut out, eth.and_then(|h| h.get(DST)).unwrap_or(2));
    push48(&mut out, eth.and_then(|h| h.get(SRC)).unwrap_or(1));

    let vlans: Vec<&Header> = pkt.headers.iter().filter(|h| h.proto == VLAN).collect();
    let has_ip = pkt.has_header(IPV4);
    let inner_ethertype = if has_ip {
        0x0800
    } else {
        eth.and_then(|h| h.get(ETHERTYPE)).unwrap_or(0xffff)
    };
    if vlans.is_empty() {
        push16(&mut out, inner_ethertype);
    } else {
        // Each 0x8100 announces the tag that follows; the last tag
        // carries the inner ethertype.
        for (i, v) in vlans.iter().enumerate() {
            push16(&mut out, 0x8100);
            let tci = (v.get(PCP).unwrap_or(0) << 13) | (v.get(VID).unwrap_or(0) & 0x0fff);
            push16(&mut out, tci);
            if i + 1 == vlans.len() {
                push16(&mut out, inner_ethertype);
            }
        }
    }

    if let Some(ip) = pkt.header(IPV4) {
        let proto = ip.get(PROTO).unwrap_or(0) as u8;
        let l4: Vec<u8> = match proto {
            6 => {
                let t = pkt.header(TCP);
                let mut l4 = Vec::with_capacity(20);
                push16(&mut l4, t.and_then(|h| h.get(SPORT)).unwrap_or(0));
                push16(&mut l4, t.and_then(|h| h.get(DPORT)).unwrap_or(0));
                push32(&mut l4, t.and_then(|h| h.get(SEQ)).unwrap_or(0));
                push32(&mut l4, t.and_then(|h| h.get(ACK)).unwrap_or(0));
                l4.push(5 << 4); // data offset 5, no options
                l4.push(t.and_then(|h| h.get(FLAGS)).unwrap_or(0) as u8);
                push16(&mut l4, t.and_then(|h| h.get(WINDOW)).unwrap_or(65_535));
                push16(&mut l4, 0); // checksum (unchecked by the parser)
                push16(&mut l4, 0); // urgent pointer
                l4
            }
            17 => {
                let u = pkt.header(UDP);
                let mut l4 = Vec::with_capacity(8);
                push16(&mut l4, u.and_then(|h| h.get(SPORT)).unwrap_or(0));
                push16(&mut l4, u.and_then(|h| h.get(DPORT)).unwrap_or(0));
                push16(&mut l4, 8 + pkt.payload.len() as u64);
                push16(&mut l4, 0); // checksum
                l4
            }
            _ => Vec::new(),
        };
        let total_len = 20 + l4.len() + pkt.payload.len();
        out.push(0x45); // version 4, ihl 5
        let tos = (ip.get(DSCP).unwrap_or(0) << 2) | (ip.get(ECN).unwrap_or(0) & 0x3);
        out.push(tos as u8);
        push16(&mut out, total_len as u64);
        push16(&mut out, 0); // identification
        push16(&mut out, 0); // flags/fragment
        out.push(ip.get(TTL).unwrap_or(64) as u8);
        out.push(proto);
        push16(&mut out, 0); // checksum (unchecked by the parser)
        push32(&mut out, ip.get(SRC).unwrap_or(0));
        push32(&mut out, ip.get(DST).unwrap_or(0));
        out.extend_from_slice(&l4);
    }
    out.extend_from_slice(&pkt.payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_types::FlexError;

    fn parse_trap(bytes: &[u8]) -> String {
        match parse_wire(bytes, 1) {
            Err(FlexError::Trap(Trap::MalformedPacket { reason })) => reason,
            other => panic!("expected malformed-packet trap, got {other:?}"),
        }
    }

    #[test]
    fn tcp_frame_round_trips() {
        let mut pkt = Packet::tcp(7, 0x0a000001, 0x0a000002, 1234, 80, 0x12);
        pkt.payload = vec![0xde, 0xad, 0xbe, 0xef].into();
        pkt.payload_len = 4;
        let bytes = encode_wire(&pkt);
        let parsed = parse_wire(&bytes, 7).unwrap();
        assert_eq!(parsed.get_field("ipv4.src"), Some(0x0a000001));
        assert_eq!(parsed.get_field("ipv4.dst"), Some(0x0a000002));
        assert_eq!(parsed.get_field("ipv4.proto"), Some(6));
        assert_eq!(parsed.get_field("tcp.sport"), Some(1234));
        assert_eq!(parsed.get_field("tcp.dport"), Some(80));
        assert_eq!(parsed.get_field("tcp.flags"), Some(0x12));
        assert_eq!(parsed.payload_len, 4);
        assert_eq!(&parsed.payload[..], &[0xde, 0xad, 0xbe, 0xef]);
        // A second round trip is byte-identical (the codec is stable).
        assert_eq!(encode_wire(&parsed), bytes);
    }

    #[test]
    fn udp_and_vlan_frames_round_trip() {
        let mut pkt = Packet::udp(9, 10, 20, 53, 5353);
        pkt.payload = vec![1, 2, 3].into();
        pkt.payload_len = 3;
        pkt.insert_header(flexnet_types::Header::vlan(42), Some("eth"));
        let bytes = encode_wire(&pkt);
        let parsed = parse_wire(&bytes, 9).unwrap();
        assert_eq!(parsed.get_field("vlan.vid"), Some(42));
        assert_eq!(parsed.get_field("udp.dport"), Some(5353));
        assert_eq!(parsed.get_field("ipv4.proto"), Some(17));
        assert_eq!(parsed.payload_len, 3);
    }

    #[test]
    fn non_ip_frames_parse_to_l2_only() {
        let mut arp = vec![0u8; 14];
        arp[12] = 0x08;
        arp[13] = 0x06; // ARP
        arp.extend_from_slice(&[0xaa; 28]);
        let pkt = parse_wire(&arp, 1).unwrap();
        assert!(pkt.has_header("eth"));
        assert!(!pkt.has_header("ipv4"));
        assert_eq!(pkt.payload_len, 28);
    }

    /// Frames cut short, each with the reason its trap must name.
    fn truncated_frames() -> Vec<(&'static str, Vec<u8>)> {
        // Valid eth announcing IPv4 / a VLAN tag, then nothing.
        let mut ipv4 = vec![0u8; 14];
        ipv4[12] = 0x08;
        let mut vlan = vec![0u8; 14];
        vlan[12] = 0x81;
        vec![
            ("ethernet frame truncated", vec![]),
            ("ethernet frame truncated", vec![0u8; 13]),
            ("ipv4 header truncated", ipv4),
            ("vlan tag truncated", vlan),
        ]
    }

    /// IPv4/TCP frames whose length or version fields lie.
    fn ipv4_lie_frames() -> Vec<(&'static str, Vec<u8>)> {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        pkt.payload = vec![].into();
        pkt.payload_len = 0;
        let good = encode_wire(&pkt);
        let lie = |at: &[(usize, u8)]| {
            let mut b = good.clone();
            for &(i, v) in at {
                b[i] = v;
            }
            b
        };
        vec![
            // Version 6 in an ipv4 slot.
            ("version 6", lie(&[(14, 0x65)])),
            // IHL below minimum.
            ("ihl 4", lie(&[(14, 0x44)])),
            // Total length larger than the frame.
            ("exceeds frame", lie(&[(16, 0xff), (17, 0xff)])),
            // Total length smaller than the IP header itself.
            ("below header length", lie(&[(16, 0), (17, 10)])),
            // TCP data offset below minimum.
            ("data offset 4", lie(&[(34 + 12, 0x40)])),
        ]
    }

    /// UDP frames whose length field lies.
    fn udp_lie_frames() -> Vec<(&'static str, Vec<u8>)> {
        let mut pkt = Packet::udp(1, 1, 2, 3, 4);
        pkt.payload = vec![0; 4].into();
        pkt.payload_len = 4;
        let good = encode_wire(&pkt);
        let lie = |hi: u8, lo: u8| {
            let mut b = good.clone();
            b[34 + 4] = hi;
            b[34 + 5] = lo;
            b
        };
        vec![
            // UDP length below 8.
            ("below minimum 8", lie(0, 3)),
            // UDP length beyond the IP datagram.
            ("exceeds ipv4 payload", lie(0xff, 0xff)),
        ]
    }

    /// One VLAN tag more than the parser walks.
    fn deep_vlan_frame() -> Vec<u8> {
        let mut b = vec![0u8; 12];
        b.extend_from_slice(&[0x81, 0x00]);
        for _ in 0..(MAX_VLAN_DEPTH + 1) {
            b.extend_from_slice(&[0x00, 0x01, 0x81, 0x00]);
        }
        b
    }

    #[test]
    fn truncations_trap_with_named_reasons() {
        for (why, b) in truncated_frames() {
            assert!(parse_trap(&b).contains(why), "{why}");
        }
    }

    #[test]
    fn impossible_length_fields_trap() {
        for (why, b) in ipv4_lie_frames() {
            assert!(parse_trap(&b).contains(why), "{why}");
        }
    }

    #[test]
    fn udp_length_lies_trap() {
        for (why, b) in udp_lie_frames() {
            assert!(parse_trap(&b).contains(why), "{why}");
        }
    }

    #[test]
    fn vlan_stack_is_bounded() {
        assert!(parse_trap(&deep_vlan_frame()).contains("vlan stack deeper"));
    }

    /// Valid and malformed frames of every shape the codec speaks.
    fn frame_corpus() -> Vec<Vec<u8>> {
        let mut tcp = Packet::tcp(3, 0x0a000001, 0x0a000002, 1234, 80, 0x12);
        tcp.header_mut("tcp").unwrap().set("seq", 77);
        tcp.payload = vec![0xde, 0xad, 0xbe, 0xef].into();
        tcp.payload_len = 4;
        let mut udp = Packet::udp(4, 10, 20, 53, 5353);
        udp.payload = vec![1, 2, 3].into();
        udp.payload_len = 3;
        let mut frames = vec![encode_wire(&tcp), encode_wire(&udp)];
        // 1..=MAX_VLAN_DEPTH tags, on TCP and UDP alternately.
        for depth in 1..=MAX_VLAN_DEPTH {
            let mut p = if depth % 2 == 1 {
                tcp.clone()
            } else {
                udp.clone()
            };
            for d in 0..depth {
                let mut tag = Header::vlan(100 + d as u64);
                tag.set("pcp", d as u64);
                p.insert_header(tag, Some("eth"));
            }
            frames.push(encode_wire(&p));
        }
        // Non-IP (ARP) and an unknown L4 protocol (GRE).
        let mut arp = vec![0u8; 14];
        arp[12] = 0x08;
        arp[13] = 0x06;
        arp.extend_from_slice(&[0xaa; 28]);
        frames.push(arp);
        let gre_headers = vec![Header::ethernet(1, 2, 0x0800), Header::ipv4(7, 8, 47)];
        let mut gre = Packet::new(5, gre_headers, 2);
        gre.payload = vec![9, 9].into();
        frames.push(encode_wire(&gre));
        // Every trap the tests above pin, and the 5-byte junk frame.
        let lies = truncated_frames()
            .into_iter()
            .chain(ipv4_lie_frames())
            .chain(udp_lie_frames());
        frames.extend(lies.map(|(_, b)| b));
        frames.push(deep_vlan_frame());
        frames.push(vec![0xff; 5]);
        frames
    }

    /// Packets left dirty the ways a recycled burst slot can be.
    fn dirty_packets() -> Vec<Packet> {
        // Program-mutated TCP: an added field, metadata, a trace entry.
        let mut mutated = Packet::tcp(90, 5, 6, 7, 8, 0x02);
        mutated.header_mut("tcp").unwrap().set("mark", 1);
        mutated.metadata.insert("tenant", 3);
        mutated
            .trace
            .push((flexnet_types::NodeId(4), flexnet_types::ProgramVersion(2)));
        mutated.ingress_time = SimTime::from_millis(9);
        mutated.payload = vec![1; 16].into();
        mutated.payload_len = 16;
        // TCP that lost its `tcp` header.
        let mut no_tcp = Packet::tcp(91, 5, 6, 7, 8, 0);
        no_tcp.remove_header("tcp");
        // UDP with an extra tenant header.
        let mut tenant = Packet::udp(92, 5, 6, 7, 8);
        tenant.headers.push(Header::new("tenant", [("id", 42)]));
        vec![mutated, no_tcp, tenant, Packet::new(0, Vec::new(), 0)]
    }

    fn reason(e: &FlexError) -> &str {
        match e {
            FlexError::Trap(Trap::MalformedPacket { reason }) => reason,
            other => panic!("expected malformed-packet trap, got {other:?}"),
        }
    }

    #[test]
    fn in_place_parse_equals_fresh_parse() {
        for (f, bytes) in frame_corpus().iter().enumerate() {
            let fresh = parse_wire(bytes, 11);
            for (d, dirty) in dirty_packets().into_iter().enumerate() {
                let mut slot = dirty;
                let in_place = parse_wire_into(bytes, 11, &mut slot);
                match (&fresh, &in_place) {
                    (Ok(want), Ok(())) => assert_eq!(&slot, want, "frame {f}, dirty {d}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "frame {f}, dirty {d}");
                        assert_eq!(reason(a), reason(b), "frame {f}, dirty {d}");
                    }
                    _ => panic!("frame {f}, dirty {d}: fresh {fresh:?} vs in place {in_place:?}"),
                }
            }
        }
    }

    #[test]
    fn sealed_frames_open_clean_and_catch_any_flip() {
        let mut pkt = Packet::tcp(7, 0x0a000001, 0x0a000002, 1234, 80, 0x12);
        pkt.payload = vec![0xde, 0xad, 0xbe, 0xef].into();
        pkt.payload_len = 4;
        let bytes = encode_wire(&pkt);
        let sealed = seal_frame(&bytes);
        assert_eq!(sealed.len(), bytes.len() + FRAME_CHECKSUM_LEN);
        assert_eq!(open_frame(&sealed).unwrap(), &bytes[..]);

        // Every single-bit flip anywhere in the sealed frame — body or
        // trailer — is caught as a typed transport failure.
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut corrupt = sealed.clone();
                corrupt[byte] ^= 1 << bit;
                match open_frame(&corrupt) {
                    Err(FlexError::ChecksumMismatch { want, got }) => assert_ne!(want, got),
                    other => panic!(
                        "flip at byte {byte} bit {bit}: expected ChecksumMismatch, got {other:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn runt_sealed_frames_are_transport_failures_not_traps() {
        for len in 0..FRAME_CHECKSUM_LEN {
            let junk = vec![0xAB; len];
            match open_frame(&junk) {
                Err(FlexError::ChecksumMismatch { .. }) => {}
                other => panic!("runt of {len} bytes: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_checksum_is_order_sensitive() {
        // FNV-1a must distinguish reorderings, not just byte multisets.
        assert_ne!(frame_checksum(&[1, 2, 3]), frame_checksum(&[3, 2, 1]));
        assert_ne!(frame_checksum(&[]), frame_checksum(&[0]));
    }

    #[test]
    fn flip_bits_is_deterministic_and_always_mutates() {
        let original: Vec<u8> = (0u8..64).collect();
        for seed in [0u64, 1, 0xAD5E, u64::MAX] {
            for flips in 1..=8u32 {
                let mut a = original.clone();
                let mut b = original.clone();
                flip_bits(&mut a, seed, flips);
                flip_bits(&mut b, seed, flips);
                assert_eq!(a, b, "same seed, same damage");
                assert_ne!(a, original, "flips must actually flip");
                let changed: u32 = a
                    .iter()
                    .zip(&original)
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
                assert_eq!(changed, flips, "distinct positions: {flips} bits differ");
            }
        }
        let mut empty: Vec<u8> = vec![];
        flip_bits(&mut empty, 7, 8); // no panic on empty buffers
    }

    #[test]
    fn arbitrary_junk_never_panics() {
        // A deterministic pseudo-random byte soup; the property-based
        // harness in tests/ goes much further — this pins the unit level.
        let mut x = 0x9e3779b97f4a7c15u64;
        for len in 0..200usize {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                bytes.push(x as u8);
            }
            let _ = parse_wire(&bytes, 1); // Ok or Err(Trap) — never panic
        }
    }
}
