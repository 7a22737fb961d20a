//! Infrastructure routing programs: the trusted base the network operator
//! maintains (paper §3, scenario).

use crate::build;
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::Result;

/// A longest-prefix-match L3 router. The controller populates the `routes`
/// table; misses fall through to the routing substrate (port 0).
pub fn l3_router(route_table_size: u64) -> Result<ProgramBundle> {
    build(&format!(
        "program l3_router kind switch {{
           counter routed;
           table routes {{
             key {{ ipv4.dst : lpm; }}
             action out(port: u16) {{ count(routed); forward(port); }}
             action blackhole() {{ drop(); }}
             size {route_table_size};
           }}
           handler ingress(pkt) {{
             if (valid(ipv4)) {{
               if (ipv4.ttl == 0) {{ drop(); }}
               ipv4.ttl = ipv4.ttl - 1;
               apply routes;
             }}
             forward(0);
           }}
         }}"
    ))
}

/// A VLAN gateway for tenant isolation: tags untagged tenant traffic with
/// the VLAN the controller writes into `meta.tenant_vlan` metadata, and
/// counts violations where a packet carries a different tag than assigned.
pub fn vlan_gateway() -> Result<ProgramBundle> {
    build(
        "program vlan_gateway kind any {
           counter tagged;
           counter violations;
           handler ingress(pkt) {
             if (!valid(vlan)) {
               add_header(vlan);
               vlan.vid = meta.tenant_vlan;
               count(tagged);
             } else if (vlan.vid != meta.tenant_vlan && meta.tenant_vlan != 0) {
               count(violations);
               drop();
             }
             forward(0);
           }
         }",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::{Architecture, Device, KeyMatch, StateEncoding, TableEntry};
    use flexnet_lang::ast::ActionCall;
    use flexnet_types::{NodeId, Packet, SimTime, Verdict};

    fn dev(bundle: ProgramBundle) -> Device {
        let mut d = Device::new(
            NodeId(1),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle).unwrap();
        d
    }

    #[test]
    fn router_follows_lpm_and_decrements_ttl() {
        let mut d = dev(l3_router(64).unwrap());
        d.add_entry(
            "routes",
            TableEntry {
                matches: vec![KeyMatch::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                    width: 32,
                }],
                priority: 0,
                action: ActionCall {
                    action: "out".into(),
                    args: vec![3],
                },
            },
        )
        .unwrap();
        let mut p = Packet::tcp(1, 1, 0x0a010203, 5, 80, 0);
        let r = d.process(&mut p, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Forward(3));
        assert_eq!(p.get_field("ipv4.ttl"), Some(63));
        // Miss falls through to routed port 0.
        let mut miss = Packet::tcp(2, 1, 0x0b000001, 5, 80, 0);
        assert_eq!(
            d.process(&mut miss, SimTime::ZERO).unwrap().verdict,
            Verdict::Forward(0)
        );
    }

    #[test]
    fn router_drops_expired_ttl() {
        let mut d = dev(l3_router(4).unwrap());
        let mut p = Packet::tcp(1, 1, 2, 5, 80, 0);
        p.set_field("ipv4.ttl", 0);
        assert_eq!(d.process(&mut p, SimTime::ZERO).unwrap().verdict, Verdict::Drop);
    }

    #[test]
    fn blackhole_action_drops() {
        let mut d = dev(l3_router(4).unwrap());
        d.add_entry(
            "routes",
            TableEntry {
                matches: vec![KeyMatch::Lpm {
                    value: 0xdead0000,
                    prefix_len: 16,
                    width: 32,
                }],
                priority: 0,
                action: ActionCall {
                    action: "blackhole".into(),
                    args: vec![],
                },
            },
        )
        .unwrap();
        let mut p = Packet::tcp(1, 1, 0xdead_beef, 5, 80, 0);
        assert_eq!(d.process(&mut p, SimTime::ZERO).unwrap().verdict, Verdict::Drop);
    }

    #[test]
    fn gateway_tags_untagged_traffic() {
        let mut d = dev(vlan_gateway().unwrap());
        let mut p = Packet::tcp(1, 1, 2, 3, 4, 0);
        p.metadata.insert("tenant_vlan", 300);
        let r = d.process(&mut p, SimTime::ZERO).unwrap();
        assert_eq!(r.verdict, Verdict::Forward(0));
        assert_eq!(p.get_field("vlan.vid"), Some(300));
    }

    #[test]
    fn gateway_drops_cross_tenant_spoofing() {
        let mut d = dev(vlan_gateway().unwrap());
        let mut p = Packet::tcp(1, 1, 2, 3, 4, 0);
        p.insert_header(flexnet_types::Header::vlan(999), Some("eth"));
        p.metadata.insert("tenant_vlan", 300);
        assert_eq!(d.process(&mut p, SimTime::ZERO).unwrap().verdict, Verdict::Drop);
        assert_eq!(d.program_mut().unwrap().state.counter_read("violations"), 1);
    }
}
