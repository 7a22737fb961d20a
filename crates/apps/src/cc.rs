//! Congestion-control components for live infrastructure customization.
//!
//! Paper §1.1: "Deploying new transport protocols, for instance, requires
//! changes not only to host kernels but also telemetry and congestion
//! control (CC) algorithms at the NICs and switches. The optimal choice of
//! CC algorithms further depends on the mix of applications and workloads,
//! which fluctuate dynamically at runtime."
//!
//! These components model three CC families at their natural tiers:
//!
//! - [`ecn_marking`] — the switch side (DCTCP-style ECN at a queue
//!   threshold).
//! - [`dctcp_host`] — the host side: multiplicative decrease on ECN echo.
//! - [`hpcc_nic`] — an HPCC-like NIC component driven by in-band link
//!   utilization telemetry.
//! - [`bbr_host`] — a BBR-like host component tracking a bottleneck-
//!   bandwidth estimate.
//!
//! The simulator supplies queue/telemetry context through packet metadata
//! (`meta.queue_depth`, `meta.link_util`, `meta.delivery_rate`), standing in
//! for the in-band telemetry the paper assumes.

use crate::build;
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::Result;

/// Switch-side ECN marking at `queue_threshold` (DCTCP's K).
pub fn ecn_marking(queue_threshold: u64) -> Result<ProgramBundle> {
    build(&format!(
        "program ecn_marking kind switch {{
           counter marked;
           handler ingress(pkt) {{
             if (valid(ipv4) && meta.queue_depth > {queue_threshold}) {{
               ipv4.ecn = 3;
               count(marked);
             }}
             forward(0);
           }}
         }}"
    ))
}

/// Host-side DCTCP-like window control: halve the window register on ECN
/// echo, otherwise additive increase. The window lives in `cwnd[0]`
/// (segments) and is exported to the stack via `meta.cwnd`.
pub fn dctcp_host() -> Result<ProgramBundle> {
    build(
        "program dctcp_host kind host {
           register cwnd : u32[1];
           counter ecn_echoes;
           handler ingress(pkt) {
             let w = reg_read(cwnd, 0);
             if (w == 0) { w = 10; }
             if (valid(ipv4) && ipv4.ecn == 3) {
               count(ecn_echoes);
               w = w - w / 2;
               if (w == 0) { w = 1; }
             } else {
               w = w + 1;
             }
             reg_write(cwnd, 0, w);
             meta.cwnd = w;
             forward(0);
           }
         }",
    )
}

/// HPCC-like NIC rate control: in-band telemetry reports link utilization
/// percent in `meta.link_util`; the sending rate register is adjusted
/// multiplicatively toward a 95% target.
pub fn hpcc_nic() -> Result<ProgramBundle> {
    build(
        "program hpcc_nic kind nic {
           register rate_mbps : u64[1];
           counter adjustments;
           handler ingress(pkt) {
             let r = reg_read(rate_mbps, 0);
             if (r == 0) { r = 1000; }
             let util = meta.link_util;
             if (util > 95) {
               r = r * 95 / (util + 1);
               if (r == 0) { r = 1; }
               count(adjustments);
             } else if (util < 80) {
               r = r + 100;
               count(adjustments);
             }
             reg_write(rate_mbps, 0, r);
             meta.pacing_rate = r;
             forward(0);
           }
         }",
    )
}

/// BBR-like host component: tracks the max delivery-rate sample as the
/// bottleneck-bandwidth estimate and paces at a small gain above it.
pub fn bbr_host() -> Result<ProgramBundle> {
    build(
        "program bbr_host kind host {
           register btl_bw : u64[1];
           counter samples;
           handler ingress(pkt) {
             let sample = meta.delivery_rate;
             if (sample > reg_read(btl_bw, 0)) {
               reg_write(btl_bw, 0, sample);
               count(samples);
             }
             meta.pacing_rate = reg_read(btl_bw, 0) * 5 / 4;
             forward(0);
           }
         }",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::{Architecture, Device, StateEncoding};
    use flexnet_types::{NodeId, Packet, SimTime};

    fn dev(bundle: ProgramBundle, arch: Architecture) -> Device {
        let mut d = Device::new(NodeId(1), arch, StateEncoding::StatefulTable);
        d.install(bundle).unwrap();
        d
    }

    #[test]
    fn ecn_marks_only_above_threshold() {
        let mut d = dev(ecn_marking(50).unwrap(), Architecture::drmt_default());
        let mut deep = Packet::tcp(1, 1, 2, 3, 4, 0);
        deep.metadata.insert("queue_depth", 80);
        d.process(&mut deep, SimTime::ZERO).unwrap();
        assert_eq!(deep.get_field("ipv4.ecn"), Some(3));

        let mut shallow = Packet::tcp(2, 1, 2, 3, 4, 0);
        shallow.metadata.insert("queue_depth", 10);
        d.process(&mut shallow, SimTime::ZERO).unwrap();
        assert_eq!(shallow.get_field("ipv4.ecn"), Some(0));
        assert_eq!(d.program_mut().unwrap().state.counter_read("marked"), 1);
    }

    #[test]
    fn dctcp_halves_on_ecn_and_grows_otherwise() {
        let mut d = dev(dctcp_host().unwrap(), Architecture::host_default());
        // Grow for 10 clean ACKs: 10(initial)+10.
        for i in 0..10 {
            let mut p = Packet::tcp(i, 1, 2, 3, 4, 0x10);
            d.process(&mut p, SimTime::ZERO).unwrap();
        }
        assert_eq!(d.program_mut().unwrap().state.reg_read("cwnd", 0), 20);
        // One ECN echo halves.
        let mut ecn = Packet::tcp(99, 1, 2, 3, 4, 0x10);
        ecn.set_field("ipv4.ecn", 3);
        d.process(&mut ecn, SimTime::ZERO).unwrap();
        assert_eq!(d.program_mut().unwrap().state.reg_read("cwnd", 0), 10);
        assert_eq!(ecn.metadata["cwnd"], 10);
    }

    #[test]
    fn dctcp_window_never_reaches_zero() {
        let mut d = dev(dctcp_host().unwrap(), Architecture::host_default());
        for i in 0..20 {
            let mut ecn = Packet::tcp(i, 1, 2, 3, 4, 0x10);
            ecn.set_field("ipv4.ecn", 3);
            d.process(&mut ecn, SimTime::ZERO).unwrap();
        }
        assert!(d.program_mut().unwrap().state.reg_read("cwnd", 0) >= 1);
    }

    #[test]
    fn hpcc_backs_off_above_target_and_probes_below() {
        let mut d = dev(hpcc_nic().unwrap(), Architecture::smartnic_default());
        let mut hot = Packet::tcp(1, 1, 2, 3, 4, 0);
        hot.metadata.insert("link_util", 120);
        d.process(&mut hot, SimTime::ZERO).unwrap();
        let after_hot = d.program_mut().unwrap().state.reg_read("rate_mbps", 0);
        assert!(after_hot < 1000, "backed off from 1000: {after_hot}");

        let mut cold = Packet::tcp(2, 1, 2, 3, 4, 0);
        cold.metadata.insert("link_util", 10);
        d.process(&mut cold, SimTime::ZERO).unwrap();
        let after_cold = d.program_mut().unwrap().state.reg_read("rate_mbps", 0);
        assert_eq!(after_cold, after_hot + 100);
    }

    #[test]
    fn hpcc_holds_in_band() {
        let mut d = dev(hpcc_nic().unwrap(), Architecture::smartnic_default());
        let mut ok = Packet::tcp(1, 1, 2, 3, 4, 0);
        ok.metadata.insert("link_util", 90);
        d.process(&mut ok, SimTime::ZERO).unwrap();
        assert_eq!(d.program_mut().unwrap().state.reg_read("rate_mbps", 0), 1000);
        assert_eq!(d.program_mut().unwrap().state.counter_read("adjustments"), 0);
    }

    #[test]
    fn bbr_tracks_max_delivery_rate() {
        let mut d = dev(bbr_host().unwrap(), Architecture::host_default());
        for (i, rate) in [100u64, 500, 300, 800, 200].iter().enumerate() {
            let mut p = Packet::tcp(i as u64, 1, 2, 3, 4, 0x10);
            p.metadata.insert("delivery_rate", *rate);
            d.process(&mut p, SimTime::ZERO).unwrap();
        }
        assert_eq!(d.program_mut().unwrap().state.reg_read("btl_bw", 0), 800);
        // Pacing = 800 * 5/4.
        let mut p = Packet::tcp(99, 1, 2, 3, 4, 0x10);
        p.metadata.insert("delivery_rate", 0);
        d.process(&mut p, SimTime::ZERO).unwrap();
        assert_eq!(p.metadata["pacing_rate"], 1000);
    }

    #[test]
    fn cc_components_target_their_tiers() {
        use flexnet_lang::ast::ProgramKind;
        assert_eq!(ecn_marking(10).unwrap().program.kind, ProgramKind::Switch);
        assert_eq!(dctcp_host().unwrap().program.kind, ProgramKind::Host);
        assert_eq!(hpcc_nic().unwrap().program.kind, ProgramKind::Nic);
        assert_eq!(bbr_host().unwrap().program.kind, ProgramKind::Host);
    }
}
