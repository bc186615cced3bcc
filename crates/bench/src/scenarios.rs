//! Canonical experiment scenarios shared by the figure binaries, the
//! harness tests and EXPERIMENTS.md.

use mpls_control::{ControlPlane, LspRequest, Topology};
use mpls_core::modifier::Outcome;
use mpls_core::{IbOperation, LabelStackModifier, Level, RouterType};
use mpls_dataplane::ftn::Prefix;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_packet::ipv4::parse_addr;
use mpls_packet::{label::LabelStackEntry, CosBits, Label};

/// A control plane over the Fig. 1 topology with one best-effort LSP from
/// LER 0 to LER 1 covering 192.168.1.0/24.
pub fn figure1_with_lsp() -> ControlPlane {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.establish_lsp(LspRequest::best_effort(
        0,
        1,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .expect("figure-1 LSP establishes");
    cp
}

/// A modifier with `n` swap pairs loaded at `level`, keyed `1..=n`, and a
/// single-entry stack whose top label is `hit_at` (1-based position of the
/// matching pair; use `n + 1` for a guaranteed miss).
pub fn loaded_modifier(n: u64, hit_at: u64) -> LabelStackModifier {
    let mut m = LabelStackModifier::new(RouterType::Lsr);
    for i in 0..n {
        let r = m.write_pair(
            Level::L2,
            i + 1,
            Label::new(500 + (i as u32 % 1000)).unwrap(),
            IbOperation::Swap,
        );
        assert_eq!(r.outcome, Outcome::Done);
    }
    let r = m.user_push(LabelStackEntry::new(
        Label::new(hit_at as u32).unwrap(),
        CosBits::BEST_EFFORT,
        false,
        64,
    ));
    assert_eq!(r.outcome, Outcome::Done);
    m
}

/// The QoS/TE workload of the EXT-3 experiment: one VoIP flow and one
/// bulk flow sharing the ingress LER, destinations chosen so both ride
/// LSPs to LER 1.
pub fn voip_flow(start_ns: u64, stop_ns: u64) -> FlowSpec {
    FlowSpec {
        name: "voip".into(),
        ingress: 0,
        src_addr: parse_addr("10.0.0.10").unwrap(),
        dst_addr: parse_addr("192.168.1.10").unwrap(),
        payload_bytes: 146, // 200 B on the wire, G.711-like
        precedence: 5,
        pattern: TrafficPattern::Cbr {
            interval_ns: 20_000_000,
        },
        start_ns,
        stop_ns,
        police: None,
    }
}

/// Bulk background traffic: near-line-rate 1500-byte bursts.
pub fn bulk_flow(name: &str, dst: &str, interval_ns: u64, stop_ns: u64) -> FlowSpec {
    FlowSpec {
        name: name.into(),
        ingress: 0,
        src_addr: parse_addr("10.0.0.20").unwrap(),
        dst_addr: parse_addr(dst).unwrap(),
        payload_bytes: 1446, // 1500 B on the wire
        precedence: 0,
        pattern: TrafficPattern::Cbr { interval_ns },
        start_ns: 0,
        stop_ns,
        police: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaded_modifier_hits_where_asked() {
        let mut m = loaded_modifier(10, 4);
        let r = m.update_stack(0, CosBits::BEST_EFFORT, 0);
        assert_eq!(r.cycles, mpls_core::table6::search_hit_at(4) + 6);
    }

    #[test]
    fn loaded_modifier_misses_past_n() {
        let mut m = loaded_modifier(10, 11);
        let r = m.update_stack(0, CosBits::BEST_EFFORT, 0);
        assert_eq!(r.cycles, mpls_core::table6::update_miss(10));
    }

    #[test]
    fn scenario_setup_is_sane() {
        let cp = figure1_with_lsp();
        assert_eq!(cp.lsp_ids().len(), 1);
    }
}
