//! Plain-text report rendering for scenario runs.

use mpls_net::{ControlMode, SimReport};

/// Formats the per-flow report plus link utilization as aligned text.
pub fn format_report(report: &SimReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "engine: {}, {} shard{} ({} rounds, {} events, {} FIB downloads), control: {}",
        report.engine.kind.name(),
        report.engine.shards,
        if report.engine.shards == 1 { "" } else { "s" },
        report.engine.epochs,
        report.engine.total_events(),
        report.engine.fib_downloads,
        report.control.mode,
    ));
    if let Some(conv) = report.control.convergence_ns {
        out.push_str(&format!(" (converged in {:.2} ms)", conv as f64 / 1e6));
    }
    out.push('\n');
    // Fast-path diagnostics live in non-serialized counters (reports
    // must stay byte-identical across lookup strategies), so the only
    // place they surface is this human-readable rendering.
    let (lookups, hits, misses) = report
        .routers
        .values()
        .fold((0u64, 0u64, 0u64), |(l, h, m), s| {
            (l + s.fib_lookups, h + s.cache_hits, m + s.cache_misses)
        });
    if hits + misses > 0 {
        let hit_rate = hits as f64 / (hits + misses) as f64 * 100.0;
        out.push_str(&format!(
            "  fast path: {lookups} FIB lookups, {hits} cache hits / {misses} misses \
             ({hit_rate:.1}% hit rate)\n"
        ));
    }
    if report.control.mode == ControlMode::Ldp {
        out.push_str(&format!(
            "  ldp: {} sessions up, {} expired, {} PDUs sent ({} delivered, {} lost), \
             {} loop rejections\n",
            report.control.sessions_established,
            report.control.session_downs,
            report.control.pdus_sent,
            report.control.pdus_delivered,
            report.control.pdus_lost,
            report.control.loop_rejections,
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<12} {:>8} {:>10} {:>8} {:>12} {:>12} {:>12} {:>10}\n",
        "flow", "sent", "delivered", "loss%", "delay p50", "delay p99", "jitter µs", "Mb/s"
    ));
    for (spec, s) in &report.flows {
        let (p50, _, p99) = s.delay_hist.percentiles();
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>8.2} {:>9.1} µs {:>9.1} µs {:>12.2} {:>10.2}\n",
            spec.name,
            s.sent,
            s.delivered,
            s.loss_rate() * 100.0,
            p50 / 1000.0,
            p99 / 1000.0,
            s.mean_jitter_ns() / 1000.0,
            s.throughput_bps() / 1e6,
        ));
    }
    // Closed-loop flows carry a second life beyond the packet counters:
    // transfers, completion times, and the congestion-window reaction.
    if report.flows.iter().any(|(_, s)| s.transfers_started > 0) {
        out.push('\n');
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12} {:>6} {:>6} {:>6} {:>10} {:>9}\n",
            "closed-loop",
            "xfers",
            "fct p50",
            "fct p99",
            "retx",
            "ecn",
            "cuts",
            "peak cwnd",
            "sla viol"
        ));
        for (spec, s) in &report.flows {
            if s.transfers_started == 0 {
                continue;
            }
            let (p50, _, p99) = s.fct_hist.percentiles();
            out.push_str(&format!(
                "{:<12} {:>12} {:>9.2} ms {:>9.2} ms {:>6} {:>6} {:>6} {:>10} {:>9}\n",
                spec.name,
                format!("{}/{}", s.transfers_completed, s.transfers_started),
                p50 / 1e6,
                p99 / 1e6,
                s.retransmits,
                s.ecn_marks,
                s.cwnd_cuts,
                s.cwnd_peak,
                s.sla_violations,
            ));
        }
    }
    out.push('\n');
    out.push_str("links (utilization > 1%):\n");
    for l in &report.links {
        if l.utilization > 0.01 {
            out.push_str(&format!(
                "  {} -> {}: {:>5.1}% utilized, {} pkts, {} queue drops\n",
                l.from,
                l.to,
                l.utilization * 100.0,
                l.transmitted,
                l.drops
            ));
        }
    }
    if !report.faults.is_empty() {
        out.push('\n');
        out.push_str("faults:\n");
        for f in &report.faults {
            let restored = match f.time_to_restore_ns() {
                Some(ns) => format!("restored in {:.2} ms", ns as f64 / 1e6),
                None => "never restored".to_string(),
            };
            out.push_str(&format!(
                "  link {}: down at {:.2} ms, {}, {} pkts lost ({:?})\n",
                f.link,
                f.down_ns as f64 / 1e6,
                restored,
                f.packets_lost,
                f.mode,
            ));
        }
    }
    if let Some(tel) = &report.telemetry {
        out.push('\n');
        out.push_str(&format!(
            "telemetry: {} counters, {} histograms, {} series, {} events\n",
            tel.counters.len(),
            tel.histograms.len(),
            tel.series.len(),
            tel.events.len(),
        ));
        let deepest = tel
            .series
            .iter()
            .filter(|s| s.name.ends_with(".queue_depth"))
            .filter_map(|s| {
                s.points
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
                    .map(|peak| (s.name.clone(), peak))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((name, peak)) = deepest {
            out.push_str(&format!("  peak queue depth: {peak:.0} pkts on {name}\n"));
        }
        for h in &tel.histograms {
            if let Some(name) = h.name.strip_suffix(".delay_ns") {
                if let (Some(p50), Some(p99)) = (h.p50, h.p99) {
                    out.push_str(&format!(
                        "  {name}: delay p50 ≤ {:.1} µs, p99 ≤ {:.1} µs ({} samples)\n",
                        p50 as f64 / 1000.0,
                        p99 as f64 / 1000.0,
                        h.total,
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn report_contains_flow_rows_and_links() {
        let sc = Scenario::from_json(include_str!("../scenarios/example.json")).unwrap();
        let report = sc.run().unwrap();
        let text = format_report(&report);
        assert!(text.contains("voip"));
        assert!(text.contains("bulk"));
        assert!(text.contains("->"));
        assert!(text.contains("utilized"));
        assert!(!text.contains("faults:"), "no fault section without faults");
        assert!(text.contains("control: centralized"));
        // Shard count follows MPLS_SIM_SHARDS, so only assert the shape.
        assert!(text.starts_with("engine: barrier, "));
        assert!(text.contains("rounds"));
        assert!(
            text.contains(" events, 0 FIB downloads)"),
            "a fault-free centralized run downloads nothing:\n{text}"
        );
        assert!(!text.contains("ldp:"), "no ldp block on centralized runs");
    }

    #[test]
    fn report_shows_closed_loop_counters() {
        let plain = format_report(
            &Scenario::from_json(include_str!("../scenarios/example.json"))
                .unwrap()
                .run()
                .unwrap(),
        );
        assert!(
            !plain.contains("closed-loop"),
            "no closed-loop block for open-loop scenarios"
        );
        let sc = Scenario::from_json(include_str!("../scenarios/closed_loop.json")).unwrap();
        let text = format_report(&sc.run().unwrap());
        assert!(text.contains("closed-loop"), "missing block:\n{text}");
        assert!(text.contains("fct p99"));
        assert!(text.contains("metro/gold"));
        assert!(
            !text
                .lines()
                .any(|l| l.starts_with("background") && l.contains("ms")),
            "open-loop flows stay out of the closed-loop table"
        );
    }

    #[test]
    fn report_shows_fast_path_diagnostics() {
        let mut sc = Scenario::from_json(include_str!("../scenarios/example.json")).unwrap();
        let plain = format_report(&sc.run().unwrap());
        assert!(
            !plain.contains("fast path:"),
            "no fast-path block for the embedded router"
        );
        sc.router = crate::scenario::RouterDecl::SoftwareFast;
        let text = format_report(&sc.run().unwrap());
        assert!(text.contains("fast path:"), "missing diagnostics:\n{text}");
        assert!(text.contains("hit rate"));
    }

    #[test]
    fn report_summarizes_ldp_control() {
        let mut sc = Scenario::from_json(include_str!("../scenarios/example.json")).unwrap();
        sc.control = Some("ldp".into());
        for f in &mut sc.flows {
            f.start_ms = 10;
            f.stop_ms += 10;
        }
        sc.horizon_ms += 10;
        let text = format_report(&sc.run().unwrap());
        assert!(text.contains("control: ldp (converged in"));
        assert!(text.contains("sessions up"));
        assert!(text.contains("PDUs sent"));
    }

    #[test]
    fn report_summarizes_telemetry() {
        let mut sc = Scenario::from_json(include_str!("../scenarios/example.json")).unwrap();
        let plain = format_report(&sc.run().unwrap());
        assert!(!plain.contains("telemetry:"), "no block without telemetry");
        sc.telemetry = Some(Default::default());
        let text = format_report(&sc.run().unwrap());
        assert!(text.contains("telemetry:"));
        assert!(text.contains("peak queue depth"));
        assert!(text.contains("lsp.voip: delay p50"));
    }

    #[test]
    fn report_lists_fault_records() {
        let mut sc = Scenario::from_json(include_str!("../scenarios/example.json")).unwrap();
        sc.faults = Some(crate::scenario::FaultsDecl {
            events: vec![
                crate::scenario::FaultEventDecl::LinkDown {
                    at_ms: 5,
                    a: 2,
                    b: 3,
                },
                crate::scenario::FaultEventDecl::LinkUp {
                    at_ms: 10,
                    a: 2,
                    b: 3,
                },
            ],
            ..Default::default()
        });
        let report = sc.run().unwrap();
        let text = format_report(&report);
        assert!(text.contains("faults:"));
        assert!(text.contains("pkts lost"));
    }
}
