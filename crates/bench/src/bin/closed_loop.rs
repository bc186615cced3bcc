//! EXT-17: open- vs closed-loop traffic through a fault window.
//!
//! Four sources on the figure-1 plane, run open-loop (rate-matched
//! Poisson) and closed-loop (AIMD windows, ack-clocked, bounded-Pareto
//! transfers, ECN marks), each with and without a mid-run cut of the
//! northern link. The section asserts per-flow conservation with
//! retransmissions accounted, the visible AIMD reaction (window cuts
//! and retransmits only in the faulted closed-loop leg, deliveries
//! past restoration), and serialized report byte-identity across
//! shards {1, 4} for every leg. The table reads off
//! goodput, flow-completion times, ECN/retransmit counts, peak window,
//! and SLA violations.
//!
//! Run: `cargo run --release -p mpls-bench --bin closed-loop`
//! (`--quick` for the CI smoke horizon; `--json <path>` writes the
//! section as a machine-readable trajectory point.)

use mpls_bench::suite;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());
    println!(
        "=== EXT-17: open- vs closed-loop traffic across a fault window, {} config ===\n",
        if quick { "quick" } else { "full" }
    );
    let section = suite::ext17_closed_loop(quick);
    println!("{}", section.table);
    for note in &section.notes {
        println!("{note}");
    }
    if let Some(kb) = suite::peak_rss_kb() {
        println!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    if let Some(path) = json_path {
        let body =
            serde_json::to_string_pretty(&section.to_json()).expect("bench report serializes");
        std::fs::write(&path, body + "\n").expect("bench json written");
        println!("wrote {path}");
    }
}
