//! EXT-15: production-scale streaming workloads.
//!
//! Synthesizes a fat tree and a ring of rings from compact parametric
//! specs, streams the full tunnel mesh + LSP bring-up through the
//! control plane (one request alive at a time — nothing is enumerated
//! ahead of signaling), then drives CBR probes over a sampled subset of
//! the LSPs at 1 and 4 shards.
//!
//! Certified per family:
//!
//! * **bring-up** — every tunnel and LSP signals; the hierarchical
//!   tunnel + PHP design costs exactly one fresh label per LSP, so a
//!   million LSPs fit one 2^20 label space.
//! * **conservation + quiesce** — every probe packet is delivered or
//!   attributed to a drop class by the horizon; nothing stays in
//!   flight.
//! * **identity** — the serialized report is byte-identical across
//!   shards {1, 4}.
//!
//! Run: `cargo run --release -p mpls-bench --bin scale-stream`
//! (`--quick` for the CI smoke subset: ~256-node widths, 64k LSPs;
//! the default full config is the paper-scale point — a 1088-node fat
//! tree at one million LSPs. `--json <path>` writes the section as a
//! machine-readable trajectory point.)

use mpls_bench::suite;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());
    println!(
        "=== EXT-15: streaming scale — fat tree + ring of rings, {} config ===\n",
        if quick { "quick" } else { "full (million-LSP)" }
    );
    let section = suite::ext15_scale(quick);
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
