//! Shard-scaling benchmark for the sharded discrete-event engine
//! (EXT-10).
//!
//! A fixed 8×8 grid of 64 routers with heterogeneous link delays
//! carries four corner-to-corner flows while the same scenario runs at
//! every shard count. For every cell the report must serialize
//! byte-identically to the sequential baseline — sharding buys
//! wall-clock time, never a different answer — and the table records
//! events/second and speedup so the scaling curve can be read off
//! directly.
//!
//! Run: `cargo run --release -p mpls-bench --bin scaling`
//! (`--quick` for the CI smoke subset; `--json <path>` writes the
//! measurements as a trajectory section).

use mpls_bench::suite;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "=== EXT-10: engine shard scaling, heterogeneous-delay 64-router grid, \
         {} host core(s) ===\n",
        cores
    );
    let section = suite::ext10_scaling(quick);
    println!("{}", section.table);
    for note in &section.notes {
        println!("{note}");
    }
    if let Some(path) = json_path {
        let body =
            serde_json::to_string_pretty(&section.to_json()).expect("bench report serializes");
        std::fs::write(&path, body + "\n").expect("bench json written");
        println!("wrote {path}");
    }
}
