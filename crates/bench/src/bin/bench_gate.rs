//! `bench-gate` — the trajectory regression gate.
//!
//! Finds the two most recent `BENCH_<n>.json` files in a directory
//! (default `.`), matches their measurement rows, and fails when any
//! matched row's `events_per_sec` dropped by more than the threshold
//! (default 10%). Trajectory files are only comparable when taken on
//! the same class of machine — CI measures and gates within one job,
//! so both points come from the same runner generation.
//!
//! ```text
//! cargo run --release -p mpls-bench --bin bench-gate -- [dir] \
//!     [--max-regress 10] [--md comment.md]
//! ```
//!
//! `--md <path>` additionally writes the base-vs-head comparison as a
//! markdown fragment — the table CI posts as a PR comment.
//!
//! A file is either one section (`{"bench": ..., rows: [...]}`, the
//! shape of early points such as `BENCH_6.json`) or a combined suite
//! document (`{"bench": "all", "sections": [...]}`). Rows are keyed by their
//! section's bench id + config plus every row field that is not a
//! measurement (`events`, `wall_ms`, `events_per_sec`), so points taken
//! under different configs never get compared; rows present in only
//! one file are reported and skipped — schema growth is not a failure.

use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Measurement fields: excluded from row keys, compared instead.
const MEASUREMENTS: [&str; 3] = ["events", "wall_ms", "events_per_sec"];

/// Renders a scalar for use in a row key; `None` for nested values.
fn scalar(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        Value::U64(n) => Some(n.to_string()),
        Value::I64(n) => Some(n.to_string()),
        Value::F64(x) => Some(format!("{x}")),
        Value::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// A numeric field as f64, whichever integer or float variant the
/// parser produced.
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Flattens a trajectory document into `key -> events_per_sec`.
/// Rows without an `events_per_sec` field (e.g. EXT-11's convergence
/// spans, which are simulated-time, not host-time) carry no key.
fn flatten(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let sections: Vec<&Value> = match doc.get("sections") {
        Some(Value::Seq(s)) => s.iter().collect(),
        _ => vec![doc],
    };
    for section in sections {
        let Some(fields) = section.as_map() else {
            continue;
        };
        let mut prefix: Vec<String> = Vec::new();
        for (k, v) in fields {
            if k == "rows" || k == "peak_rss_kb" {
                continue;
            }
            if let Some(s) = scalar(v) {
                prefix.push(format!("{k}={s}"));
            }
        }
        let Some(Value::Seq(rows)) = section.get("rows") else {
            continue;
        };
        for row in rows {
            let Some(row) = row.as_map() else { continue };
            let Some(eps) = Value::get_entry(row, "events_per_sec").and_then(number) else {
                continue;
            };
            let mut key = prefix.clone();
            for (k, v) in row {
                if MEASUREMENTS.contains(&k.as_str()) {
                    continue;
                }
                if let Some(s) = scalar(v) {
                    key.push(format!("{k}={s}"));
                }
            }
            out.insert(key.join(","), eps);
        }
    }
    out
}

/// `BENCH_<n>.json` files in `dir`, sorted by `n`.
fn trajectory_files(dir: &str) -> Vec<(u64, std::path::PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((n, entry.path()));
    }
    found.sort();
    found
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = ".".to_string();
    let mut max_regress_pct = 10.0;
    let mut md_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("error: --max-regress needs a percentage");
                    return ExitCode::from(2);
                };
                max_regress_pct = v;
            }
            "--md" => {
                let Some(path) = it.next() else {
                    eprintln!("error: --md needs a path");
                    return ExitCode::from(2);
                };
                md_path = Some(path.clone());
            }
            other => dir = other.to_string(),
        }
    }

    let files = trajectory_files(&dir);
    if files.len() < 2 {
        println!(
            "bench-gate: {} trajectory file(s) in {dir} — need two to compare, passing",
            files.len()
        );
        return ExitCode::SUCCESS;
    }
    let (prev_n, prev_path) = &files[files.len() - 2];
    let (curr_n, curr_path) = &files[files.len() - 1];
    let load = |path: &std::path::Path| -> Value {
        let body = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        serde_json::from_str(&body)
            .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
    };
    let prev = flatten(&load(prev_path));
    let curr = flatten(&load(curr_path));
    println!(
        "bench-gate: BENCH_{prev_n} -> BENCH_{curr_n}, {} vs {} measured rows, \
         threshold {max_regress_pct}%",
        prev.len(),
        curr.len()
    );

    let mut compared = Vec::new();
    let mut fresh = Vec::new();
    let mut regressions = Vec::new();
    for (key, &old_eps) in &prev {
        let Some(&new_eps) = curr.get(key) else {
            println!("  skipped (gone): {key}");
            continue;
        };
        let delta_pct = (new_eps - old_eps) / old_eps * 100.0;
        println!(
            "  {key}: {:.0} -> {:.0} events/s ({delta_pct:+.1}%)",
            old_eps, new_eps
        );
        if delta_pct < -max_regress_pct {
            regressions.push(format!("{key}: {delta_pct:.1}%"));
        }
        compared.push((key.clone(), old_eps, new_eps, delta_pct));
    }
    for (key, &eps) in &curr {
        if !prev.contains_key(key) {
            println!("  new (unmatched): {key}");
            fresh.push((key.clone(), eps));
        }
    }

    if let Some(path) = &md_path {
        let md = render_md(
            *prev_n,
            *curr_n,
            max_regress_pct,
            &compared,
            &fresh,
            &regressions,
        );
        std::fs::write(path, md).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if compared.is_empty() {
        println!("bench-gate: no comparable rows (schema change?) — passing with a warning");
        return ExitCode::SUCCESS;
    }
    if regressions.is_empty() {
        println!(
            "bench-gate: {} row(s) compared, no regression beyond {max_regress_pct}% -- OK",
            compared.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench-gate: events/s regressed beyond {max_regress_pct}% on {} row(s):",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        ExitCode::FAILURE
    }
}

/// The base-vs-head comparison as a GitHub-flavored markdown fragment —
/// what CI posts as the PR comment. Keys are long `k=v` chains, so the
/// per-row table splits the section prefix from the row fields.
fn render_md(
    prev_n: u64,
    curr_n: u64,
    max_regress_pct: f64,
    compared: &[(String, f64, f64, f64)],
    fresh: &[(String, f64)],
    regressions: &[String],
) -> String {
    let mut md = String::new();
    md.push_str(&format!(
        "### Bench gate: `BENCH_{prev_n}` (base) vs `BENCH_{curr_n}` (head)\n\n"
    ));
    let verdict = if compared.is_empty() {
        "⚠️ no comparable rows (schema change) — passing with a warning".to_string()
    } else if regressions.is_empty() {
        format!(
            "✅ {} row(s) compared, none regressed beyond {max_regress_pct}%",
            compared.len()
        )
    } else {
        format!(
            "❌ {} of {} row(s) regressed beyond {max_regress_pct}%",
            regressions.len(),
            compared.len()
        )
    };
    md.push_str(&verdict);
    md.push_str("\n\n");
    if !compared.is_empty() {
        md.push_str("| row | base events/s | head events/s | Δ |\n");
        md.push_str("|---|---:|---:|---:|\n");
        for (key, old, new, delta) in compared {
            let mark = if *delta < -max_regress_pct {
                " ❌"
            } else {
                ""
            };
            md.push_str(&format!(
                "| `{key}` | {old:.0} | {new:.0} | {delta:+.1}%{mark} |\n"
            ));
        }
        md.push('\n');
    }
    if !fresh.is_empty() {
        md.push_str("<details><summary>New rows (no base point)</summary>\n\n");
        md.push_str("| row | head events/s |\n|---|---:|\n");
        for (key, eps) in fresh {
            md.push_str(&format!("| `{key}` | {eps:.0} |\n"));
        }
        md.push_str("\n</details>\n");
    }
    md
}
