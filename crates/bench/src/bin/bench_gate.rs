//! `bench-gate` — the trajectory regression gate.
//!
//! Finds the two most recent `BENCH_<n>.json` files in a directory
//! (default `.`), matches their measurement rows, and fails when any
//! matched row's time for its fixed work grew past what the threshold
//! allows (default 10%). A row's time is `events / events_per_sec`,
//! which is its `wall_ms` where the row has one. A row fails when its
//! time exceeds the base's by more than a factor of `1 / (1 - threshold)`:
//! with equal event counts that is exactly an events/s drop beyond the
//! threshold, and a change that does the same work in fewer events is
//! judged by the time it takes, not by its event rate. Trajectory files
//! are only comparable when taken on the same class of machine — CI
//! measures and gates within one job, so both points come from the same
//! runner generation.
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
//! measurement (`events`, `wall_ms`, `events_per_sec`, `rounds`), so
//! points taken under different configs never get compared, while a row
//! whose event count or round count moved stays paired. Rows present in
//! only one file are reported and skipped — schema growth is not a
//! failure.

use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Measurement fields: excluded from row keys. A row's event and round
/// counts follow the engine's work, not the configuration it measures.
const MEASUREMENTS: [&str; 4] = ["events", "wall_ms", "events_per_sec", "rounds"];

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

/// Flattens a trajectory document into `key -> ms`, each row's time for
/// its fixed work (`events / events_per_sec`). Rows without both fields
/// (e.g. EXT-11's convergence spans, which are simulated-time, not
/// host-time) carry no key.
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
            let field = |name| Value::get_entry(row, name).and_then(number);
            let (Some(events), Some(eps)) = (field("events"), field("events_per_sec")) else {
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
            out.insert(key.join(","), events / eps * 1e3);
        }
    }
    out
}

/// One row measured in both points.
struct Pair {
    key: String,
    base_ms: f64,
    head_ms: f64,
    /// Time change, in percent of the base.
    delta_pct: f64,
    /// Past the threshold.
    regressed: bool,
}

/// The rows of two points: those measured in both, and the head rows
/// with no base point.
struct Comparison {
    compared: Vec<Pair>,
    fresh: Vec<(String, f64)>,
}

impl Comparison {
    fn regressions(&self) -> impl Iterator<Item = &Pair> {
        self.compared.iter().filter(|p| p.regressed)
    }
}

/// Pairs the rows of two points and judges each pair: a head time past
/// `base / (1 - max_regress_pct / 100)` regressed.
fn compare(
    prev: &BTreeMap<String, f64>,
    curr: &BTreeMap<String, f64>,
    max_regress_pct: f64,
) -> Comparison {
    let limit = 1.0 / (1.0 - max_regress_pct / 100.0);
    let mut compared = Vec::new();
    for (key, &base_ms) in prev {
        let Some(&head_ms) = curr.get(key) else {
            println!("  skipped (gone): {key}");
            continue;
        };
        let delta_pct = (head_ms - base_ms) / base_ms * 100.0;
        println!("  {key}: {base_ms:.3} -> {head_ms:.3} ms ({delta_pct:+.1}%)");
        compared.push(Pair {
            key: key.clone(),
            base_ms,
            head_ms,
            delta_pct,
            regressed: head_ms > base_ms * limit,
        });
    }
    let mut fresh = Vec::new();
    for (key, &ms) in curr {
        if !prev.contains_key(key) {
            println!("  new (unmatched): {key}");
            fresh.push((key.clone(), ms));
        }
    }
    Comparison { compared, fresh }
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

    let cmp = compare(&prev, &curr, max_regress_pct);
    if let Some(path) = &md_path {
        let md = render_md(*prev_n, *curr_n, max_regress_pct, &cmp);
        std::fs::write(path, md).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if cmp.compared.is_empty() {
        println!("bench-gate: no comparable rows (schema change?) — passing with a warning");
        return ExitCode::SUCCESS;
    }
    let regressions: Vec<&Pair> = cmp.regressions().collect();
    if regressions.is_empty() {
        println!(
            "bench-gate: {} row(s) compared, no regression beyond {max_regress_pct}% -- OK",
            cmp.compared.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench-gate: time for fixed work regressed beyond {max_regress_pct}% on {} row(s):",
            regressions.len()
        );
        for p in regressions {
            eprintln!("  {}: {:+.1}%", p.key, p.delta_pct);
        }
        ExitCode::FAILURE
    }
}

/// The base-vs-head comparison as a GitHub-flavored markdown fragment —
/// what CI posts as the PR comment. Keys are long `k=v` chains, so the
/// per-row table splits the section prefix from the row fields.
fn render_md(prev_n: u64, curr_n: u64, max_regress_pct: f64, cmp: &Comparison) -> String {
    let mut md = String::new();
    md.push_str(&format!(
        "### Bench gate: `BENCH_{prev_n}` (base) vs `BENCH_{curr_n}` (head)\n\n"
    ));
    let regressed = cmp.regressions().count();
    let verdict = if cmp.compared.is_empty() {
        "⚠️ no comparable rows (schema change) — passing with a warning".to_string()
    } else if regressed == 0 {
        format!(
            "✅ {} row(s) compared, none regressed beyond {max_regress_pct}%",
            cmp.compared.len()
        )
    } else {
        format!(
            "❌ {regressed} of {} row(s) regressed beyond {max_regress_pct}%",
            cmp.compared.len()
        )
    };
    md.push_str(&verdict);
    md.push_str("\n\n");
    if !cmp.compared.is_empty() {
        md.push_str("| row | base ms | head ms | Δ time |\n");
        md.push_str("|---|---:|---:|---:|\n");
        for p in &cmp.compared {
            let mark = if p.regressed { " ❌" } else { "" };
            md.push_str(&format!(
                "| `{}` | {:.3} | {:.3} | {:+.1}%{mark} |\n",
                p.key, p.base_ms, p.head_ms, p.delta_pct
            ));
        }
        md.push('\n');
    }
    if !cmp.fresh.is_empty() {
        md.push_str("<details><summary>New rows (no base point)</summary>\n\n");
        md.push_str("| row | head ms |\n|---|---:|\n");
        for (key, ms) in &cmp.fresh {
            md.push_str(&format!("| `{key}` | {ms:.3} |\n"));
        }
        md.push_str("\n</details>\n");
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One EXT-10-shaped point: a single-shard row and a two-shard row.
    fn point(events: u64, eps_1: f64, eps_2: f64, rounds_2: u64) -> BTreeMap<String, f64> {
        let text = format!(
            r#"{{"bench": "all", "sections": [{{"bench": "ext10-scaling", "quick": true,
                "rows": [
                  {{"shards": 1, "rounds": 1, "events": {events}, "events_per_sec": {eps_1}}},
                  {{"shards": 2, "rounds": {rounds_2}, "events": {events}, "events_per_sec": {eps_2}}}
                ]}}]}}"#
        );
        flatten(&serde_json::from_str(&text).expect("a trajectory point parses"))
    }

    #[test]
    fn equal_events_at_a_tenth_fewer_events_per_second_fail() {
        let base = point(100_000, 1e6, 5e5, 40);
        // 11% fewer events/s for the same events: 12.4% more time.
        let head = point(100_000, 0.89e6, 5e5, 40);
        let cmp = compare(&base, &head, 10.0);
        assert_eq!(cmp.compared.len(), 2);
        let failed: Vec<&str> = cmp.regressions().map(|p| p.key.as_str()).collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("shards=1"), "{failed:?}");
        // 9% fewer still passes, as it did when the gate read events/s.
        let head = point(100_000, 0.91e6, 5e5, 40);
        assert_eq!(compare(&base, &head, 10.0).regressions().count(), 0);
    }

    #[test]
    fn halved_events_in_less_time_pass() {
        let base = point(100_000, 1e6, 5e5, 40);
        // Half the events at a 30% lower rate: 0.71x the time.
        let head = point(50_000, 0.7e6, 0.35e6, 40);
        let cmp = compare(&base, &head, 10.0);
        assert_eq!(cmp.compared.len(), 2);
        assert_eq!(cmp.regressions().count(), 0);
        assert!(cmp.compared.iter().all(|p| p.head_ms < p.base_ms));
    }

    #[test]
    fn a_row_whose_rounds_changed_stays_paired() {
        let cmp = compare(
            &point(100_000, 1e6, 5e5, 40),
            &point(60_000, 1e6, 5e5, 27),
            10.0,
        );
        assert_eq!(cmp.compared.len(), 2, "both rows paired");
        assert!(cmp.fresh.is_empty());
        assert_eq!(cmp.regressions().count(), 0);
    }
}
