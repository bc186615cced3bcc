//! The simulator's benchmark program. `run.py` next to this package
//! builds it and drives it; it has two commands:
//!
//! * `sim --workload <name> --seed <n>` — one timed simulation: set-up
//!   from the seed to a runnable `Simulation`, then `Simulation::run`,
//!   then the untimed output checks. Prints one JSON line and exits
//!   non-zero when a check fails.
//! * `ledger --workload <name> --seed <n> --seconds <s> --spans <file>` —
//!   the traced run: spans around every library call, the differential
//!   runs and the per-layer microbenchmarks. Prints the per-layer
//!   metrics as one JSON line and writes the spans to `<file>`.

mod ledger;
mod micro;
mod trace;
mod workload;

use serde::Value;
use std::process::ExitCode;
use std::time::Instant;
use trace::Spans;
use workload::{Size, Workload};

/// Peak resident set size of this process in KiB (`VmHWM`).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The first `MPLS_SIM_*` variable in the environment, if any. Each of
/// them changes what a run executes, so the benchmark refuses to run.
fn mpls_sim_var() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| k.starts_with("MPLS_SIM_"))
}

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (sim or ledger)")?;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut spans = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        spans,
    })
}

fn main() -> ExitCode {
    if let Some(var) = mpls_sim_var() {
        eprintln!("error: {var} is set; unset every MPLS_SIM_* variable to benchmark");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "sim" => sim(&args),
        "ledger" => {
            let Some(path) = &args.spans else {
                eprintln!("error: ledger needs --spans <file>");
                return ExitCode::from(2);
            };
            ledger::run(args.workload, args.seed, args.seconds, path)
        }
        other => {
            eprintln!("error: unknown command {other}");
            ExitCode::from(2)
        }
    }
}

/// One timed simulation of the workload as defined.
fn sim(args: &Args) -> ExitCode {
    let (w, seed) = (args.workload, args.seed);
    let variant = w.variant();
    let mut spans = Spans::off();
    let t0 = Instant::now();
    let plane = w.plane(&Size::FULL, seed, &mut spans);
    let sim = w.simulation(&plane, variant, seed, &mut spans);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = sim.run(plane.horizon_ns);
    let run_s = t1.elapsed().as_secs_f64();
    let rss_kb = peak_rss_kb();

    let json = serde_json::to_string(&report).expect("report serializes");
    let problems = workload::check(w, variant, &plane, &report);
    let config = Value::Map(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::U64(seed)),
        ("router".into(), Value::Str(variant.kind_name().into())),
        ("shards".into(), Value::U64(report.engine.shards as u64)),
        (
            "engine".into(),
            Value::Str(report.engine.kind.name().into()),
        ),
        ("lsps".into(), Value::U64(plane.lsps as u64)),
        ("flows".into(), Value::U64(plane.flows.len() as u64)),
        ("outages".into(), Value::U64(report.faults.len() as u64)),
        ("horizon_ns".into(), Value::U64(plane.horizon_ns)),
    ]);
    let out = Value::Map(vec![
        ("config".into(), config),
        ("setup_s".into(), Value::F64(setup_s)),
        ("run_s".into(), Value::F64(run_s)),
        ("transits".into(), Value::U64(workload::transits(&report))),
        (
            "digest".into(),
            Value::Str(format!("{:016x}", workload::digest(&json))),
        ),
        ("peak_rss_kb".into(), Value::U64(rss_kb)),
        (
            "problems".into(),
            Value::Seq(problems.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&out).expect("result serializes")
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("check failed: {p}");
        }
        ExitCode::FAILURE
    }
}
