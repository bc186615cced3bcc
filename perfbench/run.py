#!/usr/bin/env python3
"""Benchmark runner for the MPLS simulator.

Builds the `perfbench` package next to this file (release, offline) and
runs one workload:

    python3 perfbench/run.py --workload rtl-grid --seed 7 --seconds 20 --trace 0

With `--trace 0` it launches one process per simulation until `--seconds`
have passed, each timing its own set-up and run on the same seeded
inputs, and reports the end-to-end metrics: `setup_s` and `run_s` as the
10th percentile over the simulations, `hops_per_s` as router transits per
second of that `run_s`, and `peak_rss_mb` as the median. With `--trace 1`
it runs the traced ledger instead and reports the per-layer metrics; the
spans go to `.bench_out/` at the repository root.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rtl-grid", "fabric", "ldp-churn")
# A run always times at least this many simulations, and never more.
MIN_SIMS = 5
MAX_SIMS = 400
# Every child process is stopped after this long; a run ends within 180 s.
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark program and returns its path, or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log(f"error: building the benchmark failed (exit {proc.returncode})")
        return None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    log("error: cargo reported no perfbench executable")
    return None


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def child(argv, deadline):
    """Runs one child to completion; returns (exit code, parsed JSON)."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"error: {' '.join(argv[1:])} timed out after {timeout:.0f} s")
        return None, None
    if proc.stderr.strip():
        log(proc.stderr.strip()[-2000:])
    try:
        out = last_json(proc.stdout)
    except json.JSONDecodeError:
        out = None
    return proc.returncode, out


def metric(value, unit):
    return {"value": value, "unit": unit}


def fast_decile(vals):
    """The 10th percentile of a run's per-simulation times.

    The host's speed alternates between regimes lasting tens of seconds,
    and a slow regime only ever adds time, so a run's times are a fast
    mode plus a slow tail of varying weight. The median jumps between the
    modes with that weight (10 seeds: 35% spread of `run_s` and 32% of
    `setup_s` on `ldp-churn`); the fast decile stays on the fast mode
    (5% and 6%).
    """
    if len(vals) < 2:
        return vals[0]
    return statistics.quantiles(vals, n=10, method="inclusive")[0]


def untraced(exe, args, hard_deadline):
    base = [exe, "sim", "--workload", args.workload, "--seed", str(args.seed)]
    # Leave room for the simulation in flight when the time is up.
    stop = min(time.monotonic() + args.seconds, hard_deadline - 30)
    sims, failed, digests, config = [], 0, set(), None
    while len(sims) + failed < MAX_SIMS:
        n = len(sims) + failed
        if n >= MIN_SIMS and time.monotonic() >= stop:
            break
        code, out = child(base, hard_deadline)
        if code is None:
            failed += 1
            break
        if code != 0 or out is None or out.get("problems"):
            failed += 1
            continue
        sims.append(out)
        digests.add(out["digest"])
        config = out["config"]
    if not sims:
        log("error: no simulation finished")
        return 1
    if len(digests) > 1:
        log(f"error: reports differ between identical runs: {sorted(digests)}")
    setup = [s["setup_s"] for s in sims]
    run = [s["run_s"] for s in sims]
    rss = [s["peak_rss_kb"] / 1024 for s in sims]
    print("config: " + json.dumps(config))
    print(f"report digest: {sims[0]['digest']} (every run: {'same' if len(digests) == 1 else 'DIFFERENT'})")
    print(f"router transits per simulation: {sims[0]['transits']}")
    print(f"simulations: {len(sims)} ok, {failed} failed")
    print("run_s samples: " + " ".join(f"{v:.6g}" for v in run))
    print("setup_s samples: " + " ".join(f"{v:.6g}" for v in setup))
    for name, vals in (("setup_s", setup), ("run_s", run), ("peak_rss_mb", rss)):
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        print(f"  {name:12s} p10 {fast_decile(vals):.6g}  q1 {q[0]:.6g}"
              f"  median {statistics.median(vals):.6g}  q3 {q[2]:.6g}")
    run_s = fast_decile(run)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": len(sims) + failed,
        "failed": failed,
        "metrics": {
            "setup_s": metric(fast_decile(setup), "s"),
            "run_s": metric(run_s, "s"),
            "hops_per_s": metric(sims[0]["transits"] / run_s, "1/s"),
            "peak_rss_mb": metric(statistics.median(rss), "MiB"),
        },
    }
    print(json.dumps(result))
    return 0


def traced(exe, args, hard_deadline):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    # The ledger runs its last round, part 2 and part 3 after the budget.
    budget = min(args.seconds, 120.0)
    argv = [exe, "ledger", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(budget), "--spans", str(spans)]
    code, out = child(argv, hard_deadline)
    if out is None or "metrics" not in out:
        log("error: the traced run printed no ledger")
        return 1
    print(f"config: workload {args.workload}, seed {args.seed}; spans in {spans}")
    for note in out["notes"]:
        print("  " + note)
    for problem in out["problems"]:
        print("  check failed: " + problem)
    result = {
        "correct": code == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    set_vars = sorted(k for k in os.environ if k.startswith("MPLS_SIM_"))
    if set_vars:
        log(f"error: {', '.join(set_vars)} set; unset every MPLS_SIM_* variable to benchmark")
        return 2
    exe = build()
    if exe is None:
        return 1
    # The build is not measured; the run itself must end within 180 s.
    hard_deadline = time.monotonic() + 165
    if args.trace:
        return traced(exe, args, hard_deadline)
    return untraced(exe, args, hard_deadline)


if __name__ == "__main__":
    sys.exit(main())
