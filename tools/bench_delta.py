#!/usr/bin/env python3
"""Diff freshly generated BENCH_*.json reports against the committed ones.

Usage: bench_delta.py [--warn-pct PCT] <fresh_dir> <committed_dir>

Prints a markdown delta table (suitable for $GITHUB_STEP_SUMMARY) covering
the wall-time / speed metrics recorded by `capnet_bench::BenchReport`,
plus the per-kind `ev_*` event counters and the `workers` axis of the
sharded-run benches (event-count deltas are the first thing to read when
a wall-time delta needs explaining).

`speedup_vs_workers1` is **derived here**, not recorded by the benches:
for every group of cases that differ only in their `workers=N` token the
ratio `host_wall_ms(workers=1) / host_wall_ms(workers=N)` is synthesized
on both sides of the diff (older committed reports that still carry a
recorded value keep it). The shards of a sharded run share one thread,
so the ratio prices sharding itself, not parallel speedup.

With `--warn-pct PCT`, rows whose delta magnitude exceeds PCT percent are
flagged with a ⚠ marker and a summary count is printed at the end. The
exit code stays 0 either way — the delta is informational, not a gate
(CI runners are noisy); regressions are caught by humans reading the
summary and by the committed trajectory moving over PRs. Event-counter
drift, however, is usually real (the simulation is deterministic), so a
flagged `ev_*` row deserves a close look.
"""

import argparse
import json
import re
import sys
from pathlib import Path

# Metrics worth a delta column: host speed, the headline artifacts, then
# the deterministic event counters that explain them.
TRACKED = [
    "host_wall_ms",
    "host_ns_per_sim_sec",
    "events_per_sec",
    "aggregate_mbit_per_sec",
    "mbit_per_sec",
    "goodput_mbit_per_sec",
    "fairness_index",
    "speedup_vs_workers1",
    "p50_us",
    "p99_us",
    "p999_us",
    "requests_per_sec",
    "overhead_pct",
    "violations_per_sec",
    "time_to_recovery_ms",
    "goodput_during_partition_rps",
    "goodput_after_heal_rps",
    "retry_amplification",
    "retries",
    "http_503s",
    "completion_per_mille",
]

# Prefix-matched metrics appended after the tracked ones, in name order.
TRACKED_PREFIXES = ("ev_", "workers")


def load(path: Path):
    out = {}
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        print(f"warning: could not parse {path}: {e}", file=sys.stderr)
        return out
    for entry in doc.get("entries", []):
        key = (entry.get("bench", "?"), entry.get("case", "?"))
        out[key] = entry.get("metrics", {})
    return out


WORKERS_TOKEN = re.compile(r"workers=[^/]+")


def synthesize_speedups(report):
    """Derive `speedup_vs_workers1` for worker-sweep case groups.

    Cases whose names differ only in the `workers=N` token form a group;
    each member gets `host_wall_ms(workers=1) / host_wall_ms(self)` as a
    synthesized metric (recorded values, from older reports, win).
    """
    groups = {}
    for (bench, case), metrics in report.items():
        token = WORKERS_TOKEN.search(case)
        if token and "host_wall_ms" in metrics:
            group_key = (bench, WORKERS_TOKEN.sub("workers=*", case))
            groups.setdefault(group_key, []).append((token.group(), metrics))
    for members in groups.values():
        base = next(
            (m["host_wall_ms"] for tok, m in members if tok == "workers=1"), None
        )
        if not base:
            continue
        for _, metrics in members:
            metrics.setdefault("speedup_vs_workers1", base / metrics["host_wall_ms"])


def fmt(v):
    if v is None:
        return "—"
    if abs(v) >= 1e6:
        return f"{v:.3g}"
    return f"{v:.4g}"


def metrics_for(f_m, c_m):
    """The tracked metric names present in either side, in display order."""
    names = [m for m in TRACKED if m in f_m or m in c_m]
    extra = sorted(
        m
        for m in set(f_m) | set(c_m)
        if m.startswith(TRACKED_PREFIXES) and m not in names
    )
    return names + extra


def main():
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--warn-pct", type=float, default=None)
    ap.add_argument("fresh_dir", type=Path)
    ap.add_argument("committed_dir", type=Path)
    try:
        args = ap.parse_args()
    except SystemExit:
        print(__doc__, file=sys.stderr)
        return
    fresh_files = sorted(args.fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"no BENCH_*.json under {args.fresh_dir}")
        return
    warnings = 0
    for fresh_path in fresh_files:
        committed_path = args.committed_dir / fresh_path.name
        print(f"\n### {fresh_path.name}\n")
        if not committed_path.exists():
            print("_no committed baseline yet — first data point_")
            continue
        fresh, committed = load(fresh_path), load(committed_path)
        synthesize_speedups(fresh)
        synthesize_speedups(committed)
        print("| bench / case | metric | committed | this run | Δ |")
        print("|---|---|---:|---:|---:|")
        for key in sorted(set(fresh) | set(committed)):
            f_m, c_m = fresh.get(key, {}), committed.get(key, {})
            for metric in metrics_for(f_m, c_m):
                fv, cv = f_m.get(metric), c_m.get(metric)
                if isinstance(fv, (int, float)) and isinstance(cv, (int, float)) and cv:
                    pct = (fv - cv) / cv * 100
                    delta = f"{pct:+.1f}%"
                    if args.warn_pct is not None and abs(pct) > args.warn_pct:
                        delta += " ⚠"
                        warnings += 1
                else:
                    delta = "—"
                print(
                    f"| {key[0]} / {key[1]} | {metric} "
                    f"| {fmt(cv)} | {fmt(fv)} | {delta} |"
                )
    if args.warn_pct is not None:
        print(
            f"\n{warnings} metric(s) moved more than {args.warn_pct:g}% "
            f"(informational — the job still passes)."
        )


if __name__ == "__main__":
    main()
