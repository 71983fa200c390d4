#!/usr/bin/env python3
"""Soft performance-regression guard over the benchmark trajectories.

Compares freshly measured dvfs-sweep-bench-v1, dvfs-trace-bench-v1 and
dvfs-serve-bench-v1 records — from any emitting bench: sweep_bench,
micro_simulator, the trace record/replay tools, and the dvfsd_load
serving soak — against the last committed record for the same
configuration (bench + run + cells, from a machine with the same
hardware_threads; with none, it prints "no comparable baseline") and
emits a GitHub Actions
::warning:: annotation when throughput (cells_per_sec, or
throughput_rps for serve rows) dropped by more than the threshold. Sampled rows carrying mean_abs_slowdown_err_pct also get an
accuracy soft-gate: a warning fires when the error worsens by more
than --err-threshold percentage points against the last committed
same-config row. Always exits 0:
wall-clock numbers on shared CI runners are noisy, so the guard
annotates instead of failing; a real regression shows up as the
warning persisting across commits. (Accuracy is deterministic, but the
hard bounds live in the fig9/fig10 gates — this guard watches the
trajectory between those bounds.)

When a step-summary file is available (--summary, defaulting to the
GITHUB_STEP_SUMMARY env var), a per-configuration markdown delta table
(last committed vs current cells/s and %, plus slowdown-error columns
for rows that report one) is appended to it.

Usage:
  perf_guard.py --fresh NEW.json [--baseline BENCH_sweep.json]
                [--threshold 0.15] [--err-threshold 1.5]
                [--summary FILE]
"""

import argparse
import json
import os
import sys


KNOWN_SCHEMAS = ("dvfs-sweep-bench-v1", "dvfs-trace-bench-v1",
                 "dvfs-serve-bench-v1")


def throughput_of(rec):
    """The guarded throughput metric: cells/s for simulation benches,
    replies/s for the serving soak."""
    return rec.get("cells_per_sec") or rec.get("throughput_rps")


def load_records(path):
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if rec.get("schema") in KNOWN_SCHEMAS:
                    records.append(rec)
    except OSError as exc:
        print(f"perf_guard: cannot read {path}: {exc}", file=sys.stderr)
    return records


def config_key(rec):
    # Rows predate the mode field; they were all exact-mode runs, so a
    # missing mode compares like-for-like against explicit "exact".
    # Sampled rows only ever compare against sampled rows: the two
    # modes differ by an order of magnitude in throughput, and a
    # cross-mode comparison would drown every real regression.
    return (rec.get("bench"), rec.get("run"), rec.get("cells"),
            rec.get("mode", "exact"))


def latest_baseline(baseline, rec):
    """Last committed record for rec's configuration measured with the
    same hardware_threads, or None: throughput from a machine with a
    different thread count is not comparable, so it is never used."""
    pool = [
        b for b in baseline
        if config_key(b) == config_key(rec)
        and b.get("hardware_threads") == rec.get("hardware_threads")
    ]
    return pool[-1] if pool else None


def fmt_err(err):
    return "—" if err is None else f"{err:.2f}"


def write_summary(path, rows):
    """Append a markdown delta table to the CI step summary."""
    lines = [
        "### Sweep throughput vs last committed trajectory",
        "",
        "| configuration | baseline cells/s | current cells/s | delta |"
        " baseline err % | current err % |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for config, ref, now, ref_err, now_err in rows:
        errs = f" {fmt_err(ref_err)} | {fmt_err(now_err)} |"
        if ref is None:
            lines.append(f"| {config} | — | {now:.2f} | n/a |{errs}")
        else:
            delta = (now / ref - 1) * 100
            lines.append(
                f"| {config} | {ref:.2f} | {now:.2f} | {delta:+.1f}% |"
                f"{errs}")
    lines.append("")
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    except OSError as exc:
        print(f"perf_guard: cannot write summary {path}: {exc}",
              file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fresh", required=True,
                    help="records just measured (JSON Lines)")
    ap.add_argument("--baseline", default="BENCH_sweep.json",
                    help="committed trajectory to compare against")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative cells_per_sec drop that triggers a "
                         "warning (default 0.15)")
    ap.add_argument("--err-threshold", type=float, default=1.5,
                    help="absolute mean_abs_slowdown_err_pct worsening "
                         "(percentage points) that triggers a warning "
                         "(default 1.5)")
    ap.add_argument("--summary",
                    default=os.environ.get("GITHUB_STEP_SUMMARY"),
                    help="file to append the markdown delta table to "
                         "(default: $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args()

    fresh = load_records(args.fresh)
    baseline = load_records(args.baseline)
    if not fresh:
        print(f"perf_guard: no fresh records in {args.fresh}; nothing "
              "to check")
        return 0

    warned = 0
    summary_rows = []
    for rec in fresh:
        base = latest_baseline(baseline, rec)
        now = throughput_of(rec)
        now_err = rec.get("mean_abs_slowdown_err_pct")
        config = f"{rec.get('bench')}/{rec.get('run')}"
        if not now:
            continue
        if base is None:
            print(f"perf_guard: {config}: no comparable baseline row, "
                  "skipping")
            summary_rows.append((config, None, now, None, now_err))
            continue
        ref = throughput_of(base)
        if not ref:
            continue
        ref_err = base.get("mean_abs_slowdown_err_pct")
        summary_rows.append((config, ref, now, ref_err, now_err))
        ratio = now / ref
        unit = "cells/s" if rec.get("cells_per_sec") else "req/s"
        line = (f"{config}: {now:.2f} {unit} vs baseline {ref:.2f} "
                f"({(ratio - 1) * 100:+.1f}%)")
        if ratio < 1.0 - args.threshold:
            # GitHub Actions annotation; informational elsewhere.
            print(f"::warning title=sweep perf regression::{line}")
            warned += 1
        else:
            print(f"perf_guard: {line}")
        if now_err is not None and ref_err is not None:
            err_line = (f"{config}: mean |slowdown err| {now_err:.2f}% "
                        f"vs baseline {ref_err:.2f}% "
                        f"({now_err - ref_err:+.2f} points)")
            if now_err > ref_err + args.err_threshold:
                print("::warning title=sampled accuracy regression::"
                      f"{err_line}")
                warned += 1
            else:
                print(f"perf_guard: {err_line}")

    if args.summary and summary_rows:
        write_summary(args.summary, summary_rows)

    if warned:
        print(f"perf_guard: {warned} configuration(s) regressed past "
              f"{args.threshold * 100:.0f}% (soft: not failing the "
              "build)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
