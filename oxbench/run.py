#!/usr/bin/env python3
"""oxterm benchmark runner.

    python3 oxbench/run.py --workload <qlc_mc|qlc_mc_observed|word_rw>
                           --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Builds the `oxbench` package (target dir
from CARGO_TARGET_DIR, default `.bench_build`), runs the workload in
processes of its own, checks the simulated outputs and prints, as the last
stdout line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
traced layer suite, writes span files under `.bench_out/trace/`, and
reports the per-layer metrics. Exits non-zero, without a result line, if
the build or any process fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("qlc_mc", "qlc_mc_observed", "word_rw")
# Set-up repeats per untraced run; `setup_s` is their median.
SETUP_REPEATS = 5
# Rounds of adjacent untraced/traced (and bare/observed) runs in the
# traced suite.
ROUNDS = 3
CHILD_TIMEOUT_S = 170
# Per-layer rungs and codes the traced run reports.
RUNGS_UA = (6, 10, 20, 36)
CELL_CODES = (0, 5, 10, 15)
N_CODES = 16

END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("table2_max_rel_err", "ratio"),
    ("xval_max_abs_ln_ratio", "ratio"),
)


def per_layer_units():
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for ua in RUNGS_UA:
        units[f"rram.reset_us.{ua}ua"] = "us"
    units["rram.set_us"] = "us"
    for ua in RUNGS_UA:
        units[f"rram.steps_per_reset.{ua}ua"] = "count"
    for ua in RUNGS_UA:
        units[f"rram.ns_per_step.{ua}ua"] = "ns"
    units["rram.share_of_program"] = "ratio"
    for code in range(N_CODES):
        units[f"mlc.program_p50_us.{code}"] = "us"
    units["mlc.readback_error_frac"] = "ratio"
    units["mc.worker_busy_frac"] = "ratio"
    units["mc.point_tail_idle_s"] = "s"
    units["mc.scaling_eff"] = "ratio"
    units["spice.newton_iters_per_word"] = "count"
    units["spice.lu_per_word"] = "count"
    units["spice.us_per_newton_iter"] = "us"
    for code in CELL_CODES:
        units[f"spice.cell_circuit_ms.{code}"] = "ms"
    units["spice.word_over_cell_cost"] = "ratio"
    units["telemetry.overhead_frac"] = "ratio"
    units["bench.trace_overhead_frac"] = "ratio"
    return units


class BenchError(Exception):
    pass


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build of the benchmark failed")
    return os.path.join(target, "release", "oxbench")


def spawn(binary, *args):
    """Runs one benchmark process to completion; returns its JSON report."""
    argv = [binary, *map(str, args)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        raise BenchError(f"timed out: {' '.join(argv)}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"no report from: {' '.join(argv)}")
    return json.loads(lines[-1])


def workload(binary, name, seed, seconds, *extra):
    return spawn(binary, "workload", "--workload", name, "--seed", seed,
                 "--seconds", seconds, *extra)


def timed_setup(binary, name, seed):
    """One set-up in a fresh process, from spawn to the first timed op."""
    t0 = time.time_ns()
    report = workload(binary, name, seed, 0, "--setup-only", "--t0-unix-ns", t0)
    return report["setup_s"]


def show_checks(tag, report):
    for check, c in report["checks"].items():
        state = "PASS" if c["pass"] else "FAIL"
        print(f"  [{state}] {tag} {check}: {c['detail']}")


def untraced(binary, name, seed, seconds):
    setups = [timed_setup(binary, name, seed) for _ in range(SETUP_REPEATS - 1)]
    t0 = time.time_ns()
    main = workload(binary, name, seed, seconds, "--t0-unix-ns", t0)
    setups.append(main["setup_s"])
    main["setup_s"] = statistics.median(setups)
    print(f"{name} seed={seed} threads={main['threads']} digest={main['digest']}")
    print(f"  reps={main['reps']} ops/rep={main['op_n_per_rep']} "
          f"(beyond p90: {main['op_beyond_p90_per_rep']}, "
          f"beyond p99: {main['op_beyond_p99_per_rep']}) cells={main['cells']} "
          f"wall={main['wall_s']:.3f} s setups={len(setups)}")
    print(f"  failed_frac = {main['failed'] / max(main['attempted'], 1):.6f} "
          f"({main['failed']} of {main['attempted']} ops)")
    if "readback_error_frac" in main:
        print(f"  readback_error_frac = {main['readback_error_frac']:.6f}")
    show_checks(name, main)
    metrics = {k: {"value": main[k], "unit": u} for k, u in END_TO_END}
    return main["correct"], main["attempted"], main["failed"], metrics


def self_times(span_files):
    """Per span name: count, total and self seconds (duration minus the
    part of it that child spans cover)."""
    out = {}
    for path in span_files:
        spans = {}
        with open(path) as f:
            for line in f:
                s = json.loads(line)
                spans[s["id"]] = s
        children = {}
        for s in spans.values():
            if s["parent"]:
                children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
        for s in spans.values():
            covered, reach = 0, s["start_ns"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end_ns"])
                if b > a:
                    covered += b - a
                    reach = b
            dur = s["end_ns"] - s["start_ns"]
            row = out.setdefault(s["name"], [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered
    return {k: {"count": c, "total_s": t * 1e-9, "self_s": st * 1e-9}
            for k, (c, t, st) in sorted(out.items())}


def traced(binary, name, seed):
    trace_dir = os.path.join(".bench_out", "trace", f"{name}-seed{seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    span = lambda part: ["--trace-out", os.path.join(trace_dir, f"{part}.jsonl")]
    m = {}
    m.update(spawn(binary, "ladder", *span("ladder")))
    m.update(spawn(binary, "spice", "--seed", seed, *span("spice")))

    # One repetition per process, in rounds of adjacent runs, so that an
    # overhead is the median of ratios between runs made moments apart.
    plan = [("bare", "qlc_mc", lambda i: []),
            ("bare_traced", "qlc_mc", lambda i: span(f"qlc_mc-{i}")),
            ("observed", "qlc_mc_observed", lambda i: [])]
    if name != "qlc_mc":
        plan += [("plain", name, lambda i: []),
                 ("spanned", name, lambda i: span(f"{name}-{i}"))]
    runs = {key: [] for key, _, _ in plan}
    for i in range(ROUNDS):
        for key, wl, extra in plan:
            runs[key].append(workload(binary, wl, seed, 0, *extra(i)))
    if name == "qlc_mc":
        runs["plain"], runs["spanned"] = runs["bare"], runs["bare_traced"]
    serial = workload(binary, "qlc_mc", seed, 0, "--threads", 1)
    med = lambda key, f: statistics.median(f(r) for r in runs[key])
    ratio = lambda a, b: statistics.median(
        x["cells_per_s"] / y["cells_per_s"] for x, y in zip(runs[a], runs[b]))

    for code in range(N_CODES):
        m[f"mlc.program_p50_us.{code}"] = med(
            "bare_traced", lambda r: r["op_p50_us_by_code"][str(code)])
    m["mc.worker_busy_frac"] = med("bare_traced", lambda r: r["mc_worker_busy_frac"])
    m["mc.point_tail_idle_s"] = med("bare_traced", lambda r: r["mc_point_tail_idle_s"])
    m["mc.scaling_eff"] = (med("bare", lambda r: r["cells_per_s"])
                           / (runs["bare"][0]["threads"] * serial["cells_per_s"]))
    m["telemetry.overhead_frac"] = 1 - ratio("observed", "bare")
    m["bench.trace_overhead_frac"] = 1 - ratio("spanned", "plain")
    words = runs["spanned"] if name == "word_rw" else [workload(binary, "word_rw", seed, 0)]
    m["mlc.readback_error_frac"] = statistics.median(w["readback_error_frac"] for w in words)
    checked = [r for key in runs for r in runs[key]] + [serial] + words

    summary = self_times(sorted(
        os.path.join(trace_dir, f) for f in os.listdir(trace_dir) if f.endswith(".jsonl")))
    with open(os.path.join(trace_dir, "self_time.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(f"traced {name} seed={seed}: spans in {trace_dir}")
    for span_name, row in summary.items():
        print(f"  {span_name:34s} n={row['count']:6d} total={row['total_s']:9.4f} s "
              f"self={row['self_s']:9.4f} s")
    failing = [r for r in checked if not r["correct"]]
    print(f"  output checks: {len(checked) - len(failing)} of {len(checked)} runs pass")
    for r in failing:
        show_checks(r["workload"], r)
    units = per_layer_units()
    missing = set(units) - set(m)
    if missing:
        raise BenchError(f"per-layer metrics missing: {sorted(missing)}")
    metrics = {k: {"value": m[k], "unit": u} for k, u in units.items()}
    correct = all(r["correct"] for r in checked)
    attempted = sum(r["attempted"] for r in runs["spanned"])
    failed = sum(r["failed"] for r in runs["spanned"])
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    try:
        binary = build()
        if a.trace:
            # A fixed amount of work: three rounds of one-repetition runs.
            correct, attempted, failed, metrics = traced(binary, a.workload, a.seed)
        else:
            correct, attempted, failed, metrics = untraced(
                binary, a.workload, a.seed, a.seconds)
    except BenchError as e:
        print(f"oxbench: {e}", file=sys.stderr)
        return 1
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
