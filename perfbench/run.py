"""Benchmark of the repspace CLI: end-to-end passes and a traced pass.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sym_products --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each pass runs a workload's whole command list in a fresh child process,
one pass at a time (closed loop, one client).  Passes repeat until
``--seconds`` is used up.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` every untraced pass is followed
by a traced pass of the same command list, and the run reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md beside this
file for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
PASS_TIMEOUT_S = 150
SETUP_PROBES = 5


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def host_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
    }


def run_child(workload, seed, index, trace=False, setup_only=False, plant=None):
    """One child process; returns its report with ``setup_s`` added."""
    cache = WORK / f"cache-{os.getpid()}-{time.monotonic_ns()}"
    job = {
        "workload": workload,
        "seed": seed,
        "index": index,
        "trace": trace,
        "cache_dir": str(cache),
        "setup_only": setup_only,
        "plant": plant,
    }
    env = dict(os.environ)
    env.pop("REPSPACE_CACHE", None)  # every pass starts from an empty cache
    what = f"{workload} set-up probe" if setup_only else f"{workload} pass {index}"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} exceeded {PASS_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{what} exited {proc.returncode}:\n{tail}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    if report.get("unexercised"):
        raise BenchError(
            f"traced {workload} pass recorded zero calls for "
            f"{', '.join(report['unexercised'])}: a binding was not rebound"
        )
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then passes until the time is used up (at least one).

    The host-speed probe runs in this process before the first pass and
    after every pass.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    setups = [
        run_child(workload, seed, -1, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    speed = [probe.seconds()]
    plain, traced = [], []
    index = 0
    while True:
        step_start = time.monotonic()
        plain.append(run_child(workload, seed, index))
        if trace:
            traced.append(run_child(workload, seed, index, trace=True))
        speed.append(probe.seconds())
        index += 1
        now = time.monotonic()
        # Start another pass only if it would end at most half a pass late.
        if now - start + (now - step_start) / 2 >= seconds:
            break
    return {"setups": setups, "speed": speed, "plain": plain, "traced": traced}


def _fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(workload: str, runs: dict, trace: bool) -> dict:
    """Print the run's report lines; return the result object."""
    plain, traced = runs["plain"], runs["traced"]
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    walls = [p["wall_s"] for p in plain]
    setups = runs["setups"] + [p["setup_s"] for p in passes]
    raw_wall, raw_setup = statistics.median(walls), statistics.median(setups)
    # Medians over passes absorb short hiccups; the probe scale absorbs a
    # slow spell of the host that lasts the whole run.
    speed = runs["speed"]
    scale = probe.REFERENCE_S / statistics.median(speed)
    wall, setup = raw_wall * scale, raw_setup * scale
    rss = statistics.median(p["peak_rss_kb"] / 1024 for p in plain)
    q1, q3 = _quartiles(walls)
    print(
        f"workload {workload}: {len(plain)} untraced and {len(traced)} traced "
        f"passes of {plain[0]['attempted']} commands"
    )
    print(f"  wall_s       {wall:.4f} s  host-scaled; raw median {raw_wall:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)}: {_fmt(walls)})")
    print(f"  setup_s      {setup:.4f} s  host-scaled; raw median {raw_setup:.4f} s (n={len(setups)})")
    print(f"  peak_rss_mb  {rss:.1f} MB")
    print(
        f"  failed_ops   {len(failures)}/{attempted} = "
        f"{len(failures) / attempted:.4f} (failed / attempted commands)"
    )
    print(
        f"  host probe   scale {scale:.4f} = {probe.REFERENCE_S} s reference / median "
        f"probe (n={len(speed)}: {_fmt(speed)})"
    )
    for f in failures:
        print(f"  FAILED op {f['op']}: {' '.join(f['argv'])}: {f['reason']}")
    if trace:
        metrics = _layer_report(workload, traced, raw_wall)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def _layer_report(workload: str, traced: list, untraced_wall: float) -> dict:
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"  traced wall_s {traced_wall:.4f} s; per-layer medians over {len(traced)} passes:")
    for name, unit in spans.LAYER_METRICS.items():
        share = ""
        if name in spans.SELF_TIME:
            share = f"  {100 * values[name] / traced_wall:5.1f}% of traced wall"
        print(f"    {name:36s} {values[name]:14.6f} {unit}{share}")
    largest = max(spans.SELF_TIME, key=values.get)
    print(f"  largest self-time layer: {largest}")
    last = traced[-1]
    print(f"  invariant_factors calls of the last traced pass ({len(last['matrices'])}):")
    print(f"    {'op':>4} {'space':40s} {'deg':>3} {'shape':>11} {'nnz_in':>7} "
          f"{'rank':>5} {'tors':>4} {'seconds':>9}")
    for r in last["matrices"]:
        print(
            f"    {r['op']:>4} {r['space'][:40]:40s} {r['degree']!s:>3} {r['shape']:>11} "
            f"{r['nnz_in']:>7} {r['rank']:>5} {r['torsion']:>4} {r['seconds']:9.5f}"
        )
    spans_file = WORK / f"spans-{workload}.json"
    spans_file.write_text(json.dumps({"spans": last["spans"], "matrices": last["matrices"]}))
    print(f"  spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in spans.LAYER_METRICS.items()
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("host:", json.dumps(host_info()))
    results = {}
    try:
        for name in names:
            runs = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name] = summarize(name, runs, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
