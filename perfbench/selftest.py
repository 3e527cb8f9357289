"""Self-test of the benchmark; takes about a minute on 2 CPUs.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

1. The frozen answers agree with their independent routes.
2. Each workload runs once in traced mode, answers correctly and reports
   every per-layer metric of BENCHMARK.json; one untraced run reports
   every end-to-end metric.
3. A planted wrong answer makes failed_ops exactly 1/N.
"""

from __future__ import annotations

import json
import subprocess
import sys

import probe
import run
import spans
import workloads

ROOT = run.ROOT


def _table(stdout: str) -> list:
    """Group column of a rendered markdown table, by degree."""
    rows = [
        ln.split("|")
        for ln in stdout.splitlines()
        if ln.startswith("| ") and "---" not in ln
    ]
    return [cells[2].strip() for cells in rows[1:]]  # rows[0] is the header


def _free(coefficients) -> list:
    return ["0" if c == 0 else "Z" if c == 1 else f"Z^{c}" for c in coefficients]


def check_routes():
    sys.path.insert(0, str(ROOT / "src"))
    from repspace import counting

    answers = workloads.load_expected()
    g = counting.conj_quotient_homology(4)
    assert _table(answers["homology torus_conj_quotient(n=4)"]) == [
        str(g[k]) for k in range(g.top + 1)
    ], "torus_conj_quotient(n=4) disagrees with the closed form"

    # Macdonald: P(SP^3 T^2) = (1+t)^2 (1+t^2+t^4), all torsion-free.
    poly = [0] * 7
    for i, a in enumerate((1, 2, 1)):
        for j, b in enumerate((1, 0, 1, 0, 1)):
            poly[i + j] += a * b
    assert _table(answers["homology sp_torus(n=2,m=3)"]) == _free(poly), (
        "sp_torus(n=2,m=3) disagrees with Macdonald's formula"
    )

    readme = ROOT / "README.md"
    if readme.exists():
        text = readme.read_text("utf-8")
        block = text.split("$ repspace catalog SO3 --n 2\n", 1)[1].split("```", 1)[0]
        assert block.strip() == answers["catalog SO3 --n 2"].strip(), (
            "catalog SO3 --n 2 disagrees with the README table"
        )
    else:
        print("  README.md not present; the SO3 table route is not checked")

    counts = dict(
        (cells[1].strip(), cells[2].strip())
        for cells in (ln.split("|") for ln in answers["counts --n 20"].splitlines())
        if len(cells) > 3
    )
    assert int(counts["C"]) == counting.c_via_recurrence(20), "C(20) disagrees"
    assert int(counts["K"]) == counting.k_via_recurrence(20), "K(20) disagrees"

    for cmds in workloads.WORKLOADS.values():
        for cmd in cmds:
            if cmd.check == "verify" and cmd.key in answers:
                assert workloads.verify_all_ok(answers[cmd.key]), cmd.key
    print("  frozen answers agree with their independent routes")


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert layer_names == set(spans.LAYER_METRICS), "BENCHMARK.json per_layer drifted"
    for workload in workloads.WORKLOADS:
        result = run_benchmark(workload, 1)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        missing = layer_names - set(result["metrics"])
        assert not missing, f"{workload} traced run lacks {sorted(missing)}"
        print(f"  {workload}: traced run reports all {len(layer_names)} per-layer metrics")
    result = run_benchmark("query_mix", 0)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    print("  query_mix: untraced run reports every end-to-end metric")


def check_planted_failure():
    workload, key = "query_mix", "catalog SO3 --n 2"
    report = run.run_child(workload, 1, 0, plant=key)
    runs = {"setups": [], "speed": [probe.REFERENCE_S], "plain": [report], "traced": []}
    result = run.summarize(workload, runs, False)
    n = len(workloads.WORKLOADS[workload])
    assert (result["failed"], result["attempted"]) == (1, n), result
    print(f"  planted wrong answer: failed_ops = 1/{n}")


def main() -> int:
    check_routes()
    check_metrics()
    check_planted_failure()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
