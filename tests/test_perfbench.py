"""One traced benchmark pass per workload stays green.

A traced pass checks every answer against ``perfbench/expected.json`` and
lists the required spans that recorded no call, so a change that alters
a frozen answer or stops reaching a measured layer fails here rather
than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sym_products", "query_mix"])
def test_traced_pass_checks_every_answer_and_reaches_every_span(tmp_path, workload):
    job = {
        "workload": workload,
        "seed": 1,
        "index": 0,
        "trace": True,
        "cache_dir": str(tmp_path / "cache"),
        "setup_only": False,
        "plant": None,
    }
    env = dict(os.environ)
    env.pop("REPSPACE_CACHE", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failures"] == []
    assert report["unexercised"] == []
    if workload == "sym_products":
        # one invariant_factors call per boundary map, d_top first, each
        # found among its complex's diffs: the degrees of the calls under
        # one homology span run top, ..., 1
        calls = [s for s in report["spans"] if s[0] == "abelian.invariant_factors"]
        degrees = {}
        for span, row in zip(calls, report["matrices"], strict=True):
            degrees.setdefault(span[3], []).append(row["degree"])
        assert degrees
        for ds in degrees.values():
            assert ds == list(range(len(ds), 0, -1)), ds
        assert sum(row["rank"] for row in report["matrices"]) > 0
