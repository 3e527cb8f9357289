"""The three workloads: CLI command lists and how each answer is checked.

A command is an argv for ``repspace.cli.main`` plus a check.  ``{seed}``
in an argv is replaced by a seed drawn from the workload seed, and
``{cache}`` by the pass's fresh cache directory.  The workload seed also
shuffles the command order of each pass; the program sees only argv.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# catalog.catalog_samples() at the commit that defined the benchmark,
# frozen so that the workload cannot change with the program.
CATALOG_SAMPLES = (
    "point",
    "circle",
    "circle_conj",
    "circle_conj_quotient",
    "torus(n=1)",
    "torus(n=2)",
    "torus(n=3)",
    "minimal_torus(n=2)",
    "minimal_torus(n=3)",
    "torus_conj_quotient(n=1)",
    "torus_conj_quotient(n=2)",
    "torus_conj_quotient(n=3)",
    "smash_factor(n=1)",
    "smash_factor(n=2)",
    "smash_factor(n=3)",
    "sp_torus(n=2,m=2)",
    "rep_sp(n=2,m=1)",
    "rep_sp(n=2,m=2)",
    "stunted_projective(m=3,k=0)",
    "stunted_projective(m=4,k=2)",
    "rp(n=4)",
    "rp_simplicial(n=2)",
    "sphere(n=0)",
    "sphere(n=2)",
    "sphere(n=3)",
    "thom_su2(n=0)",
    "thom_su2(n=1)",
    "thom_su2(n=2)",
    "thom_zero_quotient(n=1)",
    "thom_zero_quotient(n=2)",
    "sphere_bundle_quotient(n=2)",
)
WARM_REPEATS = 10
PSI_RUNS = 1000
PSI_MAX_DEFECT = 1e-9


class Command(NamedTuple):
    key: str  # names the frozen answer in expected.json
    argv: tuple
    check: str  # "exact", "verify" or "psi"


def _cmd(argv, check="exact"):
    argv = tuple(argv)
    return Command(" ".join(argv), argv, check)


WORKLOADS = {
    "sym_products": (
        _cmd(["homology", "sp_torus(n=2,m=3)"]),
        _cmd(["verify", "splitting", "--n", "2", "--m", "3"], "verify"),
    ),
    "conj_quotients": (
        _cmd(["homology", "smash_factor(n=5)"]),
        _cmd(["homology", "torus_conj_quotient(n=4)"]),
        _cmd(["catalog", "SU2", "--n", "4"]),
        _cmd(["catalog", "B_SU2_Z2", "--n", "4"]),
        _cmd(["verify", "homology-prop"], "verify"),
        _cmd(["verify", "splitting", "--n", "4"], "verify"),
    ),
    "query_mix": (
        _cmd(["catalog", "SO3", "--n", "9"]),
        _cmd(["catalog", "SO3", "--n", "2"]),
        _cmd(["counts", "--n", "20"]),
        _cmd(
            ["su2", "verify-psi", "--n", "4", "--runs", str(PSI_RUNS), "--seed", "{seed}"],
            "psi",
        ),
        _cmd(["verify", "su2", "--seed", "{seed}"], "verify"),
        _cmd(["verify", "snf", "--seed", "{seed}"], "verify"),
        _cmd(["verify", "simplicial"], "verify"),
        _cmd(["verify", "counts"], "verify"),
    )
    + tuple(
        _cmd(["homology", d, "--cache-dir", "{cache}"])
        for d in CATALOG_SAMPLES
        for _ in range(1 + WARM_REPEATS)  # the first in pass order runs cold
    ),
}

# Spans each workload must record at least once in a traced pass.  Zero
# calls means a binding was not rebound, not that the layer became free.
REQUIRED_SPANS = {
    "sym_products": (
        "abelian.invariant_factors",
        "simplicial.product_list",
        "simplicial.quotient_by_action",
        "simplicial.action_validate",
        "simplicial.collapse",
        "simplicial.normalized_chains",
        "catalog.build",
        "engine.chain_validate",
        "engine.homology",
        "verifier.verify_splitting",
        "verifier.poincare_assembly",
        "cli",
    ),
    "conj_quotients": (
        "abelian.invariant_factors",
        "simplicial.product_list",
        "simplicial.quotient_by_action",
        "simplicial.collapse",
        "simplicial.normalized_chains",
        "catalog.build",
        "engine.chain_validate",
        "engine.homology",
        "verifier.verify_splitting",
        "verifier.poincare_assembly",
        "verifier.checks",
        "cli",
    ),
    "query_mix": (
        "abelian.invariant_factors",
        "abelian.smith_normal_form",
        "catalog.build",
        "engine.cached_homology",
        "verifier.poincare_assembly",
        "verifier.checks",
        "su2.psi_construct",
        "su2.commutator",
        "counting",
        "cli",
    ),
}


def pass_commands(workload: str, seed: int, index: int, cache_dir: str) -> list:
    """Pass ``index`` of a run: the shuffled, filled-in command list."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    commands = list(WORKLOADS[workload])
    rng.shuffle(commands)
    out = []
    for cmd in commands:
        argv = tuple(
            a.replace("{seed}", str(rng.randrange(1, 2**31))).replace(
                "{cache}", cache_dir
            )
            for a in cmd.argv
        )
        out.append(cmd._replace(argv=argv))
    return out


def load_expected(plant=None) -> dict:
    """Frozen stdout per command key; ``plant`` corrupts one (self-test)."""
    answers = {
        key: entry["stdout"]
        for key, entry in json.loads(EXPECTED_FILE.read_text("utf-8"))[
            "answers"
        ].items()
    }
    if plant is not None:
        answers[plant] += "planted difference\n"
    return answers


def verify_all_ok(stdout: str) -> bool:
    """Every rendered report is "[ok]" and no row is marked failed."""
    lines = stdout.splitlines()
    headers = [ln for ln in lines if ln.startswith("[")]
    return (
        bool(headers)
        and all(ln.startswith("[ok] ") for ln in headers)
        and not any(ln.startswith("  !") for ln in lines)
    )


def check(cmd: Command, rc: int, stdout: str, expected: dict):
    """None when the answer is right, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    if cmd.check == "psi":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        if doc.get("runs") != PSI_RUNS or doc.get("failures") != 0:
            return f"runs {doc.get('runs')}, failures {doc.get('failures')}"
        if not doc.get("max_commutator_defect", 1.0) < PSI_MAX_DEFECT:
            return f"defect {doc.get('max_commutator_defect')}"
        return None
    if cmd.check == "verify" and not verify_all_ok(stdout):
        return "a verification row failed"
    if cmd.key in expected and stdout != expected[cmd.key]:
        return "output differs from the frozen answer"
    if cmd.check == "exact" and cmd.key not in expected:
        return "no frozen answer"
    return None
