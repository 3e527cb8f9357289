"""Command-line interface: formats, exit codes, cache wiring."""

import argparse
import csv
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repspace
from repspace.abelian import GradedGroup
from repspace import catalog, cli, verifier
from repspace.cli import main

SRC = Path(repspace.__file__).resolve().parents[1]
README = SRC.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- counts -----------------------------------------------------------------


def test_counts_markdown(capsys):
    code, out, _ = run(capsys, "counts", "--n", "4")
    assert code == 0
    assert "| A | 35 |" in out
    assert "| K | 90 |" in out
    assert "| su2_lower_bound | 36 |" in out


def test_counts_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "counts", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 5
    assert doc["counts"]["A"] == 155
    assert doc["counts"]["N(n,1,2)"] == 156


def test_counts_format_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, "counts", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "count,value"
    assert "A,7" in out


def test_counts_rejects_nonpositive_n(capsys):
    code, _, err = run(capsys, "counts", "--n", "0")
    assert code == 2
    assert "n >= 1" in err


# -- homology ---------------------------------------------------------------


def test_homology_markdown_table(capsys):
    code, out, _ = run(capsys, "homology", "torus_conj_quotient(n=2)")
    assert code == 0
    assert "space: torus_conj_quotient(n=2)" in out
    assert "| 2 | Z |" in out


def test_homology_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "homology", "sp_torus(m=2,n=2)", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["space"] == "sp_torus(n=2,m=2)"  # canonical parameter order
    g = GradedGroup.from_json(doc["homology"])
    assert g.betti() == [1, 2, 2, 2, 1]


def test_homology_csv(capsys):
    code, out, _ = run(capsys, "homology", "circle", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["degree,group", "0,Z", "1,Z"]


def test_homology_unknown_space_is_usage_error(capsys):
    code, _, err = run(capsys, "homology", "nonsense(n=1)")
    assert code == 2
    assert "nonsense" in err


def test_homology_resource_guard_exit_code(capsys):
    code, _, err = run(capsys, "homology", "torus(n=7)")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "splitting", "--n", "0"],
        ["verify", "homology-prop", "--n", "0"],
        ["verify", "rep-sp", "--m", "-1"],
        ["verify", "rep-u", "--m", "-2"],
        ["homology", "torus(n=0)"],
        ["homology", "minimal_torus(n=0)"],
        ["homology", "sp_torus(n=1,m=-1)"],
        ["homology", "smash_factor(n=0)"],
        ["homology", "sphere_bundle_quotient(n=0)"],
    ],
    ids=" ".join,
)
def test_values_below_the_valid_range_are_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "SO3", "--n", "14"],
        ["catalog", "SO3", "--n", "1000000000"],
        ["catalog", "S1", "--n", "1000000000"],
        ["homology", "sphere(n=1000000000)"],
        ["homology", "rp(n=1000000000)"],
        ["homology", "stunted_projective(m=1000000000,k=1)"],
        ["homology", "thom_su2(n=1000000000)"],
        ["counts", "--n", "4001"],
        ["counts", "--n", "6000"],
        ["su2", "verify-psi", "--n", "100"],
        ["su2", "verify-psi", "--n", "200"],
    ],
    ids=" ".join,
)
def test_values_above_the_valid_range_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("resource guard:")
    assert len(err) < 200


@pytest.mark.parametrize(
    "space, code",
    [
        ("rep_sp(n=0,m=5)", 2),
        ("rep_sp(n=0,m=2)", 2),
        ("rep_sp(n=7,m=2)", 3),
        ("rep_sp(n=7,m=0)", 3),
        ("rep_sp(n=2,m=-1)", 2),
        ("rep_sp(n=2,m=4)", 3),
        ("sp_torus(n=7,m=2)", 3),
        ("sp_torus(n=7,m=5)", 3),
        ("sp_torus(n=0,m=2)", 2),
        ("sp_torus(n=1,m=-1)", 2),
        ("sp_torus(n=2,m=4)", 3),
        ("rp(n=-1)", 2),
        ("rp(n=999999)", 3),
        ("thom_su2(n=-1)", 2),
        ("thom_su2(n=999999)", 3),
        ("torus_conj_quotient(n=0)", 2),
        ("torus_conj_quotient(n=99)", 3),
        ("thom_zero_quotient(n=0)", 2),
        ("thom_zero_quotient(n=99)", 3),
        ("sphere(n=-1)", 2),
        ("sphere(n=999999)", 3),
        ("stunted_projective(m=3,k=5)", 2),
        ("stunted_projective(m=999999,k=0)", 3),
        ("rp_simplicial(n=-1)", 2),
        ("smash_factor(n=7)", 3),
        ("torus(n=6)", 3),
        ("torus_conj_quotient(n=6)", 3),
        ("rep_sp(n=6,m=1)", 3),
        ("rep_sp(n=6,m=2)", 3),
        ("sp_torus(n=6,m=2)", 3),
        ("smash_factor(n=6)", 3),
        ("rep_sp(n=5,m=3)", 3),
        ("sp_torus(n=4,m=3)", 3),
    ],
)
def test_a_refusal_names_the_constructor_asked_for(capsys, space, code):
    # the inner torus and sym_product constructors have ranges of their
    # own; the message must still send the user to the descriptor they gave
    got, out, err = run(capsys, "homology", space)
    assert got == code and out == ""
    assert len(err.splitlines()) == 1
    prefix = "error: " if code == 2 else "resource guard: "
    assert err.startswith(prefix + space + ":"), err


@pytest.mark.parametrize("space", ["rep_sp(n=6,m=0)", "sp_torus(n=6,m=0)"])
def test_the_zeroth_symmetric_product_is_a_point_at_any_rank(capsys, space):
    # SP^0 is answered before the torus or its quotient is counted
    code, out, err = run(capsys, "--format", "json", "homology", space)
    assert code == 0 and err == ""
    assert json.loads(out)["homology"] == [{"free_rank": 1, "torsion": []}]


def test_homology_cache_dir_flag(tmp_path, capsys):
    code, first, _ = run(
        capsys,
        "homology",
        "smash_factor(n=2)",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    code, second, _ = run(
        capsys,
        "homology",
        "smash_factor(n=2)",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0 and second == first


def test_homology_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPSPACE_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "homology", "circle_conj_quotient")
    assert code == 0
    assert list(tmp_path.glob("*.json"))


def test_homology_unwritable_cache_warns_and_answers(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code, out, err = run(
        capsys, "homology", "circle", "--cache-dir", str(blocker / "sub")
    )
    assert code == 0
    assert out == run(capsys, "homology", "circle")[1]
    assert len(err.splitlines()) == 1 and err.startswith("warning:")


# -- verify -----------------------------------------------------------------


def test_verify_counts_suite(capsys):
    code, out, _ = run(capsys, "verify", "counts")
    assert code == 0
    assert "[ok] counts" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "rep-u", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["name"] for d in docs] == ["rep-u(m=1)", "rep-u(m=2)", "rep-u(m=3)"]
    assert all(d["ok"] for d in docs)
    assert {"item", "expected", "got", "ok"} <= set(docs[0]["rows"][0])


def test_verify_csv_rows(capsys):
    code, out, _ = run(capsys, "verify", "rep-sp", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["report", "item", "expected", "got", "ok"]
    assert ["rep-sp(n=2,m=2)", "H_4", "Z", "Z", "True"] in rows


def test_verify_splitting_narrowed_to_one_rank(capsys):
    code, out, _ = run(capsys, "verify", "splitting", "--n", "2")
    assert code == 0
    for family in ("hom_circle", "rep_su2", "sp_circle"):
        assert f"splitting[{family}]" in out


def test_verify_splitting_narrowed_rank_skips_families_that_stop_below_it(capsys):
    code, out, _ = run(capsys, "verify", "splitting", "--n", "4")
    assert code == 0
    assert "splitting[hom_circle](n=4)" in out
    assert "splitting[rep_su2](n=4)" in out
    assert "sp_circle" not in out


def test_a_refused_splitting_check_names_its_report(capsys):
    # hom_circle and rep_su2 at n = 3 fit; the sp_circle product does not
    code, out, err = run(capsys, "verify", "splitting", "--n", "3", "--m", "3")
    assert code == 3 and out == ""
    assert err == (
        "resource guard: splitting[sp_circle](n=3,m=3): product needs "
        "14174522 nondegenerate simplices (budget 200000)\n"
    )


def test_a_refused_splitting_check_builds_nothing_first(capsys, monkeypatch):
    # the sp_circle refusal comes before hom_circle and rep_su2 are built
    calls, chains = [], verifier.normalized_chains
    monkeypatch.setattr(
        verifier, "normalized_chains", lambda X: calls.append(X) or chains(X)
    )
    code, _, err = run(capsys, "verify", "splitting", "--n", "3", "--m", "3")
    assert code == 3 and err.startswith("resource guard: splitting[sp_circle]")
    assert calls == []


@pytest.mark.parametrize(
    "m, code, prefix", [("4", 3, "resource guard"), ("0", 2, "error")]
)
def test_a_splitting_range_refusal_names_its_family_once(capsys, m, code, prefix):
    got, out, err = run(capsys, "verify", "splitting", "--n", "2", "--m", m)
    assert got == code and out == ""
    assert err == f"{prefix}: sp_circle needs 1 <= m <= 3, not m={m}\n"


def test_verify_homology_prop_narrowed(capsys):
    code, out, _ = run(capsys, "verify", "homology-prop", "--n", "3")
    assert code == 0
    assert "[ok] homology-prop(n=3)" in out
    assert "n=2" not in out


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run(capsys, "verify", "cohomotopy")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rep-u", "--n", "7"],
        ["verify", "homology-prop", "--m", "5"],
        ["verify", "snf", "--n", "3"],
        ["verify", "splitting", "--m", "3"],
    ],
    ids=" ".join,
)
def test_verify_refuses_a_flag_its_suite_ignores(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verify_failure_exits_one(capsys, monkeypatch):
    broken = verifier.Report("counts")
    broken.add("A(5)", 155, 154)
    monkeypatch.setattr(verifier, "check_counts", lambda: broken)
    code, out, _ = run(capsys, "verify", "counts")
    assert code == 1
    assert "[FAIL] counts" in out


# -- catalog ----------------------------------------------------------------


def test_catalog_markdown(capsys):
    code, out, _ = run(capsys, "catalog", "SO3", "--n", "2")
    assert code == 0
    assert "RP^4/RP^1" in out
    assert "| 1 | (Z/2)^2 |" in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "SU2", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["factor"] == "ΣS(4λ)"
    g = GradedGroup.from_json(doc["reduced_homology"])
    assert str(g) == "(0, 0, Z/2, 0, Z, Z/2)"


@pytest.mark.parametrize("group", ["SU2", "B_SU2_Z2"])
def test_catalog_stdout_is_the_benchmarks_frozen_answer(capsys, group):
    key = f"catalog {group} --n 4"
    frozen = json.loads((SRC.parent / "perfbench" / "expected.json").read_text("utf-8"))
    code, out, _ = run(capsys, *key.split())
    assert code == 0
    assert out == frozen["answers"][key]["stdout"]


def test_catalog_unsupported_is_usage_error(capsys):
    assert run(capsys, "catalog", "SU2", "--n", "9")[0] == 2
    assert run(capsys, "catalog", "E8", "--n", "2")[0] == 2


# -- su2 --------------------------------------------------------------------


def test_su2_verify_psi_json_contract(capsys):
    code, out, _ = run(
        capsys, "su2", "verify-psi", "--n", "3", "--runs", "80", "--seed", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"runs", "failures", "max_commutator_defect"}
    assert doc["runs"] == 80 and doc["failures"] == 0
    assert doc["max_commutator_defect"] < 1e-9


@pytest.mark.parametrize("flag", ["--runs", "--n"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_su2_verify_psi_rejects_counts_below_one(capsys, flag, value):
    code, out, err = run(capsys, "su2", "verify-psi", flag, value)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_su2_verify_psi_matches_frozen_stdout(capsys):
    # computed before the sweeps built their tuples on 4-tuples
    assert run(
        capsys, "su2", "verify-psi", "--n", "4", "--runs", "200", "--seed", "3"
    ) == (
        0,
        '{\n  "runs": 200,\n  "failures": 0,\n'
        '  "max_commutator_defect": 4.1518530461638927e-16\n}\n',
        "",
    )


def test_su2_verify_psi_deterministic(capsys):
    a = run(capsys, "su2", "verify-psi", "--n", "2", "--runs", "40", "--seed", "1")
    b = run(capsys, "su2", "verify-psi", "--n", "2", "--runs", "40", "--seed", "1")
    assert a == b


# -- parser plumbing --------------------------------------------------------


def readme_examples():
    """(argv, expected stdout lines) for every ``$ repspace`` block of the README.

    A block that ends its output with a ``...`` line shows a prefix only.
    """
    examples = []
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        lines = block.strip("\n").splitlines()
        if lines and lines[0].startswith("$ repspace "):
            examples.append((shlex.split(lines[0])[2:], lines[1:]))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "argv, shown",
    README_EXAMPLES,
    ids=[" ".join(argv) for argv, _ in README_EXAMPLES],
)
def test_readme_example_matches_the_cli(capsys, monkeypatch, argv, shown):
    monkeypatch.delenv("REPSPACE_CACHE", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    got = out.splitlines()
    if "..." in shown:
        shown = shown[: shown.index("...")]
        got = got[: len(shown)]
    assert got == shown


def test_readme_has_every_command_example():
    assert [argv[0] for argv, _ in README_EXAMPLES] == [
        "homology",
        "counts",
        "verify",
        "catalog",
        "su2",
    ]


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_a_quiet_exit(monkeypatch):
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    code = main(["verify", "splitting", "--n", "2"])
    replacement = sys.stdout
    replacement.close()
    assert code == 0
    assert err.getvalue() == ""
    assert replacement.name == os.devnull


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "splitting", "--n", "2"], ["--help"], ["homology", "--help"]],
    ids=["verify", "help", "homology-help"],
)
def test_closed_stdout_pipe_exits_quietly(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child prints
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "repspace.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (0, b"")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    main(["counts", "--n", "2"])  # the parser may not exist yet
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [
        main(["homology", "circle"]),
        main(["counts", "--n", "3"]),
        main(["counts", "--n", "many"]),
        main(["--help"]),
        main(["--format", "json", "homology", "sphere(n=2)"]),
    ]
    capsys.readouterr()
    assert codes == [0, 0, 2, 0, 0]
    assert built == []


def test_a_usage_error_leaves_the_parser_usable(capsys):
    expected = run(capsys, "counts", "--n", "3", "--format", "csv")
    assert run(capsys, "counts", "--n", "3", "--format", "tsv")[0] == 2
    assert run(capsys, "counts", "--format", "csv")[0] == 2
    assert run(capsys, "counts", "--n", "3", "--format", "csv") == expected


def test_a_rebound_command_runs_after_the_parser_is_built(capsys, monkeypatch):
    assert run(capsys, "counts", "--n", "3")[0] == 0
    seen = []

    def stub(args):
        seen.append((args.n, args.fmt))
        return 0

    monkeypatch.setattr(cli, "cmd_counts", stub)
    assert run(capsys, "counts", "--n", "3") == (0, "", "")
    assert seen == [(3, "markdown")]


def test_a_homology_command_parses_its_descriptor_once(capsys, monkeypatch, tmp_path):
    seen = []
    lookup = catalog._lookup

    def counting_lookup(key):
        seen.append(key)
        return lookup(key)

    monkeypatch.setattr(catalog, "_lookup", counting_lookup)
    for _ in range(2):  # computed, then served from the cache
        seen.clear()
        code, out, _ = run(
            capsys, "homology", "rp( n = 3 )", "--cache-dir", str(tmp_path)
        )
        assert code == 0 and out.startswith("space: rp(n=3)\n")
        assert seen == ["rp( n = 3 )"]


# No command needs these; importing them costs every call start-up time
# (dataclasses pulls in inspect, ast and dis; fractions pulls in decimal).
UNNEEDED_MODULES = (
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "csv",
    "pathlib",
    "typing",
)
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import repspace.cli
loaded = set(sys.modules)
import contextlib, io, json
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert repspace.cli.main(argv) == 0, argv
print(json.dumps([sorted(loaded), sorted(set(sys.modules) - loaded)]))
"""


def test_the_cli_imports_only_what_its_commands_use(tmp_path):
    # -S: no site hook runs, so no .pth file can import these modules first
    commands = [
        ["counts", "--n", "5"],
        ["catalog", "SO3", "--n", "2"],
        ["su2", "verify-psi", "--n", "3", "--runs", "20"],
        ["verify", "counts"],
        ["homology", "circle", "--cache-dir", str(tmp_path)],
        ["homology", "circle", "--cache-dir", str(tmp_path)],
        ["homology", "sphere(n=2)", "--format", "json"],
    ]
    child = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, str(SRC), json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    at_import, later = json.loads(child.stdout)
    assert "repspace.cli" in at_import
    assert [m for m in UNNEEDED_MODULES if m in at_import or m in later] == []
    # every module of the package a command runs is loaded with the CLI
    assert [m for m in later if m.split(".")[0] == "repspace"] == []


# -- exit-code contract under random input ---------------------------------

FUZZ_SPACES = {
    "point": (),
    "circle": (),
    "torus": ("n",),
    "minimal_torus": ("n",),
    "torus_conj_quotient": ("n",),
    "smash_factor": ("n",),
    "sp_torus": ("n", "m"),
    "rep_sp": ("n", "m"),
    "rp": ("n",),
    "rp_simplicial": ("n",),
    "sphere": ("n",),
    "stunted_projective": ("m", "k"),
    "thom_su2": ("n",),
    "thom_zero_quotient": ("n",),
    "sphere_bundle_quotient": ("n",),
    "lens_q8": (),
    "nonsense": ("n",),
}
# Valid values are drawn most often.  No 3: it would let sp_torus and
# rep_sp build a power above 2 of a rank-3 torus, which takes minutes; 7,
# 99 and 10^9 reach the size guards instead.
FUZZ_VALUES = ("1", "2") * 4 + (
    "-2", "-1", "0", "7", "99", "1000000000", "x", "1.5", ""
)


# Share of fuzzed verify argv whose --n (and half the time --m) ignores
# which suites those flags narrow.
FUZZ_FLAG_MISMATCH = 0.1


def _fuzz_descriptor(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(["", "torus(n=1", "torus(2)", "((", "torus(n=1,n=2)"])
    name = rng.choice(sorted(FUZZ_SPACES))
    keys = list(FUZZ_SPACES[name])
    if roll < 0.2:
        keys = keys[1:] if keys else ["n"]
    if not keys:
        return name
    params = ",".join(f"{k}={rng.choice(FUZZ_VALUES)}" for k in keys)
    return f"{name}({params})"


def _fuzz_argv(rng, cache):
    def value():
        return rng.choice(FUZZ_VALUES)

    commands = ["homology", "counts", "verify", "catalog", "su2"]
    command = rng.choice(commands * 4 + ["bogus"])
    if command == "homology":
        argv = ["homology", _fuzz_descriptor(rng)]
        if rng.random() < 0.3:
            argv += ["--cache-dir", cache]
    elif command == "counts":
        argv = ["counts"] + (["--n", value()] if rng.random() < 0.9 else [])
    elif command == "verify":
        suite = rng.choice(verifier.SUITES + ("cohomotopy",))
        argv = ["verify", suite]
        # --n and --m go to the suites they narrow; a small fixed share goes
        # anywhere, so the ignored-flag refusal is still reached.  rep-sp
        # always gets --m: unnarrowed, it runs every m for seconds, and
        # test_verify_csv_rows covers that argv's exit code.
        mismatch = rng.random() < FUZZ_FLAG_MISMATCH
        if suite == "splitting" or mismatch or (
            suite == "homology-prop" and rng.random() < 0.5
        ):
            argv += ["--n", value()]
        if suite == "rep-sp" or (mismatch and rng.random() < 0.5) or (
            suite in ("rep-u", "splitting") and rng.random() < 0.5
        ):
            argv += ["--m", value()]
        if rng.random() < 0.4:
            argv += ["--seed", value()]
    elif command == "catalog":
        group = rng.choice(verifier.RANK_ONE_GROUPS + ("E8",))
        n = rng.choice(
            ["-1", "0", "1", "2", "3", "4", "5", "8", "14", "1000000000", "x"]
        )
        argv = ["catalog", group, "--n", n]
    elif command == "su2":
        argv = ["su2", rng.choice(["verify-psi"] * 4 + ["verify-phi"])]
        n = ["-1", "0", "1", "2", "3", "4", "5", "200", "1000000000", "x"]
        argv += ["--n", rng.choice(n)]
        argv += ["--runs", rng.choice(["-1", "0", "1", "5", "20", "x"])]
        argv += ["--seed", value()]
    else:
        argv = ["bogus"]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), "--bogus")
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(["markdown", "json", "csv", "xml"])]
    return argv


def test_random_argv_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(20261018)
    for _ in range(300):
        argv = _fuzz_argv(rng, str(tmp_path))
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert code != 1 or argv[0] in ("verify", "su2"), argv
