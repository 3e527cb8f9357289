"""Command-line interface: formats, exit codes, cache wiring."""

import csv
import io
import json
import random

import pytest

from repspace.abelian import GradedGroup
from repspace.cli import main
from repspace import verifier


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
    assert [d["name"] for d in docs] == ["rep-u(m=1)", "rep-u(m=2)"]
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


def test_verify_splitting_rank_five_only_fits_one_family(capsys):
    code, out, _ = run(capsys, "verify", "splitting", "--n", "5")
    assert code == 0
    assert "splitting[hom_circle](n=5)" in out
    assert "rep_su2" not in out and "sp_circle" not in out


def test_verify_homology_prop_narrowed(capsys):
    code, out, _ = run(capsys, "verify", "homology-prop", "--n", "3")
    assert code == 0
    assert "[ok] homology-prop(n=3)" in out
    assert "n=2" not in out


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run(capsys, "verify", "cohomotopy")[0] == 2


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


def test_su2_verify_psi_deterministic(capsys):
    a = run(capsys, "su2", "verify-psi", "--n", "2", "--runs", "40", "--seed", "1")
    b = run(capsys, "su2", "verify-psi", "--n", "2", "--runs", "40", "--seed", "1")
    assert a == b


# -- parser plumbing --------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


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
        if suite == "splitting" or rng.random() < 0.5:
            argv += ["--n", value()]
        for flag in ("--m", "--seed"):
            if rng.random() < 0.4:
                argv += [flag, value()]
    elif command == "catalog":
        group = rng.choice(verifier.RANK_ONE_GROUPS + ("E8",))
        # No 4: it takes seconds for SU2.
        n = rng.choice(["-1", "0", "1", "2", "3", "5", "14", "1000000000", "x"])
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
