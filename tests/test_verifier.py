"""Splitting verifier: reports, wedge assembly, filtrations, factor catalog."""

import json
import random
from itertools import combinations

import pytest

from repspace.abelian import AbelianGroup, GradedGroup, determinant
from repspace.engine import reduced_homology
from repspace.errors import ResourceGuard, Unsupported
from repspace.simplicial import collapse, normalized_chains
import oracles
from repspace import catalog, engine, su2, verifier
from repspace.su2 import SignMatrix, max_commutator_defect
from repspace.verifier import (
    Report,
    check_counts,
    check_homology_prop,
    check_rep_sp,
    check_rep_u_cohomology,
    check_simplicial,
    check_snf,
    check_su2,
    poincare_assembly,
    psi_refusals,
    psi_sweep,
    rank_one_catalog,
    run_suite,
    so3_invariance,
    splitting_factor,
    verify_splitting,
)


def T(r, *ds):
    return AbelianGroup.from_factors(r, ds)


def G(*groups):
    return GradedGroup.of(*groups)


# -- reports ----------------------------------------------------------------


def test_report_verdict_is_conjunction_of_rows():
    rep = Report("demo")
    assert rep.ok  # vacuously
    assert rep.add("first", 3, 3)
    assert rep.ok
    assert not rep.add("second", 3, 4)
    assert not rep.ok
    doc = rep.to_json()
    assert doc["name"] == "demo" and doc["ok"] is False
    assert [r["ok"] for r in doc["rows"]] == [True, False]
    json.dumps(doc)  # rows must be plain strings and bools
    text = rep.render()
    assert text.startswith("[FAIL] demo")
    assert "! second: expected 3, got 4" in text


def test_report_explicit_verdict_overrides_equality():
    rep = Report("demo")
    rep.add("tolerance", "small", "1.2e-12", ok=True)
    assert rep.ok


def test_poincare_assembly_sums_degreewise_with_multiplicity():
    a = G(T(0), T(1))
    b = G(T(0), T(0), T(0, 2))
    out = poincare_assembly([(2, a), (3, b)])
    assert out == G(T(0), T(2), T(0, 2, 2, 2))
    assert poincare_assembly([]) == G()
    with pytest.raises(ValueError):
        poincare_assembly([(-1, a)])


# -- the splitting families -------------------------------------------------


def test_splitting_suite_runs_every_verified_rank():
    runs = [b.args for b in verifier.suite_builders("splitting")]
    assert runs == (
        [("hom_circle", n) for n in range(1, 6)]
        + [("rep_su2", n) for n in range(1, 6)]
        + [("sp_circle", n) for n in range(1, 4)]
        + [("sp_circle", 1, 3), ("sp_circle", 2, 3)]
    )


def test_sp_circle_with_one_copy_degenerates_to_hom_circle():
    one = verify_splitting("sp_circle", 2, m=1)
    plain = verify_splitting("hom_circle", 2)
    assert one.ok and plain.ok
    assert [r["got"] for r in one.rows] == [r["got"] for r in plain.rows]


def test_splitting_guards():
    with pytest.raises(ValueError):
        verify_splitting("moebius", 2)
    with pytest.raises(ValueError):
        verify_splitting("hom_circle", 0)
    with pytest.raises(ResourceGuard):
        verify_splitting("hom_circle", 6)
    with pytest.raises(ResourceGuard):
        verify_splitting("rep_su2", 6)
    with pytest.raises(ResourceGuard):
        verify_splitting("sp_circle", 4)
    with pytest.raises(ValueError):
        verify_splitting("sp_circle", 2, m=0)
    with pytest.raises(ResourceGuard):
        verify_splitting("sp_circle", 3, m=3)  # underlying product too big


def test_a_splitting_factor_over_budget_is_refused_by_name_before_a_build(
    monkeypatch,
):
    def refuse(*args):
        raise AssertionError("the torus was built")

    monkeypatch.setattr(catalog, "minimal_torus", refuse)
    with pytest.raises(ResourceGuard) as err:
        splitting_factor("sp_circle", 3, 3)
    assert str(err.value) == (
        "splitting[sp_circle](n=3,m=3): product needs "
        "14174522 nondegenerate simplices (budget 200000)"
    )


def test_splitting_factors_are_the_expected_spaces():
    # hom_circle factors are spheres,
    for r in range(1, 5):
        h = reduced_homology(normalized_chains(splitting_factor("hom_circle", r)))
        assert h == G(*([T(0)] * r), T(1))
    # the first symmetric-product factor is a circle,
    h = reduced_homology(normalized_chains(splitting_factor("sp_circle", 1, m=2)))
    assert h == G(T(0), T(1))
    # and the conjugation factor at rank 1 is contractible (an arc).
    h = reduced_homology(normalized_chains(splitting_factor("rep_su2", 1)))
    assert h == G()


@pytest.mark.parametrize(
    "family, n, m",
    [("hom_circle", 3, 2), ("rep_su2", 3, 2), ("rep_su2", 4, 2), ("sp_circle", 2, 2)],
)
def test_every_slice_has_the_homology_of_its_separately_built_factor(family, n, m):
    def h(X):
        return reduced_homology(normalized_chains(X))

    factor = {r: h(splitting_factor(family, r, m)) for r in range(1, n + 1)}
    X, directions = verifier.splitting_base(family, n, m)
    for k in range(n):
        for D in combinations(range(n), k):
            assert h(verifier._slice(X, directions, frozenset(D))) == factor[n - k], D


def test_verify_splitting_builds_one_space(monkeypatch):
    built = []
    for name in ("minimal_torus", "torus_conj_quotient"):
        original = getattr(catalog, name)
        monkeypatch.setattr(
            catalog, name, lambda n, f=original: built.append(n) or f(n)
        )
    for family, n in [("hom_circle", 3), ("rep_su2", 3), ("sp_circle", 2)]:
        built.clear()
        assert verify_splitting(family, n).ok
        assert built == [n], family


def test_one_wrong_slice_fails_the_splitting_check(monkeypatch):
    original = verifier._slice

    def planted(X, directions, D=frozenset()):
        if D == {0}:
            return catalog.point()  # the bare basepoint instead of a circle
        return original(X, directions, D)

    monkeypatch.setattr(verifier, "_slice", planted)
    rep = verify_splitting("hom_circle", 2)
    assert rep.render().startswith("[FAIL] splitting[hom_circle](n=2)")
    assert [r["item"] for r in rep.rows if not r["ok"]] == ["H~_1"]


def test_rep_su2_factor_is_the_catalog_smash_factor():
    for r in (1, 2, 3):
        a, b = splitting_factor("rep_su2", r), catalog.smash_factor(r)
        assert a.simplices == b.simplices and a.faces == b.faces


# -- degeneracy filtrations -------------------------------------------------
#
# S^r is the union of the images of the rank n-r coordinate subtori: the
# simplices at the basepoint in at least r directions.  Its layer
# S^r/S^{r+1} keeps those in exactly r directions and collapses the rest.


def filtration_layers(family, n):
    X, directions = verifier.splitting_base(family, n)
    return [
        collapse(X, [sid for sid, s in directions.items() if len(s) == r])
        for r in range(n + 1)
    ]


def test_filtration_of_the_torus():
    layers = filtration_layers("hom_circle", 2)
    # S^0, S^1, S^2 have 6, 3 and 1 simplices; each layer adds the point *
    assert [len(L.dim_of) for L in layers] == [6 - 3 + 1, 3 - 1 + 1, 1 + 1]
    # S^2 is the basepoint, so S^1/S^2 is S^1: the two coordinate circles
    assert reduced_homology(normalized_chains(layers[1])) == G(T(0), T(2))


def test_filtration_layers_match_the_wedge_factors():
    for family in ("hom_circle", "rep_su2", "sp_circle"):
        layers = filtration_layers(family, 2)
        for r in range(2):
            got = reduced_homology(normalized_chains(layers[r]))
            factor = splitting_factor(family, 2 - r)
            want = reduced_homology(normalized_chains(factor)).times(
                [1, 2][r]  # binom(2, 2 - r)
            )
            assert got == want, (family, r)


def test_filtration_of_the_conjugation_quotient():
    layers = filtration_layers("rep_su2", 2)
    assert [len(L.dim_of) for L in layers] == [14 - 5 + 1, 5 - 1 + 1, 1 + 1]
    # S^1 is two arcs glued at the identity vertex, a contractible tree
    assert reduced_homology(normalized_chains(layers[1])) == G()


def test_filtration_of_the_symmetric_square():
    layers = filtration_layers("sp_circle", 2)
    assert [len(L.dim_of) for L in layers] == [78 - 7 + 1, 7 - 1 + 1, 1 + 1]
    # S^1 is two symmetric squares of circles glued at a point
    assert reduced_homology(normalized_chains(layers[1])) == G(T(0), T(2))


# -- the rank-one factor catalog --------------------------------------------


def test_rank_one_circle_factors_are_spheres():
    for n in (1, 2, 3, 6):
        desc, h = rank_one_catalog("S1", n)
        assert desc == f"S^{n}"
        assert h == G(*([T(0)] * n), T(1))


def test_rank_one_su2_factors():
    assert rank_one_catalog("SU2", 1) == ("S^3", G(T(0), T(0), T(0), T(1)))
    assert rank_one_catalog("SU2", 2)[1] == G(T(0), T(0), T(1), T(0, 2))
    assert rank_one_catalog("SU2", 3)[1] == G(
        T(0), T(0), T(0, 2), T(0, 2), T(0), T(1)
    )
    assert rank_one_catalog("SU2", 4)[1] == G(
        T(0), T(0), T(0, 2), T(0), T(1), T(0, 2)
    )


def test_rank_one_su2_factors_are_simply_connected():
    for n in (1, 2, 3, 4, catalog.MAX_SPHERE):
        _, h = rank_one_catalog("SU2", n)
        assert h[0].is_trivial and h[1].is_trivial


def test_rank_one_so3_factors():
    assert rank_one_catalog("SO3", 1) == (
        "RP^3",
        G(T(0), T(0, 2), T(0), T(1)),
    )
    desc, h = rank_one_catalog("SO3", 2)
    assert desc == "RP^4/RP^1 ∨ 1·(S^3/Q8)_+"
    assert h == G(T(1), T(0, 2, 2), T(1), T(1, 2))
    desc, h = rank_one_catalog("SO3", 3)
    assert desc.startswith("RP^5/RP^2 ∨ 4·")
    assert h[0] == T(4)  # four disjoint basepoints
    assert h[1] == T(0, 2, 2, 2, 2, 2, 2, 2, 2)
    assert rank_one_catalog("SO3", 6)[0] == "RP^8/RP^5 ∨ 121·(S^3/Q8)_+"
    # 2·c(13) = 531,440 torsion summands fit the guard; 2·c(14) does not
    assert rank_one_catalog("SO3", 13)[0] == "RP^15/RP^12 ∨ 265720·(S^3/Q8)_+"
    with pytest.raises(ResourceGuard, match=r"3\^13 - 1"):
        rank_one_catalog("SO3", 14)


def test_rank_one_binary_quotient_factors():
    assert rank_one_catalog("B_SU2_Z2", 1)[0] == "S^3"
    desc, h = rank_one_catalog("B_SU2_Z2", 2)
    assert desc == "1·(RP^3)_+ ∨ ΣS(2λ)"
    assert h == G(T(1), T(0, 2), T(1), T(1, 2))
    desc, h = rank_one_catalog("B_SU2_Z2", 3)
    assert desc == "11·(RP^3)_+ ∨ ΣS(3λ)"
    assert h[0] == T(11) and h[3] == T(11, 2)


def test_rank_one_unsupported_inputs():
    for group, n in [("SO5", 2), ("S1", 0), ("SU2", 9), ("B_SU2_Z2", 9)]:
        with pytest.raises(Unsupported) as err:
            rank_one_catalog(group, n)
        assert err.value.group == group and err.value.n == n


# -- closed-form checks -----------------------------------------------------


def test_homology_prop_all_supported_ranks():
    for n in (1, 2, 3, 4):
        assert check_homology_prop(n).ok


def test_rep_u_and_rep_sp_tables():
    for m in (0, 1, 2):
        assert check_rep_u_cohomology(m).ok
        assert check_rep_sp(2, m).ok
    with pytest.raises(ResourceGuard):
        check_rep_sp(3, 1)


def test_counts_report():
    rep = check_counts()
    assert rep.ok
    assert any("A(5)" in r["item"] for r in rep.rows)


def test_snf_report_on_random_matrices():
    assert check_snf(runs=120, seed=7).ok


def test_snf_report_fails_on_a_wrong_sparse_elimination(monkeypatch):
    original = verifier.invariant_factors
    monkeypatch.setattr(
        verifier, "invariant_factors", lambda M: [2 * e for e in original(M)]
    )
    rep = check_snf(runs=20, seed=7)
    assert rep.render().startswith("[FAIL] snf(runs=20)")


def _u_doubled(U, D, V):
    return [[2 * x for x in row] for row in U], D, V


def _d_off_diagonal(U, D, V):
    if len(D) > 1:
        D[1][0] = 1
    elif len(D[0]) > 1:
        D[0][1] = 1
    return U, D, V


def _v_column_doubled(U, D, V):
    for row in V:
        row[0] *= 2
    return U, D, V


@pytest.mark.parametrize("plant", [_u_doubled, _d_off_diagonal, _v_column_doubled])
def test_snf_report_fails_on_wrong_transforms(monkeypatch, plant):
    original = verifier.smith_normal_form
    monkeypatch.setattr(verifier, "smith_normal_form", lambda M: plant(*original(M)))
    assert not check_snf(runs=20, seed=7).ok


def test_exact_determinant_helper():
    det = determinant
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[3]]) == 3
    rng = random.Random(6)
    for _ in range(50):
        rows = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        rule = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert det(rows) == rule
    with pytest.raises(ValueError):
        det([[0, 0, 0], [0, 0, 0]])


def test_simplicial_report_covers_the_catalog():
    rep = check_simplicial()
    assert rep.ok
    assert len(rep.rows) >= 25


def test_simplicial_report_reduces_each_sample_once(monkeypatch):
    original = engine.homology
    calls = []
    monkeypatch.setattr(engine, "homology", lambda C: calls.append(C) or original(C))
    rep = check_simplicial()
    assert rep.ok
    assert len(calls) == len(rep.rows) == len(catalog.catalog_samples())


def test_simplicial_report_fails_on_one_wrong_factor_list(monkeypatch):
    original = engine.invariant_factors
    corrupted = []

    def corrupt(M, *args):
        factors = original(M, *args)
        if not corrupted and 2 in factors:
            corrupted.append(M)
            return [3 if e == 2 else e for e in factors]
        return factors

    monkeypatch.setattr(engine, "invariant_factors", corrupt)
    rep = check_simplicial()
    assert corrupted
    assert [r["ok"] for r in rep.rows].count(False) == 1


# -- randomized SU(2) sweeps ------------------------------------------------


def test_sign_matrix_enumeration_sizes():
    def sign_matrices(n):
        return sum(verifier._sign_tables(n), ())

    assert len(sign_matrices(2)) == 2
    assert len(sign_matrices(3)) == 8
    assert len(sign_matrices(4)) == 64
    assert sum(map(oracles.is_realizable, sign_matrices(4))) == 36


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sign_tables_match_the_type_matrix_route_in_order(n):
    # the bitmask tables against one TypeMatrix, SignMatrix and mod-2 rank
    # per type; order matters, since the sweeps cover the table in order
    realizable, unrealizable = oracles.reference_sign_tables(n)
    assert verifier._sign_tables(n) == (realizable, unrealizable)
    # the public predicate on its bitmask rows agrees with the mod-2 rank
    assert all(map(oracles.is_realizable, realizable))
    assert not any(map(oracles.is_realizable, unrealizable))


def test_psi_sweep_is_deterministic_and_clean():
    out = psi_sweep(3, 150, seed=13)
    assert out == psi_sweep(3, 150, seed=13)
    assert out["runs"] == 150 and out["failures"] == 0
    assert out["max_commutator_defect"] < 1e-9


# psi_sweep(n, 200, seed=5), each defect read off ab ∓ ba; the floats must
# match exactly.  The tuples themselves are pinned by the replay below.
FROZEN_SWEEPS = {
    2: 3.356589068483857e-16,
    3: 4.660953740672398e-16,
    4: 5.688200336284365e-16,
}


@pytest.mark.parametrize("n", sorted(FROZEN_SWEEPS))
def test_psi_sweep_matches_frozen_values(n):
    assert psi_sweep(n, 200, seed=5) == {
        "runs": 200,
        "failures": 0,
        "max_commutator_defect": FROZEN_SWEEPS[n],
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweep_tuples_match_the_quaternion_route_bit_for_bit(n):
    # every realizable matrix, the trivial one included, over seeded runs
    # whose random streams must also stay in step
    for seed in range(12):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for C in verifier._sign_tables(n)[0]:
            got = verifier._random_tuple(C, got_rng)
            want = oracles.reference_random_tuple(C, want_rng)
            assert [tuple(map(float.hex, q)) for q in got] == [
                tuple(map(float.hex, q)) for q in want
            ]
        assert got_rng.getstate() == want_rng.getstate()


# check_su2(runs=120, seed=2024), every row; the sweep rows' worst defects
# are read off ab ∓ ba.
FROZEN_SU2_REPORT = """\
[ok] su2(runs=120)
  + construction sweep n=2 (40 runs): expected 0 failures, got 0 failures, worst defect 4.17e-16
  + refusals n=2: expected 0 matrices refused everywhere, got 0 matrices refused everywhere
  + construction sweep n=3 (40 runs): expected 0 failures, got 0 failures, worst defect 2.78e-16
  + refusals n=3: expected 0 matrices refused everywhere, got 0 matrices refused everywhere
  + construction sweep n=4 (40 runs): expected 0 failures, got 0 failures, worst defect 2.79e-16
  + refusals n=4: expected 28 matrices refused everywhere, got 28 matrices refused everywhere
  + SO(3) lift/conjugation invariance (40 cases): expected 0 failures, got 0 failures"""


def _flip_first_sign(C):
    rows = [list(r) for r in C.entries]
    rows[0][1] = rows[1][0] = -rows[0][1]
    return SignMatrix(len(rows), tuple(map(tuple, rows)))


def test_sweeps_fail_on_a_wrong_commutator_sign(monkeypatch):
    # n <= 3: every sign matrix is realizable, so the tuple built for the
    # flipped matrix is a clean almost-commuting tuple of the wrong type.
    built = verifier._random_tuple

    def wrong_sign(C, rng):
        return built(_flip_first_sign(C) if C.n <= 3 else C, rng)

    monkeypatch.setattr(verifier, "_random_tuple", wrong_sign)
    for n in (2, 3):
        out = psi_sweep(n, 40, seed=3)
        assert out["failures"] == 40
        assert out["max_commutator_defect"] < 1e-9
    rep = check_su2(runs=120, seed=2024)
    sweeps = [r["ok"] for r in rep.rows if r["item"].startswith("construction")]
    assert sweeps == [False, False, True]


def test_sweeps_fail_on_a_perturbed_element(monkeypatch):
    built = verifier._random_tuple
    seen = []

    def perturbed(C, rng):
        t = built(C, rng)
        w, x, y, z = t[0]
        seen.append([su2._unit(w, x + 1e-6, y, z)] + t[1:])
        return seen[-1]

    monkeypatch.setattr(verifier, "_random_tuple", perturbed)
    for n in (2, 3, 4):
        seen.clear()
        out = psi_sweep(n, 40, seed=3)
        defects = [max_commutator_defect(t) for t in seen]
        assert out["max_commutator_defect"] == max(defects) > 1e-9
        assert out["failures"] == sum(d > 1e-9 for d in defects) > 0
    rep = check_su2(runs=120, seed=2024)
    sweeps = [r["ok"] for r in rep.rows if r["item"].startswith("construction")]
    assert sweeps == [False, False, False]
    assert not rep.rows[-1]["ok"]  # the SO(3) classifier refuses them too


def test_psi_refusals_only_appear_at_rank_four():
    assert psi_refusals(2) == {"matrices": 0, "refused": 0}
    assert psi_refusals(3) == {"matrices": 0, "refused": 0}
    assert psi_refusals(4) == {"matrices": 28, "refused": 28}


def test_so3_invariance_sweep():
    assert so3_invariance(150, seed=17)["failures"] == 0


def test_su2_report():
    rep = check_su2(runs=120, seed=2024)
    assert rep.ok
    assert len(rep.rows) == 7  # three sweeps, three refusal rows, invariance
    assert rep.render() == FROZEN_SU2_REPORT


# -- suite runner -----------------------------------------------------------


def test_run_suite_names_and_verdicts():
    reports = run_suite("rep-u")
    assert [r.name for r in reports] == ["rep-u(m=1)", "rep-u(m=2)", "rep-u(m=3)"]
    assert all(r.ok for r in reports)


def test_narrowing_selects_a_report_and_never_changes_one():
    def runs(name, **flags):
        return [b.args for b in verifier.suite_builders(name, **flags)]

    for name, flag, values in [
        ("homology-prop", "n", (1, 2, 3, 4)),
        ("rep-u", "m", (1, 2, 3)),
        ("rep-sp", "m", (0, 1, 2, 3)),
    ]:
        full = runs(name)
        for k in values:
            assert runs(name, **{flag: k}) == [a for a in full if a[-1] == k]
    full = runs("splitting")
    for k in range(1, 6):
        assert runs("splitting", n=k) == [a for a in full if a[1:] == (k,)]
    for k in (1, 2):  # sp_circle alone takes m; m = 3 is the suite's other power
        assert runs("splitting", n=k, m=3) == [
            a for a in full if a[1] == k and (a[0] != "sp_circle" or a[2:] == (3,))
        ]


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("cohomotopy")
    assert set(verifier.SUITES) == {
        "snf",
        "simplicial",
        "homology-prop",
        "rep-u",
        "rep-sp",
        "splitting",
        "counts",
        "su2",
    }
