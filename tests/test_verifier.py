"""Splitting verifier: reports, wedge assembly, filtrations, factor catalog."""

import json
import random

import pytest

from repspace.abelian import AbelianGroup, GradedGroup, IntMatrix, determinant
from repspace.engine import homology, reduced_homology
from repspace.errors import ResourceGuard, Unsupported
from repspace.simplicial import collapse, normalized_chains
from repspace import catalog, engine, verifier
from repspace.verifier import (
    Report,
    check_counts,
    check_homology_prop,
    check_rep_sp,
    check_rep_u_cohomology,
    check_simplicial,
    check_snf,
    check_su2,
    degeneracy_filtration,
    poincare_assembly,
    psi_refusals,
    psi_sweep,
    rank_one_catalog,
    run_suite,
    sign_matrices,
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


def test_hom_circle_splitting_all_supported_ranks():
    for n in range(1, 6):
        assert verify_splitting("hom_circle", n).ok


def test_rep_su2_splitting_all_supported_ranks():
    for n in range(1, 5):
        assert verify_splitting("rep_su2", n).ok


def test_sp_circle_splitting_small_ranks():
    # n = 3 runs a minute and a half; the acceptance suite covers it.
    assert verify_splitting("sp_circle", 1).ok
    assert verify_splitting("sp_circle", 2).ok


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
        verify_splitting("rep_su2", 5)
    with pytest.raises(ResourceGuard):
        verify_splitting("sp_circle", 4)
    with pytest.raises(ValueError):
        verify_splitting("sp_circle", 2, m=0)
    with pytest.raises(ResourceGuard):
        verify_splitting("sp_circle", 3, m=3)  # underlying product too big


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


def test_rep_su2_factor_is_the_catalog_smash_factor():
    for r in (1, 2, 3):
        a, b = splitting_factor("rep_su2", r), catalog.smash_factor(r)
        assert a.simplices == b.simplices and a.faces == b.faces


# -- degeneracy filtrations -------------------------------------------------


def test_filtration_of_the_torus():
    filt = degeneracy_filtration("hom_circle", 2)
    assert [X.size() for X in filt] == [6, 3, 1]
    # nested, starting at the whole space and ending at the basepoint
    ids = [set(X.dim_of) for X in filt]
    assert ids[0] >= ids[1] >= ids[2]
    assert len(ids[2]) == 1
    assert homology(normalized_chains(filt[1])) == G(T(1), T(2))


def test_filtration_layers_match_the_wedge_factors():
    for family in ("hom_circle", "rep_su2", "sp_circle"):
        filt = degeneracy_filtration(family, 2)
        for r in range(2):
            layer = collapse(filt[r], list(filt[r + 1].dim_of))
            got = reduced_homology(normalized_chains(layer))
            factor = splitting_factor(family, 2 - r)
            want = reduced_homology(normalized_chains(factor)).times(
                [1, 2][r]  # binom(2, 2 - r)
            )
            assert got == want, (family, r)


def test_filtration_of_the_conjugation_quotient():
    filt = degeneracy_filtration("rep_su2", 2)
    assert [X.size() for X in filt] == [14, 5, 1]
    # two arcs glued at the identity vertex: a contractible tree
    assert homology(normalized_chains(filt[1])) == G(T(1))


def test_filtration_of_the_symmetric_square():
    filt = degeneracy_filtration("sp_circle", 2)
    assert [X.size() for X in filt] == [78, 7, 1]
    # two symmetric squares of circles glued at a point
    assert homology(normalized_chains(filt[1])) == G(T(1), T(2))


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
    for n in (1, 2, 3, 4):
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
    for group, n in [("SO5", 2), ("S1", 0), ("SU2", 5), ("B_SU2_Z2", 9)]:
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


def test_exact_determinant_helper():
    det = determinant
    assert det(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1
    assert det(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix.from_rows([[3]])) == 3
    rng = random.Random(6)
    for _ in range(50):
        rows = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        rule = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert det(IntMatrix.from_rows(rows)) == rule
    with pytest.raises(ValueError):
        det(IntMatrix.zero(2, 3))


def test_simplicial_report_covers_the_catalog():
    rep = check_simplicial()
    assert rep.ok
    assert len(rep.rows) >= 25


def test_simplicial_report_fails_on_one_wrong_factor_list(monkeypatch):
    original = engine.invariant_factors
    corrupted = []

    def corrupt(M):
        factors = original(M)
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
    assert len(sign_matrices(2)) == 2
    assert len(sign_matrices(3)) == 8
    assert len(sign_matrices(4)) == 64
    assert sum(C.is_realizable() for C in sign_matrices(4)) == 36


def test_psi_sweep_is_deterministic_and_clean():
    out = psi_sweep(3, 150, seed=13)
    assert out == psi_sweep(3, 150, seed=13)
    assert out["runs"] == 150 and out["failures"] == 0
    assert out["max_commutator_defect"] < 1e-9


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


# -- suite runner -----------------------------------------------------------


def test_run_suite_names_and_verdicts():
    reports = run_suite("rep-u")
    assert [r.name for r in reports] == ["rep-u(m=1)", "rep-u(m=2)"]
    assert all(r.ok for r in reports)


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
