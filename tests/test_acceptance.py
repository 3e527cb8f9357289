"""Acceptance suite: one test, one verdict line, per headline claim.

Each test exercises a complete claim end to end, preferring the public
entry points over internals.  Everything here is also covered in finer
grain by the per-module test files; this file exists so a single
``pytest -v tests/test_acceptance.py`` reads as the checklist.
"""

import time

from oracles import count_types
from repspace import catalog, verifier
from repspace.abelian import AbelianGroup, GradedGroup
from repspace.counting import (
    a_count,
    c_count,
    c_via_recurrence,
    conj_quotient_homology,
    d_count,
    em_decomposition,
    k_count,
    k_via_recurrence,
    n_central_product,
    n_lower_bound_su2,
    strata_counts,
)
from repspace.engine import homology, reduced_homology, suspend
from repspace.simplicial import normalized_chains
from repspace.verifier import (
    check_simplicial,
    check_snf,
    psi_refusals,
    psi_sweep,
    so3_invariance,
)


def T(r, *ds):
    return AbelianGroup.from_factors(r, ds)


def G(*groups):
    return GradedGroup.of(*groups)


def test_criterion_1_conjugation_quotient_homology():
    """H_*((S^1)^n/Z2) matches the closed form for n = 1..4."""
    frozen = {
        1: G(T(1)),
        2: G(T(1), T(0), T(1)),
        3: G(T(1), T(0), T(3, 2)),
        4: G(T(1), T(0), T(6, 2, 2, 2, 2, 2), T(0), T(1)),
    }
    for n, want in frozen.items():
        got = homology(normalized_chains(catalog.torus_conj_quotient(n)))
        assert got == want == conj_quotient_homology(n)
    # the headline degrees at n = 4
    assert frozen[4][2] == T(6, 2, 2, 2, 2, 2)
    assert frozen[4][4] == T(1)


def test_criterion_2_unitary_and_symplectic_rep_spaces():
    """SP^2 and SP^3 of the 2-torus are torsion-free with ranks 1,2,2,2,1
    and 1,2,2,2,2,2,1, and SP^m of its conjugation quotient is complex
    projective m-space."""
    for m, betti in ((2, [1, 2, 2, 2, 1]), (3, [1, 2, 2, 2, 2, 2, 1])):
        h = homology(normalized_chains(catalog.sp_torus(2, m)))
        assert [g.free_rank for g in h.groups] == betti
        assert all(not g.torsion for g in h.groups)
    for m in (1, 2, 3):
        cp = homology(normalized_chains(catalog.rep_sp(2, m)))
        assert cp == G(
            *[T(1) if k % 2 == 0 else T(0) for k in range(2 * m + 1)]
        )


def test_criterion_3_stable_splittings_hold_in_every_verified_range():
    """Reduced homology of each total space equals its wedge of factors:
    tori and conjugation quotients to rank 5, symmetric squares to
    rank 3 and symmetric cubes to rank 2 (the whole splitting suite)."""
    reports = verifier.run_suite("splitting")
    assert all(r.ok for r in reports), [r.name for r in reports if not r.ok]


def test_criterion_4_counting_closed_forms_and_recurrences():
    """Spot values and the binomial recurrences agree out to n = 20,
    in well under a second."""
    t0 = time.monotonic()
    assert [a_count(n) for n in (1, 2, 3, 4, 5)] == [0, 1, 7, 35, 155]
    assert [c_count(n) for n in (1, 2, 3, 4)] == [0, 1, 4, 13]
    assert [d_count(n) for n in (1, 2, 3, 4)] == [0, 1, 14, 140]
    assert [k_count(n) for n in (1, 2, 3, 4)] == [0, 1, 11, 90]
    assert n_central_product(2, 1, 2) == 2
    assert n_central_product(3, 2, 3) == 79
    assert n_central_product(4, 1, 2) == 36 == n_lower_bound_su2(4)
    assert count_types(3, (2,)) == 8
    assert strata_counts(3, (2,)) == [4, 3, 0, 1]
    for n in range(1, 21):
        assert c_via_recurrence(n) == c_count(n)
        assert k_via_recurrence(n) == k_count(n)
    assert time.monotonic() - t0 < 1.0


def test_criterion_5_psi_realizes_exactly_the_rank_two_types():
    """Over a thousand randomized constructions hit every realizable
    sign matrix for n = 2, 3, 4 within 1e-9, every unrealizable matrix
    is refused at every base position, and the SO(3) classifier is
    invariant under lifts and conjugation across a thousand cases."""
    total = 0
    for n, seed in ((2, 101), (3, 102), (4, 103)):
        out = psi_sweep(n, 340, seed)  # covers all realizable types first
        total += out["runs"]
        assert out["failures"] == 0
        assert out["max_commutator_defect"] < 1e-9
    assert total >= 1000
    assert psi_refusals(2) == {"matrices": 0, "refused": 0}
    assert psi_refusals(3) == {"matrices": 0, "refused": 0}
    assert psi_refusals(4) == {"matrices": 28, "refused": 28}
    assert so3_invariance(1000, seed=104)["failures"] == 0


def test_criterion_6_eilenberg_maclane_table_matches_the_engine():
    """The symplectic homotopy table equals engine homology of the
    conjugation quotient in every positive even degree, n = 1..4."""
    for n in (1, 2, 3, 4):
        em = em_decomposition("Sp", n)
        h = homology(normalized_chains(catalog.torus_conj_quotient(n)))
        for two_i in range(2, max(em.top, h.top) + 1, 2):
            assert em[two_i] == h[two_i], (n, two_i)


def test_criterion_7_engine_self_checks():
    """Normal-form axioms on a thousand random matrices, boundary and
    mod-p consistency across the whole catalog, and the suspension
    degree shift on five fixtures."""
    assert check_snf(runs=1000, seed=77).ok
    assert check_simplicial().ok
    fixtures = [
        catalog.sphere_chain(2),
        catalog.rp_chain(3),
        catalog.stunted_projective(4, 2),
        normalized_chains(catalog.minimal_torus(2)),
        normalized_chains(catalog.smash_factor(2)),
    ]
    for C in fixtures:
        shifted = GradedGroup.of(AbelianGroup.trivial(), *reduced_homology(C).groups)
        assert reduced_homology(suspend(C)) == shifted
