"""Count formulas, recurrences, type enumeration, closed-form tables."""

from fractions import Fraction
from math import comb

import oracles
import pytest

from repspace import catalog, counting
from repspace.abelian import AbelianGroup, GradedGroup, IntMatrix
from repspace.engine import homology
from repspace.errors import NotPrime, ResourceGuard
from repspace.simplicial import normalized_chains

Z2 = (2,)
Z3 = (3,)

Z = AbelianGroup.free


def T(r, *ds):
    return AbelianGroup.from_factors(r, ds)


# -- closed forms ------------------------------------------------------------


def test_a_count_fixed_values():
    assert [counting.a_count(n) for n in (1, 2, 3, 4, 5)] == [0, 1, 7, 35, 155]


def test_c_count_fixed_values():
    assert [counting.c_count(n) for n in (1, 2, 3, 4)] == [0, 1, 4, 13]


def test_d_count_fixed_values():
    assert [counting.d_count(n) for n in (1, 2, 3, 4)] == [0, 1, 14, 140]


def test_k_count_fixed_values():
    # K(4) = 2401/24 - 243/24 + 2/24 = 2160/24, exactly integral
    assert [counting.k_count(n) for n in (1, 2, 3, 4)] == [0, 1, 11, 90]


def test_recurrences_agree_with_closed_forms():
    for n in range(1, 21):
        assert counting.c_count(n) == counting.c_via_recurrence(n), n
        assert counting.k_count(n) == counting.k_via_recurrence(n), n


def test_binomial_transforms():
    for n in range(1, 21):
        assert (
            sum(comb(n, r) * counting.c_count(r) for r in range(1, n + 1))
            == counting.a_count(n)
        )
        assert (
            sum(comb(n, r) * counting.k_count(r) for r in range(1, n + 1))
            == counting.d_count(n)
        )


def test_n_central_product():
    assert counting.n_central_product(2, 1, 2) == 2
    assert counting.n_central_product(3, 1, 2) == 8
    assert counting.n_central_product(2, 2, 2) == 2
    assert counting.n_central_product(3, 2, 3) == 3 * 26 * 8 // 8 + 1
    with pytest.raises(NotPrime):
        counting.n_central_product(3, 1, 4)
    with pytest.raises(ValueError):
        counting.n_central_product(1, 1, 2)
    with pytest.raises(ValueError):
        counting.n_central_product(2, 0, 2)


def test_integer_closed_forms_match_the_rational_ones():
    for n in range(1, 201):
        assert counting.a_count(n) == oracles.a_count_fraction(n)
        assert counting.c_count(n) == oracles.c_count_fraction(n)
        assert counting.k_count(n) == oracles.k_count_fraction(n)
    for n in range(2, 201):
        for m, p in ((1, 2), (2, 2), (1, 3), (2, 3), (3, 5)):
            got = counting.n_central_product(n, m, p)
            assert got == oracles.n_central_product_fraction(n, m, p), (n, m, p)
            assert type(got) is int


@pytest.mark.parametrize("num, den", [(7, 3), (4, 6), (-4, 6), (2**70 + 1, 24)])
def test_a_planted_non_integer_raises(num, den):
    # the message names the quotient in lowest terms, as a Fraction prints it
    message = f"planted evaluated to non-integer {Fraction(num, den)}"
    with pytest.raises(AssertionError) as err:
        counting._exact_quotient(num, den, "planted")
    assert str(err.value) == message


def test_counts_reject_bad_n():
    for fn in (
        counting.a_count,
        counting.c_count,
        counting.d_count,
        counting.k_count,
        counting.n_lower_bound_su2,
    ):
        with pytest.raises(ValueError):
            fn(0)


# -- type matrices -----------------------------------------------------------


def test_count_and_enumerate_types():
    assert oracles.count_types(3, Z2) == 8
    assert oracles.count_types(2, Z2) == 2
    assert len(counting.enumerate_types(2, Z3)) == 3
    assert len(counting.enumerate_types(3, Z2)) == 8
    assert len(counting.enumerate_types(2, (2, 2))) == 4


def test_enumerate_types_are_antisymmetric_and_distinct():
    seen = set()
    for C in counting.enumerate_types(3, Z3):
        seen.add(C.entries)
        for i in range(3):
            assert C.entries[i][i] == (0,)
            for j in range(3):
                a, b = C.entries[i][j][0], C.entries[j][i][0]
                assert (a + b) % 3 == 0
    assert len(seen) == 27


def test_enumeration_guard():
    with pytest.raises(ResourceGuard, match=r"^2\^21 type matrices"):
        counting.enumerate_types(7, Z2)
    with pytest.raises(ResourceGuard, match=r"^2\^19900 type matrices"):
        counting.enumerate_types(200, Z2)
    with pytest.raises(ResourceGuard):
        counting.strata_counts(7, Z2)


def test_strata_counts():
    assert counting.strata_counts(2, Z2) == [1, 0, 1]
    assert counting.strata_counts(3, Z2) == [4, 3, 0, 1]
    for r in (2, 3, 4):
        for K in (Z2, Z3):
            got = counting.strata_counts(r, K)
            assert sum(got) == oracles.count_types(r, K)
            assert got[r - 1] == 0
            assert got[r] == 1


def test_identity_rows():
    types = counting.enumerate_types(2, Z2)
    trivial = [C for C in types if len(C.identity_rows()) == 2]
    assert len(trivial) == 1


def test_type_matrix_validation():
    with pytest.raises(ValueError, match="diagonal"):
        counting.TypeMatrix(1, Z2, (((1,),),))
    with pytest.raises(ValueError, match="disagree"):
        counting.TypeMatrix(
            2, Z3, (((0,), (1,)), ((1,), (0,)))
        )


def f2_rank(rows):
    return oracles.rank_mod_p(IntMatrix.from_rows(rows), 2)


def test_f2_rank():
    assert f2_rank([[0, 1], [1, 0]]) == 2
    assert f2_rank([[0, 0], [0, 0]]) == 0
    assert f2_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2


def test_su2_lower_bound_is_the_rank_two_count():
    # brute force: realizable sign types are exactly the alternating F2
    # forms of rank <= 2, and 1 + a_count(n) counts them
    assert [counting.n_lower_bound_su2(n) for n in (1, 2, 3, 4)] == [
        1,
        2,
        8,
        36,
    ]
    for n in (2, 3, 4):
        low = 0
        for C in counting.enumerate_types(n, Z2):
            rows = [[C.entries[i][j][0] for j in range(n)] for i in range(n)]
            if f2_rank(rows) <= 2:
                low += 1
        assert low == counting.n_lower_bound_su2(n), n


# -- closed-form tables ------------------------------------------------------


def test_r_of():
    assert counting.r_of(3, 2) == 1
    assert counting.r_of(3, 1) == 4
    assert counting.r_of(4, 4) == 0
    assert counting.r_of(4, 2) == 5
    assert counting.r_of(3, 0) == 0
    assert counting.r_of(3, 5) == 0


def test_conj_quotient_closed_form_small():
    assert counting.conj_quotient_homology(1) == GradedGroup.of(Z(1))
    assert counting.conj_quotient_homology(2) == GradedGroup.of(
        Z(1), Z(0), Z(1)
    )
    assert counting.conj_quotient_homology(3) == GradedGroup.of(
        Z(1), Z(0), T(3, 2)
    )
    assert counting.conj_quotient_homology(4) == GradedGroup.of(
        Z(1), Z(0), T(6, 2, 2, 2, 2, 2), Z(0), Z(1)
    )


def test_closed_form_matches_engine():
    for n in (1, 2, 3):
        got = homology(normalized_chains(catalog.torus_conj_quotient(n)))
        assert got == counting.conj_quotient_homology(n), n


def test_em_decomposition_tables():
    u2 = counting.em_decomposition("U", 2)
    assert u2[1] == Z(2) and u2[2] == Z(1) and u2[0].is_trivial
    su2 = counting.em_decomposition("SU", 2)
    assert su2[1].is_trivial and su2[2] == Z(1)
    sp3 = counting.em_decomposition("Sp", 3)
    assert sp3[2] == T(3, 2)
    assert sp3[1].is_trivial and sp3[3].is_trivial
    sp4 = counting.em_decomposition("Sp", 4)
    assert sp4[2] == T(6, 2, 2, 2, 2, 2)
    assert sp4[4] == Z(1)
    with pytest.raises(ValueError):
        counting.em_decomposition("SO", 2)
