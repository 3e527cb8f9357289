"""SU(2) numerics: quaternions, sign matrices, the explicit constructor."""

import math
import random

import pytest

import oracles
from repspace import counting, su2
from repspace.errors import (
    BadBasePair,
    NotAlmostCommuting,
    NotCommutingInSO3,
    TypeMismatch,
)
from repspace.su2 import (
    I,
    J,
    ONE,
    SignMatrix,
    classify_so3_tuple,
    commutator_type,
    max_commutator_defect,
    psi_construct,
    random_torus_tuple,
)

K = (0.0, 0.0, 0.0, 1.0)
MINUS_ONE = (-1.0, 0.0, 0.0, 0.0)


def sign_matrix(rows):
    return SignMatrix(len(rows), tuple(map(tuple, rows)))


def type_to_sign(C):
    """counting.TypeMatrix over Z/2 -> multiplicative SignMatrix."""
    return sign_matrix(
        [
            [1 if C.entries[i][j] == (0,) else -1 for j in range(C.n)]
            for i in range(C.n)
        ]
    )


def anticommuting_pair(rng):
    """A random conjugate of (i, j); exactly anticommuting up to drift."""
    g = su2.random_unit(rng)
    gi = su2.inverse(g)
    return su2.conjugate(g, I, gi), su2.conjugate(g, J, gi)


# -- quaternion arithmetic vs the exact oracle -------------------------------


def test_float_products_match_exact_oracle():
    rng = random.Random(7)
    basis = [
        (ONE, oracles.Q_ONE),
        (I, oracles.Q_I),
        (J, oracles.Q_J),
        (K, oracles.Q_K),
    ]
    for _ in range(200):
        word = [rng.randrange(4) for _ in range(rng.randrange(1, 6))]
        f = ONE
        e = oracles.Q_ONE
        for idx in word:
            f = su2._unit_product(f, basis[idx][0])
            e = e * basis[idx][1]
        for got, want in zip(f, e.tuple()):
            assert abs(got - float(want)) < 1e-12


def test_unit_quaternion_normalizes():
    w, x, y, z = su2._unit(3.0, 4.0, 0.0, 0.0)
    assert abs(w - 0.6) < 1e-15 and abs(x - 0.8) < 1e-15 and y == z == 0.0
    nan, inf = float("nan"), float("inf")
    for args in (
        (1e-9, 0.0, 0.0, 0.0),
        (nan, 0.0, 0.0, 0.0),
        (0.0, 0.0, nan, 1.0),
        (inf, 0.0, 0.0, 0.0),
        (1.0, -inf, 0.0, 0.0),
        (1e200, 0.0, 0.0, 0.0),  # the squared norm overflows
    ):
        with pytest.raises(ValueError):
            su2._unit(*args)


def test_central_sign_matches_the_four_product_commutator():
    # The kernel reads the commutator's sign and distance off ab ∓ ba; the
    # oracle multiplies a·b·a⁻¹·b⁻¹ on its own float quaternions, each
    # product renormalized, and measures the distance from the nearer of ±1.
    rng = random.Random(20261018)
    signs = set()
    for _ in range(1000):
        a = oracles.QFloat(*(rng.gauss(0, 1) for _ in range(4)))
        b = oracles.QFloat(*(rng.gauss(0, 1) for _ in range(4)))
        q = (a * b * a.inverse() * b.inverse()).tuple()
        want = 1 if q[0] >= 0 else -1
        sign, dist = su2._central_sign(a.tuple(), b.tuple())
        assert sign == want
        assert abs(dist - math.dist(q, (want, 0.0, 0.0, 0.0))) < 1e-15
        signs.add(sign)
    assert signs == {1, -1}


def test_commutator_fixtures():
    # [i, j] = iji⁻¹j⁻¹ = -1, exactly, per the rational oracle
    assert oracles.Q_I.commutator(oracles.Q_J) == oracles.QFrac(-1)
    assert su2._central_sign(I, J) == (-1, 0.0)
    assert su2._central_sign(I, I) == (1, 0.0)
    assert su2._central_sign(I, su2.neg(I)) == (1, 0.0)


def test_powers_and_inverse():
    assert math.dist(su2._unit_product(I, I), MINUS_ONE) < 1e-15
    assert math.dist(su2._unit_product(su2._unit_product(I, I), I), su2.neg(I)) < 1e-15
    assert su2.inverse(I) == su2.neg(I)
    assert math.dist(su2._unit_product(I, su2.inverse(I)), ONE) < 1e-15


# -- sign matrices -----------------------------------------------------------


def test_sign_matrix_validation():
    with pytest.raises(ValueError, match="diagonal"):
        sign_matrix([[-1]])
    with pytest.raises(ValueError, match="symmetric"):
        sign_matrix([[1, 1], [-1, 1]])
    with pytest.raises(ValueError, match="±1"):
        sign_matrix([[1, 0], [0, 1]])


def test_sign_matrix_rank_and_realizability():
    flat = sign_matrix([[1, 1], [1, 1]])
    assert oracles.sign_f2_rank(flat) == 0 and oracles.is_realizable(flat)
    pair = sign_matrix([[1, -1], [-1, 1]])
    assert oracles.sign_f2_rank(pair) == 2 and oracles.is_realizable(pair)
    quad = sign_matrix(
        [
            [1, -1, 1, 1],
            [-1, 1, 1, 1],
            [1, 1, 1, -1],
            [1, 1, -1, 1],
        ]
    )
    assert oracles.sign_f2_rank(quad) == 4 and not oracles.is_realizable(quad)


# -- commutator_type ---------------------------------------------------------


def test_commutator_type_fixtures():
    assert commutator_type((I, J)) == sign_matrix([[1, -1], [-1, 1]])
    assert commutator_type([I, J, K]) == sign_matrix(
        [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    )
    squared = su2._unit_product(I, I)
    powers = (I, squared, su2._unit_product(squared, I))
    assert commutator_type(powers) == sign_matrix([[1] * 3] * 3)


def test_commutator_type_rejects_generic_pairs():
    skew = su2._unit(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(NotAlmostCommuting) as info:
        commutator_type((I, skew))
    assert (info.value.i, info.value.j) == (0, 1)
    assert info.value.distance > 0.1


def test_torus_tuples_have_trivial_type():
    for seed in (0, 1, 17, 123):
        t = random_torus_tuple(4, seed)
        assert commutator_type(t) == sign_matrix([[1] * 4] * 4)
        assert max_commutator_defect(t) < 1e-12
    a = random_torus_tuple(3, 5)
    b = random_torus_tuple(3, 6)
    assert any(math.dist(x, y) > 1e-6 for x, y in zip(a, b))


# -- the psi constructor -----------------------------------------------------


def test_psi_identity_case():
    C = sign_matrix([[1, -1], [-1, 1]])
    t = psi_construct(I, J, [], C, 0, 1)
    assert t == [I, J]
    assert commutator_type(t) == C


def test_psi_trivial_extension():
    C = sign_matrix([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
    t = psi_construct(I, J, [1], C, 0, 1)
    assert math.dist(t[2], ONE) < 1e-15
    assert commutator_type(t) == C


def test_psi_full_extension_gives_k():
    C = sign_matrix([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    t = psi_construct(I, J, [1], C, 0, 1)
    assert math.dist(t[2], K) < 1e-15
    assert commutator_type(t) == C
    t_neg = psi_construct(I, J, [-1], C, 0, 1)
    assert math.dist(t_neg[2], su2.neg(K)) < 1e-15
    assert commutator_type(t_neg) == C


def test_psi_error_contract():
    C = sign_matrix([[1, -1], [-1, 1]])
    with pytest.raises(BadBasePair):
        psi_construct(I, su2.neg(I), [], C, 0, 1)
    flat = sign_matrix([[1, 1], [1, 1]])
    with pytest.raises(TypeMismatch):
        psi_construct(I, J, [], flat, 0, 1)
    rank4 = sign_matrix(
        [
            [1, -1, 1, 1],
            [-1, 1, 1, 1],
            [1, 1, 1, -1],
            [1, 1, -1, 1],
        ]
    )
    with pytest.raises(TypeMismatch):
        psi_construct(I, J, [1, 1], rank4, 0, 1)
    with pytest.raises(ValueError, match="signs"):
        psi_construct(I, J, [1], C, 0, 1)


def test_psi_realizes_every_rank_two_type():
    # the executable content of the component lower bound: realizable
    # types are witnessed, the rest refuse on every admissible base pair
    rng = random.Random(42)
    witnessed = 0
    refused = 0
    for n in (2, 3, 4):
        for TC in counting.enumerate_types(n, (2,)):
            C = type_to_sign(TC)
            pairs = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and C.entries[i][j] == -1
            ]
            if oracles.is_realizable(C):
                if not pairs:
                    t = random_torus_tuple(n, rng.randrange(2**32))
                    assert commutator_type(t) == C
                    witnessed += 1
                    continue
                i, j = pairs[rng.randrange(len(pairs))]
                x_i, x_j = anticommuting_pair(rng)
                w = [rng.choice((1, -1)) for _ in range(n - 2)]
                t = psi_construct(x_i, x_j, w, C, i, j)
                assert commutator_type(t) == C
                assert max_commutator_defect(t) < 1e-9
                witnessed += 1
            else:
                assert pairs, "unrealizable types have anticommuting pairs"
                for i, j in pairs:
                    x_i, x_j = anticommuting_pair(rng)
                    with pytest.raises(TypeMismatch):
                        psi_construct(x_i, x_j, [1] * (n - 2), C, i, j)
                refused += 1
    assert witnessed == sum(counting.n_lower_bound_su2(n) for n in (2, 3, 4))
    assert refused == 64 - counting.n_lower_bound_su2(4)


def test_conjugation_preserves_type():
    rng = random.Random(9)
    C = sign_matrix([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    base = psi_construct(I, J, [1], C, 0, 1)
    for _ in range(50):
        g = su2.random_unit(rng)
        gi = su2.inverse(g)
        assert commutator_type([su2.conjugate(g, x, gi) for x in base]) == C
    assert math.dist(su2.conjugate(ONE, base[0], ONE), I) < 1e-12


# -- SO(3) classification ----------------------------------------------------


def test_classify_so3_fixtures():
    assert classify_so3_tuple(random_torus_tuple(3, 2)) == (
        sign_matrix([[1] * 3] * 3)
    )
    # π-rotations about orthogonal axes commute in SO(3); lifts anticommute
    assert classify_so3_tuple((I, J)) == sign_matrix([[1, -1], [-1, 1]])


def test_classify_so3_rejects_noncommuting_rotations():
    quarter = su2._unit(1.0, 0.0, 1.0, 0.0)  # π/2 about the y axis
    with pytest.raises(NotCommutingInSO3):
        classify_so3_tuple((I, quarter))


def test_classify_so3_lift_sign_and_conjugation_invariance():
    rng = random.Random(31)
    for _ in range(100):
        x, y = anticommuting_pair(rng)
        base = (x, y, su2._unit_product(x, y) if rng.random() < 0.5 else ONE)
        want = classify_so3_tuple(base)
        flip = rng.randrange(3)
        flipped = tuple(
            su2.neg(q) if t == flip else q for t, q in enumerate(base)
        )
        assert classify_so3_tuple(flipped) == want
        g = su2.random_unit(rng)
        gi = su2.inverse(g)
        moved = tuple(su2.conjugate(g, q, gi) for q in base)
        assert classify_so3_tuple(moved) == want
