"""SU(2) numerics: quaternions, sign matrices, the explicit constructor."""

import copy
import pickle
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
    K,
    MINUS_ONE,
    ONE,
    SU2Tuple,
    SignMatrix,
    UnitQuaternion,
    classify_so3_tuple,
    commutator,
    commutator_type,
    conjugate_tuple,
    max_commutator_defect,
    psi_construct,
    random_torus_tuple,
    random_unit_quaternion,
)


def sign_matrix(rows):
    return SignMatrix.from_rows(rows)


def type_to_sign(C):
    """counting.TypeMatrix over Z/2 -> multiplicative SignMatrix."""
    return sign_matrix(
        [
            [1 if C.entry(i, j) == (0,) else -1 for j in range(C.n)]
            for i in range(C.n)
        ]
    )


def anticommuting_pair(rng):
    """A random conjugate of (i, j); exactly anticommuting up to drift."""
    g = random_unit_quaternion(rng)
    gi = g.inverse()
    return g * I * gi, g * J * gi


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
            f = f * basis[idx][0]
            e = e * basis[idx][1]
        for got, want in zip(
            (f.w, f.x, f.y, f.z), (e.w, e.x, e.y, e.z)
        ):
            assert abs(got - float(want)) < 1e-12


def test_unit_quaternion_normalizes():
    q = UnitQuaternion(3.0, 4.0, 0.0, 0.0)
    assert abs(q.w - 0.6) < 1e-15 and abs(q.x - 0.8) < 1e-15
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
            UnitQuaternion(*args)


def test_unit_quaternion_is_an_immutable_value():
    q = UnitQuaternion(3.0, 4.0, 0.0, 0.0)
    assert (q.w, q.x, q.y, q.z) == (0.6, 0.8, 0.0, 0.0)
    with pytest.raises(AttributeError):
        q.w = 1.0
    with pytest.raises(AttributeError):
        q.extra = 1.0
    with pytest.raises(AttributeError):
        del q.x
    assert q == UnitQuaternion(0.6, 0.8, 0.0, 0.0)
    assert q != I and q != (0.6, 0.8, 0.0, 0.0)
    assert len({q, UnitQuaternion(3.0, 4.0, 0.0, 0.0), I}) == 2
    assert repr(q) == "UnitQuaternion(w=0.6, x=0.8, y=0.0, z=0.0)"
    assert pickle.loads(pickle.dumps(q)) == q
    assert copy.deepcopy(q) == q


def test_commutator_equals_the_product_of_four_quaternions():
    # The 4-tuple commutator must reproduce the object route bit for bit.
    rng = random.Random(20261018)
    for _ in range(1000):
        a = random_unit_quaternion(rng)
        b = random_unit_quaternion(rng)
        got = commutator(a, b)
        want = a * b * a.inverse() * b.inverse()
        assert (got.w, got.x, got.y, got.z) == (want.w, want.x, want.y, want.z)


def test_commutator_fixtures():
    # [i, j] = iji⁻¹j⁻¹ = -1, exactly, per the rational oracle
    assert oracles.Q_I.commutator(oracles.Q_J) == oracles.QFrac(-1)
    assert commutator(I, J).distance(MINUS_ONE) < 1e-15
    assert commutator(I, I).distance(ONE) < 1e-15


def test_powers_and_inverse():
    assert I.power(2).distance(MINUS_ONE) < 1e-15
    assert I.power(0).distance(ONE) < 1e-15
    assert I.power(-1).distance(I.inverse()) < 1e-15
    assert (I * I.inverse()).distance(ONE) < 1e-15


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
    assert oracles.sign_f2_rank(flat) == 0 and flat.is_realizable()
    pair = sign_matrix([[1, -1], [-1, 1]])
    assert oracles.sign_f2_rank(pair) == 2 and pair.is_realizable()
    quad = sign_matrix(
        [
            [1, -1, 1, 1],
            [-1, 1, 1, 1],
            [1, 1, 1, -1],
            [1, 1, -1, 1],
        ]
    )
    assert oracles.sign_f2_rank(quad) == 4 and not quad.is_realizable()


# -- commutator_type ---------------------------------------------------------


def test_commutator_type_fixtures():
    assert commutator_type(SU2Tuple((I, J))) == sign_matrix(
        [[1, -1], [-1, 1]]
    )
    assert commutator_type(SU2Tuple((I, J, K))) == sign_matrix(
        [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    )
    powers = SU2Tuple((I, I * I, I.power(3)))
    assert commutator_type(powers) == sign_matrix([[1] * 3] * 3)


def test_commutator_type_rejects_generic_pairs():
    skew = UnitQuaternion(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(NotAlmostCommuting) as info:
        commutator_type(SU2Tuple((I, skew)))
    assert (info.value.i, info.value.j) == (0, 1)
    assert info.value.distance > 0.1


def test_torus_tuples_have_trivial_type():
    for seed in (0, 1, 17, 123):
        t = random_torus_tuple(4, seed)
        assert commutator_type(t) == sign_matrix([[1] * 4] * 4)
        assert max_commutator_defect(t) < 1e-12
    a = random_torus_tuple(3, 5)
    b = random_torus_tuple(3, 6)
    assert any(
        x.distance(y) > 1e-6 for x, y in zip(a.elements, b.elements)
    )


# -- the psi constructor -----------------------------------------------------


def test_psi_identity_case():
    C = sign_matrix([[1, -1], [-1, 1]])
    t = psi_construct(I, J, [], C, 0, 1)
    assert t.elements == (I, J)
    assert commutator_type(t) == C


def test_psi_trivial_extension():
    C = sign_matrix([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
    t = psi_construct(I, J, [1], C, 0, 1)
    assert t.elements[2].distance(ONE) < 1e-15
    assert commutator_type(t) == C


def test_psi_full_extension_gives_k():
    C = sign_matrix([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    t = psi_construct(I, J, [1], C, 0, 1)
    assert t.elements[2].distance(K) < 1e-15
    assert commutator_type(t) == C
    t_neg = psi_construct(I, J, [-1], C, 0, 1)
    assert t_neg.elements[2].distance(K.neg()) < 1e-15
    assert commutator_type(t_neg) == C


def test_psi_error_contract():
    C = sign_matrix([[1, -1], [-1, 1]])
    with pytest.raises(BadBasePair):
        psi_construct(I, I.power(3), [], C, 0, 1)
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
                if i != j and C.entry(i, j) == -1
            ]
            if C.is_realizable():
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
        g = random_unit_quaternion(rng)
        assert commutator_type(conjugate_tuple(g, base)) == C
    assert conjugate_tuple(ONE, base).elements[0].distance(I) < 1e-12


# -- SO(3) classification ----------------------------------------------------


def test_classify_so3_fixtures():
    assert classify_so3_tuple(random_torus_tuple(3, 2).elements) == (
        sign_matrix([[1] * 3] * 3)
    )
    # π-rotations about orthogonal axes commute in SO(3); lifts anticommute
    assert classify_so3_tuple((I, J)) == sign_matrix([[1, -1], [-1, 1]])


def test_classify_so3_rejects_noncommuting_rotations():
    quarter = UnitQuaternion(1.0, 0.0, 1.0, 0.0)  # π/2 about the y axis
    with pytest.raises(NotCommutingInSO3):
        classify_so3_tuple((I, quarter))


def test_classify_so3_lift_sign_and_conjugation_invariance():
    rng = random.Random(31)
    for _ in range(100):
        x, y = anticommuting_pair(rng)
        base = (x, y, (x * y) if rng.random() < 0.5 else ONE)
        want = classify_so3_tuple(base)
        flip = rng.randrange(3)
        flipped = tuple(
            q.neg() if t == flip else q for t, q in enumerate(base)
        )
        assert classify_so3_tuple(flipped) == want
        g = random_unit_quaternion(rng)
        moved = tuple(g * q * g.inverse() for q in base)
        assert classify_so3_tuple(moved) == want
