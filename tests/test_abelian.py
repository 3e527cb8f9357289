import random
import time

import pytest

from oracles import homology_by_minors, invariant_factor_chain, snf_diagonal_by_minors
from repspace.abelian import (
    AbelianGroup,
    GradedGroup,
    IntMatrix,
    cokernel,
    determinant,
    invariant_factors,
    rank,
    smith_normal_form,
)
from repspace.engine import ChainComplex, homology
from repspace.errors import CompositionNotZero


def snf_props(M):
    U, D, V = smith_normal_form(M)
    assert U.shape == (M.rows, M.rows)
    assert V.shape == (M.cols, M.cols)
    assert D.shape == M.shape
    assert U.mul(M).mul(V) == D
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
    for (r, c), v in D.entries.items():
        assert r == c and v
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz, "zero entries must come last"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return diag


def test_snf_identity():
    M = IntMatrix.identity(2)
    U, D, V = smith_normal_form(M)
    assert U == IntMatrix.identity(2)
    assert V == IntMatrix.identity(2)
    assert D == M


def test_snf_frozen_example():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    diag = snf_props(M)
    assert diag == [2, 4]
    assert snf_diagonal_by_minors([[2, 4], [6, 8]]) == [2, 4]


def test_snf_zero_1x1():
    _, D, _ = smith_normal_form(IntMatrix.zero(1, 1))
    assert D.to_rows() == [[0]]


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        M = IntMatrix.zero(*shape)
        snf_props(M)
        assert invariant_factors(M) == []


def test_snf_random_small_matrices():
    rng = random.Random(20240)
    for _ in range(300):
        r = rng.randint(0, 6)
        c = rng.randint(0, 6)
        M = IntMatrix(
            r,
            c,
            {
                (i, j): rng.randint(-5, 5)
                for i in range(r)
                for j in range(c)
            },
        )
        diag = snf_props(M)
        nz = [d for d in diag if d]
        assert nz == snf_diagonal_by_minors(M.to_rows())
        assert invariant_factors(M) == nz
        assert rank(M) == len(nz)


def test_invariant_factors_nonunit_pivots():
    # no ±1 entries anywhere, so the remainder-reduction path is exercised
    M = IntMatrix.from_rows([[6, 10], [15, 4]])
    assert invariant_factors(M) == snf_diagonal_by_minors([[6, 10], [15, 4]])
    M = IntMatrix.diagonal([4, 6, 10])
    assert invariant_factors(M) == [2, 2, 60]
    rng = random.Random(4610)
    values = (0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 10, -10)
    for _ in range(300):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
        assert invariant_factors(IntMatrix.from_rows(rows)) == (
            snf_diagonal_by_minors(rows)
        ), rows


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2]])) == AbelianGroup(0, (2,))
    assert cokernel(IntMatrix.zero(1, 1)) == AbelianGroup(1)
    assert cokernel(IntMatrix.diagonal([1, 2, 0])) == AbelianGroup(1, (2,))
    # cokernel of a map into rank 0 is trivial
    assert cokernel(IntMatrix.zero(0, 3)).is_trivial


def test_cokernel_invariances():
    rng = random.Random(7)
    for _ in range(50):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        base = cokernel(IntMatrix.from_rows(rows))
        perm_r = rng.sample(range(r), r)
        perm_c = rng.sample(range(c), c)
        rsign = [rng.choice((-1, 1)) for _ in range(r)]
        csign = [rng.choice((-1, 1)) for _ in range(c)]
        shuffled = [
            [rows[i][j] * rsign[i] * csign[j] for j in perm_c] for i in perm_r
        ]
        assert cokernel(IntMatrix.from_rows(shuffled)) == base


def homology_of_pair(d_k, d_k1):
    """ker d_k / im d_k1, as the middle degree of a three-term complex."""
    C = ChainComplex([d_k.rows, d_k.cols, d_k1.cols], [d_k, d_k1])
    return homology(C)[1]


def test_homology_of_pair_examples():
    # circle: one vertex, one edge, zero boundary
    circle = homology_of_pair(IntMatrix.zero(1, 1), IntMatrix.zero(1, 0))
    assert circle == AbelianGroup(1)
    # RP^2 cellular: d1 = 0, d2 = [2]
    assert homology_of_pair(
        IntMatrix.zero(1, 1), IntMatrix.from_rows([[2]])
    ) == AbelianGroup(0, (2,))
    # RP^3 cellular in degree 3: d3 = [0], nothing above
    assert homology_of_pair(
        IntMatrix.zero(1, 1), IntMatrix.zero(1, 0)
    ) == AbelianGroup(1)


def test_homology_of_pair_rejects_bad_chain():
    with pytest.raises(CompositionNotZero):
        homology_of_pair(
            IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])
        )
    with pytest.raises(ValueError):
        homology_of_pair(IntMatrix.zero(1, 2), IntMatrix.zero(3, 1))


def rp_boundaries(n):
    """Cellular boundaries of RP^n: one cell per degree, d_j = 1 + (-1)^j."""
    return [
        IntMatrix.from_rows([[1 + (-1) ** j]]) for j in range(1, n + 1)
    ]


def test_classical_cellular_answers():
    # spheres S^n, n <= 4: two cells, both boundaries zero
    for n in range(1, 5):
        ds = [IntMatrix.zero(1, 0)] * (n + 1)
        ds[0] = IntMatrix.zero(1, 1) if n == 1 else IntMatrix.zero(1, 0)
        # degree n: d_n into rank (1 if n == 1 else 0), d_{n+1} = 0
        if n == 1:
            top = homology_of_pair(IntMatrix.zero(1, 1), IntMatrix.zero(1, 0))
        else:
            top = homology_of_pair(IntMatrix.zero(0, 1), IntMatrix.zero(1, 0))
        assert top == AbelianGroup(1), f"H_{n}(S^{n})"
    # tori T^n, n <= 4: tensor of circle complexes has zero differentials,
    # rank C(n, k) in degree k
    from math import comb

    for n in range(1, 5):
        for k in range(n + 1):
            nk = comb(n, k)
            got = homology_of_pair(
                IntMatrix.zero(comb(n, k - 1) if k else 0, nk),
                IntMatrix.zero(nk, comb(n, k + 1)),
            )
            assert got == AbelianGroup(nk), f"H_{k}(T^{n})"
    # projective spaces RP^n, n <= 4
    expect = {
        1: [AbelianGroup(1), AbelianGroup(1)],
        2: [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0)],
        3: [
            AbelianGroup(1),
            AbelianGroup(0, (2,)),
            AbelianGroup(0),
            AbelianGroup(1),
        ],
        4: [
            AbelianGroup(1),
            AbelianGroup(0, (2,)),
            AbelianGroup(0),
            AbelianGroup(0, (2,)),
            AbelianGroup(0),
        ],
    }
    for n, table in expect.items():
        ds = rp_boundaries(n)
        for k in range(n + 1):
            dk = ds[k - 1] if k >= 1 else IntMatrix.zero(0, 1)
            dk1 = ds[k] if k < n else IntMatrix.zero(1, 0)
            assert homology_of_pair(dk, dk1) == table[k], f"H_{k}(RP^{n})"
        # and against the minors oracle
        for k in range(n + 1):
            dk_rows = ds[k - 1].to_rows() if k >= 1 else []
            dk1_rows = ds[k].to_rows() if k < n else []
            free, tors = homology_by_minors(1, dk_rows, dk1_rows)
            assert table[k] == AbelianGroup.from_factors(free, tors)


def test_abelian_group_normal_form():
    assert AbelianGroup.from_factors(0, [6, 4]) == AbelianGroup(0, (2, 12))
    assert AbelianGroup.from_factors(2, [1, 1]) == AbelianGroup(2)
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_divisor_chain_matches_primary_decomposition():
    rng = random.Random(2026)
    for _ in range(2000):
        values = [
            rng.choice((-1, 1)) * rng.randint(1, 1000)
            for _ in range(rng.randint(0, 8))
        ]
        got = AbelianGroup.from_factors(0, values).torsion
        assert list(got) == invariant_factor_chain(values), values


def test_divisor_chain_of_a_chain_is_one_pass():
    start = time.perf_counter()
    g = AbelianGroup.from_factors(0, (2,) * 100_000 + (4,))
    assert time.perf_counter() - start < 5
    assert g.torsion == (2,) * 100_000 + (4,)


def test_abelian_group_display_and_json():
    g = AbelianGroup(3, (2, 2, 4))
    assert str(g) == "Z^3 ⊕ (Z/2)^2 ⊕ Z/4"
    assert str(AbelianGroup.trivial()) == "0"
    assert str(AbelianGroup(1, (2,))) == "Z ⊕ Z/2"
    assert AbelianGroup.from_json(g.to_json()) == g


def test_graded_group_trim_and_sum():
    g = GradedGroup.of(AbelianGroup(1), AbelianGroup.trivial(), AbelianGroup.trivial())
    assert len(g) == 1
    assert g[5].is_trivial
    h = GradedGroup.of(AbelianGroup(0, (2,)), AbelianGroup(1))
    s = g.direct_sum(h)
    assert s[0] == AbelianGroup(1, (2,))
    assert s[1] == AbelianGroup(1)
    assert s.times(2)[0] == AbelianGroup(2, (2, 2))
    assert h.shift(2)[2] == AbelianGroup(0, (2,))
    assert GradedGroup.from_json(s.to_json()) == s
    assert str(g) == "(Z)"


def test_entry_growth_regression():
    # dense matrix with awkward gcd structure; exact arithmetic keeps it honest
    rng = random.Random(99)
    rows = [[rng.randint(-40, 40) * 6 for _ in range(6)] for _ in range(6)]
    M = IntMatrix.from_rows(rows)
    assert invariant_factors(M) == snf_diagonal_by_minors(rows)
    snf_props(M)
