import random
import time

import pytest

from oracles import (
    homology_by_minors,
    invariant_factor_chain,
    keyed_matrix,
    rank_mod_p,
    snf_diagonal_by_minors,
)
from repspace.abelian import (
    AbelianGroup,
    GradedGroup,
    IntMatrix,
    dense_product,
    determinant,
    invariant_factors,
    smith_normal_form,
)
from repspace import catalog
from repspace.engine import ChainComplex, homology
from repspace.errors import CompositionNotZero


def snf_props(M):
    U, D, V = smith_normal_form(M)
    assert [len(row) for row in U] == [M.rows] * M.rows
    assert [len(row) for row in V] == [M.cols] * M.cols
    assert [len(row) for row in D] == [M.cols] * M.rows
    assert dense_product(dense_product(U, M.to_rows()), V) == D
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    diag = [D[i][i] for i in range(min(M.rows, M.cols))]
    for r, row in enumerate(D):
        assert all(c == r for c, v in enumerate(row) if v)
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz, "zero entries must come last"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return diag


def test_the_three_constructors_agree_and_refuse_what_lies_outside():
    M = IntMatrix.from_rows([[1, 0], [0, -2]])
    assert M == IntMatrix(2, [{0: 1, 1: 0}, {1: -2}])
    assert M.columns == [{0: 1}, {1: -2}]
    assert IntMatrix.zero(2, 3) == IntMatrix(2, [{}, {}, {}])
    for rows, columns in [(2, [{2: 1}]), (2, [{}, {-1: 1}]), (-1, [])]:
        with pytest.raises(ValueError):
            IntMatrix(rows, columns)
    with pytest.raises(TypeError):
        hash(M)


def test_snf_identity():
    U, D, V = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert U == D == V == [[1, 0], [0, 1]]


def test_snf_frozen_example():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    diag = snf_props(M)
    assert diag == [2, 4]
    assert snf_diagonal_by_minors([[2, 4], [6, 8]]) == [2, 4]


def test_snf_zero_1x1():
    _, D, _ = smith_normal_form(IntMatrix.zero(1, 1))
    assert D == [[0]]


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
        M = keyed_matrix(
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


def test_invariant_factors_nonunit_pivots():
    # no ±1 entries anywhere, so the remainder-reduction path is exercised
    M = IntMatrix.from_rows([[6, 10], [15, 4]])
    assert invariant_factors(M) == snf_diagonal_by_minors([[6, 10], [15, 4]])
    M = IntMatrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    assert invariant_factors(M) == [2, 2, 60]
    rng = random.Random(4610)
    values = (0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 10, -10)
    for _ in range(300):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
        assert invariant_factors(IntMatrix.from_rows(rows)) == (
            snf_diagonal_by_minors(rows)
        ), rows


def _check_skip_and_unit_rows(seed, values, size, runs):
    """invariant_factors(M, skip) against the Smith form of M without the
    columns skip, and the recorded unit rows against a ±1 minor."""
    rng = random.Random(seed)
    for _ in range(runs):
        r, c = rng.randint(0, size), rng.randint(0, size)
        rows = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
        skip = {j for j in range(c) if rng.random() < 0.3}
        kept = [j for j in range(c) if j not in skip]

        def diagonal(rs):
            sub = keyed_matrix(
                len(rs),
                len(kept),
                {
                    (a, b): rows[i][j]
                    for a, i in enumerate(rs)
                    for b, j in enumerate(kept)
                },
            )
            _, D, _ = smith_normal_form(sub)
            return [D[i][i] for i in range(min(sub.shape)) if D[i][i]]

        M = keyed_matrix(
            r, c, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
        )
        unit_rows = set()
        assert invariant_factors(M, skip, unit_rows) == diagonal(range(r)), (rows, skip)
        # the recorded rows carry a ±1 minor, so their own factors are all 1
        assert diagonal(sorted(unit_rows)) == [1] * len(unit_rows), (rows, skip)


def test_skip_gives_the_factors_of_the_column_deleted_matrix():
    _check_skip_and_unit_rows(5150, (0, 0, 1, -1, 2, -3, 4), size=6, runs=300)


def test_unit_rows_stop_at_the_first_nonunit_pivot():
    # the 1 of [[2, 3]] is a remainder of the pivot 2, not a unit of the matrix
    s = set()
    assert invariant_factors(IntMatrix.from_rows([[2, 3]]), unit_rows=s) == [1]
    assert s == set()
    s = set()
    assert invariant_factors(IntMatrix.from_rows([[1, 0], [0, 2]]), unit_rows=s) == [
        1,
        2,
    ]
    assert s == {0}


def test_unit_pass_requeues_a_column_its_step_changed():
    # column 1 holds no ±1 until column 0's step turns its 3 into 1
    s = set()
    assert invariant_factors(IntMatrix.from_rows([[1, 2], [1, 3]]), unit_rows=s) == [
        1,
        1,
    ]
    assert s == {0, 1}


def test_unit_pass_leaves_a_nonunit_pivot_for_last():
    s = set()
    assert invariant_factors(IntMatrix.from_rows([[1, 1], [1, -1]]), unit_rows=s) == [
        1,
        2,
    ]
    assert s == {0}


def test_unit_pass_on_unit_heavy_matrices():
    values = (0, 0, 0, 1, -1, 1, -1, 2, -3)
    _check_skip_and_unit_rows(2121, values, size=8, runs=400)


@pytest.mark.parametrize("space", ["sp_torus(n=2,m=3)", "torus_conj_quotient(n=4)"])
def test_invariant_factor_count_is_the_large_prime_rank(space):
    # Boundaries whose elimination fills in; the pivot order matters here.
    C = catalog.resolve(space)[1]()
    for k in range(1, C.top + 1):
        d = C.diffs[k - 1]
        assert len(invariant_factors(d)) == rank_mod_p(d, 2**31 - 1), k


def test_scaled_boundaries_take_only_nonunit_steps():
    # every pivot of k*d is a non-unit, so each d runs hundreds of Euclid
    # steps; the Smith form of k*d is k times that of d
    for space in ("sp_torus(n=2,m=3)", "torus_conj_quotient(n=4)"):
        for d in catalog.resolve(space)[1]().diffs:
            factors = invariant_factors(d)
            for k in (2, 3):
                kd = IntMatrix(
                    d.rows, [{r: k * v for r, v in col.items()} for col in d.columns]
                )
                assert invariant_factors(kd) == [k * f for f in factors], (space, k)


def cokernel(M):
    """Z^rows / column span of M, read from its invariant factors."""
    factors = invariant_factors(M)
    return AbelianGroup.from_factors(M.rows - len(factors), factors)


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2]])) == AbelianGroup(0, (2,))
    assert cokernel(IntMatrix.zero(1, 1)) == AbelianGroup(1)
    diagonal = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    assert cokernel(diagonal) == AbelianGroup(1, (2,))
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
    assert GradedGroup.from_json(s.to_json()) == s
    assert str(g) == "(Z)"


def test_entry_growth_regression():
    # dense matrix with awkward gcd structure; exact arithmetic keeps it honest
    rng = random.Random(99)
    rows = [[rng.randint(-40, 40) * 6 for _ in range(6)] for _ in range(6)]
    M = IntMatrix.from_rows(rows)
    assert invariant_factors(M) == snf_diagonal_by_minors(rows)
    snf_props(M)
