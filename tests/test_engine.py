"""Chain complexes, homology, mod-p dimensions, suspension, result cache."""

import json
import random
from pathlib import Path

import pytest

from repspace import catalog, engine
from repspace.abelian import (
    AbelianGroup,
    GradedGroup,
    IntMatrix,
    dense_product,
    invariant_factors,
)
from repspace.engine import (
    ENGINE_VERSION,
    ChainComplex,
    cached_homology,
    homology,
    homology_mod_p,
    reduced_homology,
    suspend,
    universal_coefficients_check,
    _cache_path,
    _digest,
)
from repspace.errors import CompositionNotZero, NotPrime

from oracles import (
    euler_characteristic,
    keyed_matrix,
    planted_complex,
    planted_dims_mod_p,
)

Z = AbelianGroup.free


def T(r, *ds):
    return AbelianGroup.from_factors(r, ds)


def rp_complex(n):
    """Cellular chains of RP^n: one cell per degree, boundaries 0, 2, 0, ..."""
    ranks = [1] * (n + 1)
    diffs = [IntMatrix.from_rows([[1 + (-1) ** j]]) for j in range(1, n + 1)]
    return ChainComplex(ranks, diffs)


def torus_complex():
    """Cellular T^2: one 0-cell, two 1-cells, one 2-cell, zero boundaries."""
    return ChainComplex(
        [1, 2, 1], [IntMatrix.zero(1, 2), IntMatrix.zero(2, 1)]
    )


def test_validation_rejects_nonzero_composition():
    d1 = IntMatrix.from_rows([[1, -1]])
    d2 = IntMatrix.from_rows([[1], [0]])
    with pytest.raises(CompositionNotZero):
        ChainComplex([1, 2, 1], [d1, d2])


def _nonzero_product(a, b):
    """{(r, c): v} of the nonzero entries of the dense product a b."""
    rows = dense_product(a.to_rows(), b.to_rows())
    return {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}


def _product_route(C):
    """The first k with d_k d_{k+1} != 0 through the whole product, or None."""
    for k in range(1, C.top):
        if _nonzero_product(C.diffs[k - 1], C.diffs[k]):
            return k
    return None


def _validation_failure(C):
    try:
        C.validate()
    except CompositionNotZero as err:
        return str(err)
    return None


def _random_complex(rng, top):
    """(ranks, diffs) of a random complex whose d∘d = 0 by cancellation.

    Each boundary's columns are signed copies of a few base columns, so
    columns a and b copied from one base give the kernel vector
    s_a e_a - s_b e_b.  The next boundary's base columns are integer
    sums of those, so each of its columns meets d in two entries at
    least, and they cancel.
    """
    ranks = [rng.randint(1, 5)]
    diffs = []
    kernel = None
    for _ in range(top):
        base = []
        for _ in range(rng.randint(1, 3)):
            col = {}
            if kernel is None:
                for r in rng.sample(range(ranks[-1]), rng.randint(0, ranks[-1])):
                    col[r] = rng.choice((-2, -1, 1, 2))
            for vec in rng.sample(kernel or [], min(2, len(kernel or []))):
                q = rng.choice((-2, -1, 1, 2))
                for r, v in vec.items():
                    col[r] = col.get(r, 0) + q * v
            base.append(col)
        picks = [
            (rng.randrange(len(base)), rng.choice((1, -1)))
            for _ in range(rng.randint(2, 6))
        ]
        entries = {
            (r, c): s * v for c, (b, s) in enumerate(picks) for r, v in base[b].items()
        }
        diffs.append(keyed_matrix(ranks[-1], len(picks), entries))
        ranks.append(len(picks))
        kernel = [
            {a: sa, b: -sb}
            for a, (ba, sa) in enumerate(picks)
            for b, (bb, sb) in enumerate(picks)
            if a < b and ba == bb
        ]
    return ranks, diffs


def test_validation_agrees_with_the_whole_product_on_random_complexes():
    rng = random.Random(2026)
    outcomes = set()
    for _ in range(400):
        ranks, diffs = _random_complex(rng, rng.randint(2, 5))
        if rng.random() < 0.5:  # one entry of one boundary changed
            k = rng.randrange(len(diffs))
            d = diffs[k]
            key = (rng.randrange(d.rows), rng.randrange(d.cols))
            entries = dict(d.entries)
            entries[key] = entries.get(key, 0) + rng.choice((-2, -1, 1, 2))
            diffs[k] = keyed_matrix(d.rows, d.cols, entries)
        C = ChainComplex(ranks, diffs, check=False)
        k = _product_route(C)
        want = None if k is None else f"d_{k} ∘ d_{k + 1} ≠ 0"
        assert _validation_failure(C) == want
        outcomes.add(k is None)
    assert outcomes == {True, False}


def test_validation_sees_one_entry_in_the_last_column_of_the_top_composition():
    # a new (top-1)-cell u with boundary a new (top-2)-cell w, and a new
    # last top-cell with boundary u: d_{top-1} d_top is w in that column
    rng = random.Random(5)
    for _ in range(40):
        top = rng.randint(2, 5)
        ranks, diffs = _random_complex(rng, top)
        w, u, last = ranks[top - 2], ranks[top - 1], ranks[top]
        grown = ranks[: top - 2] + [w + 1, u + 1, last + 1]
        lower, upper = diffs[top - 2].entries, diffs[top - 1].entries
        diffs = diffs[: top - 2] + [
            keyed_matrix(grown[top - 2], grown[top - 1], lower | {(w, u): 1}),
            keyed_matrix(grown[top - 1], grown[top], upper | {(u, last): 1}),
        ]
        if top > 2:
            d = diffs[top - 3]
            diffs[top - 3] = keyed_matrix(d.rows, d.cols + 1, d.entries)
        C = ChainComplex(grown, diffs, check=False)
        assert _nonzero_product(C.diffs[top - 2], C.diffs[top - 1]) == {(w, last): 1}
        assert _product_route(C) == top - 1
        assert _validation_failure(C) == f"d_{top - 1} ∘ d_{top} ≠ 0"


def test_validation_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        ChainComplex([1, 2], [IntMatrix.zero(2, 2)])
    with pytest.raises(ValueError, match="negative"):
        ChainComplex([1, -1], [IntMatrix.zero(1, 0)])


def test_classical_homology_fixtures():
    assert homology(rp_complex(2)) == GradedGroup.of(Z(1), T(0, 2))
    assert homology(rp_complex(3)) == GradedGroup.of(Z(1), T(0, 2), Z(0), Z(1))
    assert homology(rp_complex(4)) == GradedGroup.of(
        Z(1), T(0, 2), Z(0), T(0, 2), Z(0)
    )
    assert homology(torus_complex()) == GradedGroup.of(Z(1), Z(2), Z(1))


def test_reduced_homology_strips_one_z():
    h = reduced_homology(torus_complex())
    assert h == GradedGroup.of(Z(0), Z(2), Z(1))
    with pytest.raises(ValueError):
        reduced_homology(ChainComplex([], []))


def test_universal_coefficients_check_catches_a_wrong_factor_list(monkeypatch):
    # the 2s of d_2 and d_4 are non-unit pivots; a wrong SNF of each
    # gives Z/3 for Z/2 in H_1 and H_3
    original = engine.invariant_factors
    monkeypatch.setattr(
        engine,
        "invariant_factors",
        lambda M, *args: [3 if e == 2 else e for e in original(M, *args)],
    )
    C = rp_complex(4)
    assert homology(C) == GradedGroup.of(Z(1), T(0, 3), Z(0), T(0, 3), Z(0))
    assert not universal_coefficients_check(C, 2)
    assert not universal_coefficients_check(C, 3)


def test_homology_eliminates_each_boundary_map_once(monkeypatch):
    original = engine.invariant_factors
    seen = []
    monkeypatch.setattr(
        engine,
        "invariant_factors",
        lambda M, *args: seen.append(M) or original(M, *args),
    )
    for C in (rp_complex(4), catalog.resolve("torus_conj_quotient(n=2)")[1]()):
        seen.clear()
        homology(C)
        assert len(seen) == C.top
        assert all(M is C.diffs[k - 1] for M, k in zip(seen, range(C.top, 0, -1)))


def _planted(seed):
    rng = random.Random(seed)
    top = rng.randrange(0, 5)
    ranks, rows, planted, pieces = planted_complex(
        rng, top, pieces=rng.randrange(1, 13)
    )
    diffs = [
        keyed_matrix(
            ranks[k - 1],
            ranks[k],
            {(i, j): v for i, row in enumerate(d) for j, v in enumerate(row)},
        )
        for k, d in enumerate(rows, start=1)
    ]
    C = ChainComplex(ranks, diffs)
    return C, planted, pieces


def test_homology_matches_planted_complexes():
    # torsion, free pieces and non-unit pivots in every degree, hidden
    # by a random change of basis; the cleared pass must see through it
    with_torsion = 0
    for seed in range(300):
        C, planted, _ = _planted(seed)
        expected = GradedGroup(
            tuple(AbelianGroup.from_factors(f, t) for f, t in planted)
        )
        assert homology(C) == expected, seed
        with_torsion += any(t for _, t in planted)
    assert with_torsion > 100


def test_mod_p_dimensions_match_planted_complexes():
    for seed in range(300):
        C, _, pieces = _planted(seed)
        for p in (2, 3):
            assert homology_mod_p(C, p) == planted_dims_mod_p(C.top, pieces, p), (
                seed,
                p,
            )


def test_homology_mod_p_fixtures():
    assert homology_mod_p(rp_complex(2), 2) == [1, 1, 1]
    assert homology_mod_p(rp_complex(2), 3) == [1, 0, 0]
    assert homology_mod_p(torus_complex(), 5) == [1, 2, 1]
    with pytest.raises(NotPrime):
        homology_mod_p(torus_complex(), 4)
    with pytest.raises(NotPrime):
        homology_mod_p(torus_complex(), 1)


def test_universal_coefficients_on_fixtures():
    for C in (rp_complex(2), rp_complex(4), torus_complex()):
        for p in (2, 3, 5):
            assert universal_coefficients_check(C, p)
        assert universal_coefficients_check(C, 2, 3, 5)
    with pytest.raises(ValueError, match="prime"):
        universal_coefficients_check(torus_complex())


def test_mod_p_dimensions_see_torsion_twice():
    # a Z/2 in degree k contributes to the mod-2 dimensions in k and k+1
    C = rp_complex(2)
    assert homology_mod_p(C, 2) == [1, 1, 1]
    h = homology(C)
    assert homology_mod_p(C, 2)[2] == h[1].torsion_rank(2)


@pytest.mark.parametrize(
    "space", ["sp_torus(n=2,m=3)", "torus_conj_quotient(n=4)", "smash_factor(n=4)"]
)
def test_clearing_agrees_with_eliminating_every_column(space):
    # the cleared pass drops the columns of the rows of the ±1 pivots that
    # d_{k+1} took first; eliminating each boundary whole must give the same
    # groups
    C = catalog.resolve(space)[1]()
    factors = [[]] + [invariant_factors(d) for d in C.diffs] + [[]]
    whole = GradedGroup(
        tuple(
            AbelianGroup.from_factors(
                C.ranks[k] - len(factors[k]) - len(factors[k + 1]), factors[k + 1]
            )
            for k in range(len(C.ranks))
        )
    )
    assert homology(C) == whole


def test_clearing_keeps_a_unit_row_for_every_1():
    # in homology's top-down order, every 1 among d_k's factors comes from
    # a ±1 pivot taken first, so clearing drops all the columns it can
    extra = ["sp_torus(n=2,m=3)", "torus_conj_quotient(n=4)"]
    for space in catalog.catalog_samples() + extra:
        C = catalog.resolve(space)[1]()
        cleared = frozenset()
        for k in range(C.top, 0, -1):
            pivots = set()
            factors = invariant_factors(C.diffs[k - 1], cleared, pivots)
            assert len(pivots) == factors.count(1), (space, k)
            cleared = pivots


def test_symmetric_square_of_the_three_torus():
    # Macdonald: the Poincaré polynomial of SP^2((S^1)^3) is the x^2
    # coefficient of (1+tx)^3 (1+t^3 x) / ((1-x)(1-t^2 x)^3).  No closed form
    # for its torsion is derived, so that is checked only through F_p ranks.
    C = catalog.resolve("sp_torus(n=3,m=2)")[1]()
    assert [g.free_rank for g in homology(C).groups] == [1, 3, 6, 10, 9, 3]
    assert universal_coefficients_check(C, 2, 3)


def test_euler_characteristic():
    assert euler_characteristic(rp_complex(2).ranks) == 1
    assert euler_characteristic(rp_complex(3).ranks) == 0
    assert euler_characteristic(torus_complex().ranks) == 0


def test_suspend_shifts_homology():
    S = suspend(torus_complex())
    assert homology(S) == GradedGroup.of(Z(1), Z(0), Z(2), Z(1))
    # suspending the 2-point complex gives a circle
    S0 = ChainComplex([2], [])
    assert homology(suspend(S0)) == GradedGroup.of(Z(1), Z(1))


def test_suspend_rejects_non_augmentable():
    C = ChainComplex([1, 1], [IntMatrix.from_rows([[2]])])
    with pytest.raises(ValueError, match="augment"):
        suspend(C)
    with pytest.raises(ValueError, match="empty"):
        suspend(ChainComplex([], []))


# -- result cache ------------------------------------------------------------

RP3_HOMOLOGY = GradedGroup.of(Z(1), T(0, 2), Z(0), Z(1))


def cached(key, cache_dir=None):
    """The cached homology of a catalog descriptor."""
    return cached_homology(*catalog.resolve(key), cache_dir=cache_dir)


def cache_file(root, canonical) -> Path:
    return Path(_cache_path(root, canonical))


def test_cached_homology_writes_and_reads(tmp_path):
    h = cached("rp(n=3)", cache_dir=tmp_path)
    assert h == RP3_HOMOLOGY
    path = cache_file(tmp_path, "rp(n=3)")
    assert path.exists()
    doc = json.loads(path.read_text("utf-8"))
    assert doc["key"] == "rp(n=3)"
    assert doc["engine_version"] == ENGINE_VERSION
    # second call is served from the file; poison the value (with a
    # matching digest) to prove it
    doc["graded_group"] = GradedGroup.of(Z(7)).to_json()
    doc["digest"] = _digest(doc["graded_group"])
    path.write_text(json.dumps(doc), "utf-8")
    assert cached("rp(n=3)", cache_dir=tmp_path) == GradedGroup.of(Z(7))


def test_cached_homology_recomputes_a_value_that_fails_its_digest(tmp_path):
    cached("circle", cache_dir=tmp_path)
    path = cache_file(tmp_path, "circle()")
    doc = json.loads(path.read_text("utf-8"))
    doc["graded_group"][1]["free_rank"] = 7
    path.write_text(json.dumps(doc), "utf-8")
    assert cached("circle", cache_dir=tmp_path) == GradedGroup.of(
        Z(1), Z(1)
    )
    assert json.loads(path.read_text("utf-8"))["graded_group"][1] == {
        "free_rank": 1,
        "torsion": [],
    }


def test_cached_homology_recovers_from_corruption(tmp_path):
    path = cache_file(tmp_path, "rp(n=2)")
    path.write_text("{ not json", "utf-8")
    h = cached("rp(n=2)", cache_dir=tmp_path)
    assert h == GradedGroup.of(Z(1), T(0, 2))
    assert json.loads(path.read_text("utf-8"))["key"] == "rp(n=2)"


def test_cached_homology_rejects_stale_engine_version(tmp_path):
    cached("rp(n=3)", cache_dir=tmp_path)
    path = cache_file(tmp_path, "rp(n=3)")
    doc = json.loads(path.read_text("utf-8"))
    doc["engine_version"] = "0"
    doc["graded_group"] = GradedGroup.of(Z(9)).to_json()
    path.write_text(json.dumps(doc), "utf-8")
    # stale version is ignored and overwritten with a fresh computation
    assert cached("rp(n=3)", cache_dir=tmp_path) == RP3_HOMOLOGY
    assert (
        json.loads(path.read_text("utf-8"))["engine_version"] == ENGINE_VERSION
    )


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, capsys):
    # an entry path that is a directory refuses the final rename
    cache_file(tmp_path, "rp(n=3)").mkdir()
    assert cached("rp(n=3)", cache_dir=tmp_path) == RP3_HOMOLOGY
    assert capsys.readouterr().err.startswith("warning: result not cached: ")
    assert list(tmp_path.glob("*.tmp*")) == []


def test_cached_homology_env_var_and_flag_priority(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("REPSPACE_CACHE", str(env_dir))
    cached("sphere(n=2)")
    assert cache_file(env_dir, "sphere(n=2)").exists()
    cached("sphere(n=3)", cache_dir=flag_dir)
    assert cache_file(flag_dir, "sphere(n=3)").exists()
    assert not cache_file(env_dir, "sphere(n=3)").exists()


def test_cached_homology_without_cache(monkeypatch):
    monkeypatch.delenv("REPSPACE_CACHE", raising=False)
    assert cached("sphere(n=0)") == GradedGroup.of(Z(2))
