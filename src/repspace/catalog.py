"""Named constructors for every space in the verification suite.

Simplicial models are kept as small as the required symmetry allows:

* the one-vertex circle wherever no involution is needed;
* the 2-gon circle (vertices the two real points, edges the upper and
  lower arcs) wherever complex conjugation must act simplicially — the
  minimal circle admits no such involution;
* cross-polytope boundary spheres with axis-ordered vertices, on which
  the antipodal map is a simplicial automorphism;
* cellular (not simplicial) chain complexes for projective spaces,
  stunted projective spaces and Thom spaces, where the classical one-
  cell-per-dimension pattern with boundaries alternating 0 and 2 is
  exact and tiny.

Every public constructor has a string descriptor ("torus(n=3)") used as
the cache key and accepted by the CLI.  Size guards raise ResourceGuard
before any large construction starts.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations
from math import comb

from .abelian import AbelianGroup, GradedGroup, IntMatrix
from .engine import ChainComplex, suspend
from .errors import ResourceGuard, UnknownSpace, range_error
from .simplicial import (
    FormalSimplex,
    SimplicialAction,
    SimplicialSet,
    basepoint_directions,
    collapse,
    minimal_circle,
    normalized_chains,
    product_list,
    product_simplex_id,
    quotient_by_action,
)

CELL_BUDGET = 200_000


def _surjections(s: int, k: int) -> int:
    return sum((-1) ** i * comb(k, i) * (k - i) ** s for i in range(k + 1))


def _torus_cell_estimate(n: int, vertices: int) -> int:
    return sum(
        vertices**n * comb(n, s) * _surjections(s, k)
        for k in range(n + 1)
        for s in range(n + 1)
    )


# ---------------------------------------------------------------------------
# SECTION: circles and tori


def point() -> SimplicialSet:
    return SimplicialSet({0: ["pt"]}, {}, basepoint="pt")


def circle() -> SimplicialSet:
    """Minimal circle (one vertex, one edge), based at the vertex."""
    return minimal_circle()


def circle_conj():
    """2-gon circle with the complex-conjugation involution.

    Vertices: b (the identity, basepoint) and q (the other real point).
    Edges a and c are the two arcs from b to q; conjugation swaps them
    and fixes both vertices.
    """
    F = FormalSimplex
    X = SimplicialSet(
        {0: ["b", "q"], 1: ["a", "c"]},
        {
            "a": (F((), "q"), F((), "b")),
            "c": (F((), "q"), F((), "b")),
        },
        basepoint="b",
    )
    return X, SimplicialAction.involution(X, {"a": "c", "c": "a"})


def _product_involution(P: SimplicialSet, factor_swaps) -> SimplicialAction:
    """Coordinatewise involution of a product, from per-factor base swaps.

    Factor involutions preserve degeneracy words, so the image of a
    nondegenerate tuple is again nondegenerate and its id can be written
    down directly.
    """
    swap = {}
    for sid, fs in P.parts.items():
        target = product_simplex_id(
            FormalSimplex(f.word, m.get(f.base, f.base))
            for f, m in zip(fs, factor_swaps)
        )
        if target != sid:
            swap[sid] = target
    return SimplicialAction.involution(P, swap)


def torus(n: int):
    """(S^1)^n as an n-fold 2-gon product, with diagonal conjugation.

    Returns (space, Z/2 action).  Guarded at n <= 6 and additionally by
    the global cell budget, which the 2-gon model exceeds at n = 6; the
    one-vertex model (minimal_torus) covers larger products whenever no
    involution is required.
    """
    if not 1 <= n <= 6:
        raise range_error(n, 1, f"torus(n={n}) outside the supported range 1..6")
    est = _torus_cell_estimate(n, 2)
    if est > CELL_BUDGET:
        raise ResourceGuard(
            f"torus(n={n}) needs ~{est} nondegenerate simplices "
            f"(budget {CELL_BUDGET})"
        )
    C, A = circle_conj()
    P = product_list([C] * n, check=False)
    swap = A.maps["t"]
    return P, _product_involution(P, [swap] * n)


def minimal_torus(n: int) -> SimplicialSet:
    """(S^1)^n on one-vertex circles; no involution, smallest possible."""
    if not 1 <= n <= 6:
        raise range_error(
            n, 1, f"minimal_torus(n={n}) outside the supported range 1..6"
        )
    est = _torus_cell_estimate(n, 1)
    if est > CELL_BUDGET:
        raise ResourceGuard(f"minimal_torus(n={n}) needs ~{est} simplices")
    return product_list([circle()] * n, check=False)


def torus_conj_quotient(n: int) -> SimplicialSet:
    """(S^1)^n / Z/2, conjugation acting diagonally."""
    return quotient_by_action(*torus(n))


def smash_factor(n: int) -> SimplicialSet:
    """T^∧n / Z/2: the n-fold smash of circles mod coordinatewise conjugation.

    Conjugation fixes the basepoint coordinate b, so the fat wedge is
    invariant and collapsing it in the conjugation quotient gives the
    same space as quotienting the smash product.
    """
    if not 1 <= n <= 5:
        raise range_error(n, 1, f"smash_factor(n={n}) outside the range 1..5")
    Q = torus_conj_quotient(n)
    return collapse(Q, [s for s in Q.dim_of if basepoint_directions(Q, s)])


# ---------------------------------------------------------------------------
# SECTION: symmetric products


def _permutation_action(P: SimplicialSet, m: int) -> SimplicialAction:
    """Σ_m permuting the m coordinates of an m-fold product."""
    elems = list(permutations(range(m)))
    name = {p: "p" + "".join(map(str, p)) for p in elems}
    mult = {}
    for p in elems:
        for q in elems:
            pq = tuple(p[q[i]] for i in range(m))
            mult[(name[p], name[q])] = name[pq]
    maps = {}
    for p in elems:
        inv = [0] * m
        for i, v in enumerate(p):
            inv[v] = i
        mapping = {}
        for sid, fs in P.parts.items():
            mapping[sid] = product_simplex_id(fs[inv[i]] for i in range(m))
        maps[name[p]] = mapping
    return SimplicialAction(
        [name[p] for p in elems], name[tuple(range(m))], mult, maps
    )


def sym_product(X: SimplicialSet, m: int) -> SimplicialSet:
    """SP^m(X) = X^m / Σ_m; X itself for m = 1.

    For m >= 2 the quotient's ``parts`` give each orbit's m coordinates
    in X.
    """
    if m < 0 or m > 3:
        raise range_error(m, 0, f"sym_product with m={m} outside the range 0..3")
    if m == 0:
        return point()
    if m == 1:
        return X
    P = product_list([X] * m, check=False, budget=CELL_BUDGET)
    return quotient_by_action(P, _permutation_action(P, m))


def sp_torus(n: int, m: int) -> SimplicialSet:
    """SP^m((S^1)^n) on the minimal torus model."""
    return sym_product(minimal_torus(n), m)


def rep_sp(n: int, m: int) -> SimplicialSet:
    """SP^m((S^1)^n / Z/2), the symplectic-group commuting space."""
    return sym_product(torus_conj_quotient(n), m)


# ---------------------------------------------------------------------------
# SECTION: spheres and projective spaces


def sphere_simplicial(k: int):
    """Boundary of the (k+1)-cross-polytope with the antipodal involution.

    Vertices ±e_0 .. ±e_k; a nondegenerate j-simplex picks j+1 distinct
    axes (ordered) with a sign each, so the antipodal flip preserves the
    vertex order and is simplicial on the nose — and free, which makes
    the quotient a model of RP^k.
    """
    if k < 0:
        raise ValueError("sphere dimension must be >= 0")
    vid = lambda axis, sign: f"x{axis}{'+' if sign > 0 else '-'}"
    simplices = {}
    faces = {}
    for j in range(k + 1):
        level = []
        for axes in combinations(range(k + 1), j + 1):
            for signs in iter_signs(j + 1):
                verts = [vid(a, s) for a, s in zip(axes, signs)]
                sid = ".".join(verts)
                level.append(sid)
                if j >= 1:
                    faces[sid] = tuple(
                        FormalSimplex(
                            (), ".".join(verts[:i] + verts[i + 1 :])
                        )
                        for i in range(j + 1)
                    )
        simplices[j] = level
    X = SimplicialSet(simplices, faces, check=False)
    swap = {}
    for sid in X.dim_of:
        flipped = ".".join(
            v.replace("+", "~").replace("-", "+").replace("~", "-")
            for v in sid.split(".")
        )
        swap[sid] = flipped
    return X, SimplicialAction.involution(X, swap)


def iter_signs(n: int):
    for bits in range(1 << n):
        yield tuple(1 if bits & (1 << i) else -1 for i in range(n))


def rp_simplicial(n: int) -> SimplicialSet:
    """RP^n as the antipodal quotient of the cross-polytope sphere."""
    if n > 4:
        raise ResourceGuard(f"rp_simplicial(n={n}) outside the range 0..4")
    return quotient_by_action(*sphere_simplicial(n))


def sphere_chain(n: int) -> ChainComplex:
    """Minimal CW sphere: one 0-cell and one n-cell (two 0-cells for S^0)."""
    if not 0 <= n <= CELL_BUDGET:
        raise range_error(
            n, 0, f"sphere dimension {n} outside the range 0..{CELL_BUDGET}"
        )
    if n == 0:
        return ChainComplex([2], [])
    ranks = [1] + [0] * (n - 1) + [1]
    diffs = [
        IntMatrix.zero(ranks[j - 1], ranks[j]) for j in range(1, n + 1)
    ]
    return ChainComplex(ranks, diffs)


def stunted_projective(m: int, k: int) -> ChainComplex:
    """Cellular RP^m / RP^{k-1}: cells in degrees {0} ∪ {k..m}.

    The full projective space keeps the classical boundary pattern
    d_j = 1 + (-1)^j; truncation kills every boundary into the collapsed
    range, so the bottom surviving cell is a cycle.
    """
    if not 0 <= k <= m <= CELL_BUDGET:
        raise range_error(
            min(k, m - k),
            0,
            f"stunted_projective needs 0 <= k <= m <= {CELL_BUDGET}, got ({m}, {k})",
        )
    if k == 0:
        ranks = [1] * (m + 1)
        diffs = [
            IntMatrix.from_rows([[1 + (-1) ** j]]) for j in range(1, m + 1)
        ]
        return ChainComplex(ranks, diffs)
    ranks = [1] + [0] * (k - 1) + [1] * (m - k + 1)
    diffs = []
    for j in range(1, m + 1):
        if j > k and ranks[j - 1] and ranks[j]:
            diffs.append(IntMatrix.from_rows([[1 + (-1) ** j]]))
        else:
            diffs.append(IntMatrix.zero(ranks[j - 1], ranks[j]))
    return ChainComplex(ranks, diffs)


def rp_chain(m: int) -> ChainComplex:
    return stunted_projective(m, 0)


def thom_space_su2_factor(n: int) -> ChainComplex:
    """Thom space of n times the canonical line over RP^2.

    For n >= 1 this is the stunted projective space RP^{n+2}/RP^{n-1};
    for n = 0 the zero bundle gives RP^2 with a disjoint basepoint.
    """
    if n < 0:
        raise ValueError("bundle multiplicity must be >= 0")
    if n == 0:
        # RP^2 plus a disjoint 0-cell
        return ChainComplex(
            [2, 1, 1],
            [IntMatrix.zero(2, 1), IntMatrix.from_rows([[2]])],
        )
    return stunted_projective(n + 2, n)


def sphere_bundle_quotient(n: int) -> SimplicialSet:
    """(S^2 × S^{n-1}) / (antipodal × antipodal), the n-plane sphere bundle.

    This is the unit sphere bundle S(nλ) of n times the canonical line
    over RP^2, realized on cross-polytope factors so that the diagonal
    involution is simplicial and free.
    """
    if not 1 <= n <= 4:
        raise range_error(
            n, 1, f"sphere_bundle_quotient(n={n}) outside the range 1..4"
        )
    S2, A2 = sphere_simplicial(2)
    Sn, An = sphere_simplicial(n - 1)
    P = product_list([S2, Sn], check=False, budget=CELL_BUDGET)
    act = _product_involution(P, [A2.maps["t"], An.maps["t"]])
    return quotient_by_action(P, act)


def thom_zero_quotient(n: int) -> ChainComplex:
    """The Thom space with its zero section collapsed, for the SU(2) factor.

    Collapsing the base of the mapping cone of S(nλ) -> RP^2 leaves the
    suspension of the sphere bundle: Th(nλ)/s(RP^2) ≃ Σ S(nλ).  The
    suspension is taken algebraically on the chains of the simplicial
    sphere-bundle quotient.
    """
    return suspend(normalized_chains(sphere_bundle_quotient(n)))


def lens_q8() -> GradedGroup:
    """Homology of S^3/Q_8 as fixed data.

    Degree 1 is the abelianization of the quaternion group (Z/2 + Z/2,
    cross-checked in the counting tests), degree 3 is Z (closed
    orientable), degree 2 vanishes by duality + universal coefficients.
    """
    return GradedGroup.of(
        AbelianGroup(1),
        AbelianGroup(0, (2, 2)),
        AbelianGroup(0),
        AbelianGroup(1),
    )


# ---------------------------------------------------------------------------
# SECTION: descriptor registry


def _chains(builder):
    return lambda **kw: normalized_chains(builder(**kw))


_REGISTRY = {
    "point": ((), _chains(point)),
    "circle": ((), _chains(circle)),
    "circle_conj": ((), lambda: normalized_chains(circle_conj()[0])),
    "circle_conj_quotient": (
        (),
        lambda: normalized_chains(quotient_by_action(*circle_conj())),
    ),
    "torus": (("n",), lambda n: normalized_chains(torus(n)[0])),
    "minimal_torus": (("n",), _chains(minimal_torus)),
    "torus_conj_quotient": (("n",), _chains(torus_conj_quotient)),
    "smash_factor": (("n",), _chains(smash_factor)),
    "sp_torus": (("n", "m"), _chains(sp_torus)),
    "rep_sp": (("n", "m"), _chains(rep_sp)),
    "stunted_projective": (("m", "k"), stunted_projective),
    "rp": (("n",), lambda n: rp_chain(n)),
    "rp_simplicial": (("n",), _chains(rp_simplicial)),
    "sphere": (("n",), sphere_chain),
    "thom_su2": (("n",), thom_space_su2_factor),
    "thom_zero_quotient": (("n",), thom_zero_quotient),
    "sphere_bundle_quotient": (("n",), _chains(sphere_bundle_quotient)),
    "lens_q8": ((), lens_q8),
}

_DESCRIPTOR_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(\s*([^()]*)\s*\))?\s*$"
)


def parse_descriptor(key: str):
    """Parse "name(k=v, ...)" into (name, params dict of ints)."""
    m = _DESCRIPTOR_RE.match(key or "")
    if not m:
        raise UnknownSpace(f"cannot parse descriptor {key!r}")
    name, body = m.group(1), m.group(2) or ""
    params = {}
    if body.strip():
        for item in body.split(","):
            if "=" not in item:
                raise UnknownSpace(f"bad parameter {item.strip()!r} in {key!r}")
            k, v = item.split("=", 1)
            k = k.strip()
            try:
                params[k] = int(v.strip())
            except ValueError:
                raise UnknownSpace(
                    f"parameter {k}={v.strip()!r} in {key!r} is not an integer"
                ) from None
    return name, params


def canonical_descriptor(key: str) -> str:
    name, params = parse_descriptor(key)
    if name not in _REGISTRY:
        raise UnknownSpace(f"no catalog space named {name!r}")
    wanted, _ = _REGISTRY[name]
    if set(params) != set(wanted):
        raise UnknownSpace(
            f"{name} takes parameters {set(wanted) or '{}'}, got {set(params) or '{}'}"
        )
    inner = ",".join(f"{k}={params[k]}" for k in wanted)
    return f"{name}({inner})"


def resolve(key: str):
    """(canonical descriptor, thunk) for a descriptor string.

    The thunk returns a ChainComplex or, for fixed-data entries, a
    GradedGroup; ``engine.cached_homology`` accepts both.
    """
    canonical = canonical_descriptor(key)
    name, params = parse_descriptor(canonical)
    _, builder = _REGISTRY[name]
    return canonical, lambda: builder(**params)


def catalog_samples() -> list:
    """Small catalog descriptors, used by the every-space property suites."""
    return [
        "point",
        "circle",
        "circle_conj",
        "circle_conj_quotient",
        "torus(n=1)",
        "torus(n=2)",
        "torus(n=3)",
        "minimal_torus(n=2)",
        "minimal_torus(n=3)",
        "torus_conj_quotient(n=1)",
        "torus_conj_quotient(n=2)",
        "torus_conj_quotient(n=3)",
        "smash_factor(n=1)",
        "smash_factor(n=2)",
        "smash_factor(n=3)",
        "sp_torus(n=2,m=2)",
        "rep_sp(n=2,m=1)",
        "rep_sp(n=2,m=2)",
        "stunted_projective(m=3,k=0)",
        "stunted_projective(m=4,k=2)",
        "rp(n=4)",
        "rp_simplicial(n=2)",
        "sphere(n=0)",
        "sphere(n=2)",
        "sphere(n=3)",
        "thom_su2(n=0)",
        "thom_su2(n=1)",
        "thom_su2(n=2)",
        "thom_zero_quotient(n=1)",
        "thom_zero_quotient(n=2)",
        "sphere_bundle_quotient(n=2)",
    ]
