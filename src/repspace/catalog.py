"""Named constructors for every space in the verification suite.

Simplicial models are kept as small as the required symmetry allows:

* the one-vertex circle wherever no involution is needed;
* the 2-gon circle (vertices the two real points, edges the upper and
  lower arcs) wherever complex conjugation must act simplicially — the
  minimal circle admits no such involution;
* spheres with two simplices per dimension, the hemispheres of each
  S^j over S^{j-1}, on which the antipodal map swaps the two and is a
  free simplicial automorphism;
* cellular (not simplicial) chain complexes for projective spaces,
  stunted projective spaces and Thom spaces, where the classical one-
  cell-per-dimension pattern with boundaries alternating 0 and 2 is
  exact and tiny, and for the lens space S^3/Q_8.

Every public constructor has a string descriptor ("torus(n=3)") used as
the cache key and accepted by the CLI.  Size guards raise ResourceGuard
before any large construction starts, and a space built from its
descriptor names that descriptor in every refusal.
"""

from __future__ import annotations

import re

from .abelian import IntMatrix
from .engine import ChainComplex, suspend
from .errors import ResourceGuard, UnknownSpace, range_error
from .simplicial import (
    CELL_BUDGET,
    FormalSimplex,
    SimplicialAction,
    SimplicialSet,
    basepoint_directions,
    collapse,
    guard_product,
    minimal_circle,
    normalized_chains,
    product_list,
    quotient_by_action,
    symmetric_product_list,
)


# Torus ranks and symmetric-product powers the catalog builds.
MAX_RANK = 6
MAX_POWER = 3
# Largest n of rp_simplicial(n), sphere_bundle_quotient(n) and
# thom_zero_quotient(n).  S^{n-1} has 2^n formal (n-1)-simplices, so the
# bundle's build and homology cost about doubles with each n.
MAX_SPHERE = 8


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
    nondegenerate tuple is again nondegenerate and is looked up by its
    coordinates.  An image outside P maps to None, which the involution
    check refuses (ActionInvalid).
    """
    sid_of = {fs: sid for sid, fs in P.parts.items()}
    swap = {}
    for sid, fs in P.parts.items():
        target = sid_of.get(
            tuple(
                FormalSimplex(f.word, m.get(f.base, f.base))
                for f, m in zip(fs, factor_swaps)
            )
        )
        if target != sid:
            swap[sid] = target
    return SimplicialAction.involution(P, swap)


def _check_ranges(name: str, **ranges):
    """Refuse a parameter outside its ``(value, low, high)`` range under the
    descriptor the caller was asked by, before any inner constructor can
    refuse it under its own.  The message starts ``name(k=v,...):``."""
    where = f"{name}({','.join(f'{k}={v}' for k, (v, _, _) in ranges.items())})"
    for k, (v, low, high) in ranges.items():
        if not low <= v <= high:
            raise range_error(v, low, f"{where}: {k} outside the range {low}..{high}")


def _circle_power_f_vector(name: str, n: int, C: SimplicialSet) -> list:
    """f(C^n), range-checked and refused exactly as ``name``(n) is."""
    _check_ranges(name, n=(n, 1, MAX_RANK))
    return guard_product([C.f_vector()] * n)


def torus_f_vector(n: int) -> list:
    """f(torus(n)) from the 2-gon's f-vector, refused as torus(n) is."""
    return _circle_power_f_vector("torus", n, circle_conj()[0])


def minimal_torus_f_vector(n: int) -> list:
    """f(minimal_torus(n)) from the circle's f-vector, refused as it is."""
    return _circle_power_f_vector("minimal_torus", n, circle())


def torus(n: int):
    """(S^1)^n as an n-fold 2-gon product, with diagonal conjugation.

    Returns (space, Z/2 action).  ``torus_f_vector`` guards n <= MAX_RANK and
    the cell budget of ``product_list``, which the 2-gon model exceeds at
    n = 6, before anything is built; the one-vertex model (minimal_torus)
    covers larger products whenever no involution is required.
    """
    torus_f_vector(n)
    C, A = circle_conj()
    P = product_list([C] * n)
    return P, _product_involution(P, [A.generators[0]] * n)


def minimal_torus(n: int) -> SimplicialSet:
    """(S^1)^n on one-vertex circles; no involution, smallest possible."""
    minimal_torus_f_vector(n)
    return product_list([circle()] * n)


def torus_conj_quotient_f_vector(n: int) -> list:
    """f((S^1)^n / Z/2) by Burnside: (f(T^n) + f(Fix)) / 2.

    Conjugation fixes only the 2^n vertices with every coordinate a real
    point; a fixed simplex of positive degree would have every coordinate
    a degenerate vertex, so it is degenerate.
    """
    f = torus_f_vector(n)
    return [(f[0] + 2**n) // 2] + [x // 2 for x in f[1:]]


def torus_conj_quotient(n: int) -> SimplicialSet:
    """(S^1)^n / Z/2, conjugation acting diagonally."""
    _check_ranges("torus_conj_quotient", n=(n, 1, MAX_RANK))
    return quotient_by_action(*torus(n))


def smash_factor(n: int) -> SimplicialSet:
    """T^∧n / Z/2: the n-fold smash of circles mod coordinatewise conjugation.

    Conjugation fixes the basepoint coordinate b, so the fat wedge is
    invariant and collapsing it in the conjugation quotient gives the
    same space as quotienting the smash product.
    """
    _check_ranges("smash_factor", n=(n, 1, 5))
    Q = torus_conj_quotient(n)
    return collapse(Q, [s for s in Q.dim_of if not basepoint_directions(Q, s)])


# ---------------------------------------------------------------------------
# SECTION: symmetric products


def _guard_sym_product(f: list, m: int):
    """Range-check m and refuse SP^m of a space with f-vector f when its
    m-fold product is over the cell budget, before anything is built."""
    if m < 0 or m > MAX_POWER:
        raise range_error(
            m, 0, f"sym_product with m={m} outside the range 0..{MAX_POWER}"
        )
    if m >= 2:
        guard_product([f] * m)


def sym_product(X: SimplicialSet, m: int) -> SimplicialSet:
    """SP^m(X) = X^m / Σ_m; a point for m = 0 and X itself for m = 1.

    For m >= 2 it is built from sorted tuples, one simplex per Σ_m orbit
    (``symmetric_product_list``), with neither X^m nor a quotient built;
    its ``parts`` give each orbit's m coordinates in X.
    """
    _guard_sym_product(X.f_vector(), m)
    if m == 0:
        return point()
    if m == 1:
        return X
    return symmetric_product_list(X, m)


def sp_torus(n: int, m: int) -> SimplicialSet:
    """SP^m((S^1)^n) on the minimal torus model, refused before the torus
    is built when its m-fold product is over the cell budget."""
    _check_ranges("sp_torus", n=(n, 1, MAX_RANK), m=(m, 0, MAX_POWER))
    _guard_sym_product(minimal_torus_f_vector(n), m)
    return sym_product(minimal_torus(n), m)


def rep_sp(n: int, m: int) -> SimplicialSet:
    """SP^m((S^1)^n / Z/2), the symplectic-group commuting space, refused
    before the quotient is built when its m-fold product is over budget."""
    _check_ranges("rep_sp", n=(n, 1, MAX_RANK), m=(m, 0, MAX_POWER))
    if m == 0:
        return point()
    _guard_sym_product(torus_conj_quotient_f_vector(n), m)
    return sym_product(torus_conj_quotient(n), m)


# ---------------------------------------------------------------------------
# SECTION: spheres and projective spaces


def sphere_simplicial(k: int):
    """S^k with two nondegenerate simplices e_j^± per dimension j <= k.

    Faces: d_0 e_j^± = e_{j-1}^∓, d_j e_j^± = e_{j-1}^±, and the middle
    faces are degenerate, d_i e_j^± = s_{i-1} e_{j-2}^± for 0 < i < j.
    The upper and lower j-simplices form the two hemispheres of S^j over
    the equatorial S^{j-1}.  The swap + ↔ - is the antipodal map: it
    commutes with every face and fixes no simplex, so it is free and the
    quotient is RP^k with one cell per dimension.
    """
    if k < 0:
        raise ValueError("sphere dimension must be >= 0")
    F = FormalSimplex
    simplices, faces, swap = {}, {}, {}
    for j in range(k + 1):
        simplices[j] = [f"e{j}+", f"e{j}-"]
        for sign, other in (("+", "-"), ("-", "+")):
            swap[f"e{j}{sign}"] = f"e{j}{other}"
            if j:
                faces[f"e{j}{sign}"] = (
                    (F((), f"e{j - 1}{other}"),)
                    + tuple(F((i - 1,), f"e{j - 2}{sign}") for i in range(1, j))
                    + (F((), f"e{j - 1}{sign}"),)
                )
    X = SimplicialSet(simplices, faces)
    return X, SimplicialAction.involution(X, swap)


def rp_simplicial(n: int) -> SimplicialSet:
    """RP^n as the antipodal quotient of the two-cell sphere: one cell per
    dimension."""
    _check_ranges("rp_simplicial", n=(n, 0, MAX_SPHERE))
    return quotient_by_action(*sphere_simplicial(n))


def sphere_chain(n: int) -> ChainComplex:
    """Minimal CW sphere: one 0-cell and one n-cell (two 0-cells for S^0)."""
    _check_ranges("sphere", n=(n, 0, CELL_BUDGET))
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
            f"stunted_projective(m={m},k={k}): needs 0 <= k <= m <= {CELL_BUDGET}",
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
    _check_ranges("rp", n=(m, 0, CELL_BUDGET))
    return stunted_projective(m, 0)


def thom_space_su2_factor(n: int) -> ChainComplex:
    """Thom space of n times the canonical line over RP^2.

    For n >= 1 this is the stunted projective space RP^{n+2}/RP^{n-1};
    for n = 0 the zero bundle gives RP^2 with a disjoint basepoint.
    """
    _check_ranges("thom_su2", n=(n, 0, CELL_BUDGET - 2))
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
    over RP^2, on two-cell spheres (``sphere_simplicial``), whose diagonal
    involution is simplicial and free.
    """
    _check_ranges("sphere_bundle_quotient", n=(n, 1, MAX_SPHERE))
    S2, A2 = sphere_simplicial(2)
    Sn, An = sphere_simplicial(n - 1)
    P = product_list([S2, Sn])
    act = _product_involution(P, [A2.generators[0], An.generators[0]])
    return quotient_by_action(P, act)


def thom_zero_quotient(n: int) -> ChainComplex:
    """The Thom space with its zero section collapsed, for the SU(2) factor.

    Collapsing the base of the mapping cone of S(nλ) -> RP^2 leaves the
    suspension of the sphere bundle: Th(nλ)/s(RP^2) ≃ Σ S(nλ).  The
    suspension is taken algebraically on the chains of the simplicial
    sphere-bundle quotient.
    """
    _check_ranges("thom_zero_quotient", n=(n, 1, MAX_SPHERE))
    return suspend(normalized_chains(sphere_bundle_quotient(n)))


def lens_q8() -> ChainComplex:
    """Cellular chains of S^3/Q_8 from the balanced presentation of Q_8.

    ⟨x, y | xyxy⁻¹, yxyx⁻¹⟩ gives one 0-cell, two 1-cells, two 2-cells
    and one 3-cell.  Each relator has exponent sum 2 in one generator and
    0 in the other, so d_2 = diag(2, 2); d_1 and d_3 vanish (one vertex,
    closed orientable 3-manifold).
    """
    return ChainComplex(
        [1, 2, 2, 1],
        [
            IntMatrix.zero(1, 2),
            IntMatrix.from_rows([[2, 0], [0, 2]]),
            IntMatrix.zero(2, 1),
        ],
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
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def parse_descriptor(key: str):
    """Parse "name(k=v, ...)" into (name, params dict of ints).

    Each name appears once and each value is an ASCII decimal integer
    with an optional sign; anything else is an UnknownSpace.
    """
    m = _DESCRIPTOR_RE.match(key or "")
    if not m:
        raise UnknownSpace(f"cannot parse descriptor {key!r}")
    name, body = m.group(1), m.group(2) or ""
    params = {}
    if body.strip():
        for item in body.split(","):
            if "=" not in item:
                raise UnknownSpace(f"bad parameter {item.strip()!r} in {key!r}")
            k, v = (part.strip() for part in item.split("=", 1))
            if k in params:
                raise UnknownSpace(f"parameter {k} repeated in {key!r}")
            if not _INTEGER_RE.fullmatch(v):
                raise UnknownSpace(f"parameter {k}={v!r} in {key!r} is not an integer")
            params[k] = int(v)
    return name, params


def _lookup(key: str):
    """(canonical descriptor, name, params) of a catalog descriptor."""
    name, params = parse_descriptor(key)
    if name not in _REGISTRY:
        raise UnknownSpace(f"no catalog space named {name!r}")
    wanted, _ = _REGISTRY[name]
    if set(params) != set(wanted):
        raise UnknownSpace(
            f"{name} takes parameters {set(wanted) or '{}'}, got {set(params) or '{}'}"
        )
    inner = ",".join(f"{k}={params[k]}" for k in wanted)
    return f"{name}({inner})", name, params


def resolve(key: str):
    """(canonical descriptor, thunk) for a descriptor string.

    The thunk returns the space's ChainComplex: every catalog entry is a
    chain complex, whose homology ``engine.cached_homology`` computes.
    """
    canonical, name, params = _lookup(key)
    _, builder = _REGISTRY[name]

    def build():
        try:
            return builder(**params)
        except ResourceGuard as err:
            # range refusals already start with the descriptor; the cell
            # budget guards of products do not
            if str(err).startswith(canonical + ":"):
                raise
            raise ResourceGuard(f"{canonical}: {err}") from None

    return canonical, build


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
