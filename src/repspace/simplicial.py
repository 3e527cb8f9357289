"""Finite simplicial sets and their standard constructions.

A simplicial set is stored by its nondegenerate simplices only.  Every
(possibly degenerate) simplex is a :class:`FormalSimplex`: a degeneracy
word in Eilenberg-Zilber normal form (strictly decreasing indices,
outermost first) applied to a nondegenerate base.  The simplicial
identities

    d_i s_j = s_{j-1} d_i  (i < j),   d_j s_j = d_{j+1} s_j = id,
    d_i s_j = s_j d_{i-1}  (i > j+1),   s_i s_j = s_{j+1} s_i  (i <= j)

are implemented once in :func:`formal_face` / :func:`compose_degeneracy`
and everything else is built on top of them.

Products use the shuffle description: a nondegenerate k-simplex of a
product is a tuple of formal k-simplices whose degeneracy words have
empty common intersection.  Their number follows from the factors'
f-vectors alone, so a product over the cell budget is refused before
its first simplex is built.  Products are built from per-factor tables:
each factor's formal simplices, their ids and their faces are computed
once per degree, not once per product simplex.  A symmetric product
SP^m X = X^m / Σ_m is built from the same tables without X^m: each
Σ_m orbit of product simplices has exactly one member whose coordinates
are sorted by table position, and only those are enumerated.  A finite
group action is stored as its generators, permutations of the
nondegenerate simplices that commute with the face maps; a quotient
takes the orbits under them.  Geometric realization preserves both
colimits, so the realizations are the honest product and quotient
spaces.  A collapse of everything outside a locally closed set of
simplices completes the constructions.

Identifiers are canonical strings derived from construction history
("(a|s0(v))" for product tuples, "[x]" for orbits, "*" for a collapse
basepoint), so equal constructions produce identical ids across runs.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key
from itertools import combinations, combinations_with_replacement, groupby
from itertools import product as iter_product
from math import comb, prod

from .abelian import IntMatrix
from .engine import ChainComplex
from .errors import ActionInvalid, ResourceGuard

BASEPOINT_ID = "*"
CELL_BUDGET = 200_000


class FormalSimplex(namedtuple("FormalSimplex", ("word", "base"))):
    """A degeneracy word applied to a nondegenerate simplex id."""

    __slots__ = ()

    def render(self) -> str:
        if not self.word:
            return self.base
        return "s" + "_".join(map(str, self.word)) + "(" + self.base + ")"


def compose_degeneracy(j: int, f: FormalSimplex) -> FormalSimplex:
    """Normal form of s_j applied on the outside of f."""
    shifted = tuple(w + 1 if w >= j else w for w in f.word)
    bigger = tuple(w for w in shifted if w > j)
    smaller = tuple(w for w in shifted if w < j)
    return FormalSimplex(bigger + (j,) + smaller, f.base)


def formal_face(X: "SimplicialSet", f: FormalSimplex, i: int) -> FormalSimplex:
    """d_i of a formal simplex of X, in normal form.

    The face operator is pushed through the degeneracy word; it is either
    absorbed (d_j s_j = d_{j+1} s_j = id) or reaches the nondegenerate
    base, where the stored face table takes over.
    """
    prefix = []
    word = f.word
    for t, j in enumerate(word):
        if i < j:
            prefix.append(j - 1)
        elif i == j or i == j + 1:
            return FormalSimplex(tuple(prefix) + word[t + 1 :], f.base)
        else:
            prefix.append(j)
            i -= 1
    g = X.faces[f.base][i]
    for j in reversed(prefix):
        g = compose_degeneracy(j, g)
    return g


class SimplicialSet:
    """Nondegenerate simplices per dimension plus a face table.

    faces[x] for a k-simplex x (k >= 1) is the tuple (d_0 x, ..., d_k x)
    of FormalSimplexes.  ``parts`` (coordinates, kept by products and by
    their quotients) records construction provenance
    that later constructions need; it is not part of the space itself.
    """

    __slots__ = ("simplices", "faces", "basepoint", "dim_of", "parts")

    def __init__(self, simplices, faces, basepoint=None, check=True):
        self.simplices = {
            k: list(ids) for k, ids in sorted(simplices.items()) if ids
        }
        self.faces = dict(faces)
        self.basepoint = basepoint
        self.dim_of = {}
        for k, ids in self.simplices.items():
            for sid in ids:
                if sid in self.dim_of:
                    raise ValueError(f"duplicate simplex id {sid!r}")
                self.dim_of[sid] = k
        self.parts = None
        if check:
            self.validate()

    # -- inspection ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self.simplices) if self.simplices else -1

    def ids(self, k: int) -> list:
        return self.simplices.get(k, [])

    def f_vector(self) -> list:
        return [len(self.ids(k)) for k in range(self.dim + 1)]

    def size(self) -> int:
        return len(self.dim_of)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(ids) for k, ids in self.simplices.items())

    def formal_simplices(self, k: int):
        """All formal k-simplices as (word-set, FormalSimplex) pairs."""
        out = []
        for j in range(min(k, self.dim) + 1):
            for asc in combinations(range(k), k - j):
                word = tuple(reversed(asc))
                ws = frozenset(asc)
                for sid in self.ids(j):
                    out.append((ws, FormalSimplex(word, sid)))
        return out

    # -- integrity ----------------------------------------------------------

    def validate(self):
        if self.basepoint is not None and self.dim_of.get(self.basepoint) != 0:
            raise ValueError(f"basepoint {self.basepoint!r} is not a 0-simplex")
        if self.simplices and sorted(self.simplices) != list(
            range(max(self.simplices) + 1)
        ):
            raise ValueError("dimensions are not contiguous from 0")
        checked, degree = set(), 0  # faces whose structure passed, per degree
        for sid, k in self.dim_of.items():
            if k != degree:
                checked, degree = set(), k
            if k == 0:
                if sid in self.faces:
                    raise ValueError(f"0-simplex {sid!r} has a face entry")
                continue
            fs = self.faces.get(sid)
            if fs is None or len(fs) != k + 1:
                raise ValueError(f"{sid!r} needs {k + 1} faces")
            for f in fs:
                if f in checked:
                    continue
                if f.base not in self.dim_of:
                    raise ValueError(f"face of {sid!r} references {f.base!r}")
                if len(f.word) + self.dim_of[f.base] != k - 1:
                    raise ValueError(f"face of {sid!r} has wrong dimension")
                if any(a <= b for a, b in zip(f.word, f.word[1:])):
                    raise ValueError(f"face word of {sid!r} not normal")
                if f.word and f.word[0] > k - 2:
                    raise ValueError(f"face word of {sid!r} out of range")
                checked.add(f)
        # simplicial identities d_i d_j = d_{j-1} d_i (i < j) on generators;
        # the faces of a nondegenerate face are its face table entry, and
        # those of a degenerate face are pushed through its word once a call
        faces = self.faces
        pushed = {}
        for sid, k in self.dim_of.items():
            if k < 2:
                continue
            ds = []
            for f in faces[sid]:
                if f.word:
                    g = pushed.get(f)
                    if g is None:
                        g = pushed[f] = [formal_face(self, f, i) for i in range(k)]
                    ds.append(g)
                else:
                    ds.append(faces[f.base])
            for j in range(1, k + 1):
                dj = ds[j]
                for i in range(j):
                    if dj[i] != ds[i][j - 1]:
                        raise ValueError(
                            f"d_{i} d_{j} ≠ d_{j - 1} d_{i} on {sid!r}"
                        )


def minimal_circle(vertex="v", edge="e") -> SimplicialSet:
    """The one-vertex circle; smallest model, basepoint the vertex."""
    faces = {edge: (FormalSimplex((), vertex), FormalSimplex((), vertex))}
    return SimplicialSet({0: [vertex], 1: [edge]}, faces, basepoint=vertex)


# ---------------------------------------------------------------------------
# SECTION: products


def product_simplex_id(fs) -> str:
    """Id of the product simplex with coordinates ``fs``: "(a|s0(v))"."""
    return "(" + "|".join(f.render() for f in fs) + ")"


def product_f_vector(f_vectors) -> list:
    """f-vector of a product, from its factors' f-vectors alone.

    A formal k-simplex whose degeneracy word contains a given s-set of
    indices is that degeneracy of a formal (k-s)-simplex, and a factor
    with f-vector f has sum_j f(j)·C(k-s, k-s-j) of those (j <= k-s:
    ``comb`` rejects a negative argument).  A product k-simplex is
    nondegenerate when no index lies in every factor's word, so
    inclusion-exclusion over the shared indices counts them.
    """
    top = sum(len(f) - 1 for f in f_vectors)
    return [
        sum(
            (-1) ** s
            * comb(k, s)
            * prod(
                sum(
                    f[j] * comb(k - s, k - s - j)
                    for j in range(min(len(f), k - s + 1))
                )
                for f in f_vectors
            )
            for s in range(k + 1)
        )
        for k in range(top + 1)
    ]


def product_size(f_vectors) -> int:
    """Number of nondegenerate simplices of a product, from f-vectors alone."""
    return sum(product_f_vector(f_vectors))


def guard_product(f_vectors) -> list:
    """The product's f-vector, refused (ResourceGuard) over ``CELL_BUDGET``."""
    f = product_f_vector(f_vectors)
    if sum(f) > CELL_BUDGET:
        raise ResourceGuard(
            f"product needs {sum(f)} nondegenerate simplices (budget {CELL_BUDGET})"
        )
    return f


# A factor's formal k-simplices, in ``formal_simplices`` order.  Per pool
# position: the degeneracy set as a bitmask, the rendered id, and the
# faces d_0..d_k as positions in the degree k - 1 pool.  ``runs`` are the
# (mask, start, stop) runs of one degeneracy set; the pool keeps each set
# contiguous.
_Degree = namedtuple("_Degree", ("pool", "masks", "names", "faces", "runs"))


def _factor_degrees(X: SimplicialSet, top: int) -> list:
    """X's degree tables for k = 0..top, each face computed once."""
    degrees = []
    below = {}
    for k in range(top + 1):
        pool = [f for _, f in X.formal_simplices(k)]
        masks = [sum(1 << w for w in f.word) for f in pool]
        runs = []
        for p, mask in enumerate(masks):
            if runs and runs[-1][0] == mask:
                runs[-1][2] = p + 1
            else:
                runs.append([mask, p, p + 1])
        faces = []
        if k:
            faces = [
                tuple(below[formal_face(X, f, i)] for i in range(k + 1))
                for f in pool
            ]
        below = {f: p for p, f in enumerate(pool)}
        degrees.append(
            _Degree(pool, masks, [f.render() for f in pool], faces, runs)
        )
    return degrees


def _normalize_tuple(tables, k, ps, ids) -> FormalSimplex:
    """The product simplex with degree-k pool positions ``ps``, in normal form.

    A product simplex is in the image of s_j exactly when j lies in every
    factor's degeneracy set; peeling the largest common index first (d_j
    on every coordinate) keeps the accumulated outer word strictly
    decreasing.  ``tables`` holds each factor's degree tables and
    ``ids[k]`` maps jointly nondegenerate positions to their product
    simplex, as a FormalSimplex with the empty word.  For a symmetric
    product ``ids[k]`` is an ``_OrbitIndex``, which looks the positions up
    sorted, so the peeled tuple needs no order.
    """
    prefix = []
    while True:
        common = -1
        for t, p in zip(tables, ps):
            common &= t[k].masks[p]
        if not common:
            face = ids[k][ps]
            return FormalSimplex(tuple(prefix), face.base) if prefix else face
        j = common.bit_length() - 1
        ps = tuple(t[k].faces[p][j] for t, p in zip(tables, ps))
        prefix.append(j)
        k -= 1


def product_list(factors) -> SimplicialSet:
    """Product of finitely many simplicial sets (shuffle description).

    Each distinct factor's formal simplices, ids and faces are tabled once
    per degree.  Only combinations of degeneracy sets with empty common
    intersection are expanded, and the tuples found are taken in the
    lexicographic order of their pool positions.  The result records
    ``parts``: for every nondegenerate product simplex its tuple of factor
    FormalSimplexes, and is not re-validated.  Based factors give a based
    product.  Over ``CELL_BUDGET`` nondegenerate simplices the product is
    refused (ResourceGuard) before it is built.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    guard_product([X.f_vector() for X in factors])
    top = sum(X.dim for X in factors)
    distinct = {}
    for X in factors:
        if id(X) not in distinct:
            distinct[id(X)] = _factor_degrees(X, top)
    tables = [distinct[id(X)] for X in factors]
    simplices = {}
    faces = {}
    parts = {}
    ids = []
    for k in range(top + 1):
        level_tables = [t[k] for t in tables]
        found = []
        for combo in iter_product(*(t.runs for t in level_tables)):
            common = -1
            for run in combo:
                common &= run[0]
            if not common:
                found.extend(iter_product(*(range(r[1], r[2]) for r in combo)))
        found.sort()
        index = {}
        ids.append(index)
        level = []
        for ps in found:
            sid = "(" + "|".join([t.names[p] for t, p in zip(level_tables, ps)])
            sid += ")"
            index[ps] = FormalSimplex((), sid)
            level.append(sid)
            parts[sid] = tuple([t.pool[p] for t, p in zip(level_tables, ps)])
            if k:
                rows = [t.faces[p] for t, p in zip(level_tables, ps)]
                faces[sid] = tuple(
                    [_normalize_tuple(tables, k - 1, qs, ids) for qs in zip(*rows)]
                )
        if level:
            simplices[k] = level
    basepoint = None
    if all(X.basepoint is not None for X in factors):
        basepoint = product_simplex_id(
            FormalSimplex((), X.basepoint) for X in factors
        )
    out = SimplicialSet(simplices, faces, basepoint=basepoint, check=False)
    out.parts = parts
    return out


class _OrbitIndex(dict):
    """One degree's Σ_m orbits, each keyed by its sorted pool positions; a
    lookup under any other order of the same positions is sorted first."""

    __slots__ = ()

    def __missing__(self, ps):
        orbit = self.get(tuple(sorted(ps)))
        if orbit is None:
            raise KeyError(ps)
        return orbit


def _least_id_ranks(names) -> list:
    """Each pool position's rank in the order that puts the least product id
    first: x before y when x|y| < y|x| as strings.

    That order on strings s_x = x + "|" is total and sorting by it gives
    the least concatenation (the smallest-number arrangement).  Every
    arrangement of one tuple joins to the same length, so the least
    concatenation is also the least product id, whatever the names hold.
    """
    piped = [name + "|" for name in names]

    def cmp(x, y):
        a, b = piped[x] + piped[y], piped[y] + piped[x]
        return (a > b) - (a < b)

    rank = [0] * len(names)
    for r, p in enumerate(sorted(range(len(names)), key=cmp_to_key(cmp))):
        rank[p] = r
    return rank


def symmetric_product_list(X: SimplicialSet, m: int) -> SimplicialSet:
    """SP^m X = X^m / Σ_m (m >= 2), built without X^m or a quotient.

    Permuting coordinates keeps a product simplex nondegenerate, and each
    Σ_m orbit of jointly nondegenerate tuples has exactly one member with
    non-decreasing pool positions: only those are enumerated, in
    lexicographic order, which is the order in which the orbits first
    occur in X^m.  An orbit is named "[" + its least member's product id
    + "]" and records that member's coordinates as ``parts``; the least
    member is the representative sorted by ``_least_id_ranks``.  Each
    orbit is indexed once, under its sorted positions.  A face whose
    coordinates share no degeneracy is looked up under its sorted
    positions; a degenerate face goes through ``_normalize_tuple``, whose
    peeled positions ``_OrbitIndex`` sorts.  The result is validated.
    Refused (ResourceGuard) when X^m is over ``CELL_BUDGET``.
    """
    guard_product([X.f_vector()] * m)
    degrees = _factor_degrees(X, m * X.dim)
    tables = [degrees] * m
    simplices = {}
    faces = {}
    parts = {}
    ids = []
    for k, t in enumerate(degrees):
        found = []
        for combo in combinations_with_replacement(range(len(t.runs)), m):
            common = -1
            for r in combo:
                common &= t.runs[r][0]
            if common:
                continue
            groups = [
                combinations_with_replacement(
                    range(t.runs[r][1], t.runs[r][2]), len(list(g))
                )
                for r, g in groupby(combo)
            ]
            found.extend(sum(ps, ()) for ps in iter_product(*groups))
        found.sort()
        index = _OrbitIndex()
        ids.append(index)
        level = []
        rank = _least_id_ranks(t.names).__getitem__
        if k:
            below, masks = ids[k - 1], degrees[k - 1].masks
        for ps in found:
            least = sorted(ps, key=rank)
            oid = "[(" + "|".join([t.names[p] for p in least]) + ")]"
            index[ps] = FormalSimplex((), oid)
            level.append(oid)
            parts[oid] = tuple([t.pool[p] for p in least])
            if k:
                row = []
                for qs in zip(*[t.faces[p] for p in ps]):
                    common = -1
                    for q in qs:
                        common &= masks[q]
                    if common:
                        row.append(_normalize_tuple(tables, k - 1, qs, ids))
                    else:
                        row.append(below[tuple(sorted(qs))])
                faces[oid] = tuple(row)
        if level:
            simplices[k] = level
    basepoint = None
    if X.basepoint is not None:
        point = FormalSimplex((), X.basepoint)
        basepoint = "[" + product_simplex_id([point] * m) + "]"
    out = SimplicialSet(simplices, faces, basepoint=basepoint)
    out.parts = parts
    return out


# ---------------------------------------------------------------------------
# SECTION: group actions and quotients


class SimplicialAction:
    """A finite group acting on nondegenerate simplices, by its generators.

    Each generator is a permutation of simplex ids ({id: image id}).
    Permutations that keep dimensions and commute with every face map
    generate a group acting simplicially, so the generators are all a
    quotient needs: an orbit is the closure of one simplex under them.
    The action extends to formal simplices by acting on the base.
    """

    __slots__ = ("generators",)

    def __init__(self, generators):
        self.generators = [dict(g) for g in generators]

    @classmethod
    def involution(cls, X: SimplicialSet, swap) -> "SimplicialAction":
        """Z/2 action from a self-inverse map; ids not in ``swap`` are fixed."""
        full = {sid: swap.get(sid, sid) for sid in X.dim_of}
        for sid, target in full.items():
            if full.get(target) != sid:
                raise ActionInvalid(f"swap is not its own inverse at {sid!r}")
        return cls([full])

    def validate(self, X: SimplicialSet):
        """Check that every generator is a simplicial automorphism of X."""
        all_ids = set(X.dim_of)
        for n, m in enumerate(self.generators):
            if set(m) != all_ids or set(m.values()) != all_ids:
                raise ActionInvalid(f"generator {n} is not a bijection on simplices")
            for sid, target in m.items():
                if X.dim_of[sid] != X.dim_of[target]:
                    raise ActionInvalid(f"generator {n} changes dimension")
            for sid, k in X.dim_of.items():
                if k == 0:
                    continue
                for i, f in enumerate(X.faces[sid]):
                    moved = X.faces[m[sid]][i]
                    if moved.word != f.word or moved.base != m[f.base]:
                        raise ActionInvalid(
                            f"generator {n} does not commute with d_{i} on {sid!r}"
                        )


def orbit_ids(X: SimplicialSet, A: SimplicialAction) -> dict:
    """{simplex id: orbit id}; an orbit's id is "[its least member]".

    Each orbit is the closure of one simplex under the generators.
    """
    orbit_of = {}
    for sid in X.dim_of:
        if sid in orbit_of:
            continue
        members = {sid}
        frontier = [sid]
        while frontier:
            s = frontier.pop()
            for g in A.generators:
                if g[s] not in members:
                    members.add(g[s])
                    frontier.append(g[s])
        oid = "[" + min(members) + "]"
        for m in members:
            orbit_of[m] = oid
    return orbit_of


def quotient_by_action(X: SimplicialSet, A: SimplicialAction) -> SimplicialSet:
    """Orbit simplicial set X/G, with the action and the result validated.

    The generators permute nondegenerate simplices, so the orbits under
    them (``orbit_ids``) are exactly the nondegenerate simplices of the
    quotient.  Faces are induced on each orbit's least member, whose id
    in brackets is the orbit's id.  When X records ``parts``, so does
    the quotient: each orbit's representative's coordinates.
    """
    A.validate(X)
    orbit_of = orbit_ids(X, A)
    simplices = {
        k: list(dict.fromkeys(orbit_of[sid] for sid in ids))
        for k, ids in X.simplices.items()
    }
    faces = {
        oid: tuple(
            FormalSimplex(f.word, orbit_of[f.base]) for f in X.faces[oid[1:-1]]
        )
        for k, level in simplices.items()
        if k > 0
        for oid in level
    }
    basepoint = orbit_of[X.basepoint] if X.basepoint is not None else None
    out = SimplicialSet(simplices, faces, basepoint=basepoint)
    if X.parts is not None:
        out.parts = {oid: X.parts[oid[1:-1]] for oid in out.dim_of}
    return out


# ---------------------------------------------------------------------------
# SECTION: basepoint directions and collapse


def basepoint_directions(X: SimplicialSet, sid: str) -> frozenset:
    """The coordinates j in which simplex ``sid`` sits at the basepoint.

    X records ``parts`` (a product, or a quotient of one).
    The simplices with a nonempty answer form the fat wedge.
    """
    base = X.parts[X.basepoint]
    return frozenset(
        j for j, (f, b) in enumerate(zip(X.parts[sid], base)) if f.base == b.base
    )


def collapse(X: SimplicialSet, keep) -> SimplicialSet:
    """The simplices ``keep`` of X, with every other face collapsed to a point.

    The kept simplices stay in X's order after a fresh basepoint ``*``, and
    a face outside ``keep`` becomes a total degeneration of ``*``.  ``keep``
    must be locally closed: no face outside it has a face inside it.  When
    ``keep`` is X minus a subcomplex A, the result is the quotient X / |A|.
    """
    keep = set(keep)
    for sid in keep:
        if sid not in X.dim_of:
            raise ValueError(f"unknown simplex {sid!r}")
    if BASEPOINT_ID in X.dim_of:
        raise ValueError("space already contains the reserved id '*'")
    simplices = {0: [BASEPOINT_ID]}
    faces = {}
    dropped = set()
    for k, ids in X.simplices.items():
        level = [sid for sid in ids if sid in keep]
        if k == 0:
            simplices[0] += level
            continue
        simplices[k] = level
        point = FormalSimplex(tuple(range(k - 2, -1, -1)), BASEPOINT_ID)
        for sid in level:
            row = []
            for f in X.faces[sid]:
                if f.base in keep:
                    row.append(f)
                else:
                    dropped.add(f.base)
                    row.append(point)
            faces[sid] = tuple(row)
    frontier = list(dropped)
    while frontier:
        sid = frontier.pop()
        for f in X.faces.get(sid, ()):
            if f.base in keep:
                raise ValueError(
                    f"keep is not locally closed: {sid!r} is collapsed "
                    f"but its face {f.base!r} is kept"
                )
            if f.base not in dropped:
                dropped.add(f.base)
                frontier.append(f.base)
    return SimplicialSet(simplices, faces, basepoint=BASEPOINT_ID, check=False)


# ---------------------------------------------------------------------------
# SECTION: normalized chains


def normalized_chains(X: SimplicialSet) -> ChainComplex:
    """One generator per nondegenerate simplex; degenerate faces drop out.

    Column order follows the stored id order per dimension, so the
    boundary matrices are reproducible across runs.
    """
    if X.dim < 0:
        return ChainComplex([], [])
    index = {
        k: {sid: i for i, sid in enumerate(X.ids(k))}
        for k in range(X.dim + 1)
    }
    ranks = [len(X.ids(k)) for k in range(X.dim + 1)]
    diffs = []
    for k in range(1, X.dim + 1):
        entries = {}
        below = index[k - 1]
        for col, sid in enumerate(X.ids(k)):
            sign = -1
            for f in X.faces[sid]:
                sign = -sign  # (-1)^i for d_i
                if f.word:
                    continue
                key = (below[f.base], col)
                entries[key] = entries.get(key, 0) + sign
        diffs.append(
            IntMatrix(ranks[k - 1], ranks[k], entries)
        )
    return ChainComplex(ranks, diffs, check=True)
