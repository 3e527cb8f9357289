"""Finite simplicial sets and their standard constructions.

A simplicial set is stored by its nondegenerate simplices only.  Every
(possibly degenerate) simplex is a :class:`FormalSimplex`: a degeneracy
word in Eilenberg-Zilber normal form (strictly decreasing indices,
outermost first) applied to a nondegenerate base.  The simplicial
identities

    d_i s_j = s_{j-1} d_i  (i < j),   d_j s_j = d_{j+1} s_j = id,
    d_i s_j = s_j d_{i-1}  (i > j+1),   s_i s_j = s_{j+1} s_i  (i <= j)

are stated once: the face rule in :func:`_degeneracy_faces` and the
exchange rule in :func:`compose_degeneracy`.  A face of a degenerate
simplex is read from the faces one degree down: the degree tables of a
product's factors and the validation of a face table both peel the
outermost degeneracy and apply the face rule.

Products use the shuffle description: a nondegenerate k-simplex of a
product is a tuple of formal k-simplices whose degeneracy words have
empty common intersection.  Their number follows from the factors'
f-vectors alone, so a product over the cell budget is refused before
its first simplex is built.  Products are built from per-factor tables:
each factor's formal simplices, their ids and their faces are computed
once per degree, not once per product simplex.  A symmetric product
SP^m X = X^m / Σ_m is built from the same tables without X^m: each
Σ_m orbit of product simplices has exactly one member whose coordinates
are sorted by table position, and only those are enumerated.  A Z/2
action is stored as one involution, a self-inverse permutation of each
degree's positions that commutes with the face maps; a quotient takes
its orbits, the pairs {p, image of p}.  Geometric realization preserves
both colimits, so the realizations are the honest product and quotient
spaces.  A collapse of everything outside a locally closed set of
simplices, marked by one flag per position, completes the constructions.

A simplex is found by its position only: per degree, one face row
(d_0 x, ..., d_k x) per simplex, each face a pair (degeneracy word,
position of its base in the degree below the word).  The builders emit
these rows from the positions they hold, and validation, the action, the
collapse and the chains read them.  Identifiers are names: canonical
strings derived from construction history ("(a|s0(v))" for product
tuples, "[x]" for orbits, "*" for a collapse basepoint), so equal
constructions produce identical ids across runs.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key
from itertools import chain, combinations, combinations_with_replacement, groupby
from itertools import product as iter_product
from math import comb, prod
from operator import itemgetter

from .abelian import IntMatrix
from .engine import ChainComplex
from .errors import ActionInvalid, ResourceGuard

BASEPOINT_ID = "*"
CELL_BUDGET = 200_000


class FormalSimplex(namedtuple("FormalSimplex", ("word", "base"))):
    """A degeneracy word applied to a nondegenerate simplex: its id, or in
    a face table its position."""

    __slots__ = ()

    def render(self) -> str:
        if not self.word:
            return self.base
        return "s" + "_".join(map(str, self.word)) + "(" + self.base + ")"


def compose_degeneracy(j: int, f) -> FormalSimplex:
    """Normal form of s_j applied on the outside of f = (word, base): the
    indices w >= j of f's decreasing word move up to w + 1 and j goes after
    them."""
    word = f[0]
    t = 0
    while t < len(word) and word[t] >= j:
        t += 1
    return FormalSimplex(tuple([w + 1 for w in word[:t]]) + (j,) + word[t:], f[1])


def _degeneracy_faces(j: int, g, below, lift) -> tuple:
    """The faces d_0, d_1, ... of s_j g, from g and g's faces ``below``, by
    the simplicial identities: d_i s_j g is s_{j-1} d_i g for i < j, g for
    i = j, j + 1, and s_j d_{i-1} g for i > j + 1; lift(j', x) is s_j' x."""
    return (
        *[lift(j - 1, x) for x in below[:j]],
        g,
        g,
        *[lift(j, x) for x in below[j + 1 :]],
    )


class _PushedFaces(dict):
    """The faces of each degenerate formal simplex of one degree e, pushed once.

    f = (word, q) is s_j g for j = word[0] and g = (word[1:], q) of degree
    e - 1, so its faces follow from g's (:func:`_degeneracy_faces`): the
    row of a nondegenerate g in ``rows`` (the degree e - 1 table), else
    g's own pushed faces in ``lower`` (degree e - 1's pushes).
    """

    __slots__ = ("rows", "lower")

    def __init__(self, rows, lower):
        super().__init__()
        self.rows = rows
        self.lower = lower

    def __missing__(self, f):
        word, q = f
        g = (word[1:], q)
        below = self.lower[g] if len(word) > 1 else self.rows[q]
        row = self[f] = _degeneracy_faces(word[0], g, below, compose_degeneracy)
        return row


class SimplicialSet:
    """Nondegenerate simplices per dimension and their faces by position.

    ``simplices[k]`` lists the ids of the k-simplices, and ``table[k][p]``
    is the face row (d_0 x, ..., d_k x) of the p-th of them: each face a
    pair (word, q), the degeneracy word applied to simplex q of degree
    k - 1 - len(word).  A vertex's row is empty.  The table, one list of
    rows per degree from 0, is the one source of faces and the one input
    form; ids only name the simplices, and ``dim_of`` gives each id's
    degree.  ``parts`` (coordinates, kept by products and by their
    quotients) records construction provenance that later constructions
    need; it is not part of the space itself.
    """

    __slots__ = ("simplices", "table", "basepoint", "dim_of", "parts")

    def __init__(self, simplices, table, basepoint=None, check=True):
        self.simplices = {
            k: list(ids) for k, ids in sorted(simplices.items()) if ids
        }
        self.basepoint = basepoint
        self.dim_of = {}
        for k, ids in self.simplices.items():
            for sid in ids:
                if sid in self.dim_of:
                    raise ValueError(f"duplicate simplex id {sid!r}")
                self.dim_of[sid] = k
        self.table = table
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

    def formal_simplices(self, k: int):
        """All formal k-simplices, grouped by degeneracy word."""
        out = []
        for j in range(min(k, self.dim) + 1):
            for asc in combinations(range(k), k - j):
                word = tuple(reversed(asc))
                out.extend(FormalSimplex(word, sid) for sid in self.ids(j))
        return out

    # -- integrity ----------------------------------------------------------

    def validate(self):
        """Refuse (ValueError) a table that is no simplicial set: a row of
        the wrong length, a word out of normal form or range, a position
        outside its degree, or d_i d_j ≠ d_{j-1} d_i."""
        if self.basepoint is not None and self.dim_of.get(self.basepoint) != 0:
            raise ValueError(f"basepoint {self.basepoint!r} is not a 0-simplex")
        if self.simplices and sorted(self.simplices) != list(
            range(max(self.simplices) + 1)
        ):
            raise ValueError("dimensions are not contiguous from 0")
        table = self.table
        sizes = [len(self.ids(k)) for k in range(len(table))]
        if len(table) <= self.dim or list(map(len, table)) != sizes:
            raise ValueError("the face table needs one row per simplex")
        for sid, row in zip(self.ids(0), table[0] if table else ()):
            if row:
                raise ValueError(f"0-simplex {sid!r} has a face entry")
        for k in range(1, len(table)):
            ids, below, checked = self.ids(k), sizes[k - 1], set()
            for p, row in enumerate(table[k]):
                if len(row) != k + 1:
                    raise ValueError(f"{ids[p]!r} needs {k + 1} faces")
                for f in row:
                    word, q = f
                    if not word:
                        if 0 <= q < below:
                            continue
                        d = k - 1
                    elif f in checked:  # a degenerate face that passed
                        continue
                    else:
                        if any(a <= b for a, b in zip(word, word[1:])):
                            raise ValueError(f"face word of {ids[p]!r} not normal")
                        if word[0] > k - 2 or word[-1] < 0:
                            raise ValueError(f"face word of {ids[p]!r} out of range")
                        d = k - 1 - len(word)
                        if 0 <= q < sizes[d]:
                            checked.add(f)
                            continue
                    raise ValueError(
                        f"face of {ids[p]!r} references position {q} of degree {d}"
                    )
        # simplicial identities d_i d_j = d_{j-1} d_i (i < j) on generators:
        # with the face rows of the faces of all k-simplices in one list,
        # k + 1 to a simplex, d_i d_j of every k-simplex is item i of the
        # rows taken from j in steps of k + 1; each side of an identity is
        # one such list, and the pairs are walked only to name a failure
        pushed = [None]
        for e in range(1, len(table)):
            pushed.append(_PushedFaces(table[e - 1], pushed[e - 1]))
        for k in range(2, len(table)):
            lower, push = table[k - 1], pushed[k - 1]
            faces = chain.from_iterable(table[k])
            ds = [push[f] if f[0] else lower[f[1]] for f in faces]
            if all(
                list(map(itemgetter(i), ds[j :: k + 1]))
                == list(map(itemgetter(j - 1), ds[i :: k + 1]))
                for j in range(1, k + 1)
                for i in range(j)
            ):
                continue
            for p, sid in enumerate(self.ids(k)):
                dp = ds[p * (k + 1) : (p + 1) * (k + 1)]
                for j in range(1, k + 1):
                    for i in range(j):
                        if dp[j][i] != dp[i][j - 1]:
                            raise ValueError(
                                f"d_{i} d_{j} ≠ d_{j - 1} d_{i} on {sid!r}"
                            )


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
    """X's degree tables for k = 0..top, each face read from the tables below.

    A nondegenerate simplex's faces are its table row.  A degenerate
    one is s_j g with j its word's outermost index, so each face is g or
    s_j' of a face of g (:func:`_degeneracy_faces`).  Pools keep each
    degeneracy set contiguous with the bases in X's order, so s_j' maps
    each degree k - 2 run onto the degree k - 1 run of the shifted set.
    """
    degrees, starts = [], []
    for k in range(top + 1):
        pool = X.formal_simplices(k)
        masks = [sum(1 << w for w in f.word) for f in pool]
        runs = []
        for p, mask in enumerate(masks):
            if runs and runs[-1][0] == mask:
                runs[-1][2] = p + 1
            else:
                runs.append([mask, p, p + 1])
        starts.append({mask: p for mask, p, _ in runs})
        faces = []
        if k:
            below, lower = starts[k - 1], degrees[k - 1].faces
            lifts = []  # lifts[j][q]: the degree k - 1 position of s_j q
            for j in range(k - 1):
                lifts.append([])
                for m, start, stop in degrees[k - 2].runs:
                    low = m & ((1 << j) - 1)
                    first = below[low | (m ^ low) << 1 | 1 << j]
                    lifts[j].extend(range(first, first + stop - start))
            lift = lambda j, q: lifts[j][q]
            for mask, start, stop in runs:
                if not mask:  # X's own k-simplices, in X's order
                    faces.extend(
                        tuple([below[sum(1 << w for w in word)] + q for word, q in row])
                        for row in X.table[k]
                    )
                    continue
                j = mask.bit_length() - 1
                first = below[mask ^ 1 << j]
                for g in range(first, first + stop - start):
                    row = lower[g] if k > 1 else ()
                    faces.append(_degeneracy_faces(j, g, row, lift))
        degrees.append(
            _Degree(pool, masks, [f.render() for f in pool], faces, runs)
        )
    return degrees


def _normalize_tuple(tables, k, ps, ids) -> tuple:
    """The product simplex with degree-k pool positions ``ps``, in normal form,
    as a face (word, position).

    A product simplex is in the image of s_j exactly when j lies in every
    factor's degeneracy set; peeling the largest common index first (d_j
    on every coordinate) keeps the accumulated outer word strictly
    decreasing.  ``tables`` holds each factor's degree tables and
    ``ids[k]`` maps jointly nondegenerate positions to their product
    simplex, as the face ((), its position).  For a symmetric
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
            return (tuple(prefix), face[1]) if prefix else face
        j = common.bit_length() - 1
        ps = tuple(t[k].faces[p][j] for t, p in zip(tables, ps))
        prefix.append(j)
        k -= 1


def product_list(factors) -> SimplicialSet:
    """Product of finitely many simplicial sets (shuffle description).

    Each distinct factor's formal simplices, ids and faces are tabled once
    per degree.  Only combinations of degeneracy sets with empty common
    intersection are expanded, and the tuples found are taken in the
    lexicographic order of their pool positions.  A face is looked up
    first in the lower degree's index of jointly nondegenerate tuples; only
    a miss, a face whose coordinates share a degeneracy, goes through
    ``_normalize_tuple``.  The result records
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
    table = []
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
        below = ids[k - 1] if k else None
        level, rows = [], []
        for at, ps in enumerate(found):
            sid = "(" + "|".join([t.names[p] for t, p in zip(level_tables, ps)])
            sid += ")"
            index[ps] = ((), at)
            level.append(sid)
            parts[sid] = tuple([t.pool[p] for t, p in zip(level_tables, ps)])
            if k:
                faced = [t.faces[p] for t, p in zip(level_tables, ps)]
                rows.append(
                    tuple(
                        [
                            below.get(qs) or _normalize_tuple(tables, k - 1, qs, ids)
                            for qs in zip(*faced)
                        ]
                    )
                )
        simplices[k] = level
        table.append(rows if k else [()] * len(level))
    basepoint = None
    if all(X.basepoint is not None for X in factors):
        basepoint = product_simplex_id(
            FormalSimplex((), X.basepoint) for X in factors
        )
    out = SimplicialSet(simplices, table, basepoint=basepoint, check=False)
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
    orbit is indexed once, under its sorted positions.  A face is looked
    up first in the lower degree's index, as its positions come and then
    sorted; only a miss, a face whose coordinates share a degeneracy, goes
    through ``_normalize_tuple``, whose peeled positions ``_OrbitIndex``
    sorts.  The result is validated.
    Refused (ResourceGuard) when X^m is over ``CELL_BUDGET``.
    """
    guard_product([X.f_vector()] * m)
    degrees = _factor_degrees(X, m * X.dim)
    tables = [degrees] * m
    simplices = {}
    table = []
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
        level, rows = [], []
        rank = _least_id_ranks(t.names).__getitem__
        below = ids[k - 1] if k else None
        for at, ps in enumerate(found):
            least = sorted(ps, key=rank)
            oid = "[(" + "|".join([t.names[p] for p in least]) + ")]"
            index[ps] = ((), at)
            level.append(oid)
            parts[oid] = tuple([t.pool[p] for p in least])
            if k:
                rows.append(
                    tuple(
                        [
                            below.get(qs)
                            or below.get(tuple(sorted(qs)))
                            or _normalize_tuple(tables, k - 1, qs, ids)
                            for qs in zip(*[t.faces[p] for p in ps])
                        ]
                    )
                )
        simplices[k] = level
        table.append(rows if k else [()] * len(level))
    basepoint = None
    if X.basepoint is not None:
        point = FormalSimplex((), X.basepoint)
        basepoint = "[" + product_simplex_id([point] * m) + "]"
    out = SimplicialSet(simplices, table, basepoint=basepoint)
    out.parts = parts
    return out


# ---------------------------------------------------------------------------
# SECTION: group actions and quotients


class SimplicialAction:
    """Z/2 acting on nondegenerate simplices by one involution.

    ``images[k][p]`` is the position of the image of the k-simplex at
    position p.  A self-inverse permutation of each degree that commutes
    with every face map is a simplicial action of Z/2, whose orbits are
    the pairs {p, images[k][p]}.  The action extends to formal simplices
    by acting on the base.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = images

    def validate(self, X: SimplicialSet):
        """Refuse (ActionInvalid) images that are no self-inverse simplicial
        automorphism of X: not one image per simplex of each degree, an
        image outside its degree, an image whose image is not the simplex,
        or a face map the images do not commute with.

        Each pair {p, t} is compared once, at its lesser position: for a
        self-inverse map, d_i t = image(d_i p) is d_i p = image(d_i t).
        """
        images = self.images
        if list(map(len, images)) != X.f_vector():
            raise ActionInvalid("the action needs one image per simplex")
        for k, moved in enumerate(images):
            ids = X.ids(k)
            for p, t in enumerate(moved):
                if not 0 <= t < len(ids):
                    raise ActionInvalid(f"the action maps {ids[p]!r} outside the space")
                if moved[t] != p:
                    raise ActionInvalid(f"the action is not self-inverse at {ids[p]!r}")
        for k in range(1, len(images)):
            rows = X.table[k]
            for p, t in enumerate(images[k]):
                if t < p:
                    continue
                for i, ((word, q), g) in enumerate(zip(rows[p], rows[t])):
                    if g != (word, images[k - 1 - len(word)][q]):
                        raise ActionInvalid(
                            f"the action does not commute with d_{i} on {X.ids(k)[p]!r}"
                        )


def quotient_by_action(X: SimplicialSet, A: SimplicialAction) -> SimplicialSet:
    """Orbit simplicial set X/(Z/2), with the action and the result validated.

    The involution permutes nondegenerate simplices, so its orbits, the
    pairs {p, images[k][p]}, are exactly the nondegenerate simplices of
    the quotient, in the order in which they first occur in X.  An
    orbit's id is its lesser member's id in brackets, and its faces are
    induced on that member: each face's position becomes its orbit's.
    When X records ``parts``, so does the quotient: each orbit's
    representative's coordinates.
    """
    A.validate(X)
    simplices, table, orbit = {}, [], []  # orbit[k][p]: p's orbit position
    for k, moved in enumerate(A.images):
        ids = X.ids(k)
        at = [None] * len(ids)
        level, reps = [], []
        for p, t in enumerate(moved):
            if at[p] is None:
                at[p] = at[t] = len(level)
                reps.append(p if ids[p] <= ids[t] else t)
                level.append("[" + ids[reps[-1]] + "]")
        orbit.append(at)
        simplices[k] = level
        image = [((), o) for o in orbit[k - 1]] if k else []
        table.append(
            [
                tuple(
                    [
                        (w, orbit[k - 1 - len(w)][q]) if w else image[q]
                        for w, q in X.table[k][r]
                    ]
                )
                for r in reps
            ]
        )
    basepoint = None
    if X.basepoint is not None:
        basepoint = simplices[0][orbit[0][X.ids(0).index(X.basepoint)]]
    out = SimplicialSet(simplices, table, basepoint=basepoint)
    if X.parts is not None:
        out.parts = {oid: X.parts[oid[1:-1]] for oid in out.dim_of}
    return out


# ---------------------------------------------------------------------------
# SECTION: basepoint directions and collapse


def basepoint_directions(X: SimplicialSet) -> list:
    """Per degree, the coordinates j in which each simplex sits at the
    basepoint: ``directions[k][p]`` for the k-simplex at position p.

    X records ``parts`` (a product, or a quotient of one).
    The simplices with a nonempty answer form the fat wedge.
    """
    base = [b.base for b in X.parts[X.basepoint]]
    return [
        [
            frozenset(j for j, f in enumerate(X.parts[sid]) if f.base == base[j])
            for sid in X.ids(k)
        ]
        for k in range(X.dim + 1)
    ]


def collapse(X: SimplicialSet, keep) -> SimplicialSet:
    """The simplices flagged in ``keep`` kept, every other face collapsed to
    a point.

    ``keep[k][p]`` flags the k-simplex at position p, one list per degree.
    The kept simplices stay in X's order after a fresh basepoint ``*``, and
    a face not kept becomes a total degeneration of ``*``.  The kept set
    must be locally closed: no face outside it has a face inside it.  When
    it is X minus a subcomplex A, the result is the quotient X / |A|.
    """
    if list(map(len, keep)) != X.f_vector():
        raise ValueError("keep needs one flag per simplex")
    if BASEPOINT_ID in X.dim_of:
        raise ValueError("space already contains the reserved id '*'")
    simplices, table = {}, []
    at = []  # at[k][p]: the new position of X's k-simplex p, None if collapsed
    dropped = [set() for _ in range(X.dim + 1)]  # collapsed faces, by degree
    for k in range(X.dim + 1):
        level = [BASEPOINT_ID] if k == 0 else []
        new = []
        for sid, kept in zip(X.ids(k), keep[k]):
            if kept:
                new.append(len(level))
                level.append(sid)
            else:
                new.append(None)
        at.append(new)
        simplices[k] = level
        if k == 0:
            table.append([()] * len(level))
            continue
        point = (tuple(range(k - 2, -1, -1)), 0)
        image = [point if r is None else ((), r) for r in at[k - 1]]
        rows = []
        for row, r in zip(X.table[k], new):
            if r is None:
                continue
            out = []
            for word, q in row:
                if not word:
                    f = image[q]
                    if f is point:
                        dropped[k - 1].add(q)
                else:
                    d = k - 1 - len(word)
                    if at[d][q] is None:
                        dropped[d].add(q)
                        f = point
                    else:
                        f = (word, at[d][q])
                out.append(f)
            rows.append(tuple(out))
        table.append(rows)
    frontier = [(d, q) for d, qs in enumerate(dropped) for q in qs]
    while frontier:
        d, q = frontier.pop()
        for word, r in X.table[d][q]:
            e = d - 1 - len(word)
            if at[e][r] is not None:
                raise ValueError(
                    f"keep is not locally closed: {X.ids(d)[q]!r} is collapsed "
                    f"but its face {X.ids(e)[r]!r} is kept"
                )
            if r not in dropped[e]:
                dropped[e].add(r)
                frontier.append((e, r))
    return SimplicialSet(simplices, table, basepoint=BASEPOINT_ID, check=False)


# ---------------------------------------------------------------------------
# SECTION: normalized chains


def normalized_chains(X: SimplicialSet) -> ChainComplex:
    """One generator per nondegenerate simplex; degenerate faces drop out.

    Each simplex's boundary is its column, read off its table row: a
    nondegenerate face d_i at position q adds (-1)^i to row q.  Rows and
    columns keep the stored order per dimension, so the boundary matrices
    are reproducible across runs.
    """
    if X.dim < 0:
        return ChainComplex([], [])
    ranks = X.f_vector()
    diffs = []
    for k in range(1, X.dim + 1):
        columns = []
        for row in X.table[k]:
            column = {}
            sign = -1
            for word, q in row:
                sign = -sign  # (-1)^i for d_i
                if not word:
                    column[q] = column.get(q, 0) + sign
            columns.append(column)
        diffs.append(IntMatrix(ranks[k - 1], columns))
    return ChainComplex(ranks, diffs, check=True)
