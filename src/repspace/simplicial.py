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
empty common intersection.  Quotients by finite group actions take
orbits of nondegenerate simplices; geometric realization preserves both
colimits, so the realizations are the honest product and quotient
spaces.

Identifiers are canonical strings derived from construction history
("(a|s0(v))" for product tuples, "[x]" for orbits, "*" for a collapse
basepoint), so equal constructions produce identical ids across runs.
"""

from __future__ import annotations

from itertools import combinations
from itertools import product as iter_product
from typing import NamedTuple

from .abelian import IntMatrix
from .engine import ChainComplex
from .errors import ActionInvalid, MissingBasepoint, ResourceGuard

BASEPOINT_ID = "*"


class FormalSimplex(NamedTuple):
    """A degeneracy word applied to a nondegenerate simplex id."""

    word: tuple
    base: str

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)

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
    of FormalSimplexes.  ``parts`` (for products) and ``orbit_of`` /
    ``orbit_rep`` (for quotients) record construction provenance that
    later constructions need; they are not part of the space itself.
    """

    __slots__ = ("simplices", "faces", "basepoint", "dim_of", "parts", "orbit_of", "orbit_rep")

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
        self.orbit_of = None
        self.orbit_rep = None
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

    def face(self, sid: str, i: int) -> FormalSimplex:
        return self.faces[sid][i]

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
        for sid, k in self.dim_of.items():
            if k == 0:
                if sid in self.faces:
                    raise ValueError(f"0-simplex {sid!r} has a face entry")
                continue
            fs = self.faces.get(sid)
            if fs is None or len(fs) != k + 1:
                raise ValueError(f"{sid!r} needs {k + 1} faces")
            for f in fs:
                if f.base not in self.dim_of:
                    raise ValueError(f"face of {sid!r} references {f.base!r}")
                if len(f.word) + self.dim_of[f.base] != k - 1:
                    raise ValueError(f"face of {sid!r} has wrong dimension")
                if any(a <= b for a, b in zip(f.word, f.word[1:])):
                    raise ValueError(f"face word of {sid!r} not normal")
                if f.word and f.word[0] > k - 2:
                    raise ValueError(f"face word of {sid!r} out of range")
        # simplicial identities d_i d_j = d_{j-1} d_i (i < j) on generators
        for sid, k in self.dim_of.items():
            if k < 2:
                continue
            fs = self.faces[sid]
            for j in range(1, k + 1):
                for i in range(j):
                    left = formal_face(self, fs[j], i)
                    right = formal_face(self, fs[i], j - 1)
                    if left != right:
                        raise ValueError(
                            f"d_{i} d_{j} ≠ d_{j - 1} d_{i} on {sid!r}"
                        )

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "simplices": {str(k): ids for k, ids in self.simplices.items()},
            "faces": {
                sid: [[list(f.word), f.base] for f in fs]
                for sid, fs in self.faces.items()
            },
            "basepoint": self.basepoint,
        }

    @classmethod
    def from_json(cls, doc) -> "SimplicialSet":
        simplices = {int(k): ids for k, ids in doc["simplices"].items()}
        faces = {
            sid: tuple(FormalSimplex(tuple(w), b) for w, b in fs)
            for sid, fs in doc["faces"].items()
        }
        return cls(simplices, faces, doc.get("basepoint"))


def minimal_circle(vertex="v", edge="e") -> SimplicialSet:
    """The one-vertex circle; smallest model, basepoint the vertex."""
    faces = {edge: (FormalSimplex((), vertex), FormalSimplex((), vertex))}
    return SimplicialSet({0: [vertex], 1: [edge]}, faces, basepoint=vertex)


# ---------------------------------------------------------------------------
# SECTION: products


def product_simplex_id(fs) -> str:
    """Id of the product simplex with coordinates ``fs``: "(a|s0(v))"."""
    return "(" + "|".join(f.render() for f in fs) + ")"


def _normalize_tuple(factors, fs):
    """Peel the common degeneracies off a tuple of formal simplices.

    Returns (word, tuple) with the tuple jointly nondegenerate: a product
    simplex is in the image of s_j exactly when j lies in every factor's
    degeneracy word, and peeling the largest common index first keeps the
    accumulated outer word strictly decreasing.
    """
    prefix = []
    while True:
        common = set(fs[0].word)
        for f in fs[1:]:
            common &= set(f.word)
            if not common:
                break
        if not common:
            return tuple(prefix), fs
        j = max(common)
        fs = tuple(formal_face(X, f, j) for X, f in zip(factors, fs))
        prefix.append(j)


def product_list(factors, check=True, budget=None) -> SimplicialSet:
    """Product of finitely many simplicial sets (shuffle description).

    The result records ``parts``: for every nondegenerate product simplex
    its tuple of factor FormalSimplexes.  Based factors give a based
    product.  ``budget`` caps the number of nondegenerate simplices.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    top = sum(X.dim for X in factors)
    simplices = {}
    faces = {}
    parts = {}
    ids_by_parts = {}
    total = 0
    for k in range(top + 1):
        pools = [X.formal_simplices(k) for X in factors]
        level = []
        for combo in iter_product(*pools):
            inter = combo[0][0]
            for item in combo[1:]:
                if not inter:
                    break
                inter = inter & item[0]
            if inter:
                continue
            fs = tuple(f for _, f in combo)
            sid = product_simplex_id(fs)
            level.append(sid)
            parts[sid] = fs
            ids_by_parts[fs] = sid
            total += 1
            if budget is not None and total > budget:
                raise ResourceGuard(
                    f"product exceeds budget of {budget} simplices"
                )
        if level:
            simplices[k] = level
        for sid in level:
            fs = parts[sid]
            if k == 0:
                continue
            row = []
            for i in range(k + 1):
                faced = tuple(
                    formal_face(X, f, i) for X, f in zip(factors, fs)
                )
                word, core = _normalize_tuple(factors, faced)
                row.append(FormalSimplex(word, ids_by_parts[core]))
            faces[sid] = tuple(row)
    basepoint = None
    if all(X.basepoint is not None for X in factors):
        basepoint = product_simplex_id(
            FormalSimplex((), X.basepoint) for X in factors
        )
    out = SimplicialSet(simplices, faces, basepoint=basepoint, check=check)
    out.parts = parts
    return out


def product(X: SimplicialSet, Y: SimplicialSet) -> SimplicialSet:
    return product_list([X, Y])


# ---------------------------------------------------------------------------
# SECTION: group actions and quotients


class SimplicialAction:
    """A finite group acting on nondegenerate simplices.

    ``elements`` lists group element names, ``mult[(g, h)]`` their
    product, and ``maps[g]`` the permutation of simplex ids.  The action
    extends to formal simplices by acting on the base.
    """

    __slots__ = ("elements", "identity", "mult", "maps")

    def __init__(self, elements, identity, mult, maps):
        self.elements = list(elements)
        self.identity = identity
        self.mult = dict(mult)
        self.maps = {g: dict(m) for g, m in maps.items()}

    @classmethod
    def involution(cls, X: SimplicialSet, swap) -> "SimplicialAction":
        """Z/2 action from a self-inverse map; ids not in ``swap`` are fixed."""
        full = {sid: swap.get(sid, sid) for sid in X.dim_of}
        ident = {sid: sid for sid in X.dim_of}
        return cls(
            ["e", "t"],
            "e",
            {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
            {"e": ident, "t": full},
        )

    def validate(self, X: SimplicialSet):
        if self.identity not in self.elements:
            raise ActionInvalid("identity element missing")
        if set(self.maps) != set(self.elements):
            raise ActionInvalid("maps and elements disagree")
        all_ids = set(X.dim_of)
        for g, m in self.maps.items():
            if set(m) != all_ids or set(m.values()) != all_ids:
                raise ActionInvalid(f"map of {g!r} is not a bijection on simplices")
            for sid, target in m.items():
                if X.dim_of[sid] != X.dim_of[target]:
                    raise ActionInvalid(f"map of {g!r} changes dimension")
        for sid in all_ids:
            if self.maps[self.identity][sid] != sid:
                raise ActionInvalid("identity element does not act trivially")
        for g in self.elements:
            for h in self.elements:
                gh = self.mult.get((g, h))
                if gh not in self.maps:
                    raise ActionInvalid(f"product {g!r}*{h!r} undefined")
                mg, mh, mgh = self.maps[g], self.maps[h], self.maps[gh]
                for sid in all_ids:
                    if mg[mh[sid]] != mgh[sid]:
                        raise ActionInvalid(
                            f"composition law fails at {g!r}*{h!r} on {sid!r}"
                        )
        for g in self.elements:
            m = self.maps[g]
            for sid, k in X.dim_of.items():
                if k == 0:
                    continue
                for i, f in enumerate(X.faces[sid]):
                    moved = X.faces[m[sid]][i]
                    if moved.word != f.word or moved.base != m[f.base]:
                        raise ActionInvalid(
                            f"action of {g!r} does not commute with d_{i} on {sid!r}"
                        )


def quotient_by_action(
    X: SimplicialSet, A: SimplicialAction, check=True
) -> SimplicialSet:
    """Orbit simplicial set X/G.

    The action permutes nondegenerate simplices, so orbits of
    nondegenerate simplices are exactly the nondegenerate simplices of
    the quotient; faces are induced on the lexicographically least
    representative.  Records ``orbit_of`` and ``orbit_rep``.
    """
    if check:
        A.validate(X)
    orbit_of = {}
    orbit_rep = {}
    simplices = {}
    for k, ids in X.simplices.items():
        level = []
        for sid in ids:
            if sid in orbit_of:
                continue
            members = {A.maps[g][sid] for g in A.elements}
            rep = min(members)
            oid = "[" + rep + "]"
            for m in members:
                orbit_of[m] = oid
            orbit_rep[oid] = rep
            level.append(oid)
        if level:
            simplices[k] = level
    faces = {}
    for oid, rep in orbit_rep.items():
        if X.dim_of[rep] == 0:
            continue
        faces[oid] = tuple(
            FormalSimplex(f.word, orbit_of[f.base]) for f in X.faces[rep]
        )
    basepoint = orbit_of[X.basepoint] if X.basepoint is not None else None
    out = SimplicialSet(simplices, faces, basepoint=basepoint, check=check)
    out.orbit_of = orbit_of
    out.orbit_rep = orbit_rep
    return out


# ---------------------------------------------------------------------------
# SECTION: subcomplexes, collapse, wedge, smash, suspension


def subcomplex(X: SimplicialSet, keep) -> SimplicialSet:
    """The simplicial subset on the given nondegenerate ids (face-closed)."""
    keep = set(keep)
    for sid in keep:
        if sid not in X.dim_of:
            raise ValueError(f"unknown simplex {sid!r}")
        if X.dim_of[sid] >= 1:
            for f in X.faces[sid]:
                if f.base not in keep:
                    raise ValueError(
                        f"{sid!r} kept but its face base {f.base!r} is not"
                    )
    simplices = {
        k: [sid for sid in ids if sid in keep]
        for k, ids in X.simplices.items()
    }
    faces = {sid: X.faces[sid] for sid in keep if X.dim_of[sid] >= 1}
    basepoint = X.basepoint if X.basepoint in keep else None
    out = SimplicialSet(simplices, faces, basepoint=basepoint, check=False)
    if X.parts is not None:
        out.parts = {sid: X.parts[sid] for sid in keep}
    return out


def collapse(X: SimplicialSet, kill) -> SimplicialSet:
    """Collapse a nonempty face-closed set of simplices to a fresh basepoint.

    Faces landing in the collapsed set become total degenerations of the
    new basepoint ``*``; the result is the quotient X / |kill|.
    """
    kill = set(kill)
    if not kill:
        raise ValueError("nothing to collapse")
    if BASEPOINT_ID in X.dim_of:
        raise ValueError("space already contains the reserved id '*'")
    for sid in kill:
        if X.dim_of[sid] >= 1:
            for f in X.faces[sid]:
                if f.base not in kill:
                    raise ValueError("collapsed set is not face-closed")
    simplices = {0: [BASEPOINT_ID]}
    faces = {}
    for k, ids in X.simplices.items():
        level = [sid for sid in ids if sid not in kill]
        if k == 0:
            simplices[0] = [BASEPOINT_ID] + level
        elif level:
            simplices[k] = level
        for sid in level:
            if k == 0:
                continue
            row = []
            for f in X.faces[sid]:
                if f.base in kill:
                    row.append(
                        FormalSimplex(tuple(range(k - 2, -1, -1)), BASEPOINT_ID)
                    )
                else:
                    row.append(f)
            faces[sid] = tuple(row)
    return SimplicialSet(simplices, faces, basepoint=BASEPOINT_ID, check=False)


def _relabel(X: SimplicialSet, rename) -> SimplicialSet:
    simplices = {
        k: [rename(sid) for sid in ids] for k, ids in X.simplices.items()
    }
    faces = {
        rename(sid): tuple(FormalSimplex(f.word, rename(f.base)) for f in fs)
        for sid, fs in X.faces.items()
    }
    bp = rename(X.basepoint) if X.basepoint is not None else None
    return SimplicialSet(simplices, faces, basepoint=bp, check=False)


def disjoint_union(Xs) -> SimplicialSet:
    simplices = {}
    faces = {}
    for i, X in enumerate(Xs):
        Y = _relabel(X, lambda sid, i=i: f"{i}:{sid}")
        for k, ids in Y.simplices.items():
            simplices.setdefault(k, []).extend(ids)
        faces.update(Y.faces)
    return SimplicialSet(simplices, faces, check=False)


def wedge(Xs) -> SimplicialSet:
    """One-point union along all basepoints (which merge into ``*``)."""
    Xs = list(Xs)
    for X in Xs:
        if X.basepoint is None:
            raise MissingBasepoint("wedge needs based inputs")
    simplices = {0: [BASEPOINT_ID]}
    faces = {}
    for i, X in enumerate(Xs):

        def rename(sid, i=i, bp=X.basepoint):
            return BASEPOINT_ID if sid == bp else f"{i}:{sid}"

        for k, ids in X.simplices.items():
            level = simplices.setdefault(k, [])
            level.extend(rename(sid) for sid in ids if sid != X.basepoint)
        for sid, fs in X.faces.items():
            faces[rename(sid)] = tuple(
                FormalSimplex(f.word, rename(f.base)) for f in fs
            )
    return SimplicialSet(simplices, faces, basepoint=BASEPOINT_ID, check=False)


def smash(Xs) -> SimplicialSet:
    """Smash product: the product with its fat wedge collapsed."""
    Xs = list(Xs)
    for X in Xs:
        if X.basepoint is None:
            raise MissingBasepoint("smash needs based inputs")
    P = product_list(Xs, check=False)
    bps = [X.basepoint for X in Xs]
    fat = [
        sid
        for sid, fs in P.parts.items()
        if any(f.base == bp for f, bp in zip(fs, bps))
    ]
    return collapse(P, fat)


def suspension(X: SimplicialSet) -> SimplicialSet:
    """Reduced suspension: smash with the one-vertex circle."""
    return smash([X, minimal_circle()])


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
            for i, f in enumerate(X.faces[sid]):
                if f.word:
                    continue
                key = (below[f.base], col)
                entries[key] = entries.get(key, 0) + (-1) ** i
        diffs.append(
            IntMatrix(ranks[k - 1], ranks[k], entries)
        )
    return ChainComplex(ranks, diffs, check=True)
