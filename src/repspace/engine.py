"""Homology of integer chain complexes, over Z and Z/p, with a result cache.

The engine never computes kernel bases.  It reads off

    H_k  =  Z^(n_k - rank d_k - rank d_{k+1})  +  torsion(coker d_{k+1})

which is valid because ker d_k is a pure subgroup of C_k, hence a direct
summand containing im d_{k+1}.  The ranks and torsion come from one
top-down clearing pass per complex, one ``abelian.invariant_factors``
call per boundary map: d_k is eliminated without the columns of the
rows of d_{k+1}'s first unit pivots.  Mod-p dimensions come from one
bottom-up pass of F_p row reductions (``abelian.lead_columns_mod_p``),
each d_{k+1} without the rows of d_k's lead columns.  The two passes
run in opposite directions on opposite operations and share no code, so
the universal coefficient check compares two independent routes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from .abelian import (
    AbelianGroup,
    GradedGroup,
    IntMatrix,
    invariant_factors,
    lead_columns_mod_p,
)
from .counting import _is_prime
from .errors import CacheCorrupt, CompositionNotZero, NotPrime

ENGINE_VERSION = "1"


def _by_column(d: IntMatrix) -> list:
    """d's entries as one list of (row, value) pairs per column."""
    by_col = [[] for _ in range(d.cols)]
    for (r, c), v in d.entries.items():
        by_col[c].append((r, v))
    return by_col


class ChainComplex:
    """Free Z-modules ranks[0..top] with boundaries d_k : C_k -> C_{k-1}.

    ``diffs[k-1]`` holds d_k, so len(diffs) == len(ranks) - 1.  Shape
    compatibility and d∘d = 0 are checked at construction unless the
    caller is a constructor that guarantees them (check=False).  Both
    cleared passes drop rows or columns on the strength of d∘d = 0, so
    on a non-complex they would answer wrongly rather than fail.
    """

    __slots__ = ("ranks", "diffs")

    def __init__(self, ranks, diffs, check=True):
        self.ranks = [int(r) for r in ranks]
        self.diffs = list(diffs)
        if any(r < 0 for r in self.ranks):
            raise ValueError("negative rank")
        if len(self.diffs) != max(len(self.ranks) - 1, 0):
            raise ValueError(
                f"{len(self.ranks)} ranks need {max(len(self.ranks) - 1, 0)} "
                f"boundary maps, got {len(self.diffs)}"
            )
        for k, d in enumerate(self.diffs, start=1):
            if d.shape != (self.ranks[k - 1], self.ranks[k]):
                raise ValueError(
                    f"d_{k} has shape {d.shape}, expected "
                    f"({self.ranks[k - 1]}, {self.ranks[k]})"
                )
        if check:
            self.validate()

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def d(self, k: int) -> IntMatrix:
        """Boundary map out of degree k (zero map outside 1..top)."""
        if 1 <= k <= self.top:
            return self.diffs[k - 1]
        if k <= 0:
            return IntMatrix.zero(0, self.ranks[0] if self.ranks else 0)
        return IntMatrix.zero(self.ranks[self.top] if self.ranks else 0, 0)

    def validate(self):
        """d_k ∘ d_{k+1} = 0 for k = 1 .. top - 1, column by column.

        Each boundary's entries are grouped once into per-column (row,
        value) lists, shared by the two compositions the boundary is part
        of; only the two boundaries of the composition being checked are
        held at a time.  Column c of d_k d_{k+1} is summed in a dict keyed
        by the rows of d_k, and the first nonzero column raises.  No
        product matrix is built, and every column of every composition is
        checked.
        """
        columns = map(_by_column, self.diffs)
        lower = next(columns, None)
        acc = {}
        get = acc.get
        for k, upper in enumerate(columns, start=1):
            for column in upper:
                for mid, v in column:
                    for r, w in lower[mid]:
                        acc[r] = get(r, 0) + v * w
                if any(acc.values()):
                    raise CompositionNotZero(f"d_{k} ∘ d_{k + 1} ≠ 0")
                acc.clear()
            lower = upper

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))


def homology(C: ChainComplex) -> GradedGroup:
    """Integral homology in invariant-factor form, lowest degree first.

    One top-down clearing pass (Chen and Kerber, "Persistent homology
    computation with a twist", 2011), one ``invariant_factors`` call per
    boundary map.  For k = top .. 1, d_k is eliminated without the columns
    of the rows of d_{k+1}'s first unit pivots.  Those pivots sit on a
    minor d_{k+1}[A, B] of determinant ±1, so d_k d_{k+1} = 0 writes each
    column of d_k in A as a Z-combination of its other columns: im d_k,
    hence its invariant factors, survive the deletion.
    """
    n = len(C.ranks)
    rank = [0] * (n + 1)
    upper = [()] * (n + 1)
    cleared = frozenset()
    for k in range(C.top, 0, -1):
        pivots = set()
        factors = invariant_factors(C.diffs[k - 1], cleared, pivots)
        rank[k] = len(factors)
        upper[k] = factors
        cleared = pivots
    return GradedGroup(
        tuple(
            AbelianGroup.from_factors(C.ranks[k] - rank[k] - rank[k + 1], upper[k + 1])
            for k in range(n)
        )
    )


def reduced_homology(C: ChainComplex) -> GradedGroup:
    """Homology with one Z removed in degree 0 (the complex must be nonempty)."""
    h = homology(C)
    if h[0].free_rank < 1:
        raise ValueError("reduced homology needs a nonempty degree 0")
    groups = (AbelianGroup(h[0].free_rank - 1, h[0].torsion),) + tuple(
        h[k] for k in range(1, len(h))
    )
    return GradedGroup(groups)


def homology_mod_p(C: ChainComplex, p: int) -> list:
    """dim_{F_p} H_k(C; F_p) for every degree, by one bottom-up pass.

    d_k is row-reduced with the rows of d_{k-1}'s lead columns dropped
    (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
    (co)homology", 2011).  Those lead columns are k-1 cells in which
    every cycle of C_{k-1} is determined by its other coordinates, so the
    dropped rows carry no rank of d_k, whose image consists of cycles.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    rank = [0] * (len(C.ranks) + 1)
    leads = ()
    for k in range(1, len(C.ranks)):
        leads = lead_columns_mod_p(
            {rc: v for rc, v in C.diffs[k - 1].entries.items() if rc[0] not in leads},
            p,
        )
        rank[k] = len(leads)
    return [C.ranks[k] - rank[k] - rank[k + 1] for k in range(len(C.ranks))]


def universal_coefficients_check(C: ChainComplex, *primes: int) -> bool:
    """dim H_k(F_p) == rank H_k + t_p(H_k) + t_p(H_{k-1}) in every degree,
    for each of the primes, against one integral homology of C."""
    if not primes:
        raise ValueError("universal coefficients check needs a prime")
    h = homology(C)
    for p in primes:
        for k, dim in enumerate(homology_mod_p(C, p)):
            expected = h[k].free_rank + h[k].torsion_rank(p)
            if k >= 1:
                expected += h[k - 1].torsion_rank(p)
            if dim != expected:
                return False
    return True


def suspend(C: ChainComplex) -> ChainComplex:
    """Chain model of the unreduced suspension.

    Two new 0-cells n, s; every original k-cell becomes a (k+1)-cell; the
    suspended 0-cells get boundary n - s and higher boundaries are copied.
    This satisfies d∘d = 0 exactly when the input is augmentable (every
    d_1 column sums to zero), which holds for chains of any space model.
    The effect on homology is the suspension shift H̃_{k+1} = H̃_k.

    check=False stays sound although both cleared passes rely on d∘d = 0:
    the one new composition, the new d_1 after C's d_1, is zero exactly
    by the augmentation test below, and every other composition is one
    of C's, checked when C was built (or, for a suspension, by this
    argument).
    """
    if not C.ranks:
        raise ValueError("cannot suspend an empty complex")
    for c in range(C.d(1).cols):
        if sum(C.d(1).entry(r, c) for r in range(C.d(1).rows)) != 0:
            raise ValueError("complex is not augmentable")
    n0 = C.ranks[0]
    d1 = IntMatrix(
        2, n0, {(0, c): 1 for c in range(n0)} | {(1, c): -1 for c in range(n0)}
    )
    return ChainComplex([2] + C.ranks, [d1] + C.diffs, check=False)


# ---------------------------------------------------------------------------
# SECTION: result cache
#
# One JSON file per canonical descriptor, named by the sha256 of the
# descriptor string.  Values are deterministic, so concurrent writers can
# only collide on identical content; last writer wins harmlessly.  Each
# entry carries the sha256 of its value's canonical JSON, so an entry
# whose value was altered is recomputed rather than trusted.


def _digest(graded_group_json) -> str:
    text = json.dumps(graded_group_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cache_path(root, canonical: str) -> str:
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return os.path.join(root, f"{digest}.json")


def _cache_read(path: str, canonical: str) -> GradedGroup:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("key") != canonical:
            raise CacheCorrupt(f"key mismatch in {path}")
        if doc.get("engine_version") != ENGINE_VERSION:
            raise CacheCorrupt(f"stale engine version in {path}")
        if doc.get("digest") != _digest(doc["graded_group"]):
            raise CacheCorrupt(f"value digest mismatch in {path}")
        return GradedGroup.from_json(doc["graded_group"])
    except CacheCorrupt:
        raise
    except Exception as exc:
        raise CacheCorrupt(f"unreadable cache entry {path}: {exc}") from exc


def _cache_write(path: str, canonical: str, value: GradedGroup):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "key": canonical,
        "graded_group": value.to_json(),
        "digest": _digest(value.to_json()),
        "engine_version": ENGINE_VERSION,
    }
    tmp = f"{os.path.splitext(path)[0]}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1))
    os.replace(tmp, path)


def cached_homology(canonical: str, build, cache_dir=None) -> GradedGroup:
    """Homology of ``build()``, the space of the canonical descriptor
    ``canonical``, through the cache.

    The one path is descriptor -> chain complex (``catalog.resolve``, which
    returns both arguments) -> ``homology``; this function adds only the
    cache, and calls ``build`` only when no valid entry exists.  Cache
    root: explicit argument, else the REPSPACE_CACHE environment variable,
    else no caching at all.  An unreadable entry, or one whose value does
    not match its digest, is recomputed and overwritten; an entry that
    cannot be written costs a one-line warning on stderr, not the answer.
    """
    root = cache_dir if cache_dir is not None else os.environ.get("REPSPACE_CACHE")
    if root:
        path = _cache_path(root, canonical)
        if os.path.exists(path):
            try:
                return _cache_read(path, canonical)
            except CacheCorrupt:
                pass  # fall through to recompute and overwrite
    value = homology(build())
    if root:
        try:
            _cache_write(_cache_path(root, canonical), canonical, value)
        except OSError as exc:
            print(f"warning: result not cached: {exc}", file=sys.stderr)
    return value
