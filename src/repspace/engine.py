"""Homology of integer chain complexes, over Z and Z/p, with a result cache.

The engine never computes kernel bases.  For each boundary map it takes
the sparse invariant factors once (memoized per complex) and reads off

    H_k  =  Z^(n_k - rank d_k - rank d_{k+1})  +  torsion(coker d_{k+1})

which is valid because ker d_k is a pure subgroup of C_k, hence a direct
summand containing im d_{k+1}.  Mod-p dimensions come from
``abelian.rank_mod_p``, a row reduction over F_p of the raw boundary
matrices that shares no code with the invariant factors, so the
universal coefficient check compares two independent routes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

from .abelian import AbelianGroup, GradedGroup, IntMatrix, invariant_factors, rank_mod_p
from .counting import _is_prime
from .errors import CacheCorrupt, CompositionNotZero, NotPrime

ENGINE_VERSION = "1"


class ChainComplex:
    """Free Z-modules ranks[0..top] with boundaries d_k : C_k -> C_{k-1}.

    ``diffs[k-1]`` holds d_k, so len(diffs) == len(ranks) - 1.  Shape
    compatibility and d∘d = 0 are checked at construction unless the
    caller is a constructor that guarantees them (check=False).
    """

    __slots__ = ("ranks", "diffs", "_factors")

    def __init__(self, ranks, diffs, check=True):
        self.ranks = [int(r) for r in ranks]
        self.diffs = list(diffs)
        self._factors = {}
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
        for k in range(1, self.top):
            if not self.d(k).mul(self.d(k + 1)).is_zero():
                raise CompositionNotZero(f"d_{k} ∘ d_{k + 1} ≠ 0")

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))

    def _factor(self, k: int):
        if k not in self._factors:
            self._factors[k] = invariant_factors(self.d(k))
        return self._factors[k]

    def to_json(self):
        return {
            "ranks": self.ranks,
            "diffs": [
                [[r, c, v] for (r, c), v in sorted(d.entries.items())]
                for d in self.diffs
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "ChainComplex":
        ranks = doc["ranks"]
        diffs = [
            IntMatrix(
                ranks[k], ranks[k + 1], {(r, c): v for r, c, v in entries}
            )
            for k, entries in enumerate(doc["diffs"])
        ]
        return cls(ranks, diffs)


def homology(C: ChainComplex) -> GradedGroup:
    """Integral homology in invariant-factor form, lowest degree first."""
    out = []
    for k in range(len(C.ranks)):
        upper = C._factor(k + 1)
        free = C.ranks[k] - len(C._factor(k)) - len(upper)
        out.append(AbelianGroup.from_factors(free, upper))
    return GradedGroup(tuple(out))


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
    """dim_{F_p} H_k(C; F_p) for every degree."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    rank = [rank_mod_p(C.d(k), p) for k in range(len(C.ranks) + 1)]
    return [C.ranks[k] - rank[k] - rank[k + 1] for k in range(len(C.ranks))]


def universal_coefficients_check(C: ChainComplex, p: int) -> bool:
    """dim H_k(F_p) == rank H_k + t_p(H_k) + t_p(H_{k-1}) in every degree."""
    h = homology(C)
    dims = homology_mod_p(C, p)
    for k, dim in enumerate(dims):
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


def _cache_path(root, canonical: str) -> Path:
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return Path(root) / f"{digest}.json"


def _cache_read(path: Path, canonical: str) -> GradedGroup:
    try:
        doc = json.loads(path.read_text("utf-8"))
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


def _cache_write(path: Path, canonical: str, value: GradedGroup):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "key": canonical,
        "graded_group": value.to_json(),
        "digest": _digest(value.to_json()),
        "engine_version": ENGINE_VERSION,
    }
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=1), "utf-8")
    os.replace(tmp, path)


def cached_homology(space_key: str, cache_dir=None) -> GradedGroup:
    """Homology of a catalog space by descriptor, through the cache.

    Cache root: explicit argument, else the REPSPACE_CACHE environment
    variable, else no caching at all.  An unreadable entry, or one whose
    value does not match its digest, is recomputed and overwritten; an
    entry that cannot be written costs a one-line warning on stderr, not
    the answer.
    """
    from . import catalog  # deferred import; catalog builds on the engine

    canonical, build = catalog.resolve(space_key)
    root = cache_dir if cache_dir is not None else os.environ.get("REPSPACE_CACHE")
    if root:
        path = _cache_path(root, canonical)
        if path.exists():
            try:
                return _cache_read(path, canonical)
            except CacheCorrupt:
                pass  # fall through to recompute and overwrite
    value = build()
    if isinstance(value, ChainComplex):
        value = homology(value)
    if root:
        try:
            _cache_write(_cache_path(root, canonical), canonical, value)
        except OSError as exc:
            print(f"warning: result not cached: {exc}", file=sys.stderr)
    return value
