"""Almost-commuting tuples in SU(2) via floating-point unit quaternions.

SU(2) is the group of unit quaternions; SO(3) elements are unit
quaternions modulo sign.  A tuple is almost-commuting (mod the center
{±1}) when every pairwise commutator is within tolerance of ±1; its
*sign matrix* records which.  The explicit constructor realizes a
requested sign matrix from one non-commuting base pair, which is the
executable content of the component-counting lower bound: a sign matrix
is realizable iff its F2 alternating form has rank at most two, and the
constructor raises TypeMismatch on exactly the other matrices.

A quaternion w + xi + yj + zk is the plain float 4-tuple (w, x, y, z),
and a tuple of elements is a sequence of them.  ``_unit`` normalizes,
``_product`` multiplies and ``_unit_product`` does both.  Every product,
inverse, negation and conjugate renormalizes, so drift over the tuple
sizes used here (well under 10^2 products) stays far below the default
1e-9 tolerance.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import lru_cache

from .errors import (
    BadBasePair,
    NotAlmostCommuting,
    NotCommutingInSO3,
    TypeMismatch,
)

NORM_TOL = 1e-12
DEFAULT_TOL = 1e-9


def _unit(w: float, x: float, y: float, z: float) -> tuple:
    """(w, x, y, z) divided by its norm, as a plain 4-tuple.

    Raises ValueError when the norm is below 1e-6 or not finite (a square
    that overflows is inf), and when the result drifts more than NORM_TOL
    from norm 1.  Squares are products, not ``**2``, so every float is
    correctly rounded and the same on every platform.
    """
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not 1e-6 <= n < math.inf:
        if n < 1e-6:
            raise ValueError("quaternion too close to zero to normalize")
        raise ValueError("quaternion has a non-finite norm")
    w, x, y, z = w / n, x / n, y / n, z / n
    drift = abs(w * w + x * x + y * y + z * z - 1.0)
    if drift > NORM_TOL:
        raise ValueError(f"normalized quaternion drifts {drift:.1e} from norm 1")
    return w, x, y, z


def _product(a: tuple, b: tuple) -> tuple:
    """The Hamilton product of two 4-tuples, not renormalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _unit_product(a: tuple, b: tuple) -> tuple:
    """``_unit(*_product(a, b))``, with the same float operations in the
    same order, without the intermediate tuple."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return _unit(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _inverse(a: tuple) -> tuple:
    w, x, y, z = a
    return _unit(w, -x, -y, -z)


def _neg(a: tuple) -> tuple:
    w, x, y, z = a
    return _unit(-w, -x, -y, -z)


def _commutator(a: tuple, b: tuple, ai: tuple, bi: tuple) -> tuple:
    """a b a⁻¹ b⁻¹ on 4-tuples, given ai = a⁻¹ and bi = b⁻¹; every product
    but the last renormalized."""
    return _product(_unit_product(_unit_product(a, b), ai), bi)


def _conjugate(g: tuple, x: tuple, gi: tuple) -> tuple:
    """g x g⁻¹ on 4-tuples, given gi = g⁻¹, renormalized as ``g * x * gi``."""
    return _unit_product(_unit_product(g, x), gi)


def _distance(a: tuple, bw: float) -> float:
    """Euclidean distance from a 4-tuple to the real quaternion bw."""
    w, x, y, z = a
    w -= bw
    return math.sqrt(w * w + x * x + y * y + z * z)


ONE = (1.0, 0.0, 0.0, 0.0)
I = (0.0, 1.0, 0.0, 0.0)
J = (0.0, 0.0, 1.0, 0.0)


class SignMatrix(namedtuple("SignMatrix", ("n", "entries"))):
    """Symmetric n×n matrix of commutator signs with +1 diagonal."""

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple):
        if len(entries) != n:
            raise ValueError("row count disagrees with n")
        for i in range(n):
            if len(entries[i]) != n:
                raise ValueError("column count disagrees with n")
            if entries[i][i] != 1:
                raise ValueError("diagonal sign must be +1")
            for j in range(n):
                if entries[i][j] not in (1, -1):
                    raise ValueError("entries must be ±1")
                if entries[i][j] != entries[j][i]:
                    raise ValueError("sign matrix must be symmetric")
        return tuple.__new__(cls, (n, entries))


def _f2_rank_at_most_2(rows) -> bool:
    """Whether bitmask rows span at most two dimensions over F2.

    ``min(r, r ^ b)`` clears b's leading bit from r.  Each basis element
    is reduced by the earlier ones, so it lacks their leading bits, and
    reducing in insertion order leaves none of them set.
    """
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            if len(basis) == 2:
                return False
            basis.append(r)
    return True


def _nearest_central_sign(q: tuple):
    """(sign, distance) of the nearer of ±1 to a unit 4-tuple."""
    d_plus = _distance(q, 1.0)
    d_minus = _distance(q, -1.0)
    return (1, d_plus) if d_plus <= d_minus else (-1, d_minus)


def _pairwise_commutators(quads, refuse=None):
    """(sign rows as tuples, largest defect) over every pairwise commutator
    of a sequence of 4-tuples.

    Each commutator is matched to the nearer of ±1.  With ``refuse``
    given, the first pair (i, j) farther than DEFAULT_TOL raises
    ``refuse(i, j, distance)``.  Each element is inverted once.
    """
    n = len(quads)
    inverses = [_inverse(q) for q in quads]
    rows = [[1] * n for _ in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            sign, dist = _nearest_central_sign(
                _unit(*_commutator(quads[i], quads[j], inverses[i], inverses[j]))
            )
            if refuse is not None and dist > DEFAULT_TOL:
                raise refuse(i, j, dist)
            rows[i][j] = rows[j][i] = sign
            worst = max(worst, dist)
    return tuple(map(tuple, rows)), worst


def commutator_type(quads) -> SignMatrix:
    """Sign matrix of all pairwise commutators of a sequence of unit 4-tuples.

    Raises NotAlmostCommuting when any commutator is farther than
    DEFAULT_TOL from both central elements.
    """
    rows, _ = _pairwise_commutators(quads, NotAlmostCommuting)
    return SignMatrix(len(rows), rows)


def max_commutator_defect(quads) -> float:
    """Largest distance of any pairwise commutator of a sequence of unit
    4-tuples from {±1}."""
    return _pairwise_commutators(quads)[1]


def psi_construct(x_i: tuple, x_j: tuple, w, C: SignMatrix, i: int, j: int) -> list:
    """Fill a tuple of the requested sign matrix from one anticommuting pair,
    returned as the list of its unit 4-tuples.

    Positions i and j receive the base pair; every other position k gets
    w_k · x_i^{a_k} · x_j^{b_k}, with exponents read off the matrix:
    C[i][k] = c^{b_k} and C[j][k] = c^{a_k}, where c = [x_i, x_j] = -1.
    The remaining entries are then forced to C[k][l] = c^{a_k b_l + a_l b_k};
    a matrix violating that (equivalently, of F2 rank > 2) raises
    TypeMismatch, and no almost-commuting SU(2) tuple realizes it at all.
    """
    n = C.n
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError("base indices out of range")
    if len(w) != n - 2:
        raise ValueError(f"need {n - 2} signs, got {len(w)}")
    if any(s not in (1, -1) for s in w):
        raise ValueError("w entries must be ±1")
    sign, dist = _nearest_central_sign(
        _unit(*_commutator(x_i, x_j, _inverse(x_i), _inverse(x_j)))
    )
    if dist > DEFAULT_TOL:
        raise NotAlmostCommuting(i, j, dist)
    if sign == 1:
        raise BadBasePair("base pair commutes; its commutator generates nothing")
    refusal, plan = _psi_plan(C.entries, i, j)
    if refusal is not None:
        raise TypeMismatch(refusal)
    elements = [None] * n
    elements[i] = x_i
    elements[j] = x_j
    # x^1 is ONE · x, renormalized; x^0 is ONE
    powers_i = (ONE, _unit_product(ONE, x_i))
    powers_j = (ONE, _unit_product(ONE, x_j))
    for s, (k, a, b) in enumerate(plan):
        y = _unit_product(powers_i[a], powers_j[b])
        elements[k] = y if w[s] == 1 else _neg(y)
    return elements


@lru_cache(maxsize=1 << 14)
def _psi_plan(entries: tuple, i: int, j: int) -> tuple:
    """(refusal, plan) of ``psi_construct`` for the sign rows ``entries``
    and the base pair (i, j), worked out once per matrix and pair.

    ``refusal`` is the TypeMismatch message of the first entry the base
    pair cannot produce, or None; ``plan`` holds (k, a_k, b_k) for every
    other position k in increasing order.  The cache is bounded: a sweep
    at the largest rank the sign tables allow touches fewer plans.
    """
    if entries[i][j] != -1:
        return f"matrix entry ({i},{j}) is +1 but the base pair anticommutes", ()
    others = [k for k in range(len(entries)) if k not in (i, j)]
    # c^{b_k} = C[i][k], c^{a_k} = C[j][k] with c = -1
    a = {k: (1 - entries[j][k]) // 2 for k in others}
    b = {k: (1 - entries[i][k]) // 2 for k in others}
    for s, k in enumerate(others):
        for l in others[s + 1 :]:
            forced = (-1) ** (a[k] * b[l] + a[l] * b[k])
            if entries[k][l] != forced:
                return f"entry ({k},{l}) must be {forced:+d} for this base pair", ()
    return None, tuple((k, a[k], b[k]) for k in others)


def classify_so3_tuple(rotations) -> SignMatrix:
    """Sign matrix of a commuting SO(3) tuple given by a sequence of unit
    4-tuple lifts.

    Well-defined: changing a lift by the central sign flips both factors
    of each commutator once, which cancels.  Raises NotCommutingInSO3
    when some projected pair fails to commute within tolerance.
    """

    def refuse(i, j, dist):
        return NotCommutingInSO3(
            f"rotations {i} and {j} do not commute in SO(3) "
            f"(lifted commutator {dist:.3e} from ±1)"
        )

    rows, _ = _pairwise_commutators(rotations, refuse)
    return SignMatrix(len(rows), rows)


def _random_unit(rng: random.Random) -> tuple:
    while True:
        q = (
            rng.gauss(0, 1),
            rng.gauss(0, 1),
            rng.gauss(0, 1),
            rng.gauss(0, 1),
        )
        if sum(v * v for v in q) > 1e-6:
            return _unit(*q)


def random_torus_tuple(n: int, seed) -> list:
    """n rotations about one common random axis: a commuting tuple, as the
    list of its unit 4-tuples.

    Built as g · diag(θ_k) · g^{-1} for one random g, so the sign matrix
    is all +1 for every seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    g = _random_unit(rng)
    gi = _inverse(g)
    elements = []
    for _ in range(n):
        theta = rng.uniform(0, 2 * math.pi)
        diag = _unit(math.cos(theta), math.sin(theta), 0.0, 0.0)
        elements.append(_conjugate(g, diag, gi))
    return elements
