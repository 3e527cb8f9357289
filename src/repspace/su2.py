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
and a tuple of elements is a sequence of them.  ``_unit`` normalizes and
``_unit_product`` multiplies and normalizes.  Every product, inverse,
negation and conjugate renormalizes, so drift over the tuple sizes used
here (well under 10^2 products) stays far below the default 1e-9
tolerance.

No commutator is ever formed.  For unit a and b, [a, b] ∓ 1 =
(ab ∓ ba)(ba)⁻¹ and |ba| = 1, so the distance of a b a⁻¹ b⁻¹ from ±1 is
|ab ∓ ba|, which ``_central_sign`` reads off one cross product and one
symmetric product.  Negating a lift negates ab ∓ ba, and conjugating
both elements by g turns it into g (ab ∓ ba) g⁻¹; neither changes its
norm, so signs and distances ignore lift signs and conjugation.
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


def _unit_product(a: tuple, b: tuple) -> tuple:
    """The Hamilton product of two 4-tuples, renormalized by ``_unit``."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return _unit(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def inverse(a: tuple) -> tuple:
    w, x, y, z = a
    return _unit(w, -x, -y, -z)


def neg(a: tuple) -> tuple:
    w, x, y, z = a
    return _unit(-w, -x, -y, -z)


def conjugate(g: tuple, x: tuple, gi: tuple) -> tuple:
    """g x g⁻¹ on 4-tuples, given gi = g⁻¹, renormalized as ``g * x * gi``."""
    return _unit_product(_unit_product(g, x), gi)


def _central_sign(a: tuple, b: tuple):
    """(sign, distance) of the nearer of ±1 to the commutator a b a⁻¹ b⁻¹;
    the squared distances are compared, and a tie goes to +1.

    Precondition: |a| = |b| = 1.  Then the distance from ±1 is |ab ∓ ba|,
    and for a = (a₀, u) and b = (b₀, v)

        ab − ba = 2 (0, u × v),
        ab + ba = 2 (a₀b₀ − u·v, a₀v + b₀u),

    so no inverse and no renormalized product is formed, and only the
    nearer distance takes a square root.  Norms 1 + ε and 1 + δ scale
    both distances by (1 + ε)(1 + δ); the 4-tuples here come from
    ``_unit``, whose drift is at most NORM_TOL.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    sw = aw * bw - ax * bx - ay * by - az * bz
    sx, sy, sz = aw * bx + bw * ax, aw * by + bw * ay, aw * bz + bw * az
    plus = cx * cx + cy * cy + cz * cz
    minus = sw * sw + sx * sx + sy * sy + sz * sz
    if plus <= minus:
        return 1, 2.0 * math.sqrt(plus)
    return -1, 2.0 * math.sqrt(minus)


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


def pairwise_commutators(quads, refuse=None):
    """(sign rows as tuples, largest defect) over every pairwise commutator
    of a sequence of unit 4-tuples.

    Each commutator is matched to the nearer of ±1 by ``_central_sign``,
    whose distance is |ab ∓ ba|: unchanged by a lift's sign or by a
    common conjugation.  With ``refuse`` given, the first pair (i, j)
    farther than DEFAULT_TOL raises ``refuse(i, j, distance)``.
    """
    n = len(quads)
    rows = [[1] * n for _ in range(n)]
    worst = 0.0
    for i in range(n):
        a = quads[i]
        for j in range(i + 1, n):
            sign, dist = _central_sign(a, quads[j])
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
    rows, _ = pairwise_commutators(quads, NotAlmostCommuting)
    return SignMatrix(len(rows), rows)


def max_commutator_defect(quads) -> float:
    """Largest distance of any pairwise commutator of a sequence of unit
    4-tuples from {±1}, read off ab ∓ ba as |ab ∓ ba|; a lift's sign or a
    common conjugation changes no such norm."""
    return pairwise_commutators(quads)[1]


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
    sign, dist = _central_sign(x_i, x_j)
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
        elements[k] = y if w[s] == 1 else neg(y)
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

    Well-defined: each sign and distance is read off ab ∓ ba, which a
    lift's sign only negates and a common conjugation by g turns into
    g (ab ∓ ba) g⁻¹, so no norm changes.  Raises NotCommutingInSO3 when
    some projected pair fails to commute within tolerance.
    """

    def refuse(i, j, dist):
        return NotCommutingInSO3(
            f"rotations {i} and {j} do not commute in SO(3) "
            f"(lifted commutator {dist:.3e} from ±1)"
        )

    rows, _ = pairwise_commutators(rotations, refuse)
    return SignMatrix(len(rows), rows)


def random_unit(rng: random.Random) -> tuple:
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
    g = random_unit(rng)
    gi = inverse(g)
    elements = []
    for _ in range(n):
        theta = rng.uniform(0, 2 * math.pi)
        diag = _unit(math.cos(theta), math.sin(theta), 0.0, 0.0)
        elements.append(conjugate(g, diag, gi))
    return elements
