"""Almost-commuting tuples in SU(2) via floating-point unit quaternions.

SU(2) is the group of unit quaternions; SO(3) elements are unit
quaternions modulo sign.  A tuple is almost-commuting (mod the center
{±1}) when every pairwise commutator is within tolerance of ±1; its
*sign matrix* records which.  The explicit constructor realizes a
requested sign matrix from one non-commuting base pair, which is the
executable content of the component-counting lower bound: a sign matrix
is realizable iff its F2 alternating form has rank at most two, and the
constructor raises TypeMismatch on exactly the other matrices.

Every product renormalizes, so drift over the tuple sizes used here
(well under 10^2 products) stays far below the default 1e-9 tolerance.
The arithmetic runs on plain float 4-tuples: ``_unit`` normalizes and
``_product`` multiplies.  Random elements, conjugates, the psi
constructor and commutators all have 4-tuple cores that perform the
UnitQuaternion operations in the same order, so the public functions are
thin wrappers over them and the construction sweep builds no objects.
"""

from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError, dataclass

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


def _inverse(a: tuple) -> tuple:
    w, x, y, z = a
    return _unit(w, -x, -y, -z)


def _neg(a: tuple) -> tuple:
    w, x, y, z = a
    return _unit(-w, -x, -y, -z)


def _commutator(a: tuple, b: tuple, ai: tuple, bi: tuple) -> tuple:
    """a b a⁻¹ b⁻¹ on 4-tuples, given ai = a⁻¹ and bi = b⁻¹; every product
    but the last renormalized."""
    return _product(_unit(*_product(_unit(*_product(a, b)), ai)), bi)


def _conjugate(g: tuple, x: tuple, gi: tuple) -> tuple:
    """g x g⁻¹ on 4-tuples, given gi = g⁻¹, renormalized as ``g * x * gi``."""
    return _unit(*_product(_unit(*_product(g, x)), gi))


def _distance(a: tuple, bw: float) -> float:
    """Euclidean distance from a 4-tuple to the real quaternion bw."""
    w, x, y, z = a
    w -= bw
    return math.sqrt(w * w + x * x + y * y + z * z)


_set = object.__setattr__


class UnitQuaternion:
    """A unit quaternion w + xi + yj + zk, renormalized on construction.

    Immutable, with value equality and hashing over the four components.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        w, x, y, z = _unit(w, x, y, z)
        _set(self, "w", w)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (_restore, self.components())

    def components(self) -> tuple:
        return (self.w, self.x, self.y, self.z)

    def __eq__(self, o):
        if o.__class__ is not UnitQuaternion:
            return NotImplemented
        return self.components() == o.components()

    def __hash__(self):
        return hash(self.components())

    def __repr__(self):
        return (
            f"UnitQuaternion(w={self.w!r}, x={self.x!r}, y={self.y!r}, z={self.z!r})"
        )

    def __mul__(self, o: "UnitQuaternion") -> "UnitQuaternion":
        return UnitQuaternion(*_product(self.components(), o.components()))

    def inverse(self) -> "UnitQuaternion":
        return UnitQuaternion(self.w, -self.x, -self.y, -self.z)

    def neg(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def power(self, k: int) -> "UnitQuaternion":
        base = self if k >= 0 else self.inverse()
        out = ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    def distance(self, o: "UnitQuaternion") -> float:
        return _distance(
            (self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z), 0.0
        )


def _restore(*components) -> UnitQuaternion:
    """Rebuild a pickled or copied quaternion without renormalizing it."""
    q = object.__new__(UnitQuaternion)
    for name, v in zip(UnitQuaternion.__slots__, components):
        _set(q, name, v)
    return q


ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
MINUS_ONE = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


def commutator(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    qa, qb = a.components(), b.components()
    return UnitQuaternion(*_commutator(qa, qb, _inverse(qa), _inverse(qb)))


@dataclass(frozen=True)
class SU2Tuple:
    """A nonempty tuple of unit quaternions with a commutator tolerance."""

    elements: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("tuple must have length >= 1")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class SignMatrix:
    """Symmetric n×n matrix of commutator signs with +1 diagonal."""

    n: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.n:
            raise ValueError("row count disagrees with n")
        for i in range(self.n):
            if len(self.entries[i]) != self.n:
                raise ValueError("column count disagrees with n")
            if self.entries[i][i] != 1:
                raise ValueError("diagonal sign must be +1")
            for j in range(self.n):
                if self.entries[i][j] not in (1, -1):
                    raise ValueError("entries must be ±1")
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("sign matrix must be symmetric")

    @classmethod
    def from_rows(cls, rows) -> "SignMatrix":
        return cls(len(rows), tuple(tuple(r) for r in rows))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def is_realizable(self) -> bool:
        """Whether some almost-commuting SU(2) tuple has this sign matrix:
        whether its alternating F2 form (sign -1 -> 1) has rank at most 2."""
        return _f2_rank_at_most_2(
            [sum(1 << j for j, s in enumerate(row) if s < 0) for row in self.entries]
        )


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


def _pairwise_commutators(quads, tol=DEFAULT_TOL, refuse=None):
    """(sign rows as tuples, largest defect) over every pairwise commutator
    of a sequence of 4-tuples.

    Each commutator is matched to the nearer of ±1.  With ``refuse``
    given, the first pair (i, j) farther than ``tol`` raises
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
            if refuse is not None and dist > tol:
                raise refuse(i, j, dist)
            rows[i][j] = rows[j][i] = sign
            worst = max(worst, dist)
    return tuple(map(tuple, rows)), worst


def _components(t: SU2Tuple) -> list:
    return [x.components() for x in t.elements]


def _su2_tuple(quads, tol=DEFAULT_TOL) -> SU2Tuple:
    """An SU2Tuple holding the 4-tuples as they are, not renormalized."""
    return SU2Tuple(tuple(_restore(*q) for q in quads), tol=tol)


def commutator_type(t: SU2Tuple) -> SignMatrix:
    """Sign matrix of all pairwise commutators.

    Raises NotAlmostCommuting when any commutator is farther than the
    tuple's tolerance from both central elements.
    """
    rows, _ = _pairwise_commutators(_components(t), t.tol, NotAlmostCommuting)
    return SignMatrix(len(rows), rows)


def max_commutator_defect(t: SU2Tuple) -> float:
    """Largest distance of any pairwise commutator from {±1}."""
    return _pairwise_commutators(_components(t))[1]


def psi_construct(x_i, x_j, w, C: SignMatrix, i: int, j: int) -> SU2Tuple:
    """Fill a tuple of the requested sign matrix from one anticommuting pair.

    Positions i and j receive the base pair; every other position k gets
    w_k · x_i^{a_k} · x_j^{b_k}, with exponents read off the matrix:
    C[i][k] = c^{b_k} and C[j][k] = c^{a_k}, where c = [x_i, x_j] = -1.
    The remaining entries are then forced to C[k][l] = c^{a_k b_l + a_l b_k};
    a matrix violating that (equivalently, of F2 rank > 2) raises
    TypeMismatch, and no almost-commuting SU(2) tuple realizes it at all.
    """
    return _su2_tuple(
        _psi_construct(x_i.components(), x_j.components(), w, C, i, j)
    )


def _psi_construct(x_i: tuple, x_j: tuple, w, C: SignMatrix, i: int, j: int):
    """``psi_construct`` on 4-tuples: the list of the tuple's elements."""
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
    if C.entry(i, j) != -1:
        raise TypeMismatch(
            f"matrix entry ({i},{j}) is +1 but the base pair anticommutes"
        )
    others = [k for k in range(n) if k not in (i, j)]
    # c^{b_k} = C[i][k], c^{a_k} = C[j][k] with c = -1
    a = {k: (1 - C.entry(j, k)) // 2 for k in others}
    b = {k: (1 - C.entry(i, k)) // 2 for k in others}
    for s, k in enumerate(others):
        for l in others[s + 1 :]:
            forced = (-1) ** (a[k] * b[l] + a[l] * b[k])
            if C.entry(k, l) != forced:
                raise TypeMismatch(
                    f"entry ({k},{l}) must be {forced:+d} for this base pair"
                )
    elements = [None] * n
    elements[i] = x_i
    elements[j] = x_j
    # x.power(1) is ONE * x, renormalized; x.power(0) is ONE
    one = ONE.components()
    powers_i = (one, _unit(*_product(one, x_i)))
    powers_j = (one, _unit(*_product(one, x_j)))
    for s, k in enumerate(others):
        y = _unit(*_product(powers_i[a[k]], powers_j[b[k]]))
        elements[k] = y if w[s] == 1 else _neg(y)
    return elements


def classify_so3_tuple(rotations) -> SignMatrix:
    """Sign matrix of a commuting SO(3) tuple given by quaternion lifts.

    Well-defined: changing a lift by the central sign flips both factors
    of each commutator once, which cancels.  Raises NotCommutingInSO3
    when some projected pair fails to commute within tolerance.
    """

    def refuse(i, j, dist):
        return NotCommutingInSO3(
            f"rotations {i} and {j} do not commute in SO(3) "
            f"(lifted commutator {dist:.3e} from ±1)"
        )

    t = SU2Tuple(tuple(rotations))
    rows, _ = _pairwise_commutators(_components(t), t.tol, refuse)
    return SignMatrix(len(rows), rows)


def random_unit_quaternion(rng: random.Random) -> UnitQuaternion:
    return _restore(*_random_unit(rng))


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


def random_torus_tuple(n: int, seed) -> SU2Tuple:
    """n rotations about one common random axis: a commuting tuple.

    Built as g · diag(θ_k) · g^{-1} for one random g, so the sign matrix
    is all +1 for every seed.
    """
    return _su2_tuple(_random_torus(n, seed))


def _random_torus(n: int, seed) -> list:
    """``random_torus_tuple`` on 4-tuples: the list of its elements."""
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


def conjugate_tuple(g: UnitQuaternion, t: SU2Tuple) -> SU2Tuple:
    """Simultaneous conjugation; commutator signs are unchanged."""
    qg = g.components()
    gi = _inverse(qg)
    return _su2_tuple((_conjugate(qg, x, gi) for x in _components(t)), tol=t.tol)
