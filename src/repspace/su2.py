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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .abelian import IntMatrix, rank_mod_p
from .errors import (
    BadBasePair,
    NotAlmostCommuting,
    NotCommutingInSO3,
    TypeMismatch,
)

NORM_TOL = 1e-12
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class UnitQuaternion:
    """A unit quaternion w + xi + yj + zk, renormalized on construction."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if n < 1e-6:
            raise ValueError("quaternion too close to zero to normalize")
        object.__setattr__(self, "w", self.w / n)
        object.__setattr__(self, "x", self.x / n)
        object.__setattr__(self, "y", self.y / n)
        object.__setattr__(self, "z", self.z / n)
        drift = abs(
            self.w**2 + self.x**2 + self.y**2 + self.z**2 - 1.0
        )
        assert drift <= NORM_TOL

    def __mul__(self, o: "UnitQuaternion") -> "UnitQuaternion":
        return UnitQuaternion(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )

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
        return math.sqrt(
            (self.w - o.w) ** 2
            + (self.x - o.x) ** 2
            + (self.y - o.y) ** 2
            + (self.z - o.z) ** 2
        )


ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
MINUS_ONE = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


def commutator(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    return a * b * a.inverse() * b.inverse()


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

    def f2_rank(self) -> int:
        """Rank of the associated alternating F2 form (sign -1 -> 1)."""
        return rank_mod_p(
            IntMatrix.from_rows([[(1 - s) // 2 for s in row] for row in self.entries]),
            2,
        )

    def is_realizable(self) -> bool:
        """Whether some almost-commuting SU(2) tuple has this sign matrix."""
        return self.f2_rank() <= 2


def _nearest_central_sign(q: UnitQuaternion):
    """(sign, distance) of the nearer of ±1."""
    d_plus = q.distance(ONE)
    d_minus = q.distance(MINUS_ONE)
    return (1, d_plus) if d_plus <= d_minus else (-1, d_minus)


def _pairwise_commutators(t: SU2Tuple, refuse=None):
    """(sign rows, largest defect) over every pairwise commutator.

    Each commutator is matched to the nearer of ±1.  With ``refuse``
    given, the first pair (i, j) farther than the tuple's tolerance
    raises ``refuse(i, j, distance)``.
    """
    n = len(t)
    rows = [[1] * n for _ in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            sign, dist = _nearest_central_sign(
                commutator(t.elements[i], t.elements[j])
            )
            if refuse is not None and dist > t.tol:
                raise refuse(i, j, dist)
            rows[i][j] = rows[j][i] = sign
            worst = max(worst, dist)
    return rows, worst


def commutator_type(t: SU2Tuple) -> SignMatrix:
    """Sign matrix of all pairwise commutators.

    Raises NotAlmostCommuting when any commutator is farther than the
    tuple's tolerance from both central elements.
    """
    return SignMatrix.from_rows(_pairwise_commutators(t, NotAlmostCommuting)[0])


def max_commutator_defect(t: SU2Tuple) -> float:
    """Largest distance of any pairwise commutator from {±1}."""
    return _pairwise_commutators(t)[1]


def psi_construct(x_i, x_j, w, C: SignMatrix, i: int, j: int) -> SU2Tuple:
    """Fill a tuple of the requested sign matrix from one anticommuting pair.

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
    sign, dist = _nearest_central_sign(commutator(x_i, x_j))
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
    for s, k in enumerate(others):
        y = x_i.power(a[k]) * x_j.power(b[k])
        elements[k] = y if w[s] == 1 else y.neg()
    return SU2Tuple(tuple(elements))


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

    rows, _ = _pairwise_commutators(SU2Tuple(tuple(rotations)), refuse)
    return SignMatrix.from_rows(rows)


def random_unit_quaternion(rng: random.Random) -> UnitQuaternion:
    while True:
        q = (
            rng.gauss(0, 1),
            rng.gauss(0, 1),
            rng.gauss(0, 1),
            rng.gauss(0, 1),
        )
        if sum(v * v for v in q) > 1e-6:
            return UnitQuaternion(*q)


def random_torus_tuple(n: int, seed) -> SU2Tuple:
    """n rotations about one common random axis: a commuting tuple.

    Built as g · diag(θ_k) · g^{-1} for one random g, so the sign matrix
    is all +1 for every seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    g = random_unit_quaternion(rng)
    elements = []
    for _ in range(n):
        theta = rng.uniform(0, 2 * math.pi)
        diag = UnitQuaternion(math.cos(theta), math.sin(theta), 0.0, 0.0)
        elements.append(g * diag * g.inverse())
    return SU2Tuple(tuple(elements))


def conjugate_tuple(g: UnitQuaternion, t: SU2Tuple) -> SU2Tuple:
    """Simultaneous conjugation; commutator signs are unchanged."""
    gi = g.inverse()
    return SU2Tuple(
        tuple(g * x * gi for x in t.elements), tol=t.tol
    )
