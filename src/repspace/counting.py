"""Closed-form counts, recurrences, type-matrix enumeration, EM tables.

All formulas are evaluated in exact integer arithmetic, and every
division checks its remainder before returning, so a transcribed
formula that does not actually divide fails loudly instead of silently
truncating.

Conventions.  An n-tuple in a group with central subgroup K has a *type*:
the antisymmetric n×n matrix of commutators valued in K.  K is described
by its invariant factors (e.g. (2,) for Z/2) and elements additively as
residue tuples.  The sign-matrix specialization used by the SU(2)
numerics lives in its own module.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product as iter_product
from math import comb, gcd, prod

from .abelian import AbelianGroup, GradedGroup, is_prime
from .errors import NotPrime, ResourceGuard

ENUMERATION_GUARD = 10**6


def _exact_quotient(num: int, den: int, label: str) -> int:
    """num / den (den > 0), which must be an integer; a remainder raises
    AssertionError naming the quotient in lowest terms."""
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise AssertionError(f"{label} evaluated to non-integer {num // g}/{den // g}")
    return q


# ---------------------------------------------------------------------------
# SECTION: closed forms and recurrences


def a_count(n: int) -> int:
    """Number of nontrivial components of the commuting variety in SO(3).

    Equals the number of rank-2 alternating F2 forms on n generators:
    (2^n - 1)(2^{n-1} - 1)/3.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _exact_quotient((2**n - 1) * (2 ** (n - 1) - 1), 3, "a_count")


def c_count(n: int) -> int:
    """(3^{n-1} - 1)/2; the lens-space summand multiplicity."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _exact_quotient(3 ** (n - 1) - 1, 2, "c_count")


def c_via_recurrence(n: int) -> int:
    """Solve sum_{r=1}^{k} binom(k,r) C(r) = A(k) triangularly, C(1) = 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = {1: 0}
    for k in range(2, n + 1):
        c[k] = a_count(k) - sum(comb(k, r) * c[r] for r in range(1, k))
    return c[n]


def d_count(n: int) -> int:
    """2^{n-2} A(n); the twisted-moduli component count at level n.

    D(1) is 0 by fiat: there are no nontrivial antisymmetric 1x1 types.
    The closed form gives 0 there anyway through the (2^0 - 1) factor,
    but the guard keeps the fractional power 2^{-1} out of the arithmetic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0
    return 2 ** (n - 2) * a_count(n)


def k_count(n: int) -> int:
    """7^n/24 - 3^n/8 + 1/12 = (7^n - 3·3^n + 2)/24, exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _exact_quotient(7**n - 3 * 3**n + 2, 24, "k_count")


def k_via_recurrence(n: int) -> int:
    """Solve sum_{r=1}^{k} binom(k,r) K(r) = D(k) triangularly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k_ = {1: 0}
    for k in range(2, n + 1):
        k_[k] = d_count(k) - sum(comb(k, r) * k_[r] for r in range(1, k))
    return k_[n]


def n_central_product(n: int, m: int, p: int) -> int:
    """Component count for the rank-m central p-group target.

    p^{(m-1)(n-2)} (p^n - 1)(p^{n-1} - 1)/(p^2 - 1) + 1.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    num = p ** ((m - 1) * (n - 2)) * (p**n - 1) * (p ** (n - 1) - 1)
    return _exact_quotient(num, p**2 - 1, "n_central_product") + 1


# ---------------------------------------------------------------------------
# SECTION: type matrices


class TypeMatrix(namedtuple("TypeMatrix", ("n", "modulus", "entries"))):
    """Antisymmetric n×n matrix over a finite abelian group K.

    ``modulus`` is K's invariant-factor tuple; entries are residue tuples
    (additive notation, identity = all zeros).  Antisymmetry means zero
    diagonal and entries[j][i] = -entries[i][j] componentwise.
    """

    __slots__ = ()

    def __new__(cls, n: int, modulus: tuple, entries: tuple):
        zero = (0,) * len(modulus)
        if len(entries) != n:
            raise ValueError("row count disagrees with n")
        for i in range(n):
            if len(entries[i]) != n:
                raise ValueError("column count disagrees with n")
            if entries[i][i] != zero:
                raise ValueError("diagonal entry is not the identity")
            for j in range(n):
                neg = tuple((-a) % d for a, d in zip(entries[i][j], modulus))
                if entries[j][i] != neg:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) disagree")
        return tuple.__new__(cls, (n, modulus, entries))

    def identity_rows(self) -> list:
        zero = (0,) * len(self.modulus)
        return [
            i
            for i in range(self.n)
            if all(self.entries[i][j] == zero for j in range(self.n))
        ]


def power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether base**exponent > bound, without building a power above it."""
    value = 1
    for _ in range(exponent if base > 1 else 0):
        value *= base
        if value > bound:
            return True
    return value > bound


def guard_types(n: int, K):
    """Refuse (ResourceGuard) when the n×n types over K exceed
    ``ENUMERATION_GUARD``, before any is built."""
    order, slots = prod(K), comb(n, 2)
    if power_exceeds(order, slots, ENUMERATION_GUARD):
        raise ResourceGuard(
            f"{order}^{slots} type matrices exceed the enumeration guard "
            f"{ENUMERATION_GUARD}"
        )


def enumerate_types(n: int, K) -> list:
    """All antisymmetric type matrices over K, upper triangle lex order."""
    guard_types(n, K)
    K = tuple(K)
    elements = list(iter_product(*[range(d) for d in K]))
    zero = (0,) * len(K)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for choice in iter_product(elements, repeat=len(slots)):
        rows = [[zero] * n for _ in range(n)]
        for (i, j), v in zip(slots, choice):
            rows[i][j] = v
            rows[j][i] = tuple((-a) % d for a, d in zip(v, K))
        out.append(TypeMatrix(n, K, tuple(tuple(r) for r in rows)))
    return out


def strata_counts(r: int, K) -> list:
    """How many types have exactly i all-identity rows, for i = 0..r.

    The i = r - 1 entry is always 0 (a single nontrivial entry already
    spoils two rows) and the i = r entry is 1 (the zero matrix).
    """
    counts = [0] * (r + 1)
    for C in enumerate_types(r, K):
        counts[len(C.identity_rows())] += 1
    return counts


def n_lower_bound_su2(n: int) -> int:
    """Number of sign types realized by almost-commuting SU(2) tuples.

    A type is realizable iff its alternating F2 form has rank <= 2: an
    anticommuting pair of unit quaternions is forced onto orthogonal
    imaginary axes, and only the center commutes with both, so no third
    generator can anticommute with anything else independently.  The
    rank <= 2 count is 1 + a_count(n) (brute-force cross-checked in the
    tests); every such type is witnessed by the explicit construction in
    the SU(2) numerics module.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 + a_count(n)


# ---------------------------------------------------------------------------
# SECTION: closed-form homology and homotopy tables


def r_of(n: int, i: int) -> int:
    """binom(n,0) + ... + binom(n, n-i-1) for 1 <= i <= n, else 0.

    The empty sum at i = n is 0; this is the 2-torsion rank of the
    conjugation quotient of the n-torus in degree i.
    """
    if not 1 <= i <= n:
        return 0
    return sum(comb(n, j) for j in range(n - i))


def conj_quotient_homology(n: int) -> GradedGroup:
    """Closed form for H_*((S^1)^n / conjugation).

    Z in degree 0; Z^binom(n,i) + (Z/2)^{r_of(n,i)} in positive even
    degrees; zero in odd degrees.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    groups = [AbelianGroup.free(1)]
    for i in range(1, n + 1):
        if i % 2:
            groups.append(AbelianGroup.trivial())
        else:
            groups.append(
                AbelianGroup.from_factors(comb(n, i), (2,) * r_of(n, i))
            )
    return GradedGroup.of(*groups)


def em_decomposition(target: str, n: int) -> GradedGroup:
    """Homotopy groups of the stable commuting-tuple space, as a table.

    The space is a product of Eilenberg-MacLane spaces, so the table
    determines it: U gives Z^binom(n,i) in degrees 1..n, SU the same in
    degrees 2..n, Sp gives the positive degrees of H_*((S^1)^n / Z2):
    Z^binom(n,2i) + (Z/2)^{r_of(n,2i)} in even degrees only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if target == "U":
        groups = [
            AbelianGroup.free(comb(n, i) if i >= 1 else 0)
            for i in range(n + 1)
        ]
    elif target == "SU":
        groups = [
            AbelianGroup.free(comb(n, i) if i >= 2 else 0)
            for i in range(n + 1)
        ]
    elif target == "Sp":
        groups = [AbelianGroup.trivial(), *conj_quotient_homology(n).groups[1:]]
    else:
        raise ValueError(f"unknown target {target!r}; expected U, SU or Sp")
    return GradedGroup.of(*groups)
