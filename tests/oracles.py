"""Independent brute-force oracles used to freeze expected test values.

Nothing here imports the package under test: every routine is a direct
transcription of a textbook definition, deliberately slow and dumb, so a
disagreement with the fast implementation always means the fast side is
wrong (or the oracle's definition was misread, which is easier to audit).
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd


# ---------------------------------------------------------------------------
# Smith normal form via determinantal divisors.
#
# The k-th determinantal divisor D_k is the gcd of all k x k minors; the
# invariant factors are the quotients D_k / D_{k-1}.  This needs nothing
# but determinants, so it shares no code path with any elimination.


def det(rows):
    """Laplace-expansion determinant of a small integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * v * det(minor)
    return total


def snf_diagonal_by_minors(rows):
    """Nonzero Smith diagonal entries of a small matrix, via minor gcds."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = gcd(g, det([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def homology_by_minors(n_k, d_k_rows, d_k1_rows):
    """H_k = ker/im of a chain pair, entirely from minor-gcd diagonals.

    Returns (free_rank, sorted list of torsion orders > 1).
    """
    lower = snf_diagonal_by_minors(d_k_rows) if d_k_rows else []
    upper = snf_diagonal_by_minors(d_k1_rows) if d_k1_rows else []
    free = n_k - len(lower) - len(upper)
    return free, sorted(d for d in upper if d > 1)


# ---------------------------------------------------------------------------
# Invariant-factor chain via primary decomposition.
#
# Z/d1 + ... + Z/dt splits into cyclic p-groups; the chain's i-th factor
# takes, for every prime p, the i-th smallest p-exponent over the t
# values.  Trial division finds the primes, so no gcd or lcm is used.


def prime_exponents(d):
    """{p: e} with d = prod p^e, by trial division (d >= 1)."""
    out = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def invariant_factor_chain(values):
    """The divisor chain d1 | ... | dt of the same group, 1s dropped."""
    factored = [prime_exponents(abs(v)) for v in values]
    chain = [1] * len(values)
    for p in {p for f in factored for p in f}:
        exponents = sorted(f.get(p, 0) for f in factored)
        for i, e in enumerate(exponents):
            chain[i] *= p**e
    return [d for d in chain if d > 1]


# ---------------------------------------------------------------------------
# Shuffle enumeration for product f-vectors.
#
# A nondegenerate k-simplex of a product of circles is a tuple of formal
# k-simplices (degeneracy word + base) whose words have empty common
# intersection.  The enumeration below builds the formal simplices from
# scratch: a factor with f_j nondegenerate j-simplices contributes
# f_j * C(k, k - j) formal k-simplices (choose the word as a subset).


def formal_count(f_vector, k):
    """Number of formal k-simplices of a space with the given f-vector."""
    return sum(
        f_vector[j] * comb(k, k - j) for j in range(min(k, len(f_vector) - 1) + 1)
    )


def formal_simplices(f_vector, k):
    """All formal k-simplices as (word frozenset, base dimension, base index)."""
    out = []
    for j in range(min(k, len(f_vector) - 1) + 1):
        for word in combinations(range(k), k - j):
            for b in range(f_vector[j]):
                out.append((frozenset(word), j, b))
    return out


def product_f_vector(f_vectors, top):
    """f-vector of a product by brute shuffle enumeration."""
    counts = []
    for k in range(top + 1):
        pools = [formal_simplices(fv, k) for fv in f_vectors]
        n = 0
        for combo in product(*pools):
            common = combo[0][0]
            for item in combo[1:]:
                common = common & item[0]
                if not common:
                    break
            if not common:
                n += 1
        counts.append(n)
    return counts


def surjections(s, k):
    """Number of surjective maps from an s-set onto a k-set."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** s for i in range(k + 1))


def torus_f_vector(n, vertices_per_circle):
    """Closed-form f-vector of an n-fold product of circle models.

    A circle model with v vertices and v edges (v = 1 minimal, v = 2 the
    conjugation-friendly 2-gon) has product f-vector
    f_k = v^n * sum_s C(n, s) * surj(s, k): choose which s coordinates are
    genuinely edge-dimensional and distribute the k simplex levels onto
    them surjectively.
    """
    top = n
    return [
        vertices_per_circle**n
        * sum(comb(n, s) * surjections(s, k) for s in range(top + 1))
        for k in range(top + 1)
    ]


# ---------------------------------------------------------------------------
# Exact quaternion arithmetic over the rationals.


class QFrac:
    """Quaternion with Fraction coordinates; exact products for oracle use."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x=0, y=0, z=0):
        self.w = Fraction(w)
        self.x = Fraction(x)
        self.y = Fraction(y)
        self.z = Fraction(z)

    def __mul__(self, o):
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = o.w, o.x, o.y, o.z
        return QFrac(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conj(self):
        return QFrac(self.w, -self.x, -self.y, -self.z)

    def norm2(self):
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def inverse(self):
        n = self.norm2()
        c = self.conj()
        return QFrac(c.w / n, c.x / n, c.y / n, c.z / n)

    def commutator(self, o):
        return self * o * self.inverse() * o.inverse()

    def tuple(self):
        return (self.w, self.x, self.y, self.z)

    def __eq__(self, o):
        return self.tuple() == o.tuple()

    def __repr__(self):
        return f"QFrac{self.tuple()}"


Q_ONE = QFrac(1)
Q_I = QFrac(0, 1)
Q_J = QFrac(0, 0, 1)
Q_K = QFrac(0, 0, 0, 1)
