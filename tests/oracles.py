"""Independent brute-force oracles used to freeze expected test values.

Every routine is a direct transcription of a textbook definition,
deliberately slow and dumb, so a disagreement with the fast
implementation always means the fast side is wrong (or the oracle's
definition was misread, which is easier to audit).  Only five sections
use the package under test, each replaying the route a smaller or faster
construction replaced: spheres as cross-polytope boundaries, quotients
by generator closure (symmetric products as X^m and then its quotient),
normalized chains as one {(r, c): v} dict per boundary matrix, the SU(2)
sweep tuples on a float quaternion class of their own (QFloat,
renormalized after every operation), and the sign-matrix tables as one
type matrix, sign matrix and F2 rank per type.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, prod

from repspace.abelian import IntMatrix, lead_columns_mod_p
from repspace.counting import enumerate_types
from repspace.engine import ChainComplex
from repspace.simplicial import (
    FormalSimplex,
    SimplicialAction,
    SimplicialSet,
    product_list,
)
from repspace.su2 import SignMatrix
from repspace.verifier import _f2_rank_at_most_2


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


def euler_characteristic(counts):
    """Alternating sum of cell counts by degree: an f-vector or chain ranks."""
    return sum((-1) ** k * c for k, c in enumerate(counts))


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
    """f-vector of a product by brute shuffle enumeration.

    Formal simplices are tallied by word set: a combination of word sets
    with empty common intersection counts the product of their tallies.
    """
    counts = []
    for k in range(top + 1):
        pools = [
            Counter(word for word, _, _ in formal_simplices(fv, k)).items()
            for fv in f_vectors
        ]
        n = 0
        for combo in product(*pools):
            if not frozenset(range(k)).intersection(*(w for w, _ in combo)):
                n += prod(c for _, c in combo)
        counts.append(n)
    return counts


def cycle_count(sigma):
    """Number of cycles of a permutation given as a tuple of images."""
    seen = set()
    cycles = 0
    for start in range(len(sigma)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = sigma[i]
    return cycles


def polya_f_vector(f_vector, m):
    """f-vector of SP^m X from X's f-vector alone, by Burnside's lemma.

    σ in Σ_m fixes exactly the tuples constant on its cycles, and those
    are the nondegenerate simplices of X^c(σ), c(σ) the cycle count; so
    each degree's orbit count is the average of f(X^c(σ)) over Σ_m.
    """
    dim = len(f_vector) - 1
    total = [0] * (m * dim + 1)
    for sigma in permutations(range(m)):
        c = cycle_count(sigma)
        for k, n in enumerate(product_f_vector([f_vector] * c, c * dim)):
            total[k] += n
    assert all(t % factorial(m) == 0 for t in total), total
    return [t // factorial(m) for t in total]


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
# Reference product of simplicial sets.
#
# A formal k-simplex (word, base) is theta^* base for the monotone
# surjection theta: [k] -> [dim base] that repeats a value exactly at the
# indices of its degeneracy word.  The face d_i precomposes theta with the
# coface skipping i; when that misses a value l, it factors through the
# base's own face d_l.  A product simplex is a tuple of formal simplices
# whose words share no index; its faces lose the shared indices W by
# dropping every position t with t - 1 in W.  Every combination of formal
# simplices is tried and every id rendered afresh.  Factors are read
# through ``simplices``, ``faces`` and ``basepoint`` only, and formal
# simplices are plain (word, base) pairs, which compare equal to the
# package's.


def _surjection(word, k):
    """theta: [k] -> [k - len(word)] as its list of values."""
    values = [0]
    for t in range(k):
        values.append(values[-1] + (t not in word))
    return values


def _word(values):
    """The indices where a monotone surjection repeats, decreasing."""
    return tuple(
        t for t in reversed(range(len(values) - 1)) if values[t] == values[t + 1]
    )


def _render(f):
    word, base = f
    if not word:
        return base
    return "s" + "_".join(str(w) for w in word) + "(" + base + ")"


def _product_id(fs):
    return "(" + "|".join(_render(f) for f in fs) + ")"


def _formal_face(X, f, i, k):
    """d_i of the formal k-simplex f of X."""
    word, base = f
    phi = _surjection(word, k)
    del phi[i]
    top = k - len(word)
    missed = set(range(top + 1)) - set(phi)
    if not missed:
        return _word(phi), base
    (l,) = missed
    face_word, face_base = X.faces[base][l]
    theta = _surjection(face_word, top - 1)
    return _word([theta[v if v < l else v - 1] for v in phi]), face_base


def _formal_pool(X, k):
    """Formal k-simplices by base dimension, degeneracy set, base order."""
    out = []
    for j in range(min(k, max(X.simplices)) + 1):
        for word in combinations(range(k), k - j):
            for base in X.simplices.get(j, []):
                out.append((tuple(reversed(word)), base))
    return out


def reference_product(factors):
    """(simplices, faces, parts, basepoint) of a product, by brute force."""
    top = sum(max(X.simplices) for X in factors)
    simplices, faces, parts = {}, {}, {}
    for k in range(top + 1):
        level = []
        for combo in product(*(_formal_pool(X, k) for X in factors)):
            if set(range(k)).intersection(*(set(w) for w, _ in combo)):
                continue
            sid = _product_id(combo)
            level.append(sid)
            parts[sid] = combo
            if not k:
                continue
            row = []
            for i in range(k + 1):
                faced = [_formal_face(X, f, i, k) for X, f in zip(factors, combo)]
                shared = set(range(k - 1)).intersection(*(set(w) for w, _ in faced))
                core = []
                for word, base in faced:
                    kept = [
                        v
                        for t, v in enumerate(_surjection(word, k - 1))
                        if t - 1 not in shared
                    ]
                    core.append((_word(kept), base))
                row.append((tuple(sorted(shared, reverse=True)), _product_id(core)))
            faces[sid] = tuple(row)
        if level:
            simplices[k] = level
    basepoint = None
    if all(X.basepoint is not None for X in factors):
        basepoint = "(" + "|".join(X.basepoint for X in factors) + ")"
    return simplices, faces, parts, basepoint


def reference_factor_degrees(X, top):
    """(pool, masks, names, faces, runs) of X per degree k = 0..top, as
    ``simplicial._factor_degrees`` lays them out: each face of each formal
    simplex pushed through its word and looked up in the pool below."""
    out, below = [], {}
    for k in range(top + 1):
        pool = _formal_pool(X, k)
        masks = [sum(1 << w for w in word) for word, _ in pool]
        runs = []
        for p, mask in enumerate(masks):
            if runs and runs[-1][0] == mask:
                runs[-1][2] = p + 1
            else:
                runs.append([mask, p, p + 1])
        faces = [
            tuple(below[_formal_face(X, f, i, k)] for i in range(k + 1))
            for f in pool
        ] if k else []
        below = {f: p for p, f in enumerate(pool)}
        out.append((pool, masks, [_render(f) for f in pool], faces, runs))
    return out


def validation_error(X):
    """The first fault in X's face table as ``SimplicialSet.validate`` words
    it, or None: each face's structure, then d_i d_j = d_{j-1} d_i (i < j)
    pair by pair, every face of a face pushed through ``_formal_face``."""
    dims = {sid: k for k, ids in X.simplices.items() for sid in ids}
    if X.basepoint is not None and dims.get(X.basepoint) != 0:
        return f"basepoint {X.basepoint!r} is not a 0-simplex"
    if X.simplices and sorted(X.simplices) != list(range(max(X.simplices) + 1)):
        return "dimensions are not contiguous from 0"
    for sid, k in dims.items():
        if k == 0:
            if sid in X.faces:
                return f"0-simplex {sid!r} has a face entry"
            continue
        fs = X.faces.get(sid)
        if fs is None or len(fs) != k + 1:
            return f"{sid!r} needs {k + 1} faces"
        for word, base in fs:
            if base not in dims:
                return f"face of {sid!r} references {base!r}"
            if len(word) + dims[base] != k - 1:
                return f"face of {sid!r} has wrong dimension"
            if list(word) != sorted(set(word), reverse=True):
                return f"face word of {sid!r} not normal"
            if word and word[0] > k - 2:
                return f"face word of {sid!r} out of range"
    for sid, k in dims.items():
        for j in range(1, k + 1 if k > 1 else 0):
            for i in range(j):
                left = _formal_face(X, X.faces[sid][j], i, k - 1)
                right = _formal_face(X, X.faces[sid][i], j - 1, k - 1)
                if left != right:
                    return f"d_{i} d_{j} ≠ d_{j - 1} d_{i} on {sid!r}"
    return None


# ---------------------------------------------------------------------------
# Quotients by generator closure, and symmetric products the old way.
#
# A group generated by involutions is validated one involution at a time;
# an orbit is the closure of one simplex under all of them, named "[its
# least member]", with its faces induced on that member.  SP^m X is X^m,
# then its quotient by Σ_m through the m - 1 adjacent transpositions, each
# looked up by its image's coordinates.  This route enumerates every tuple
# and closes orbits under generators, so it shares no enumeration or
# naming with the sorted-tuple construction, and no orbit naming with
# ``quotient_by_action``'s pairs {s, swap(s)}.


def adjacent_transpositions(P, m):
    """The m - 1 adjacent transpositions of an m-fold product's coordinates.

    An image outside P maps to None, which action validation refuses.
    """
    sid_of = {fs: sid for sid, fs in P.parts.items()}
    return [
        {
            sid: sid_of.get(fs[:i] + (fs[i + 1], fs[i]) + fs[i + 2 :])
            for sid, fs in P.parts.items()
        }
        for i in range(m - 1)
    ]


def orbit_ids(X, generators):
    """{simplex id: "[least member of its orbit]"}, orbits closed under
    ``generators``."""
    orbit_of = {}
    for sid in X.dim_of:
        if sid in orbit_of:
            continue
        members = {sid}
        frontier = [sid]
        while frontier:
            s = frontier.pop()
            for g in generators:
                if g[s] not in members:
                    members.add(g[s])
                    frontier.append(g[s])
        oid = "[" + min(members) + "]"
        for m in members:
            orbit_of[m] = oid
    return orbit_of


def orbit_quotient(X, generators):
    """X / G for G generated by the involutions ``generators``.

    Each generator is validated as a Z/2 action.  The orbits are listed in
    the order in which they first occur in X; parts are kept as the
    representatives' when X records them.
    """
    for g in generators:
        SimplicialAction(g).validate(X)
    orbit_of = orbit_ids(X, generators)
    simplices = {
        k: list(dict.fromkeys(orbit_of[sid] for sid in ids))
        for k, ids in X.simplices.items()
    }
    faces = {
        oid: tuple(
            FormalSimplex(f.word, orbit_of[f.base]) for f in X.faces[oid[1:-1]]
        )
        for k, level in simplices.items()
        if k > 0
        for oid in level
    }
    basepoint = orbit_of[X.basepoint] if X.basepoint is not None else None
    out = SimplicialSet(simplices, faces, basepoint=basepoint)
    if X.parts is not None:
        out.parts = {oid: X.parts[oid[1:-1]] for oid in out.dim_of}
    return out


def reference_sym_product(X, m):
    """SP^m X = X^m / Σ_m as the quotient of the built product (m >= 2)."""
    P = product_list([X] * m)
    return orbit_quotient(P, adjacent_transpositions(P, m))


# ---------------------------------------------------------------------------
# Spheres as boundaries of cross-polytopes.
#
# Vertices ±e_0 .. ±e_k; a j-simplex picks j + 1 axes in increasing order
# and a sign on each, so the antipodal flip keeps the vertex order and is
# simplicial and free.  Every face is nondegenerate, where the two-cell
# sphere's middle faces are all degenerate, so the two models share no
# simplex and no face.


def cross_polytope_sphere(k):
    """(boundary of the (k+1)-cross-polytope, its antipodal action)."""
    flip = str.maketrans("+-", "-+")
    simplices, faces, swap = {}, {}, {}
    for j in range(k + 1):
        simplices[j] = []
        for axes in combinations(range(k + 1), j + 1):
            for signs in product("+-", repeat=j + 1):
                verts = [f"x{a}{s}" for a, s in zip(axes, signs)]
                sid = ".".join(verts)
                simplices[j].append(sid)
                swap[sid] = sid.translate(flip)
                if j:
                    faces[sid] = tuple(
                        FormalSimplex((), ".".join(verts[:i] + verts[i + 1 :]))
                        for i in range(j + 1)
                    )
    X = SimplicialSet(simplices, faces)
    return X, SimplicialAction.involution(X, swap)


# ---------------------------------------------------------------------------
# Chain complexes with planted homology.
#
# A direct sum of pieces "0 -> Z" (a free class in one degree) and
# "Z --d--> Z" (from degree k to k - 1: Z/d in H_{k-1} when d > 1, nothing
# when d = 1, a free class at both ends when d = 0) has its homology by
# inspection.  Each degree's basis is then changed by a random unimodular
# matrix, a product of elementary operations whose inverse is built
# alongside, so the boundaries look nothing like the pieces.


def _unimodular_pair(rng, n, steps):
    """(A, A^-1) as dense rows, from random elementary row operations."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    B = [row[:] for row in A]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1, 1, 2))
        # A <- E A with E = I + q e_ij; A^-1 <- A^-1 E^-1 (column j -= q col i)
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        for row in B:
            row[j] -= q * row[i]
    for i in range(n):  # row sign flips reach determinant -1 too
        if rng.random() < 0.3:
            A[i] = [-a for a in A[i]]
            for row in B:
                row[i] = -row[i]
    return A, B


def _matmul(X, Y, rows, cols):
    inner = len(Y)
    return [
        [sum(X[i][t] * Y[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def planted_complex(rng, top, pieces=6, steps=6):
    """A random complex in degrees 0..top with its planted answers.

    Returns (ranks, diffs, homology, pieces): diffs[k - 1] is d_k as dense
    rows (ranks[k - 1] x ranks[k]), homology[k] is (free rank, torsion
    orders > 1), and each piece is (degree, d), d None for "0 -> Z".
    """
    chosen = []
    for _ in range(pieces):
        if top == 0 or rng.random() < 0.3:
            chosen.append((rng.randrange(top + 1), None))
        else:
            k = rng.randrange(1, top + 1)
            chosen.append((k, rng.choice((0, 1, 1, 2, 3, 4, 6))))
    ranks = [0] * (top + 1)
    cell = []  # per piece: its cell index in each degree it occupies
    for k, d in chosen:
        at = {k: ranks[k]}
        ranks[k] += 1
        if d is not None:
            at[k - 1] = ranks[k - 1]
            ranks[k - 1] += 1
        cell.append(at)
    plain = [[[0] * ranks[k] for _ in range(ranks[k - 1])] for k in range(1, top + 1)]
    homology = [[0, []] for _ in range(top + 1)]
    for (k, d), at in zip(chosen, cell):
        if d is None:
            homology[k][0] += 1
            continue
        plain[k - 1][at[k - 1]][at[k]] = d
        if d == 0:
            homology[k][0] += 1
            homology[k - 1][0] += 1
        elif d > 1:
            homology[k - 1][1].append(d)
    change = [_unimodular_pair(rng, n, steps) for n in ranks]
    # in the new bases d_k becomes A_{k-1} d_k A_k^-1
    diffs = [
        _matmul(
            _matmul(change[k - 1][0], plain[k - 1], ranks[k - 1], ranks[k]),
            change[k][1],
            ranks[k - 1],
            ranks[k],
        )
        for k in range(1, top + 1)
    ]
    homology = [(free, sorted(tors)) for free, tors in homology]
    return ranks, diffs, homology, chosen


def planted_dims_mod_p(top, pieces, p):
    """dim H_k(F_p) of a planted complex, read off its pieces mod p."""
    dims = [0] * (top + 1)
    for k, d in pieces:
        if d is None:
            dims[k] += 1
        elif d % p == 0:
            dims[k] += 1
            dims[k - 1] += 1
    return dims


# ---------------------------------------------------------------------------
# Sparse matrices keyed by (row, column).
#
# Boundary matrices are built one column per simplex.  This replays the
# route that replaced: every entry of a boundary matrix summed into one
# {(r, c): v} dict, handed whole to ``keyed_matrix``.  The rank over F_p,
# which no command needs, is the number of lead columns.


def keyed_matrix(rows, cols, entries):
    """The rows x cols IntMatrix of a {(r, c): v} dict."""
    columns = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        if not 0 <= c < cols:
            raise ValueError(f"column {c} outside 0..{cols - 1}")
        columns[c][r] = v
    return IntMatrix(rows, columns)


def keyed_normalized_chains(X):
    """Normalized chains of X, each boundary built as one {(r, c): v} dict."""
    if X.dim < 0:
        return ChainComplex([], [])
    index = {k: {sid: i for i, sid in enumerate(X.ids(k))} for k in range(X.dim + 1)}
    ranks = [len(X.ids(k)) for k in range(X.dim + 1)]
    diffs = []
    for k in range(1, X.dim + 1):
        entries = {}
        for col, sid in enumerate(X.ids(k)):
            for i, f in enumerate(X.faces[sid]):
                if not f.word:
                    key = (index[k - 1][f.base], col)
                    entries[key] = entries.get(key, 0) + (-1) ** i
        diffs.append(keyed_matrix(ranks[k - 1], ranks[k], entries))
    return ChainComplex(ranks, diffs)


def rank_mod_p(M, p):
    """Rank of M over F_p (p prime): the number of lead columns of its
    sparse row reduction, without the SNF."""
    return len(lead_columns_mod_p(M, p))


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


# ---------------------------------------------------------------------------
# SU(2) sweep tuples the object way.
#
# The sweeps build their tuples on float 4-tuples.  This replays them
# with the same random draws on a quaternion class of its own: one
# QFloat per product, power, inverse and negation, each renormalized on
# construction, and the psi fill written out from its definition.


class QFloat:
    """A float quaternion w + xi + yj + zk, renormalized on construction."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        n = math.sqrt(w * w + x * x + y * y + z * z)
        self.w, self.x, self.y, self.z = w / n, x / n, y / n, z / n

    def __mul__(self, o):
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = o.w, o.x, o.y, o.z
        return QFloat(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def inverse(self):
        return QFloat(self.w, -self.x, -self.y, -self.z)

    def neg(self):
        return QFloat(-self.w, -self.x, -self.y, -self.z)

    def power(self, k):
        """self^k for k >= 0, one renormalized product per factor."""
        out = QFloat(1.0, 0.0, 0.0, 0.0)
        for _ in range(k):
            out = out * self
        return out

    def tuple(self):
        return (self.w, self.x, self.y, self.z)


def _reference_unit(rng):
    while True:
        q = [rng.gauss(0, 1) for _ in range(4)]
        if sum(v * v for v in q) > 1e-6:
            return QFloat(*q)


def reference_random_tuple(C, rng):
    """The 4-tuples of a sweep tuple for the realizable matrix C."""
    n = C.n
    if all(s == 1 for row in C.entries for s in row):
        torus_rng = random.Random(rng.randrange(2**63))
        g = _reference_unit(torus_rng)
        out = []
        for _ in range(n):
            theta = torus_rng.uniform(0, 2 * math.pi)
            diag = QFloat(math.cos(theta), math.sin(theta), 0.0, 0.0)
            out.append(g * diag * g.inverse())
        return [q.tuple() for q in out]
    pairs = [(i, j) for i, j in combinations(range(n), 2) if C.entries[i][j] == -1]
    i, j = pairs[rng.randrange(len(pairs))]
    g = _reference_unit(rng)
    x_i = g * QFloat(0.0, 1.0, 0.0, 0.0) * g.inverse()
    x_j = g * QFloat(0.0, 0.0, 1.0, 0.0) * g.inverse()
    w = [rng.choice((1, -1)) for _ in range(n - 2)]
    out = [None] * n
    out[i], out[j] = x_i, x_j
    # position k gets w_k x_i^{a_k} x_j^{b_k}, C[j][k] = (-1)^{a_k}, C[i][k] = (-1)^{b_k}
    for s, k in zip(w, [k for k in range(n) if k not in (i, j)]):
        a, b = (1 - C.entries[j][k]) // 2, (1 - C.entries[i][k]) // 2
        y = x_i.power(a) * x_j.power(b)
        out[k] = y if s == 1 else y.neg()
    return [q.tuple() for q in out]


# ---------------------------------------------------------------------------
# Sign-matrix tables the object way.
#
# The sweeps read their sign matrices off upper-triangle bits and test
# the F2 rank on bitmask rows.  This replays the route that replaced:
# every Z/2 type matrix from ``enumerate_types``, its validated
# SignMatrix, and the mod-2 rank of its 0/1 matrix.


def sign_f2_rank(C):
    """Rank of a sign matrix's alternating F2 form (sign -1 -> 1)."""
    return rank_mod_p(
        IntMatrix.from_rows([[(1 - s) // 2 for s in row] for row in C.entries]), 2
    )


def is_realizable(C):
    """Whether some almost-commuting SU(2) tuple has the sign matrix C:
    whether its alternating F2 form (sign -1 -> 1) has rank at most 2,
    tested on bitmask rows by the function ``verifier._sign_tables`` runs."""
    return _f2_rank_at_most_2(
        [sum(1 << j for j, s in enumerate(row) if s < 0) for row in C.entries]
    )


def reference_sign_tables(n):
    """(realizable, unrealizable) sign matrices of size n, in type order."""
    tables = ([], [])
    for t in enumerate_types(n, (2,)):
        C = SignMatrix(n, tuple(tuple((-1) ** e[0] for e in row) for row in t.entries))
        tables[sign_f2_rank(C) > 2].append(C)
    return tuple(tables[0]), tuple(tables[1])


# ---------------------------------------------------------------------------
# Closed-form counts in rational arithmetic.
#
# The counting module divides integers and checks each remainder.  This
# replays the route that replaced: each formula as a sum of Fractions,
# transcribed from its docstring.  The number of type matrices, which no
# command needs, lives here too.


def count_types(n, K):
    """|K|^binom(n,2): an antisymmetric matrix is its upper triangle."""
    return prod(K) ** comb(n, 2)


def a_count_fraction(n):
    return Fraction((2**n - 1) * (2 ** (n - 1) - 1), 3)


def c_count_fraction(n):
    return Fraction(3 ** (n - 1) - 1, 2)


def k_count_fraction(n):
    return Fraction(7**n, 24) - Fraction(3**n, 8) + Fraction(1, 12)


def n_central_product_fraction(n, m, p):
    return (
        Fraction(p ** ((m - 1) * (n - 2)) * (p**n - 1) * (p ** (n - 1) - 1), p**2 - 1)
        + 1
    )
