"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is arbitrary-precision: matrices hold Python ints, so no
overflow is possible no matter how badly intermediate entries blow up
during elimination.  Sparse work runs on :class:`IntMatrix`, built from
one {row: value} dict per column; small dense work runs on lists of rows.

Two Smith-normal-form routines are provided.

``smith_normal_form(M)`` returns the full factorization U*M*V = D with
unimodular U, V and diagonal D satisfying the divisibility chain
d1 | d2 | ... , all three as lists of rows.  It is meant for small
matrices (the ``snf`` check, anything a human wants to look at).

``invariant_factors(M)`` returns only the nonzero diagonal of D.  It
builds its row dicts and column row-sets straight from M's columns and
never touches the transform matrices.  One loop pops the shortest live
column from a heap and pivots on its entry of least absolute value, every
±1 pivot before any other; each pivot takes one Euclid step (column, then
row, reduced to remainders), which for a ±1 is a rank-one update.  The
boundary matrices of the symmetric products so stay sparse.  It is the
one elimination of integral homology: the engine's clearing pass hands
it each boundary matrix whole, with the columns to leave out, and gets
back the rows of the ±1 pivots taken first.

``lead_columns_mod_p(M, p, drop)``, a sparse row reduction over F_p
taking the shortest rows first, shares no code with either, so mod-p
homology, one cleared pass of such reductions, checks the integral
answer independently.

The group of a diagonal is packaged as :class:`AbelianGroup` in
invariant-factor normal form, and full homology tables as
:class:`GradedGroup`.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from math import gcd

# ---------------------------------------------------------------------------
# SECTION: integer matrices


class IntMatrix:
    """An immutable rows x cols matrix of arbitrary-precision integers.

    Stored only as ``columns``, one {row: nonzero int} per column, as the
    constructor takes them; zeros drop out and a row outside 0..rows-1 is
    refused.  ``entries`` is the {(r, c): v} view, built on each read.

    >>> IntMatrix(2, [{0: 1, 1: 0}, {1: 2}]).to_rows()
    [[1, 0], [0, 2]]
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, columns):
        if rows < 0:
            raise ValueError("negative matrix dimensions")
        self.rows, self.cols = rows, len(columns)
        self.columns = [{r: int(v) for r, v in col.items() if v} for col in columns]
        for col in self.columns:
            for r in col:
                if not 0 <= r < rows:
                    raise ValueError(f"row {r} outside 0..{rows - 1}")

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        """Build from a list of equal-length rows.

        >>> IntMatrix.from_rows([[1, 0], [0, 2]]).entries
        {(0, 0): 1, (1, 1): 2}
        """
        data = [list(row) for row in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), [dict(enumerate(c)) for c in zip(*data)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, [{}] * cols)

    @property
    def entries(self) -> dict:
        return {(r, c): v for c, col in enumerate(self.columns) for r, v in col.items()}

    def to_rows(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.columns == other.columns
        )

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.to_rows()!r})"
        nonzero = sum(map(len, self.columns))
        return f"IntMatrix({self.rows}x{self.cols}, {nonzero} entries)"


def dense_product(a, b) -> list:
    """The product of two integer matrices given as lists of rows."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def determinant(rows) -> int:
    """Determinant of a small square list of rows by fraction-free elimination.

    Used only to confirm unimodularity in checks; Bareiss keeps every
    intermediate value an exact integer.
    """
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * (a[-1][-1] if n else 1)


# ---------------------------------------------------------------------------
# SECTION: Smith normal form with transforms (small matrices)


def _find_pivot(A, t, rows, cols):
    """Nonzero entry of A[t:, t:] minimizing (|value|, row, column)."""
    best = None
    for r in range(t, rows):
        row = A[r]
        for c in range(t, cols):
            v = row[c]
            if v:
                key = (abs(v), r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
    return None if best is None else (best[1], best[2])


def smith_normal_form(M: IntMatrix):
    """Full Smith normal form U*M*V = D, each of U, D, V a list of rows.

    U and V are unimodular; D is diagonal with nonnegative entries in a
    divisibility chain d1 | d2 | ... .  Pivots are chosen with minimal
    absolute value (ties: lowest row, then lowest column), which keeps
    entry growth moderate and the output deterministic.  A D of no rows
    is [], so its column count is the size of V.

    >>> A = [[2, 4], [6, 8]]
    >>> U, D, V = smith_normal_form(IntMatrix.from_rows(A))
    >>> D
    [[2, 0], [0, 4]]
    >>> dense_product(dense_product(U, A), V) == D
    True
    """
    rows, cols = M.rows, M.cols
    A = M.to_rows()
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    limit = min(rows, cols)

    def move_to_t(r, c):
        """Swap row r and column c of A (and U, V) into position t."""
        if r != t:
            A[t], A[r] = A[r], A[t]
            U[t], U[r] = U[r], U[t]
        if c != t:
            for row in A:
                row[t], row[c] = row[c], row[t]
            for row in V:
                row[t], row[c] = row[c], row[t]

    while t < limit:
        pos = _find_pivot(A, t, rows, cols)
        if pos is None:
            break
        move_to_t(*pos)
        while True:
            p = A[t][t]
            dirty = False
            for i in range(rows):
                if i != t and A[i][t]:
                    q = A[i][t] // p
                    if q:
                        for j in range(cols):
                            A[i][j] -= q * A[t][j]
                        for j in range(rows):
                            U[i][j] -= q * U[t][j]
                    if A[i][t]:
                        dirty = True
            for j in range(cols):
                if j != t and A[t][j]:
                    q = A[t][j] // p
                    if q:
                        for i in range(rows):
                            A[i][j] -= q * A[i][t]
                        for i in range(cols):
                            V[i][j] -= q * V[i][t]
                    if A[t][j]:
                        dirty = True
            if dirty:
                # a remainder smaller than |p| appeared; re-pivot on it
                move_to_t(*_find_pivot(A, t, rows, cols))
                continue
            # row and column t are clear; enforce the divisibility chain
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if A[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(cols):
                A[t][j] += A[bad][j]
            for j in range(rows):
                U[t][j] += U[bad][j]
        if A[t][t] < 0:
            for j in range(cols):
                A[t][j] = -A[t][j]
            for j in range(rows):
                U[t][j] = -U[t][j]
        t += 1
    return U, A, V


# ---------------------------------------------------------------------------
# SECTION: sparse invariant factors (no transforms)


def _divisor_chain(values) -> list:
    """Normalize a multiset of nonzero values to the invariant-factor chain.

    Insertion sort in the divisibility lattice: append each value in
    sorted order and, while its left neighbour does not divide it, replace
    the pair by (gcd, lcm), which keeps Z/a + Z/b.  gcd and lcm are min and
    max on every prime's exponent at once, so this sorts each exponent,
    and a dividing pair leaves the prefix a chain.  A chain costs O(t).
    """
    ds = []
    for d in sorted(abs(v) for v in values):
        ds.append(d)
        k = len(ds) - 1
        while k and ds[k] % ds[k - 1]:
            g = gcd(ds[k - 1], ds[k])
            ds[k - 1], ds[k] = g, ds[k - 1] * ds[k] // g
            k -= 1
    return ds


def invariant_factors(M: IntMatrix, skip=frozenset(), unit_rows=None) -> list:
    """Nonzero diagonal of the Smith form of M without the columns ``skip``.

    The result is a divisibility chain, 1s included, so its len() is the
    rank; entries > 1 present the torsion of the cokernel.

    One loop keeps a heap of (column length, column).  It pops the shortest
    live column and pivots on its entry v of least |v| (ties: shortest row,
    then lowest row).  While any ±1 is left only ±1 pivots are taken: a
    column without one waits until a step changes it, and when the heap
    runs dry every live column goes back on it for any pivot.  Each pivot
    takes one Euclid step.  Row operations reduce its column mod v, then,
    once the column is clear, column operations reduce its row.  A
    remainder left in the column becomes the pivot; one left in the row
    hands the pivot to the least entry of the column of the least such
    remainder.  |v| drops at each hand-over and v stays least in its
    column, so every quotient of the row operations is nonzero.  For a ±1
    the step is the rank-one Schur update that clears its row and column.

    ``unit_rows``, if given, gains the row of each ±1 pivot taken before
    any other pivot.  Those steps are unit Schur steps on the original
    rows and columns, so the rows and columns of those pivots form a minor
    of determinant ±1, which clearing needs.
    """
    rows = {}
    cols = {}
    for c, col in enumerate(M.columns):
        if col and c not in skip:
            cols[c] = set(col)
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
    push, pop = heapq.heappush, heapq.heappop
    out = []
    heap = [(len(col), c) for c, col in cols.items()]
    heapq.heapify(heap)
    units = True
    while rows:
        if not heap:  # no ±1 is left
            units = False
            heap = [(len(col), c) for c, col in cols.items() if col]
            heapq.heapify(heap)
        n, c = pop(heap)
        col = cols.get(c)
        if not col or len(col) != n:
            continue  # stale heap entry
        while True:
            a, _, r = min((abs(rows[i][c]), len(rows[i]), i) for i in col)
            if units and a != 1:
                break  # no ±1 here until a step changes this column
            row = rows[r]
            v = row.pop(c)
            del cols[c]
            col.discard(r)
            left = None  # rows of column c that keep a remainder
            # Row operations: row i -= q * row r.  |v| is least in column c,
            # so q != 0, and a zero update means row i held that entry.
            for i in col:
                ri = rows[i]
                x = ri.pop(c)
                q = x // v
                for j, w in row.items():
                    nv = ri.get(j, 0) - q * w
                    if nv:
                        ri[j] = nv
                        cols[j].add(i)
                    else:
                        del ri[j]
                        cols[j].discard(i)
                x -= q * v
                if x:
                    ri[c] = x
                    if left is None:
                        left = {r}
                    left.add(i)
                elif not ri:
                    del rows[i]
            rest = None  # row r's remainders once column c is clear
            if left is None:
                # column c is {r}, so column operations touch only row r
                for j, w in row.items():
                    w %= v
                    if w:
                        if rest is None:
                            rest = {}
                        rest[j] = w
                    else:
                        cols[j].discard(r)
            for j in row:
                push(heap, (len(cols[j]), j))
            if left is not None:
                row[c] = v
                cols[c] = col = left
            elif rest is not None:
                rest[c] = v
                rows[r] = rest
                cols[c] = {r}
                push(heap, (1, c))
                c = min(rest, key=lambda j: (abs(rest[j]), j))
                col = cols[c]
            else:
                del rows[r]
                out.append(a)
                if units and unit_rows is not None:
                    unit_rows.add(r)
                break
    return _divisor_chain(out)


def is_prime(p: int) -> bool:
    """Whether p is prime, by trial division; the moduli here are small."""
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def lead_columns_mod_p(M: IntMatrix, p: int, drop=()) -> set:
    """Lead columns of an F_p row echelon form (p prime) of M less the rows drop.

    Each row is reduced by the pivot rows found so far, keyed by their
    leading column; a row that does not vanish becomes a pivot row.  Rows
    are taken shortest first, so the early pivot rows, which every later
    row may pick up, carry little fill.  The pivot rows have distinct
    leads and span the row space, so a vector in the kernel is determined
    by its coordinates outside the returned columns.
    """
    rows = {}
    for c, col in enumerate(M.columns):
        for r, v in col.items():
            if v % p and r not in drop:
                rows.setdefault(r, {})[c] = v % p
    pivots = {}
    for row in sorted(rows.values(), key=len):
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            scale = row[lead]
            for c, v in pivot.items():
                w = (row.get(c, 0) - scale * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return set(pivots)


# ---------------------------------------------------------------------------
# SECTION: abelian groups


class AbelianGroup(namedtuple("AbelianGroup", ("free_rank", "torsion"))):
    """A finitely generated abelian group Z^free_rank + Z/d1 + ... + Z/dt.

    Invariant-factor normal form: every di >= 2 and d1 | d2 | ... | dt,
    so equality of groups is equality of fields.

    >>> str(AbelianGroup(1, (2,)))
    'Z ⊕ Z/2'
    >>> str(AbelianGroup(0, ()))
    '0'
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple = ()):
        torsion = tuple(int(d) for d in torsion)
        if free_rank < 0:
            raise ValueError("negative free rank")
        for d in torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"broken divisor chain {torsion}")
        return tuple.__new__(cls, (free_rank, torsion))

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, r: int) -> "AbelianGroup":
        return cls(r, ())

    @classmethod
    def from_factors(cls, free_rank: int, factors) -> "AbelianGroup":
        """Normalize an arbitrary multiset of cyclic orders (>= 1)."""
        chain = [d for d in _divisor_chain(factors) if d > 1]
        return cls(free_rank, tuple(chain))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_factors(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def times(self, k: int) -> "AbelianGroup":
        """Direct sum of k copies."""
        if k < 0:
            raise ValueError("negative multiplicity")
        return AbelianGroup.from_factors(self.free_rank * k, self.torsion * k)

    def torsion_rank(self, p: int) -> int:
        """Number of invariant factors divisible by p (= dim of p-torsion/p)."""
        return sum(1 for d in self.torsion if d % p == 0)

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, doc) -> "AbelianGroup":
        return cls(int(doc["free_rank"]), tuple(doc["torsion"]))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        groups = []
        for d in self.torsion:
            if groups and groups[-1][0] == d:
                groups[-1][1] += 1
            else:
                groups.append([d, 1])
        for d, m in groups:
            parts.append(f"Z/{d}" if m == 1 else f"(Z/{d})^{m}")
        return " ⊕ ".join(parts) if parts else "0"


class GradedGroup(namedtuple("GradedGroup", ("groups",))):
    """A finite list of AbelianGroups indexed by homological degree.

    Trailing trivial degrees are trimmed on construction, so two tables
    that agree in every degree compare equal.  Indexing past the top
    returns the trivial group.
    """

    __slots__ = ()

    def __new__(cls, groups: tuple = ()):
        gs = list(groups)
        while gs and gs[-1].is_trivial:
            gs.pop()
        return tuple.__new__(cls, (tuple(gs),))

    # indexing and len run over the degrees, not over the one field
    def __getitem__(self, k: int) -> AbelianGroup:
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return AbelianGroup.trivial()

    def __len__(self):
        return len(self.groups)

    @property
    def top(self) -> int:
        return len(self.groups) - 1

    def direct_sum(self, other: "GradedGroup") -> "GradedGroup":
        n = max(len(self.groups), len(other.groups))
        return GradedGroup(tuple(self[k].direct_sum(other[k]) for k in range(n)))

    def times(self, m: int) -> "GradedGroup":
        return GradedGroup(tuple(g.times(m) for g in self.groups))

    def to_json(self):
        return [g.to_json() for g in self.groups]

    @classmethod
    def from_json(cls, doc) -> "GradedGroup":
        return cls(tuple(AbelianGroup.from_json(g) for g in doc))

    @classmethod
    def of(cls, *groups) -> "GradedGroup":
        return cls(tuple(groups))

    def __str__(self):
        if not self.groups:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.groups) + ")"
