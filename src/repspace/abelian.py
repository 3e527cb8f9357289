"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is arbitrary-precision: matrices hold Python ints, so no
overflow is possible no matter how badly intermediate entries blow up
during elimination.

Two Smith-normal-form routines are provided.

``smith_normal_form(M)`` returns the full factorization U*M*V = D with
unimodular U, V and diagonal D satisfying the divisibility chain
d1 | d2 | ... .  It keeps dense working copies and is meant for small
matrices (tests, spot checks, anything a human wants to look at).

``invariant_factors(M)`` returns only the nonzero diagonal of D.  It
works on a sparse dict-of-rows layout, takes every pivot with one step
(column, then row, reduced to remainders: a rank-one update for a unit
pivot), and never touches the transform matrices.  Among the pivots of
least absolute value it takes one of least Markowitz cost, the fill-in
its step can cause, so the boundary matrices of the symmetric products
stay sparse.  It is the one elimination of integral homology: the
engine's clearing pass hands it each boundary matrix whole, with the
columns to leave out, and gets back the rows of its first unit pivots.

``lead_columns_mod_p(entries, p)``, a sparse row reduction over F_p
taking the shortest rows first, and ``rank_mod_p(M, p)``, the number of
its lead columns, share no code with either, so mod-p homology, one
cleared pass of such reductions, checks the integral answer
independently.

The group of a diagonal is packaged as :class:`AbelianGroup` in
invariant-factor normal form, and full homology tables as
:class:`GradedGroup`.
"""

from __future__ import annotations

import heapq
from math import gcd

from .values import Frozen, _set

# ---------------------------------------------------------------------------
# SECTION: integer matrices


class IntMatrix:
    """An immutable rows x cols matrix of arbitrary-precision integers.

    Entries are stored sparsely as {(r, c): nonzero int}; dense row input
    is accepted by :meth:`from_rows`.  The public contract is value-level:
    two matrices are equal iff shapes and entries agree.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if v:
                clean[(r, c)] = int(v)
        self.entries = clean

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        """Build from a list of equal-length rows.

        >>> IntMatrix.from_rows([[1, 0], [0, 2]]).entries
        {(0, 0): 1, (1, 1): 2}
        """
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        entries = {
            (r, c): v for r, row in enumerate(data) for c, v in enumerate(row) if v
        }
        return cls(rows, cols, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def entry(self, r: int, c: int) -> int:
        return self.entries.get((r, c), 0)

    def to_rows(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Sparse matrix product self * other."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        by_row = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + a * b
        return IntMatrix(self.rows, other.cols, acc)

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.to_rows()!r})"
        return f"IntMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def determinant(M: IntMatrix) -> int:
    """Determinant of a small integer matrix by fraction-free elimination.

    Used only to confirm unimodularity in checks; Bareiss keeps every
    intermediate value an exact integer.
    """
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    a = M.to_rows()
    n = len(a)
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
    """Full Smith normal form U*M*V = D.

    U and V are unimodular; D is diagonal with nonnegative entries in a
    divisibility chain d1 | d2 | ... .  Pivots are chosen with minimal
    absolute value (ties: lowest row, then lowest column), which keeps
    entry growth moderate and the output deterministic.

    >>> U, D, V = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> D.to_rows()
    [[2, 0], [0, 4]]
    >>> U.mul(IntMatrix.from_rows([[2, 4], [6, 8]])).mul(V) == D
    True
    """
    rows, cols = M.rows, M.cols
    A = M.to_rows()
    U = IntMatrix.identity(rows).to_rows()
    V = IntMatrix.identity(cols).to_rows()
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
    def pack(data, r, c):
        return IntMatrix(
            r, c, {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)}
        )

    return pack(U, rows, rows), pack(A, rows, cols), pack(V, cols, cols)


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
    rank; entries > 1 present the torsion of the cokernel.  Elimination
    order: always an entry of smallest absolute value, and among those the
    one of least Markowitz cost (row nonzeros - 1) * (column nonzeros - 1),
    the fill-in its unit step can cause at most (Markowitz, 1957).  A lazy
    heap keys each entry by the cost at its push; a popped entry whose
    cost has since grown goes back with its current cost.  A unit pivot's
    step is the rank-one update that eliminates its row and column.  Any
    other pivot v takes one step: row operations reduce its column to
    remainders mod v, then, once the column is clear, column operations
    reduce its row; a remainder is smaller than |v| and is pivoted on
    before v is taken again.

    ``unit_rows``, if given, gains the row of each unit pivot taken before
    the first non-unit pivot.  Those steps are unit Schur steps on the
    original rows and columns, so the rows and columns of those pivots
    form a minor of determinant ±1, which clearing needs; a unit made by a
    non-unit step's operations is not recorded.
    """
    rows = {}
    cols = {}
    for (r, c), v in M.entries.items():
        if c not in skip:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    heap = [
        (abs(v), (len(row) - 1) * (len(cols[c]) - 1), r, c)
        for r, row in rows.items()
        for c, v in row.items()
    ]
    heapq.heapify(heap)
    push = heapq.heappush
    out = []
    while heap:
        a, pushed, r, c = heapq.heappop(heap)
        row = rows.get(r)
        v = row.get(c) if row else None
        if v is None or abs(v) != a:
            continue  # stale heap entry
        col = cols[c]
        cost = (len(row) - 1) * (len(col) - 1)
        if cost > pushed:
            # |v| stays first in the key, so this cannot skip a smaller value
            push(heap, (a, cost, r, c))
            continue
        if a == 1:
            # Unit Schur step: row i -= (row i's entry at c * v) * row r for
            # every other row of column c, then row r and column c go.
            del rows[r], cols[c], row[c]
            col.discard(r)
            for j in row:
                cols[j].discard(r)
            for i in col:
                ri = rows[i]
                q = ri.pop(c) * v
                for j, w in row.items():
                    nv = ri.get(j, 0) - q * w
                    if nv:
                        ri[j] = nv
                        cj = cols[j]
                        cj.add(i)
                        push(heap, (abs(nv), (len(ri) - 1) * (len(cj) - 1), i, j))
                    else:
                        del ri[j]
                        cols[j].discard(i)
                if not ri:
                    del rows[i]
            out.append(1)
            if unit_rows is not None:
                unit_rows.add(r)
            continue
        unit_rows = None  # from here on a unit is no clearing pivot
        rest = [(j, w) for j, w in row.items() if j != c]
        remainder = False
        # Column pass: row i -= q * row r.  |v| is the least live value, so
        # q != 0; r stays in cols[j] for each j of row r, so none empties.
        for i in [i for i in col if i != r]:
            ri = rows[i]
            q, rem = divmod(ri[c], v)
            for j, w in rest:
                nv = ri.get(j, 0) - q * w
                if nv:
                    ri[j] = nv
                    cj = cols[j]
                    cj.add(i)
                    push(heap, (abs(nv), (len(ri) - 1) * (len(cj) - 1), i, j))
                elif j in ri:
                    del ri[j]
                    cols[j].discard(i)
            if rem:
                ri[c] = rem
                push(heap, (abs(rem), (len(ri) - 1) * (len(col) - 1), i, c))
                remainder = True
            else:
                del ri[c]
                col.discard(i)
                if not ri:
                    del rows[i]
        if not remainder:
            # column c is {r}, so column operations touch only row r
            for j, w in rest:
                w %= v
                if w:
                    row[j] = w
                    push(heap, (abs(w), (len(row) - 1) * (len(cols[j]) - 1), r, j))
                else:
                    del row[j]
                    cols[j].discard(r)
            remainder = len(row) > 1
        if remainder:
            push(heap, (a, (len(row) - 1) * (len(col) - 1), r, c))
            continue
        out.append(a)
        del rows[r], cols[c]
    return _divisor_chain(out)


def lead_columns_mod_p(entries, p: int) -> set:
    """Lead columns of a row echelon form over F_p (p prime) of {(r, c): v}.

    Each row is reduced by the pivot rows found so far, keyed by their
    leading column; a row that does not vanish becomes a pivot row.  Rows
    are taken shortest first, so the early pivot rows, which every later
    row may pick up, carry little fill.  The pivot rows have distinct
    leads and span the row space, so a vector in the kernel is determined
    by its coordinates outside the returned columns.
    """
    rows = {}
    for (r, c), v in entries.items():
        if v % p:
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


def rank_mod_p(M: IntMatrix, p: int) -> int:
    """Rank of M over F_p (p prime) by sparse row reduction, without the SNF."""
    return len(lead_columns_mod_p(M.entries, p))


# ---------------------------------------------------------------------------
# SECTION: abelian groups


class AbelianGroup(Frozen):
    """A finitely generated abelian group Z^free_rank + Z/d1 + ... + Z/dt.

    Invariant-factor normal form: every di >= 2 and d1 | d2 | ... | dt,
    so equality of groups is equality of fields.

    >>> str(AbelianGroup(1, (2,)))
    'Z ⊕ Z/2'
    >>> str(AbelianGroup(0, ()))
    '0'
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()):
        torsion = tuple(int(d) for d in torsion)
        if free_rank < 0:
            raise ValueError("negative free rank")
        for d in torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"broken divisor chain {torsion}")
        _set(self, "free_rank", free_rank)
        _set(self, "torsion", torsion)

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


class GradedGroup(Frozen):
    """A finite list of AbelianGroups indexed by homological degree.

    Trailing trivial degrees are trimmed on construction, so two tables
    that agree in every degree compare equal.  Indexing past the top
    returns the trivial group.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: tuple = ()):
        gs = list(groups)
        while gs and gs[-1].is_trivial:
            gs.pop()
        _set(self, "groups", tuple(gs))

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

    def shift(self, s: int) -> "GradedGroup":
        """Shift degrees up by s (inserting trivial groups at the bottom)."""
        pad = (AbelianGroup.trivial(),) * s
        return GradedGroup(pad + self.groups)

    def betti(self) -> list:
        return [g.free_rank for g in self.groups]

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
