"""Degreewise verification of the stable splitting statements.

Every check compares two graded abelian groups computed along
independent routes:

* one side is always the chain-level engine run on an explicit cell
  structure from the catalog;
* the other side sums the reduced homology of the space's slices, one
  per wedge factor, or is a closed formula.

A Report keeps one row per comparison, so a failure names the degree at
fault instead of just returning False.  The suite runner at the bottom
is what the command line calls; every suite is deterministic for a
fixed seed.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache, partial
from itertools import combinations
from math import comb

from . import catalog
from .abelian import (
    AbelianGroup,
    GradedGroup,
    IntMatrix,
    determinant,
    invariant_factors,
    smith_normal_form,
)
from .counting import (
    ENUMERATION_GUARD,
    a_count,
    c_count,
    c_via_recurrence,
    conj_quotient_homology,
    d_count,
    guard_types,
    k_count,
    k_via_recurrence,
    n_central_product,
    n_lower_bound_su2,
    power_exceeds,
    strata_counts,
)
from .engine import (
    homology,
    reduced_homology,
    universal_coefficients_check,
)
from .errors import RepspaceError, ResourceGuard, TypeMismatch, Unsupported, range_error
from .simplicial import (
    SimplicialSet,
    basepoint_directions,
    collapse,
    normalized_chains,
)
from .su2 import (
    DEFAULT_TOL,
    I,
    J,
    SignMatrix,
    _conjugate,
    _f2_rank_at_most_2,
    _inverse,
    _neg,
    _pairwise_commutators,
    _psi_construct,
    _random_torus,
    _random_unit,
    _restore,
    classify_so3_tuple,
    psi_construct,
)
from .values import Record

# ---------------------------------------------------------------------------
# SECTION: reports


class Report(Record):
    """Outcome of one verification: a name plus the evidence rows.

    Each row records one comparison as strings (so the whole report
    serializes without surprises); the verdict is the conjunction.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str, rows=None):
        self.name = name
        self.rows = [] if rows is None else rows

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.rows)

    def add(self, item, expected, got, ok=None) -> bool:
        if ok is None:
            ok = expected == got
        self.rows.append(
            {
                "item": str(item),
                "expected": str(expected),
                "got": str(got),
                "ok": bool(ok),
            }
        )
        return ok

    def to_json(self):
        return {"name": self.name, "ok": self.ok, "rows": self.rows}

    def render(self) -> str:
        lines = [f"[{'ok' if self.ok else 'FAIL'}] {self.name}"]
        for r in self.rows:
            mark = "  +" if r["ok"] else "  !"
            lines.append(
                f"{mark} {r['item']}: expected {r['expected']}, got {r['got']}"
            )
        return "\n".join(lines)


def poincare_assembly(parts) -> GradedGroup:
    """Degreewise direct sum of graded groups with multiplicities.

    ``parts`` is an iterable of (multiplicity, GradedGroup).  This is the
    right-hand side of every splitting statement: so many copies of each
    wedge factor's reduced homology, summed degree by degree.
    """
    total = GradedGroup.of()
    for mult, g in parts:
        if mult < 0:
            raise ValueError("multiplicity must be >= 0")
        total = total.direct_sum(g.times(mult))
    return total


def _graded_rows(rep: Report, expected: GradedGroup, got: GradedGroup, tag="H"):
    for k in range(max(expected.top, got.top, 0) + 1):
        rep.add(f"{tag}_{k}", expected[k], got[k])


# ---------------------------------------------------------------------------
# SECTION: the three splitting families
#
# Each total space X of rank n splits into one summand per nonempty set S
# of its n coordinates: the rank-|S| factor, read off X as a slice.
# hom_circle: (S^1)^n; the rank-r factor is the r-sphere.
# rep_su2:    (S^1)^n / Z2 (conjugation); the conjugation smash factor.
# sp_circle:  SP^m((S^1)^n); SP^m((S^1)^r) with its fat wedge collapsed.
# Slices share X's cells; the tests' separately built factors and the
# closed forms are the independent route.

FAMILY_LIMITS = {"hom_circle": 5, "rep_su2": 5, "sp_circle": 3}


def _check_splitting(family: str, n: int, m: int) -> None:
    """Refuse a family, rank or power that the splitting check does not
    cover; each message names the family."""
    if family not in FAMILY_LIMITS:
        raise ValueError(f"unknown splitting family {family!r}")
    limit = FAMILY_LIMITS[family]
    if not 1 <= n <= limit:
        raise range_error(
            n, 1, f"{family} splitting is checked for 1 <= n <= {limit}, not n={n}"
        )
    if family == "sp_circle" and not 1 <= m <= 3:
        raise range_error(m, 1, f"sp_circle needs 1 <= m <= 3, not m={m}")


def splitting_base(family: str, n: int, m: int = 2) -> tuple:
    """(rank-n total space X, {simplex of X: its basepoint directions}).

    X is the space whose reduced homology the wedge must reproduce.  A
    simplex at the basepoint in direction j lies in the image of the
    subtorus omitting j; an orbit of SP^m((S^1)^n) takes the directions
    shared by all m of its torus coordinates.
    """
    _check_splitting(family, n, m)
    if family == "rep_su2":
        T = X = catalog.torus_conj_quotient(n)
    else:
        T = catalog.minimal_torus(n)
        X = catalog.sym_product(T, m) if family == "sp_circle" else T
    torus = {sid: basepoint_directions(T, sid) for sid in T.dim_of}
    if X is T:  # every family but SP^m with m >= 2
        return X, torus
    return X, {
        sid: frozenset.intersection(*(torus[f.base] for f in X.parts[sid]))
        for sid in X.dim_of
    }


def _slice(X: SimplicialSet, directions: dict, D=frozenset()) -> SimplicialSet:
    """The factor on the coordinates outside D: the simplices at the basepoint
    in exactly the directions D, with the rest of their closure collapsed."""
    return collapse(X, [sid for sid, s in directions.items() if s == D])


def splitting_factor(family: str, r: int, m: int = 2) -> SimplicialSet:
    """The rank-r wedge factor: the rank-r space with its fat wedge collapsed."""
    return _slice(*splitting_base(family, r, m))


def guard_splitting(family: str, n: int, m: int = 2) -> str:
    """The report name of a splitting check, refused before anything is built.

    m counts only for sp_circle.  Range refusals name the family; within
    the ranges only SP^m((S^1)^n) can exceed the cell budget, counted from
    f-vectors, and that refusal starts with the report name.
    """
    _check_splitting(family, n, m)
    if family != "sp_circle":
        return f"splitting[{family}](n={n})"
    name = f"splitting[sp_circle](n={n},m={m})"
    try:
        catalog._guard_sym_product(catalog.minimal_torus_f_vector(n), m)
    except ResourceGuard as err:
        raise ResourceGuard(f"{name}: {err}") from None
    return name


def verify_splitting(family: str, n: int, m: int = 2) -> Report:
    """Reduced homology of the total space against the sum of its slices.

    Each proper set D of the n directions cuts out one factor, of rank
    n - |D|.  X is released before its chains, the memory peak, are reduced.
    """
    rep = Report(guard_splitting(family, n, m))
    X, directions = splitting_base(family, n, m)
    right = poincare_assembly(
        (1, reduced_homology(normalized_chains(_slice(X, directions, frozenset(D)))))
        for k in range(n)
        for D in combinations(range(n), k)
    )
    chains = normalized_chains(X)
    del X, directions
    _graded_rows(rep, right, reduced_homology(chains), tag="H~")
    return rep


# ---------------------------------------------------------------------------
# SECTION: the rank-one factor catalog
#
# For each rank-one group the n-th stable factor of its (almost-)
# commuting space, as a symbolic description plus its reduced homology.
# A disjoint basepoint costs nothing here: the reduced homology of X_+
# is the unreduced homology of X in every degree.

RANK_ONE_GROUPS = ("S1", "SU2", "SO3", "B_SU2_Z2")


def rank_one_catalog(group: str, n: int):
    """(description, reduced homology) of the n-th stable factor."""
    if group not in RANK_ONE_GROUPS or n < 1:
        raise Unsupported(group, n)
    if group in ("SU2", "B_SU2_Z2") and n > catalog.MAX_SPHERE:
        raise Unsupported(group, n)
    if group == "S1":
        return f"S^{n}", reduced_homology(catalog.sphere_chain(n))
    if group == "SU2":
        if n == 1:
            return "S^3", reduced_homology(catalog.sphere_chain(3))
        return (
            f"ΣS({n}λ)",
            reduced_homology(catalog.thom_zero_quotient(n)),
        )
    if group == "SO3":
        if n == 1:
            return "RP^3", reduced_homology(catalog.rp_chain(3))
        # the c(n) lens spaces contribute 2·c(n) = 3^(n-1) - 1 torsion summands
        if power_exceeds(3, n - 1, ENUMERATION_GUARD + 1):
            raise ResourceGuard(
                f"SO3 at n={n}: 3^{n - 1} - 1 lens-space torsion summands "
                f"exceed the enumeration guard {ENUMERATION_GUARD}"
            )
        c = c_count(n)
        value = poincare_assembly(
            [
                (1, reduced_homology(catalog.stunted_projective(n + 2, n))),
                (c, homology(catalog.lens_q8())),
            ]
        )
        return f"RP^{n + 2}/RP^{n - 1} ∨ {c}·(S^3/Q8)_+", value
    # B_SU2_Z2: SU(2) almost-commuting tuples with one marked -1.
    if n == 1:
        return "S^3", reduced_homology(catalog.sphere_chain(3))
    k = k_count(n)
    value = poincare_assembly(
        [
            (k, homology(catalog.rp_chain(3))),
            (1, reduced_homology(catalog.thom_zero_quotient(n))),
        ]
    )
    return f"{k}·(RP^3)_+ ∨ ΣS({n}λ)", value


# ---------------------------------------------------------------------------
# SECTION: closed formulas against the engine


def check_homology_prop(n: int) -> Report:
    """Engine homology of (S^1)^n/Z2 against the closed-form table."""
    rep = Report(f"homology-prop(n={n})")
    got = homology(normalized_chains(catalog.torus_conj_quotient(n)))
    _graded_rows(rep, conj_quotient_homology(n), got)
    return rep


def check_rep_u_cohomology(m: int = 2) -> Report:
    """SP^m((S^1)^2) against the torsion-free rank pattern 1, 2, ..., 2, 1."""
    rep = Report(f"rep-u(m={m})")
    got = homology(normalized_chains(catalog.sp_torus(2, m)))
    if m == 0:
        expected = GradedGroup.of(AbelianGroup.free(1))
    else:
        middle = [AbelianGroup.free(2) for _ in range(2 * m - 1)]
        expected = GradedGroup.of(
            AbelianGroup.free(1), *middle, AbelianGroup.free(1)
        )
    _graded_rows(rep, expected, got)
    return rep


def check_rep_sp(n: int = 2, m: int = 2) -> Report:
    """SP^m((S^1)^2/Z2) against complex projective m-space."""
    if n != 2:
        raise ResourceGuard("the projective-space comparison is for n=2")
    rep = Report(f"rep-sp(n={n},m={m})")
    got = homology(normalized_chains(catalog.rep_sp(n, m)))
    expected = GradedGroup.of(
        *[
            AbelianGroup.free(1) if k % 2 == 0 else AbelianGroup.trivial()
            for k in range(2 * m + 1)
        ]
    )
    _graded_rows(rep, expected, got)
    return rep


def check_counts() -> Report:
    """Spot values and the binomial recurrences of the counting module."""
    rep = Report("counts")
    for item, want, got in [
        ("A(5)", 155, a_count(5)),
        ("C(4)", 13, c_count(4)),
        ("D(4)", 140, d_count(4)),
        ("K(4)", 90, k_count(4)),
        ("N(3,2,3)", 79, n_central_product(3, 2, 3)),
        ("N(4,1,2)", 36, n_central_product(4, 1, 2)),
        ("SU(2) component lower bound, n=4", 36, n_lower_bound_su2(4)),
        ("strata(3, Z/2)", [4, 3, 0, 1], strata_counts(3, (2,))),
    ]:
        rep.add(item, want, got)
    rep.add(
        "C recurrence vs closed form, n=1..20",
        True,
        all(c_via_recurrence(n) == c_count(n) for n in range(1, 21)),
    )
    rep.add(
        "K recurrence vs closed form, n=1..20",
        True,
        all(k_via_recurrence(n) == k_count(n) for n in range(1, 21)),
    )
    rep.add(
        "D against its defining sum, n=1..20",
        True,
        all(
            sum(comb(n, r) * k_count(r) for r in range(1, n + 1)) == d_count(n)
            for n in range(1, 21)
        ),
    )
    return rep


# ---------------------------------------------------------------------------
# SECTION: randomized SU(2) sweeps


@cache
def _sign_tables(n: int) -> tuple:
    """(realizable, unrealizable) sign matrices of size n, in the order of
    ``enumerate_types(n, (2,))``, as tuples built once per process.

    A type's upper-triangle slots (i, j), i < j in row-major order, are
    the bits of its index with the first slot most significant; a set
    bit is the sign -1.  A matrix is realizable when its F2 form has rank
    at most 2, tested on bitmask rows as ``SignMatrix.is_realizable`` does.
    """
    guard_types(n, (2,))
    slots = list(combinations(range(n), 2))
    signs = [tuple(-1 if m >> j & 1 else 1 for j in range(n)) for m in range(2**n)]
    realizable, unrealizable = [], []
    for bits in range(2 ** len(slots)):
        rows = [0] * n
        for i, j in reversed(slots):
            if bits & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bits >>= 1
        C = SignMatrix(n, tuple([signs[r] for r in rows]))
        (realizable if _f2_rank_at_most_2(rows) else unrealizable).append(C)
    return tuple(realizable), tuple(unrealizable)


@lru_cache(maxsize=1 << 12)
def _anticommuting_pairs(entries: tuple) -> tuple:
    """The pairs i < j of a sign matrix's rows with sign -1, once per matrix;
    none when every sign is +1."""
    return tuple(
        (i, j) for i, j in combinations(range(len(entries)), 2) if entries[i][j] == -1
    )


def _random_tuple(C: SignMatrix, rng: random.Random) -> list:
    """A random SU(2) tuple built to have the realizable sign matrix C, as
    a list of 4-tuples.

    The trivial matrix gets a random common-axis tuple; any other gets a
    conjugated anticommuting base pair at a random -1 entry and random
    companion signs.
    """
    n = C.n
    pairs = _anticommuting_pairs(C.entries)
    if not pairs:
        return _random_torus(n, rng.randrange(2**63))
    i, j = pairs[rng.randrange(len(pairs))]
    g = _random_unit(rng)
    gi = _inverse(g)
    x_i = _conjugate(g, I.components(), gi)
    x_j = _conjugate(g, J.components(), gi)
    w = tuple(rng.choice((1, -1)) for _ in range(n - 2))
    return _psi_construct(x_i, x_j, w, C, i, j)


def psi_sweep(n: int, runs: int, seed) -> dict:
    """Randomized constructions of every realizable sign matrix.

    Each run draws a realizable matrix (covering all of them first) and a
    random tuple built for it, then measures the tuple's type and
    commutator defect from one pass over its commutators.  A run fails
    when the construction raises, the defect exceeds DEFAULT_TOL or the
    signs differ from the target; the worst defect counts failed runs too.
    Returns {"runs", "failures", "max_commutator_defect"}.
    """
    rng = random.Random(seed)
    realizable = _sign_tables(n)[0]
    failures = 0
    worst = 0.0
    for run in range(runs):
        C = realizable[run] if run < len(realizable) else rng.choice(realizable)
        try:
            t = _random_tuple(C, rng)
        except RepspaceError:
            failures += 1
            continue
        rows, defect = _pairwise_commutators(t)
        worst = max(worst, defect)
        if defect > DEFAULT_TOL or rows != C.entries:
            failures += 1
    return {"runs": runs, "failures": failures, "max_commutator_defect": worst}


def psi_refusals(n: int) -> dict:
    """Every non-realizable sign matrix must be refused at every base.

    If the forced-entry checks all passed for some base position, the
    construction would output a tuple realizing the matrix, which the
    rank bound forbids — so a TypeMismatch at every position is not just
    expected but guaranteed.
    """
    unreal = _sign_tables(n)[1]
    refused = 0
    for C in unreal:
        ok = True
        for i, j in combinations(range(n), 2):
            try:
                psi_construct(I, J, (1,) * (n - 2), C, i, j)
                ok = False
            except TypeMismatch:
                pass
        if ok:
            refused += 1
    return {"matrices": len(unreal), "refused": refused}


def so3_invariance(cases: int, seed) -> dict:
    """The SO(3) classifier ignores lift signs and conjugation.

    Each case builds a commuting SO(3) tuple (via its SU(2) lifts),
    flips a random subset of lift signs, conjugates everything by a
    random element, and demands the same sign matrix back.  A case whose
    tuple cannot be built or classified counts as a failure.
    """
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        n = rng.choice((2, 3, 4))
        try:
            t = _random_tuple(rng.choice(_sign_tables(n)[0]), rng)
            before = classify_so3_tuple([_restore(*x) for x in t])
            flipped = [x if rng.random() < 0.5 else _neg(x) for x in t]
            g = _random_unit(rng)
            gi = _inverse(g)
            after = classify_so3_tuple(
                [_restore(*_conjugate(g, x, gi)) for x in flipped]
            )
        except RepspaceError:
            failures += 1
            continue
        if after != before:
            failures += 1
    return {"cases": cases, "failures": failures}


def check_su2(runs: int = 1200, seed: int = 20260823) -> Report:
    """Realization sweeps, refusal checks and SO(3) invariance."""
    rep = Report(f"su2(runs={runs})")
    per = max(runs // 3, 40)
    for n in (2, 3, 4):
        out = psi_sweep(n, per, seed + n)
        rep.add(
            f"construction sweep n={n} ({out['runs']} runs)",
            "0 failures",
            f"{out['failures']} failures, "
            f"worst defect {out['max_commutator_defect']:.2e}",
            out["failures"] == 0
            and out["max_commutator_defect"] < DEFAULT_TOL,
        )
        ref = psi_refusals(n)
        rep.add(
            f"refusals n={n}",
            f"{ref['matrices']} matrices refused everywhere",
            f"{ref['refused']} matrices refused everywhere",
            ref["refused"] == ref["matrices"],
        )
    inv = so3_invariance(max(runs // 3, 40), seed - 1)
    rep.add(
        f"SO(3) lift/conjugation invariance ({inv['cases']} cases)",
        "0 failures",
        f"{inv['failures']} failures",
        inv["failures"] == 0,
    )
    return rep


# ---------------------------------------------------------------------------
# SECTION: structural suites (normal form, boundary algebra)


def check_snf(runs: int = 200, seed: int = 11) -> Report:
    """U·M·V = D with unimodular U, V and a divisor chain, on random M.

    The sparse ``invariant_factors`` that homology runs on must return
    D's nonzero diagonal; U and V themselves serve no homology.
    """
    rng = random.Random(seed)
    rep = Report(f"snf(runs={runs})")
    bad = 0
    for _ in range(runs):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        M = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        )
        U, D, V = smith_normal_form(M)
        diag = [D.entry(i, i) for i in range(min(r, c))]
        ok = (
            U.mul(M).mul(V) == D
            and abs(determinant(U)) == 1
            and abs(determinant(V)) == 1
            and all(
                D.entry(i, j) == 0
                for i in range(r)
                for j in range(c)
                if i != j
            )
            and all(d >= 0 for d in diag)
            and all(
                (b == 0 if a == 0 else b % a == 0)
                for a, b in zip(diag, diag[1:])
            )
            and invariant_factors(M) == [d for d in diag if d]
        )
        if not ok:
            bad += 1
    rep.add(
        "random integer matrices",
        f"{runs} satisfy the normal-form axioms",
        f"{runs - bad} satisfy the normal-form axioms",
        bad == 0,
    )
    return rep


def check_simplicial() -> Report:
    """Chain-level consistency across every catalog sample.

    Building normalized chains re-validates boundary-squared; on top of
    that each integral answer must agree with its mod-p shadows.
    """
    rep = Report("simplicial")
    for key in catalog.catalog_samples():
        canonical, thunk = catalog.resolve(key)
        C = thunk()
        ok = universal_coefficients_check(C, 2, 3)
        rep.add(
            canonical,
            "boundary² = 0 and mod-p ranks consistent",
            "holds" if ok else "mod-p ranks inconsistent",
            ok,
        )
    return rep


# ---------------------------------------------------------------------------
# SECTION: suite runner

SUITES = (
    "snf",
    "simplicial",
    "homology-prop",
    "rep-u",
    "rep-sp",
    "splitting",
    "counts",
    "su2",
)


def suite_builders(name: str, seed: int = 0, runs: int = 1200) -> list:
    """Zero-argument report builders for one named suite."""
    if name == "snf":
        return [partial(check_snf, runs=max(runs // 6, 50), seed=seed + 11)]
    if name == "simplicial":
        return [check_simplicial]
    if name == "homology-prop":
        return [partial(check_homology_prop, n) for n in (1, 2, 3, 4)]
    if name == "rep-u":
        return [partial(check_rep_u_cohomology, m) for m in (1, 2, 3)]
    if name == "rep-sp":
        return [partial(check_rep_sp, 2, m) for m in (0, 1, 2, 3)]
    if name == "splitting":
        return [
            partial(verify_splitting, family, n)
            for family, limit in FAMILY_LIMITS.items()
            for n in range(1, limit + 1)
        ] + [partial(verify_splitting, "sp_circle", n, 3) for n in (1, 2)]
    if name == "counts":
        return [check_counts]
    if name == "su2":
        return [partial(check_su2, runs=runs, seed=seed + 97)]
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")


def run_suite(name: str, seed: int = 0, runs: int = 1200) -> list:
    """All reports of one suite, in order."""
    return [b() for b in suite_builders(name, seed=seed, runs=runs)]
