"""Simplicial sets: face algebra, products, quotients, collapses, chains."""

import random

import pytest

import oracles
from repspace.abelian import AbelianGroup, GradedGroup
from repspace import catalog, simplicial, verifier
from repspace.catalog import circle, minimal_torus
from repspace.engine import ChainComplex, homology, reduced_homology, suspend
from repspace.errors import ActionInvalid, CompositionNotZero, ResourceGuard
from repspace.simplicial import (
    CELL_BUDGET,
    FormalSimplex,
    SimplicialAction,
    SimplicialSet,
    basepoint_directions,
    collapse,
    compose_degeneracy,
    normalized_chains,
    product_list,
    product_f_vector,
    product_simplex_id,
    quotient_by_action,
)

F = FormalSimplex
Z = AbelianGroup.free


def T(r, *ds):
    return AbelianGroup.from_factors(r, ds)


def two_gon():
    """Circle as two vertices b, q and two edges a, c from b to q."""
    X = oracles.by_id(
        {0: ["b", "q"], 1: ["a", "c"]},
        {"a": (F((), "q"), F((), "b")), "c": (F((), "q"), F((), "b"))},
        basepoint="b",
    )
    return X, oracles.action_by_id(X, {"a": "c", "c": "a"})


def rose(n):
    """A wedge of n circles: one vertex and n loops."""
    loops = [f"e{i}" for i in range(n)]
    return oracles.by_id(
        {0: ["v"], 1: loops}, {e: (F((), "v"), F((), "v")) for e in loops}
    )


def fat_wedge(P):
    """The simplices of a product with some coordinate at the basepoint."""
    return [s for s, d in oracles.per_id(P, basepoint_directions(P)).items() if d]


def smash(Xs):
    P = product_list(Xs)
    return collapse(P, [[not d for d in level] for level in basepoint_directions(P)])


# -- degeneracy word algebra -------------------------------------------------


def test_compose_degeneracy_normal_form():
    f = F((), "x")
    assert compose_degeneracy(0, f) == F((0,), "x")
    # s_1 s_0 = s_0 s_0 (both normal forms are (1, 0))
    assert compose_degeneracy(1, F((0,), "x")) == F((1, 0), "x")
    assert compose_degeneracy(0, F((0,), "x")) == F((1, 0), "x")
    # s_0 s_2 = s_3 s_0
    assert compose_degeneracy(0, F((2,), "x")) == compose_degeneracy(
        3, F((0,), "x")
    )


def test_degeneracy_exchange_law_randomized():
    # s_i s_j = s_{j+1} s_i for i <= j, on arbitrary normal words
    rng = random.Random(11)
    for _ in range(300):
        word = tuple(
            sorted(rng.sample(range(8), rng.randrange(4)), reverse=True)
        )
        f = F(word, "x")
        i = rng.randrange(6)
        j = rng.randrange(i, 6)
        left = compose_degeneracy(i, compose_degeneracy(j, f))
        right = compose_degeneracy(j + 1, compose_degeneracy(i, f))
        assert left == right
        assert all(a > b for a, b in zip(left.word, left.word[1:]))


def test_formal_face_absorbs_and_pushes():
    faces = oracles.faces_by_id(circle())
    e = F((), "e")
    # d_0 s_0 = d_1 s_0 = id on the edge
    assert oracles._formal_face(faces, F((0,), "e"), 0, 2) == e
    assert oracles._formal_face(faces, F((0,), "e"), 1, 2) == e
    # d_2 s_0 e = s_0 d_1 e = s_0 v
    assert oracles._formal_face(faces, F((0,), "e"), 2, 2) == F((0,), "v")
    # d_0 s_1 e = s_0 d_0 e = s_0 v
    assert oracles._formal_face(faces, F((1,), "e"), 0, 2) == F((0,), "v")


def test_face_identities_on_all_formal_simplices():
    # d_i d_j = d_{j-1} d_i (i < j) for every formal simplex up to dim 5
    spaces = [circle(), two_gon()[0]]
    face = oracles._formal_face
    for X in spaces:
        faces = oracles.faces_by_id(X)
        for k in range(2, 6):
            for f in X.formal_simplices(k):
                for j in range(1, k + 1):
                    for i in range(j):
                        left = face(faces, face(faces, f, j, k), i, k - 1)
                        right = face(faces, face(faces, f, i, k), j - 1, k - 1)
                        assert left == right, (f, i, j)


def test_formal_simplex_counts_match_binomials():
    X, _ = two_gon()
    for k in range(6):
        got = len(X.formal_simplices(k))
        assert got == oracles.formal_count(X.f_vector(), k)


# -- validation --------------------------------------------------------------


def test_validate_rejects_bad_face_data():
    with pytest.raises(ValueError, match="needs 2 faces"):
        oracles.by_id({0: ["v"], 1: ["e"]}, {"e": (F((), "v"),)})
    with pytest.raises(ValueError, match="references"):
        oracles.by_id(
            {0: ["v"], 1: ["e"]}, {"e": (F((), "v"), F((), "w"))}
        )
    with pytest.raises(ValueError, match="not normal"):
        # a face word of the right length but not strictly decreasing
        oracles.by_id(
            {0: ["v"], 1: ["e"], 2: ["t"], 3: ["w"]},
            {
                "e": (F((), "v"), F((), "v")),
                "t": (F((), "e"),) * 3,
                "w": (F((0, 1), "v"),) + (F((1, 0), "v"),) * 3,
            },
        )
    with pytest.raises(ValueError, match="references position 1 of degree 1"):
        # a vertex named as a face of a 2-simplex: no 1-simplex has that id
        oracles.by_id(
            {0: ["v"], 1: ["e"], 2: ["t"]},
            {"e": (F((), "v"), F((), "v")), "t": (F((), "e"), F((), "e"), F((), "v"))},
        )
    with pytest.raises(ValueError, match="duplicate"):
        oracles.by_id({0: ["v", "v"]}, {})


def test_the_empty_simplicial_set_has_empty_chains():
    X = SimplicialSet({}, [])
    assert (X.dim, X.f_vector(), oracles.faces_by_id(X)) == (-1, [], {})
    assert normalized_chains(X).ranks == []


def test_validate_rejects_broken_simplicial_identity():
    # a 2-simplex whose faces cannot satisfy d_0 d_0 = d_0 d_1
    X = oracles.by_id(
        {0: ["u", "v"], 1: ["e", "f"]},
        {
            "e": (F((), "v"), F((), "u")),
            "f": (F((), "u"), F((), "u")),
        },
    )
    with pytest.raises(ValueError, match="d_0 d_1"):
        oracles.by_id(
            {0: ["u", "v"], 1: ["e", "f"], 2: ["t"]},
            {
                "e": (F((), "v"), F((), "u")),
                "f": (F((), "u"), F((), "u")),
                "t": (F((), "e"), F((), "f"), F((), "e")),
            },
        )
    assert X.dim == 1  # the 1-skeleton itself was fine


def test_validate_rejects_a_broken_identity_through_a_degenerate_face():
    # s_0 u has faces (u, u), so d_0 d_2 = d_1 d_0 needs d_0 of d_2 t to be
    # u; t1 passes, and t2, whose d_2 is the edge from v, must still fail
    # after t1 has pushed d_i through s_0 u
    su = F((0,), "u")
    simplices = {0: ["u", "v"], 1: ["e"], 2: ["t1"]}
    faces = {"e": (F((), "v"), F((), "u")), "t1": (su, su, su)}
    assert oracles.by_id(simplices, faces).dim == 2
    with pytest.raises(ValueError, match="d_0 d_2 ≠ d_1 d_0 on 't2'"):
        oracles.by_id(
            {**simplices, 2: ["t1", "t2"]},
            {**faces, "t2": (su, su, F((), "e"))},
        )


class _SpiedPushes(simplicial._PushedFaces):
    """validate's memos of degenerate faces, one per degree, kept for
    inspection."""

    __slots__ = ("misses",)
    seen = []

    def __init__(self, rows, lower):
        super().__init__(rows, lower)
        self.misses = 0
        self.seen.append(self)

    def __missing__(self, f):
        self.misses += 1
        return super().__missing__(f)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_validate_pushes_each_degenerate_face_once_as_the_reference_does(
    n, monkeypatch
):
    X = catalog.sphere_bundle_quotient(n)
    monkeypatch.setattr(simplicial, "_PushedFaces", _SpiedPushes)
    _SpiedPushes.seen.clear()
    X.validate()
    pushed = _SpiedPushes.seen  # pushed[e - 1]: the degree e memo
    assert len(pushed) == X.dim
    faces, ids = oracles.faces_by_id(X), X.simplices
    for k in range(2, X.dim + 1):
        degenerate = {f for row in X.table[k] for f in row if f[0]}
        assert degenerate <= pushed[k - 2].keys()
    assert sum(map(len, pushed)) > 0
    for e, memo in enumerate(pushed, start=1):
        assert memo.misses == len(memo)
        for (word, q), row in memo.items():
            name = F(word, ids[e - len(word)][q])
            assert [(w, ids[e - 1 - len(w)][p]) for w, p in row] == [
                oracles._formal_face(faces, name, i, e) for i in range(e + 1)
            ]


def _plant(X, rng):
    """X's face table with one face replaced by a wrong one: mostly another
    formal simplex of the same dimension, else one of another dimension, an
    unknown base, or a word out of normal form or out of range."""
    faces = oracles.faces_by_id(X)
    sid, i = rng.choice([(s, i) for s, fs in faces.items() for i in range(len(fs))])
    k, old = X.dim_of[sid], faces[sid][i]
    others = [f for f in X.formal_simplices(k - 1) if f != old]
    kind = rng.choice(["same"] * 6 + ["dimension", "base", "normal", "range"])
    if kind == "dimension" or not others:
        new = rng.choice(X.formal_simplices(k))
    elif kind == "base":
        new = F(old.word, "nowhere")
    elif kind == "normal" and len(old.word) > 1:
        new = F(old.word[::-1], old.base)
    elif kind == "range" and old.word:
        new = F((k - 1,) + old.word[1:], old.base)
    else:
        new = rng.choice(others)
    faces[sid] = faces[sid][:i] + (new,) + faces[sid][i + 1 :]
    return oracles.by_id(X.simplices, faces, basepoint=X.basepoint, check=False)


PLANT_CASES = {
    "sphere_bundle_quotient(3)": lambda: catalog.sphere_bundle_quotient(3),
    "torus_conj_quotient(3)": lambda: catalog.torus_conj_quotient(3),
    "two-cell S^2 x 2-gon": lambda: product_list(
        [catalog.sphere_simplicial(2)[0], two_gon()[0]]
    ),
    "sp_torus(2,2)": lambda: catalog.sp_torus(2, 2),
}


@pytest.mark.parametrize("case", sorted(PLANT_CASES))
def test_a_planted_wrong_face_is_refused_as_the_reference_refuses_it(case):
    X = PLANT_CASES[case]()
    X.validate()
    rng = random.Random(case)
    for _ in range(40):
        Y = _plant(X, rng)
        expected = oracles.validation_error(Y)
        assert expected is not None
        with pytest.raises(ValueError) as refusal:
            Y.validate()
        assert str(refusal.value) == expected


def test_the_plants_reach_degenerate_faces_and_the_identities():
    # the plants above move degenerate faces, and they fail the structure
    # checks and the identities both
    rng = random.Random(5)
    X = catalog.sphere_bundle_quotient(3)
    moved, messages = set(), set()
    for _ in range(80):
        Y = _plant(X, rng)
        moved |= {
            (bool(f[0]), bool(g[0]))
            for rows, planted in zip(X.table, Y.table)
            for row, wrong in zip(rows, planted)
            for f, g in zip(row, wrong)
            if f != g
        }
        messages.add(oracles.validation_error(Y).split(" ")[0])
    assert moved == {(False, False), (False, True), (True, False), (True, True)}
    assert {"d_0", "d_1", "face"} <= messages


def _plant_in_the_table(X, rng, kind):
    """X with one row of its position table changed: one face moved to
    another position of its degree ("position"), to a position outside it
    ("range") or under a word out of normal form ("normal"), or two unequal
    faces of one row swapped ("swap")."""
    table = [list(rows) for rows in X.table]
    sites = [
        (k, p, i)
        for k in range(1, len(table))
        for p, row in enumerate(table[k])
        for i in range(k + 1)
        if kind != "position" or len(X.ids(k - 1 - len(row[i][0]))) > 1
        if kind != "swap" or len(set(row)) > 1
    ]
    k, p, i = rng.choice(sites)
    row = list(table[k][p])
    word, q = row[i]
    size = len(X.ids(k - 1 - len(word)))
    if kind == "position":
        row[i] = (word, (q + rng.randrange(1, size)) % size)
    elif kind == "range":
        row[i] = (word, rng.choice([-1, size, size + 7]))
    elif kind == "normal":
        row[i] = ((0, 0) + word, q)
    else:
        j = rng.choice([j for j in range(k + 1) if row[j] != row[i]])
        row[i], row[j] = row[j], row[i]
    table[k][p] = tuple(row)
    return SimplicialSet(X.simplices, table, basepoint=X.basepoint, check=False)


@pytest.mark.parametrize("case", sorted(PLANT_CASES))
def test_a_fault_planted_in_the_table_is_refused_as_the_reference_refuses_it(case):
    X = PLANT_CASES[case]()
    rng = random.Random(f"table {case}")
    refused = {}
    for kind in ("position", "range", "normal", "swap"):
        for _ in range(15):
            Y = _plant_in_the_table(X, rng, kind)
            expected = oracles.validation_error(Y)
            if expected is None:
                Y.validate()
                continue
            with pytest.raises(ValueError) as refusal:
                Y.validate()
            assert str(refusal.value) == expected
            refused.setdefault(kind, set()).add(expected.split(" ")[0])
    assert refused["range"] == {"face"}
    assert refused["normal"] == {"face"}
    assert {"d_0", "d_1"} <= refused["position"] | refused["swap"]


def test_a_wrong_face_planted_in_a_collapse_is_refused_by_d_d():
    # collapse builds unchecked; with the nondegenerate face e of a
    # 2-simplex t replaced by the collapsed point, ∂t loses ±e, so
    # ∂∂t = ∓∂e, which is not zero when e's two ends differ
    Q = catalog.smash_factor(2)
    normalized_chains(Q)
    table = [list(rows) for rows in Q.table]
    p, i = next(
        (p, i)
        for p, row in enumerate(table[2])
        for i, (word, q) in enumerate(row)
        if not word and len(set(Q.table[1][q])) == 2
    )
    row = list(table[2][p])
    row[i] = ((0,), 0)  # s_0 of the basepoint *
    table[2][p] = tuple(row)
    Y = SimplicialSet(Q.simplices, table, basepoint=Q.basepoint, check=False)
    with pytest.raises(CompositionNotZero, match="d_1 ∘ d_2"):
        normalized_chains(Y)
    with pytest.raises(ValueError, match="d_"):
        Y.validate()


# -- basic models ------------------------------------------------------------


def test_minimal_circle_chains_and_homology():
    X = circle()
    assert X.f_vector() == [1, 1]
    C = normalized_chains(X)
    assert C.diffs[0].entries == {}
    assert homology(C) == GradedGroup.of(Z(1), Z(1))


def test_two_gon_is_a_circle():
    X, _ = two_gon()
    assert oracles.euler_characteristic(X.f_vector()) == 0
    assert homology(normalized_chains(X)) == GradedGroup.of(Z(1), Z(1))


# -- products ----------------------------------------------------------------


def test_torus_f_vector_minimal_model():
    X = product_list([circle(), circle()])
    X.validate()
    assert X.f_vector() == [1, 3, 2]
    assert X.f_vector() == oracles.torus_f_vector(2, 1)
    Y = product_list([circle()] * 3)
    Y.validate()
    assert Y.f_vector() == oracles.torus_f_vector(3, 1)


def test_torus_f_vector_two_gon_model():
    C, _ = two_gon()
    X = product_list([C, C])
    X.validate()
    assert X.f_vector() == oracles.torus_f_vector(2, 2)
    assert X.f_vector() == oracles.product_f_vector(
        [C.f_vector(), C.f_vector()], 2
    )


def test_mixed_product_f_vector_against_shuffle_oracle():
    C, _ = two_gon()
    M = circle()
    X = product_list([C, M, M])
    X.validate()
    assert X.f_vector() == oracles.product_f_vector(
        [C.f_vector(), M.f_vector(), M.f_vector()], 3
    )


def test_torus_homology_kunneth():
    M = circle()
    assert homology(normalized_chains(product_list([M, M]))) == GradedGroup.of(
        Z(1), Z(2), Z(1)
    )
    C, _ = two_gon()
    assert homology(normalized_chains(product_list([C, C]))) == GradedGroup.of(
        Z(1), Z(2), Z(1)
    )
    X3 = product_list([M] * 3)
    assert homology(normalized_chains(X3)) == GradedGroup.of(
        Z(1), Z(3), Z(3), Z(1)
    )


def test_product_with_point_is_identity_on_f_vectors():
    P = SimplicialSet({0: ["p"]}, [[()]], basepoint="p")
    C, _ = two_gon()
    X = product_list([C, P])
    X.validate()
    assert X.f_vector() == C.f_vector()
    assert X.basepoint == "(b|p)"


PRODUCT_CASES = {
    "minimal T^2 cubed": lambda: [minimal_torus(2)] * 3,
    "2-gon x circle x rose(2)": lambda: [two_gon()[0], circle(), rose(2)],
    "cross-polytope S^1 x 2-gon": lambda: [
        oracles.cross_polytope_sphere(1)[0],
        two_gon()[0],
    ],
    # the sphere's middle face s_0(e0+) is degenerate
    "two-cell S^2 x 2-gon": lambda: [catalog.sphere_simplicial(2)[0], two_gon()[0]],
    "torus_conj_quotient(2) squared": lambda: [catalog.torus_conj_quotient(2)] * 2,
    # faces s_1 s_0 * on both sides: two shared degeneracies to peel
    "3-sphere x circle": lambda: [smash([circle()] * 3), circle()],
}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_product_matches_the_reference_product(case):
    # simplex order, faces, coordinates and basepoint, against a brute-force
    # product that shares no code with the table-driven one
    factors = PRODUCT_CASES[case]()
    P = product_list(factors)
    simplices, faces, parts, basepoint = oracles.reference_product(factors)
    assert P.simplices == simplices
    assert oracles.faces_by_id(P) == faces
    assert P.parts == parts
    assert P.basepoint == basepoint


FACTOR_CASES = {
    # each up to the top degree of the products the catalog builds from it:
    # SP^3 of a circle or torus, and S^2 x S^k for the sphere bundles
    "circle": (circle, 3),
    "circle_conj": (lambda: catalog.circle_conj()[0], 3),
    **{f"minimal_torus({n})": (lambda n=n: minimal_torus(n), 3 * n) for n in (1, 2, 3)},
    **{
        f"sphere_simplicial({k})": (lambda k=k: catalog.sphere_simplicial(k)[0], k + 2)
        for k in range(1, 6)
    },
    "torus_conj_quotient(2)": (lambda: catalog.torus_conj_quotient(2), 6),
}


@pytest.mark.parametrize("case", sorted(FACTOR_CASES))
def test_degree_tables_match_the_push_through_reference(case):
    # pool, masks, names, faces and runs, the faces of degenerate formal
    # simplices read from the tables below against each face pushed
    # through its degeneracy word
    build, top = FACTOR_CASES[case]
    X = build()
    tables = simplicial._factor_degrees(X, top)
    assert [tuple(t) for t in tables] == oracles.reference_factor_degrees(X, top)


def test_product_budget_guard():
    C, _ = two_gon()
    assert sum(product_f_vector([C.f_vector()] * 6)) > CELL_BUDGET
    with pytest.raises(ResourceGuard, match="budget"):
        product_list([C] * 6)


def test_product_size_matches_the_shuffle_oracle():
    rng = random.Random(9366)
    for _ in range(200):
        fvs = [
            [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 3))
        ]
        top = sum(len(f) - 1 for f in fvs)
        assert product_f_vector(fvs) == oracles.product_f_vector(fvs, top), fvs
    for n in range(1, 7):
        for v in (1, 2):
            assert sum(product_f_vector([[v, v]] * n)) == sum(
                oracles.torus_f_vector(n, v)
            )
    assert sum(product_f_vector([[1, 3, 2]] * 3)) == 9366
    assert sum(product_f_vector([[1, 1]] * 6)) == 9366


# -- actions and quotients ---------------------------------------------------


def test_conjugation_quotient_of_circle_is_an_arc():
    X, A = two_gon()
    Q = quotient_by_action(X, A)
    assert Q.f_vector() == [2, 1]
    assert homology(normalized_chains(Q)) == GradedGroup.of(Z(1))
    assert Q.basepoint == "[b]"
    assert Q.ids(1) == ["[a]"]


def test_quotient_of_a_product_keeps_each_orbits_coordinates():
    M = circle()
    P = product_list([M, M])
    swap = {sid: product_simplex_id(fs[::-1]) for sid, fs in P.parts.items()}
    Q = quotient_by_action(P, oracles.action_by_id(P, swap))
    assert set(Q.parts) == set(Q.dim_of)
    for oid in Q.dim_of:
        assert Q.parts[oid] == P.parts[oid[1:-1]]  # "[rep]"
    assert Q.parts[Q.basepoint] == (F((), "v"), F((), "v"))
    directions = oracles.per_id(Q, basepoint_directions(Q))
    assert directions[Q.basepoint] == frozenset({0, 1})
    assert directions["[(e|s0(v))]"] == frozenset({1})
    assert directions["[(e|e)]"] == frozenset()


def test_the_quotient_is_based_at_the_basepoints_orbit():
    # the basepoint b is neither first nor the lesser id of its orbit {a, b}
    for swap, base in (({"a": "b", "b": "a"}, "[a]"), ({"x": "a", "a": "x"}, "[b]")):
        X = oracles.by_id({0: ["x", "b", "a"]}, {}, basepoint="b")
        Q = quotient_by_action(X, oracles.action_by_id(X, swap))
        assert Q.basepoint == base


def test_free_swap_of_two_circles_gives_one_circle():
    U = oracles.by_id(
        {0: ["0:v", "1:v"], 1: ["0:e", "1:e"]},
        {f"{i}:e": (F((), f"{i}:v"), F((), f"{i}:v")) for i in (0, 1)},
    )
    swap = {"0:v": "1:v", "1:v": "0:v", "0:e": "1:e", "1:e": "0:e"}
    Q = quotient_by_action(U, oracles.action_by_id(U, swap))
    assert Q.f_vector() == [1, 1]
    assert homology(normalized_chains(Q)) == GradedGroup.of(Z(1), Z(1))


# images by position on the 2-gon (b, q; a, c), each with its refusal
BROKEN_ACTIONS = [
    # one list per degree, one image per simplex
    ([[0, 1]], "one image per simplex"),
    ([[0, 1], [1]], "one image per simplex"),
    ([[0, 1], [1, 0], []], "one image per simplex"),
    ([[0, 1], [1, 0, 2]], "one image per simplex"),
    # each image a simplex of its own degree
    ([[0, 1], [-1, 0]], "'a' outside the space"),
    ([[0, 1], [0, 2]], "'c' outside the space"),
    ([[0, -1], [1, 0]], "'q' outside the space"),
    # self-inverse: both arcs to c
    ([[0, 1], [1, 1]], "not self-inverse at 'a'"),
    # swapping only the vertices breaks equivariance with the faces
    ([[1, 0], [0, 1]], "commute with d_0 on 'a'"),
]


def test_action_validation_catches_breakage():
    X, A = two_gon()
    A.validate(X)
    for images, refusal in BROKEN_ACTIONS:
        with pytest.raises(ActionInvalid, match=refusal):
            SimplicialAction(images).validate(X)


def test_action_composition_law_checked():
    # an involution must square to the identity: a 3-cycle of circles
    # commutes with the faces, but it would generate Z/3
    U = oracles.by_id(
        {0: [f"{i}:v" for i in range(3)], 1: [f"{i}:e" for i in range(3)]},
        {f"{i}:e": (F((), f"{i}:v"), F((), f"{i}:v")) for i in range(3)},
    )
    cycle = [[1, 2, 0], [1, 2, 0]]
    with pytest.raises(ActionInvalid, match="not self-inverse at '0:v'"):
        SimplicialAction(cycle).validate(U)
    cycle = {f"{i}:{x}": f"{(i + 1) % 3}:{x}" for i in range(3) for x in "ve"}
    assert oracles.action_by_id(U, cycle).images == [[1, 2, 0], [1, 2, 0]]


def test_a_wrong_face_on_the_pair_member_validate_skips_is_refused():
    # validate checks each pair {s, swap[s]} once, at its lesser id; a face
    # table broken only on the greater member must still be refused
    for X, A in (two_gon(), catalog.sphere_simplicial(3), catalog.torus(2)):
        A.validate(X)
        planted = 0
        faces = oracles.faces_by_id(X)
        for sid, target in oracles.swap_by_id(X, A).items():
            if not sid < target or X.dim_of[sid] == 0:
                continue
            row = faces[target]
            for i, f in enumerate(row):
                level = X.ids(X.dim_of[f.base])
                if len(level) < 2:
                    continue
                wrong = F(f.word, level[level[0] == f.base])  # another base
                planted_faces = {**faces, target: row[:i] + (wrong,) + row[i + 1 :]}
                Y = oracles.by_id(X.simplices, planted_faces, check=False)
                with pytest.raises(ActionInvalid, match="commute"):
                    A.validate(Y)
                planted += 1
        assert planted


# -- collapse, fat wedge, smash, suspension ---------------------------------


def test_collapse_arc_in_circle():
    X, _ = two_gon()
    Q = collapse(X, [[False, False], [False, True]])  # b -a- q goes to the point
    assert Q.f_vector() == [1, 1]
    assert Q.basepoint == "*"
    assert oracles.faces_by_id(Q)["c"] == (F((), "*"), F((), "*"))
    assert homology(normalized_chains(Q)) == GradedGroup.of(Z(1), Z(1))


@pytest.mark.parametrize(
    "keep",
    [
        [[False, False]],  # a degree missing
        [[False, False], [False, True], []],  # a degree too many
        [[False], [False, True]],  # a flag missing
        [[False, False], [False, True, True]],  # a flag too many
        ["c", "x"],  # ids, not flags
    ],
)
def test_collapse_refuses_a_mask_of_the_wrong_shape(keep):
    X, _ = two_gon()
    with pytest.raises(ValueError, match="one flag per simplex"):
        collapse(X, keep)


def test_collapse_keeps_the_order_of_its_space():
    P = minimal_torus(2)
    keep = [s for s in P.dim_of if s != P.basepoint]
    Q = collapse(P, oracles.keep_by_id(P, keep))
    assert Q.simplices == {0: ["*"], 1: P.ids(1), 2: P.ids(2)}
    assert homology(normalized_chains(Q)) == homology(normalized_chains(P))


def test_collapse_refuses_a_keep_set_that_is_not_locally_closed():
    # the edges between the top simplex and the vertex would be collapsed
    # while their face, the vertex, is kept
    P = minimal_torus(2)
    with pytest.raises(ValueError, match="locally closed"):
        collapse(P, oracles.keep_by_id(P, [P.ids(2)[0], P.basepoint]))
    # the top simplex with all its edges, but not the vertex, is fine
    Q = collapse(P, oracles.keep_by_id(P, [P.ids(2)[0]] + P.ids(1)))
    assert Q.f_vector() == [1, 3, 1]


def _slice(family, n, m, D=frozenset()):
    X, directions = verifier.splitting_base(family, n, m)
    return X, [s for s, d in oracles.per_id(X, directions).items() if d == D]


COLLAPSE_CASES = {
    "smash_factor(2)": lambda: _slice("rep_su2", 2, 2),
    "fat wedge of the minimal T^3": lambda: (
        minimal_torus(3),
        fat_wedge(minimal_torus(3)),
    ),
    # e0+ moves up one place behind "*", under the degenerate faces s_0 e0+
    "two-cell S^4 without e0-": lambda: (
        catalog.sphere_simplicial(4)[0],
        [s for s in catalog.sphere_simplicial(4)[0].dim_of if s != "e0-"],
    ),
    "SP^3(T^2) slice D = {}": lambda: _slice("sp_circle", 2, 3),
    "SP^3(T^2) slice D = {0}": lambda: _slice("sp_circle", 2, 3, frozenset({0})),
}


@pytest.mark.parametrize("case", sorted(COLLAPSE_CASES))
def test_collapse_matches_the_collapse_by_id(case):
    X, keep = COLLAPSE_CASES[case]()
    Q = collapse(X, oracles.keep_by_id(X, keep))
    assert (Q.simplices, oracles.faces_by_id(Q)) == oracles.reference_collapse(X, keep)


def test_collapse_rejects_reserved_id():
    X = SimplicialSet({0: ["*", "v"]}, [[(), ()]])
    with pytest.raises(ValueError, match="reserved"):
        collapse(X, [[False, True]])


def test_wedge_of_circles():
    # the fat wedge of a product of two circles is their wedge; kept whole,
    # it gains the disjoint basepoint: W_+, whose reduced homology is H(W)
    P = product_list([circle(), circle()])
    W = collapse(P, oracles.keep_by_id(P, fat_wedge(P)))
    assert W.f_vector() == [1 + 1, 2]  # rose(2) and *
    assert reduced_homology(normalized_chains(W)) == GradedGroup.of(Z(1), Z(2))


def test_smash_of_circles_is_a_sphere():
    S = smash([circle(), circle()])
    assert S.f_vector() == [1, 1, 2]
    assert homology(normalized_chains(S)) == GradedGroup.of(Z(1), Z(0), Z(1))


def test_suspension_shifts_reduced_homology():
    C, _ = two_gon()
    S = suspend(normalized_chains(C))
    assert reduced_homology(S) == GradedGroup.of(Z(0), Z(0), Z(1))
    # suspension of a wedge of two circles
    SW = suspend(normalized_chains(rose(2)))
    assert reduced_homology(SW) == GradedGroup.of(Z(0), Z(0), Z(2))


def test_suspensions_are_chain_complexes():
    # suspend skips the d∘d = 0 check that both cleared passes rely on;
    # the complexes it builds must pass that check when rebuilt with it
    for C in (
        normalized_chains(catalog.sphere_bundle_quotient(2)),
        normalized_chains(rose(3)),
    ):
        for S in (suspend(C), suspend(suspend(C))):
            ChainComplex(S.ranks, S.diffs, check=True)  # raises unless d∘d = 0


def test_iterated_suspension_randomized_shift():
    rng = random.Random(23)
    for _ in range(5):
        n = rng.randrange(1, 3)
        C = normalized_chains(rose(n))
        assert reduced_homology(suspend(C)) == GradedGroup.of(
            Z(0), *reduced_homology(C).groups
        )


def test_formal_simplex_render():
    assert F((), "x").render() == "x"
    assert F((3, 1), "x").render() == "s3_1(x)"


# -- chains ------------------------------------------------------------------


def test_normalized_chains_boundary_squares_to_zero_everywhere():
    C, A = two_gon()
    spaces = [
        product_list([C] * 2),
        quotient_by_action(C, A),
        smash([C, circle()]),
    ]
    for X in spaces:
        normalized_chains(X)  # ChainComplex validates d∘d = 0 on build


def test_euler_characteristic_matches_betti_alternation():
    X = product_list([circle()] * 3)
    h = homology(normalized_chains(X))
    alt = sum((-1) ** k * h[k].free_rank for k in range(X.dim + 1))
    assert oracles.euler_characteristic(X.f_vector()) == alt == 0


def test_column_chains_match_the_keyed_reference(monkeypatch):
    # every catalog space whose chains come from simplices, built once with
    # its boundaries as columns and once as one (r, c)-keyed dict each
    pairs = []

    def both(X):
        pairs.append((normalized_chains(X), oracles.keyed_normalized_chains(X)))
        return pairs[-1][0]

    monkeypatch.setattr(catalog, "normalized_chains", both)
    chain_only = set()
    for key in catalog.catalog_samples() + ["sp_torus(n=2,m=3)", "rep_sp(n=2,m=2)"]:
        built = len(pairs)
        catalog.resolve(key)[1]()
        if len(pairs) == built:
            chain_only.add(catalog.parse_descriptor(key)[0])
    assert chain_only == {"stunted_projective", "rp", "sphere", "thom_su2"}
    for got, want in pairs:
        assert got.ranks == want.ranks
        for d, e in zip(got.diffs, want.diffs, strict=True):
            assert d.shape == e.shape and d.entries == e.entries
