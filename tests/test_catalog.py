"""Space catalog: models, frozen homology fixtures, descriptors, guards."""

import functools
from itertools import permutations
from math import comb

import pytest

import oracles
from repspace import catalog, simplicial, verifier
from repspace.abelian import AbelianGroup, GradedGroup
from repspace.engine import (
    ChainComplex,
    homology,
    reduced_homology,
    universal_coefficients_check,
)
from repspace.errors import ActionInvalid, ResourceGuard, UnknownSpace
from repspace.simplicial import (
    FormalSimplex,
    SimplicialAction,
    SimplicialSet,
    normalized_chains,
    product_list,
    product_simplex_id,
    quotient_by_action,
)

Z = AbelianGroup.free


def T(r, *ds):
    return AbelianGroup.from_factors(r, ds)


def H(X):
    return homology(normalized_chains(X))


# -- circles and tori --------------------------------------------------------


def test_point_and_circles():
    assert H(catalog.point()) == GradedGroup.of(Z(1))
    assert H(catalog.circle()) == GradedGroup.of(Z(1), Z(1))
    C, A = catalog.circle_conj()
    A.validate(C)
    assert H(C) == GradedGroup.of(Z(1), Z(1))


def test_torus_f_vectors_match_closed_form():
    # built spaces against the oracle's closed form and against the
    # f-vectors the symmetric-product guards read before building
    for n in range(1, 6):
        P, A = catalog.torus(n)
        assert P.f_vector() == oracles.torus_f_vector(n, 2)
        assert P.f_vector() == catalog.torus_f_vector(n)
        M = catalog.minimal_torus(n)
        assert M.f_vector() == oracles.torus_f_vector(n, 1)
        assert M.f_vector() == catalog.minimal_torus_f_vector(n)
        assert catalog.quotient_by_action(P, A).f_vector() == (
            catalog.torus_conj_quotient_f_vector(n)
        )
    assert catalog.torus(4)[0].f_vector() == [16, 240, 800, 960, 384]
    assert catalog.torus_conj_quotient_f_vector(5) == [
        32, 496, 2880, 6240, 5760, 1920
    ]


def test_torus_homology_binomial_pattern():
    for n in (1, 2, 3):
        X, _ = catalog.torus(n)
        expect = GradedGroup.of(*[Z(comb(n, k)) for k in range(n + 1)])
        assert H(X) == expect
        assert H(catalog.minimal_torus(n)) == expect


def test_torus_action_validates():
    for n in (1, 2):
        X, A = catalog.torus(n)
        A.validate(X)


def test_conjugation_quotient_frozen_homology():
    # fixed values: Z in degree 0, Z^C(n,i) + (Z/2)^{sum_{j<n-i} C(n,j)} in
    # positive even degrees, 0 in odd degrees.  Euler characteristic agrees
    # with the fixed-point count 2^n / 2.
    assert H(catalog.torus_conj_quotient(1)) == GradedGroup.of(Z(1))
    assert H(catalog.torus_conj_quotient(2)) == GradedGroup.of(
        Z(1), Z(0), Z(1)
    )
    assert H(catalog.torus_conj_quotient(3)) == GradedGroup.of(
        Z(1), Z(0), T(3, 2)
    )


def test_conjugation_quotient_n4():
    got = H(catalog.torus_conj_quotient(4))
    assert got == GradedGroup.of(Z(1), Z(0), T(6, 2, 2, 2, 2, 2), Z(0), Z(1))


def test_smash_factor_frozen_homology():
    # the n-fold smash mod conjugation is a suspended projective space
    assert H(catalog.smash_factor(1)) == GradedGroup.of(Z(1))
    assert H(catalog.smash_factor(2)) == GradedGroup.of(Z(1), Z(0), Z(1))
    assert H(catalog.smash_factor(3)) == GradedGroup.of(Z(1), Z(0), T(0, 2))
    assert H(catalog.smash_factor(4)) == GradedGroup.of(
        Z(1), Z(0), T(0, 2), Z(0), Z(1)
    )


@pytest.mark.parametrize(
    "name", ["torus_conj_quotient", "rp_simplicial", "sphere_bundle_quotient"]
)
def test_quotients_always_validate_their_action(monkeypatch, name):
    def refuse(self, X):
        raise ActionInvalid("planted")

    monkeypatch.setattr(SimplicialAction, "validate", refuse)
    with pytest.raises(ActionInvalid, match="planted"):
        getattr(catalog, name)(2)


# -- symmetric products ------------------------------------------------------


def test_sym_product_degenerate_multiplicities():
    C = catalog.circle()
    assert H(catalog.sym_product(C, 0)) == GradedGroup.of(Z(1))
    assert catalog.sym_product(C, 1) is C


def test_sym_product_builds_no_product(monkeypatch):
    # SP^m X comes from sorted tuples; X^m is never built on the way
    spaces = [(catalog.circle(), 2), (catalog.minimal_torus(2), 3)]
    original = simplicial.product_list
    calls = []

    def spy(factors):
        factors = list(factors)
        calls.append(len(factors))
        return original(factors)

    monkeypatch.setattr(catalog, "product_list", spy)
    monkeypatch.setattr(simplicial, "product_list", spy)
    for X, m in spaces:
        catalog.sym_product(X, m)
    assert calls == []


def wedge_of_loops(*loops):
    """One vertex v with one loop per id."""
    v = FormalSimplex((), "v")
    return SimplicialSet({0: ["v"], 1: list(loops)}, {e: (v, v) for e in loops}, "v")


# Loop ids on which a shortcut names orbits wrongly: sorting by id puts a
# before ab, and sorting by id + "|" puts b before b|a, but the least
# product ids are "(ab|a)" and "(b|a|b)".
WEDGES = {"a,ab": ("a", "ab"), "b,b|a": ("b", "b|a"), "e,e1,e|": ("e", "e1", "e|")}

SYM_CASES = {
    "sp2_circle": lambda: (catalog.circle(), 2),
    "sp3_circle": lambda: (catalog.circle(), 3),
    "sp_torus(2,2)": lambda: (catalog.minimal_torus(2), 2),
    "sp_torus(2,3)": lambda: (catalog.minimal_torus(2), 3),
    "rep_sp(2,2)": lambda: (catalog.torus_conj_quotient(2), 2),
} | {
    f"sp{m}_wedge({name})": lambda loops=loops, m=m: (wedge_of_loops(*loops), m)
    for name, loops in WEDGES.items()
    for m in (2, 3)
}


@pytest.mark.parametrize("case", list(SYM_CASES))
def test_sym_product_is_the_quotient_of_the_product_byte_for_byte(case):
    X, m = SYM_CASES[case]()
    got = catalog.sym_product(X, m)
    want = oracles.reference_sym_product(X, m)
    assert list(got.simplices.items()) == list(want.simplices.items())
    assert list(got.faces.items()) == list(want.faces.items())
    assert list(got.parts.items()) == list(want.parts.items())
    assert got.basepoint == want.basepoint


def test_the_orbit_index_holds_one_entry_per_orbit(monkeypatch):
    # each degree's index keys every orbit once, under its sorted positions
    made = []

    class Spy(simplicial._OrbitIndex):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(simplicial, "_OrbitIndex", Spy)
    for case in ("sp_torus(2,3)", "rep_sp(2,2)", "sp3_wedge(b,b|a)"):
        X, m = SYM_CASES[case]()
        made.clear()
        Y = catalog.sym_product(X, m)
        assert len(made) == m * X.dim + 1, case
        for k, index in enumerate(made):
            assert [f.base for f in index.values()] == Y.ids(k), case
            assert all(list(ps) == sorted(ps) for ps in index), case


def test_nondegenerate_sym_product_faces_skip_the_orbit_index_fallback(monkeypatch):
    # a face whose coordinates share no degeneracy is looked up under its
    # sorted positions; only positions peeled from a degenerate face may
    # reach _OrbitIndex.__missing__
    peeling = []
    direct = []
    normalize = simplicial._normalize_tuple

    def spy_normalize(tables, k, ps, ids):
        common = -1
        for t, p in zip(tables, ps):
            common &= t[k].masks[p]
        peeling.append(bool(common))
        try:
            return normalize(tables, k, ps, ids)
        finally:
            peeling.pop()

    class Spy(simplicial._OrbitIndex):
        __slots__ = ()

        def __missing__(self, ps):
            if not (peeling and peeling[-1]):
                direct.append(ps)
            return super().__missing__(ps)

    monkeypatch.setattr(simplicial, "_normalize_tuple", spy_normalize)
    monkeypatch.setattr(simplicial, "_OrbitIndex", Spy)
    for case in ("sp3_circle", "sp_torus(2,3)", "rep_sp(2,2)", "sp3_wedge(b,b|a)"):
        X, m = SYM_CASES[case]()
        catalog.sym_product(X, m)
        assert direct == [], case


def test_sym_product_f_vectors_are_the_polya_counts():
    # built orbit counts against Burnside's average over Σ_m, which reads
    # only the base space's f-vector
    for X, m, built in (
        (catalog.minimal_torus(2), 3, catalog.sp_torus(2, 3)),
        (catalog.minimal_torus(3), 2, catalog.sp_torus(3, 2)),
        (catalog.torus_conj_quotient(2), 2, catalog.rep_sp(2, 2)),
        (catalog.torus_conj_quotient(2), 3, catalog.rep_sp(2, 3)),
    ):
        assert built.f_vector() == oracles.polya_f_vector(X.f_vector(), m)
    assert oracles.polya_f_vector(catalog.torus_conj_quotient_f_vector(3), 2) == [
        36, 630, 5032, 16908, 26880, 20160, 5760
    ]


def test_an_image_outside_the_product_is_an_invalid_action():
    # coordinate images are looked up in the product's parts; a miss must
    # reach action validation, not end in a KeyError
    C, A = catalog.circle_conj()
    P = product_list([C, catalog.circle()])
    with pytest.raises(ActionInvalid, match="outside the space"):
        SimplicialAction.involution(P, oracles.adjacent_transpositions(P, 2)[0])
    with pytest.raises(ActionInvalid, match="outside the space"):
        catalog._product_involution(P, [A.swap, {"e": "f"}])


def test_sp2_circle_is_a_mobius_band():
    Q = catalog.sym_product(catalog.circle(), 2)
    assert H(Q) == GradedGroup.of(Z(1), Z(1))


def test_sp2_torus_homology():
    got = H(catalog.sp_torus(2, 2))
    assert got == GradedGroup.of(Z(1), Z(2), Z(2), Z(2), Z(1))


def test_rep_sp_small_cases():
    assert H(catalog.rep_sp(2, 1)) == GradedGroup.of(Z(1), Z(0), Z(1))
    # SP^2 of a 2-sphere is CP^2
    assert H(catalog.rep_sp(2, 2)) == GradedGroup.of(
        Z(1), Z(0), Z(1), Z(0), Z(1)
    )


def test_sp3_circle():
    # SP^3 of a circle is again a circle (up to homotopy)
    Q = catalog.sym_product(catalog.circle(), 3)
    assert H(Q) == GradedGroup.of(Z(1), Z(1))


def _sym_case(X, m, Q):
    """Σ_m on X^m: orbits under every permutation, not just the generators."""
    P = product_list([X] * m)
    every = [
        {
            sid: product_simplex_id(fs[p[i]] for i in range(m))
            for sid, fs in P.parts.items()
        }
        for p in permutations(range(m))
    ]
    orbits = {frozenset(g[s] for g in every) for s in P.dim_of}
    gens = oracles.adjacent_transpositions(P, m)
    closed = {}
    for sid, oid in oracles.orbit_ids(P, gens).items():
        closed.setdefault(oid, set()).add(sid)
    closed = {frozenset(o) for o in closed.values()}
    return closed, [oracles.orbit_quotient(P, gens), Q], orbits


def _conj_case(n):
    """Z/2 on the 2-gon torus: orbits {x, t(x)}, t swapping the arcs a, c."""
    P, A = catalog.torus(n)
    arcs = {"a": "c", "c": "a"}
    orbits = set()
    for sid, fs in P.parts.items():
        t = product_simplex_id(
            FormalSimplex(f.word, arcs.get(f.base, f.base)) for f in fs
        )
        orbits.add(frozenset({sid, t}))
    pairs = {frozenset({s, A.swap[s]}) for s in P.dim_of}
    return pairs, [quotient_by_action(P, A), catalog.torus_conj_quotient(n)], orbits


ORBIT_CASES = {
    "sp2_circle": lambda: _sym_case(
        catalog.circle(), 2, catalog.sym_product(catalog.circle(), 2)
    ),
    "sp3_circle": lambda: _sym_case(
        catalog.circle(), 3, catalog.sym_product(catalog.circle(), 3)
    ),
    "sp_torus(2,2)": lambda: _sym_case(
        catalog.minimal_torus(2), 2, catalog.sp_torus(2, 2)
    ),
    "rep_sp(2,2)": lambda: _sym_case(
        catalog.torus_conj_quotient(2), 2, catalog.rep_sp(2, 2)
    ),
    "torus_conj_quotient(2)": lambda: _conj_case(2),
}


@pytest.mark.parametrize("case", list(ORBIT_CASES))
def test_generator_orbits_are_the_whole_groups_orbits(case):
    # the orbits a route finds, and the ids of the quotients it and the
    # catalog build, against the orbits under every group element
    found, quotients, expected = ORBIT_CASES[case]()
    assert found == expected
    for Q in quotients:
        assert set(Q.dim_of) == {"[" + min(o) + "]" for o in expected}


def _sphere_bundle_product(n):
    S2, A2 = catalog.sphere_simplicial(2)
    Sn, An = catalog.sphere_simplicial(n - 1)
    P = product_list([S2, Sn])
    return P, catalog._product_involution(P, [A2.swap, An.swap])


# name -> (the catalog's quotient, the space and involution it divides)
Z2_QUOTIENTS = {
    "circle_conj_quotient": (
        lambda: quotient_by_action(*catalog.circle_conj()),
        catalog.circle_conj,
    ),
    **{
        f"torus_conj_quotient({n})": (
            functools.partial(catalog.torus_conj_quotient, n),
            functools.partial(catalog.torus, n),
        )
        for n in range(1, 5)
    },
    **{
        f"rp_simplicial({k})": (
            functools.partial(catalog.rp_simplicial, k),
            functools.partial(catalog.sphere_simplicial, k),
        )
        for k in range(9)
    },
    **{
        f"sphere_bundle_quotient({n})": (
            functools.partial(catalog.sphere_bundle_quotient, n),
            functools.partial(_sphere_bundle_product, n),
        )
        for n in range(1, 5)
    },
}


@pytest.mark.parametrize("name", list(Z2_QUOTIENTS))
def test_z2_quotients_match_the_generator_closure_route(name):
    # ids and their order, faces, parts and basepoint, against the closure
    # of each simplex under the one generator
    build, space = Z2_QUOTIENTS[name]
    X, A = space()
    got, want = build(), oracles.orbit_quotient(X, [A.swap])
    assert got.simplices == want.simplices
    assert got.faces == want.faces
    assert got.parts == want.parts
    assert got.basepoint == want.basepoint


# -- spheres and projective spaces -------------------------------------------


def _sphere_homology(k):
    if k == 0:
        return GradedGroup.of(Z(2))
    return GradedGroup.of(Z(1), *[Z(0)] * (k - 1), Z(1))


def test_cross_polytope_spheres(monkeypatch):
    # the catalog's sphere has two simplices per dimension and is validated
    for k in range(6):
        X, A = catalog.sphere_simplicial(k)
        assert X.f_vector() == [2] * (k + 1)
        A.validate(X)
        assert H(X) == _sphere_homology(k)

    def refuse(self):
        raise ValueError("planted")

    monkeypatch.setattr(SimplicialSet, "validate", refuse)
    with pytest.raises(ValueError, match="planted"):
        catalog.sphere_simplicial(2)


def test_the_cross_polytope_oracle_is_a_sphere():
    X, A = oracles.cross_polytope_sphere(2)
    assert X.f_vector() == [6, 12, 8]
    A.validate(X)
    assert H(X) == _sphere_homology(2)
    S0, A0 = oracles.cross_polytope_sphere(0)
    assert S0.f_vector() == [2]
    assert all(A0.swap[s] != s for s in S0.dim_of)


def _cross_polytope_bundle(n):
    S2, A2 = oracles.cross_polytope_sphere(2)
    Sn, An = oracles.cross_polytope_sphere(n - 1)
    P = product_list([S2, Sn])
    act = catalog._product_involution(P, [A2.swap, An.swap])
    return quotient_by_action(P, act)


def test_the_two_cell_models_match_the_cross_polytope_route():
    for k in range(5):
        S, A = oracles.cross_polytope_sphere(k)
        assert H(catalog.sphere_simplicial(k)[0]) == H(S)
        assert H(catalog.rp_simplicial(k)) == H(quotient_by_action(S, A))
    for n in (1, 2, 3):
        assert H(catalog.sphere_bundle_quotient(n)) == H(_cross_polytope_bundle(n))


def test_antipodal_action_is_free():
    for k in (0, 1, 2, 3):
        X, A = catalog.sphere_simplicial(k)
        t = A.swap
        assert all(t[s] != s for s in X.dim_of)


def test_projective_space_quotient_matches_cellular_model():
    for k in range(1, catalog.MAX_SPHERE + 1):
        assert H(catalog.rp_simplicial(k)) == homology(catalog.rp_chain(k))


def test_sphere_chain_models():
    assert homology(catalog.sphere_chain(0)) == GradedGroup.of(Z(2))
    assert homology(catalog.sphere_chain(3)) == GradedGroup.of(
        Z(1), Z(0), Z(0), Z(1)
    )


def test_stunted_projective_frozen_homology():
    cases = {
        (2, 2): GradedGroup.of(Z(1), Z(0), Z(1)),
        (3, 1): GradedGroup.of(Z(1), T(0, 2), Z(0), Z(1)),
        (4, 2): GradedGroup.of(Z(1), Z(0), Z(1), T(0, 2), Z(0)),
        (5, 3): GradedGroup.of(Z(1), Z(0), Z(0), T(0, 2), Z(0), Z(1)),
        (4, 0): GradedGroup.of(Z(1), T(0, 2), Z(0), T(0, 2), Z(0)),
    }
    for (m, k), expect in cases.items():
        assert homology(catalog.stunted_projective(m, k)) == expect
    with pytest.raises(ValueError):
        catalog.stunted_projective(2, 3)


def test_thom_space_chain_models():
    assert homology(catalog.thom_space_su2_factor(0)) == GradedGroup.of(
        Z(2), T(0, 2)
    )
    assert homology(catalog.thom_space_su2_factor(1)) == homology(
        catalog.stunted_projective(3, 1)
    )
    assert homology(catalog.thom_space_su2_factor(2)) == homology(
        catalog.stunted_projective(4, 2)
    )


def test_sphere_bundle_quotients():
    # S(n λ) over RP^2 on two-cell spheres; frozen values checked
    # against Euler characteristics and (non)orientability of the total
    # spaces: n = 1 gives S^2 back, n = 2 a nonorientable 3-manifold with
    # H_1 = Z, n = 3 an orientable 4-manifold.
    assert H(catalog.sphere_bundle_quotient(1)) == GradedGroup.of(
        Z(1), Z(0), Z(1)
    )
    assert H(catalog.sphere_bundle_quotient(2)) == GradedGroup.of(
        Z(1), Z(1), T(0, 2)
    )
    assert H(catalog.sphere_bundle_quotient(3)) == GradedGroup.of(
        Z(1), T(0, 2), T(0, 2), Z(0), Z(1)
    )


def test_thom_zero_quotients_frozen():
    assert homology(catalog.thom_zero_quotient(1)) == GradedGroup.of(
        Z(1), Z(0), Z(0), Z(1)
    )
    assert homology(catalog.thom_zero_quotient(2)) == GradedGroup.of(
        Z(1), Z(0), Z(1), T(0, 2), Z(0)
    )
    assert homology(catalog.thom_zero_quotient(3)) == GradedGroup.of(
        Z(1), Z(0), T(0, 2), T(0, 2), Z(0), Z(1)
    )


@pytest.mark.parametrize("n", range(3, catalog.MAX_SPHERE + 1))
def test_suspended_sphere_bundle_is_the_thom_space_plus_a_suspended_rp2(n):
    # Th(nλ) = RP^{n+2}/RP^{n-1} is (n-1)-connected, so for n >= 3 the zero
    # section RP^2 -> Th(nλ) is null and its cofibre ΣS(nλ) splits as
    # Th(nλ) ∨ ΣRP^2, whose extra summand is Z/2 in degree 2
    expected = reduced_homology(catalog.stunted_projective(n + 2, n)).direct_sum(
        GradedGroup.of(Z(0), Z(0), T(0, 2))
    )
    assert reduced_homology(catalog.thom_zero_quotient(n)) == expected


def test_lens_q8_fixed_data():
    # S^3/Q_8: H_1 is the abelianization (Z/2)^2 of Q_8, H_3 = Z (closed
    # orientable), H_2 = 0 by duality and universal coefficients
    C = catalog.lens_q8()
    assert homology(C) == GradedGroup.of(Z(1), T(0, 2, 2), Z(0), Z(1))
    for p in (2, 3):
        assert universal_coefficients_check(C, p)


# -- guards ------------------------------------------------------------------


def test_resource_guards():
    with pytest.raises(ValueError, match="range"):
        catalog.torus(0)
    with pytest.raises(ResourceGuard, match="range"):
        catalog.torus(7)
    with pytest.raises(ResourceGuard, match="budget"):
        catalog.torus(6)
    with pytest.raises(ResourceGuard):
        catalog.sym_product(catalog.circle(), 4)
    with pytest.raises(ResourceGuard):
        catalog.sphere_bundle_quotient(9)
    with pytest.raises(ResourceGuard):
        catalog.rp_simplicial(9)
    with pytest.raises(ResourceGuard):
        catalog.smash_factor(6)
    with pytest.raises(ValueError, match="range"):
        catalog.sphere_chain(-1)
    with pytest.raises(ResourceGuard, match="range"):
        catalog.sphere_chain(catalog.CELL_BUDGET + 1)
    with pytest.raises(ValueError):
        catalog.stunted_projective(3, 4)
    with pytest.raises(ResourceGuard):
        catalog.stunted_projective(catalog.CELL_BUDGET + 1, 1)


def test_over_budget_products_are_refused_before_they_start(monkeypatch):
    # torus(6) builds its 2-gon before product_list counts, but enumerates
    # no simplex of the product
    monkeypatch.setattr(SimplicialSet, "formal_simplices", None)
    with pytest.raises(ResourceGuard, match="budget"):
        catalog.torus(6)

    # the symmetric products and the sp_circle splitting are counted from
    # f-vectors alone, before any space (their torus included) is built
    def refuse(self, *args, **kwargs):
        raise AssertionError("a space was built before the count refused")

    monkeypatch.setattr(SimplicialSet, "__init__", refuse)
    for refused in (
        lambda: catalog.sp_torus(4, 3),
        lambda: catalog.sp_torus(6, 2),
        lambda: catalog.rep_sp(3, 3),
        lambda: catalog.rep_sp(5, 2),
        lambda: verifier.guard_splitting("sp_circle", 3, 3),
        lambda: verifier.verify_splitting("sp_circle", 3, m=3),
    ):
        with pytest.raises(ResourceGuard, match="budget"):
            refused()


# -- descriptors -------------------------------------------------------------


def test_descriptor_parsing_and_canonical_form():
    assert catalog.resolve("torus( n = 3 )")[0] == "torus(n=3)"
    assert catalog.resolve("lens_q8")[0] == "lens_q8()"
    assert catalog.resolve("sp_torus(m=2,n=3)")[0] == "sp_torus(n=3,m=2)"
    for bad in (
        "torus",
        "torus()",
        "torus(m=2)",
        "torus(n=2,m=1)",
        "torus(n=x)",
        "no_such_space(n=1)",
        "torus(n=1",
        "",
        "torus(2)",
        "torus(n=1,n=2)",
        "torus(n=٣)",
        "torus(n=1_0)",
        "torus(n=0x3)",
        "torus(n=3.0)",
    ):
        with pytest.raises(UnknownSpace):
            catalog.resolve(bad)


def test_resolve_builds_the_right_thing():
    canonical, thunk = catalog.resolve("sphere(n=2)")
    assert canonical == "sphere(n=2)"
    value = thunk()
    assert isinstance(value, ChainComplex)
    assert homology(value) == GradedGroup.of(Z(1), Z(0), Z(1))
    canonical, thunk = catalog.resolve("lens_q8")
    assert isinstance(thunk(), ChainComplex)


# -- the whole catalog at once -----------------------------------------------


def test_every_sample_satisfies_universal_coefficients():
    for key in catalog.catalog_samples():
        _, thunk = catalog.resolve(key)
        assert universal_coefficients_check(thunk(), 2, 3), key


def test_every_sample_euler_characteristic_is_betti_alternation():
    for key in catalog.catalog_samples():
        _, thunk = catalog.resolve(key)
        value = thunk()
        h = homology(value)
        alt = sum((-1) ** k * h[k].free_rank for k in range(len(h)))
        assert oracles.euler_characteristic(value.ranks) == alt, key
