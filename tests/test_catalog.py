"""Space catalog: models, frozen homology fixtures, descriptors, guards."""

from math import comb

import pytest

import oracles
from repspace import catalog
from repspace.abelian import AbelianGroup, GradedGroup
from repspace.engine import (
    ChainComplex,
    homology,
    universal_coefficients_check,
)
from repspace.errors import ActionInvalid, ResourceGuard, UnknownSpace
from repspace.simplicial import SimplicialAction, SimplicialSet, normalized_chains

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
    for n in (1, 2, 3):
        X, _ = catalog.torus(n)
        assert X.f_vector() == oracles.torus_f_vector(n, 2)
        assert catalog.minimal_torus(n).f_vector() == oracles.torus_f_vector(
            n, 1
        )
    X4, _ = catalog.torus(4)
    assert X4.f_vector() == [16, 240, 800, 960, 384]


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


def test_sym_product_validates_the_action_at_any_size(monkeypatch):
    monkeypatch.setattr(SimplicialSet, "size", lambda self: 10**6)
    validated = []
    original = SimplicialAction.validate

    def spy(self, X):
        validated.append(X)
        return original(self, X)

    monkeypatch.setattr(SimplicialAction, "validate", spy)
    catalog.sym_product(catalog.circle(), 2)
    assert validated


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


# -- spheres and projective spaces -------------------------------------------


def test_cross_polytope_spheres():
    X, A = catalog.sphere_simplicial(2)
    assert X.f_vector() == [6, 12, 8]
    A.validate(X)
    assert H(X) == GradedGroup.of(Z(1), Z(0), Z(1))
    S0, A0 = catalog.sphere_simplicial(0)
    assert S0.f_vector() == [2]
    assert all(A0.maps["t"][s] != s for s in S0.dim_of)


def test_antipodal_action_is_free():
    for k in (0, 1, 2, 3):
        X, A = catalog.sphere_simplicial(k)
        t = A.maps["t"]
        assert all(t[s] != s for s in X.dim_of)


def test_projective_space_quotient_matches_cellular_model():
    for k in (1, 2, 3, 4):
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
    # S(n λ) over RP^2 on cross-polytope models; frozen values checked
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


def test_lens_q8_fixed_data():
    g = catalog.lens_q8()
    assert g[0] == Z(1)
    assert g[1] == T(0, 2, 2)
    assert g[2].is_trivial
    assert g[3] == Z(1)


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
        catalog.sphere_bundle_quotient(5)
    with pytest.raises(ResourceGuard):
        catalog.rp_simplicial(6)
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


# -- descriptors -------------------------------------------------------------


def test_descriptor_parsing_and_canonical_form():
    assert catalog.canonical_descriptor("torus( n = 3 )") == "torus(n=3)"
    assert catalog.canonical_descriptor("lens_q8") == "lens_q8()"
    assert (
        catalog.canonical_descriptor("sp_torus(m=2,n=3)") == "sp_torus(n=3,m=2)"
    )
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
    ):
        with pytest.raises(UnknownSpace):
            catalog.canonical_descriptor(bad)


def test_resolve_builds_the_right_thing():
    canonical, thunk = catalog.resolve("sphere(n=2)")
    assert canonical == "sphere(n=2)"
    value = thunk()
    assert isinstance(value, ChainComplex)
    assert homology(value) == GradedGroup.of(Z(1), Z(0), Z(1))
    canonical, thunk = catalog.resolve("lens_q8")
    assert isinstance(thunk(), GradedGroup)


# -- the whole catalog at once -----------------------------------------------


def test_every_sample_satisfies_universal_coefficients():
    for key in catalog.catalog_samples():
        _, thunk = catalog.resolve(key)
        value = thunk()
        if not isinstance(value, ChainComplex):
            continue
        for p in (2, 3):
            assert universal_coefficients_check(value, p), (key, p)


def test_every_sample_euler_characteristic_is_betti_alternation():
    for key in catalog.catalog_samples():
        _, thunk = catalog.resolve(key)
        value = thunk()
        if not isinstance(value, ChainComplex):
            continue
        h = homology(value)
        alt = sum((-1) ** k * h[k].free_rank for k in range(len(h)))
        assert value.euler_characteristic() == alt, key
