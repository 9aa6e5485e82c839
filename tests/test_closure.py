"""Cone generation, basis selection, and membership in the positivity
region."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import constant_vectors
from conecert.closure import (
    BasisSelectionError,
    PositivityBasis,
    RationalSpan,
    SingularBasisError,
    bracket_rank,
    choose_basis,
    closure_init,
    closure_step,
    compute_C,
    d_membership,
    primitive_direction,
    twist_rank_check,
    verify_derivations,
)
from conecert.models import ModelSpec, bhw, get_builtin, langevin, quartic_double_well
from conecert.polyfield import Polynomial, PolyVectorField

F = Fraction


# -- exact linear algebra ---------------------------------------------


def test_rational_span_basic():
    span = RationalSpan(3)
    assert span.add((F(1), F(0), F(2)))
    assert not span.add((F(2), F(0), F(4)))  # dependent
    assert span.add((F(0), F(1), F(0)))
    assert span.rank == 2
    assert span.contains((F(3), F(-2), F(6)))
    assert not span.contains((F(0), F(0), F(1)))
    assert span.reduce((F(1), F(0), F(2))) == (F(0), F(0), F(0))


@given(constant_vectors(3), constant_vectors(3))
@settings(max_examples=40, deadline=None)
def test_span_monotone_under_add(u, v):
    span = RationalSpan(3)
    span.add(u)
    r1 = span.rank
    span.add(v)
    assert span.rank >= r1
    if any(c != 0 for c in u):
        assert span.contains(u)


def test_primitive_direction():
    assert primitive_direction((F(2, 3), F(-4, 3))) == (F(1), F(-2))
    assert primitive_direction((F(0), F(-5))) == (F(0), F(-1))


# -- golden closures --------------------------------------------------


def test_langevin_1d_cone_all_odd():
    cone = compute_C(get_builtin("langevin"))
    assert cone.is_full_dim()
    assert not cone.even_generators
    values = [cf.value for cf in cone.odd_basis]
    assert (F(1), F(0)) in values
    assert (F(-1), F(1)) in values  # [X1, X0] = (-gamma*sigma, sigma)
    assert cone.exhausted


def test_langevin_2d_cone_all_odd():
    cone = compute_C(get_builtin("langevin2d"))
    assert cone.is_full_dim() and cone.rank() == 4
    assert not cone.even_generators


def test_langevin_general_sigma_bracket():
    # [X_j, X0] = (-gamma sigma_j, sigma_j) for a non-axis sigma
    m = langevin(2, 3, [[1, 2]], quartic_double_well(2))
    cone = compute_C(m)
    values = [cf.value for cf in cone.odd_basis]
    assert (F(-3), F(-6), F(1), F(2)) in values


def test_bhw_cone_golden(bhw_model):
    # C = span{(0,1)} + cone{(1,0)}; even directions are reported as
    # primitive cone directions (positive scaling is immaterial)
    cone = compute_C(bhw_model)
    assert [cf.value for cf in cone.odd_basis] == [(F(0), F(1))]
    assert [cf.value for cf in cone.even_generators] == [(F(1), F(0))]
    even = cone.even_generators[0]
    assert str(even.derivation) == "ad^2(X1)(X0)"
    assert even.parity == "even"


def test_bhw_cone_direction_independent_of_eps():
    cone = compute_C(bhw(0, 0, 1, 2, F(1, 2)))
    assert [cf.value for cf in cone.even_generators] == [(F(1), F(0))]


def test_nonexample3d_cone_rank_two():
    cone = compute_C(get_builtin("nonexample3d"))
    assert cone.rank() == 2
    assert not cone.is_full_dim()
    assert [cf.value for cf in cone.odd_basis] == [(F(1), F(0), F(0))]
    assert [primitive_direction(cf.value) for cf in cone.even_generators] == [
        (F(0), F(1), F(0))
    ]
    with pytest.raises(BasisSelectionError):
        choose_basis(cone)


# -- soundness and monotonicity ---------------------------------------


@pytest.mark.parametrize("name", ["langevin", "bhw", "nonexample3d"])
def test_derivations_reproduce_generators(name):
    model = get_builtin(name)
    cone = compute_C(model)
    assert verify_derivations(model, cone)


def test_closure_rounds_monotone(bhw_model):
    state = closure_init(bhw_model)
    ranks = [state.odd_span.rank]
    for _ in range(4):
        state = closure_step(state, combo_budget=1)
        ranks.append(state.odd_span.rank)
    assert ranks == sorted(ranks)


def test_closure_reaches_fixpoint(bhw_model):
    state = closure_init(bhw_model)
    for _ in range(6):
        state = closure_step(state, combo_budget=1)
    assert not state.last_round_added


# -- basis and membership ---------------------------------------------


def test_choose_basis_orders_two_sided_first(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    assert basis.k == 1
    assert basis.vectors[0] == (F(0), F(1))
    assert primitive_direction(basis.vectors[1]) == (F(1), F(0))


def test_membership_bhw_golden(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    member, coeffs = d_membership(basis, [0.0, 0.0], [1.0, 5.0])
    assert member
    # (1,5) = 5*(0,1) + c*(even direction along e1)
    assert coeffs[0] == pytest.approx(5.0)
    assert coeffs[1] > 0
    member, coeffs = d_membership(basis, [0.0, 0.0], [-1.0, 0.0])
    assert not member


def test_membership_is_translation_invariant(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    m1, c1 = d_membership(basis, [0.0, 0.0], [1.0, 5.0])
    m2, c2 = d_membership(basis, [2.0, -3.0], [3.0, 2.0])
    assert m1 == m2
    assert np.allclose(c1, c2)


def test_membership_boundary_excluded(bhw_model):
    # a displacement with zero one-sided coefficient is on the boundary
    basis = choose_basis(compute_C(bhw_model))
    member, _ = d_membership(basis, [0.0, 0.0], [0.0, 1.0])
    assert not member


@pytest.mark.parametrize("z,expected", [([1e-10, 1.0], True), ([-1e-10, 1.0], False)])
def test_membership_exact_near_boundary(bhw_model, z, expected):
    # one-sided coefficient 1e-10 against |z - x| = 1: decided by its sign
    basis = choose_basis(compute_C(bhw_model))
    member, _ = d_membership(basis, [0.0, 0.0], z)
    assert member is expected


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
               for j in range(len(m)))


def _exact_coefficients(vectors, rhs):
    # Cramer's rule over Q; the matrix's columns are the basis vectors
    B = [[v[i] for v in vectors] for i in range(len(rhs))]
    full = _det(B)
    return [_det([row[:j] + [b] + row[j + 1 :] for row, b in zip(B, rhs)]) / full
            for j in range(len(vectors))]


@st.composite
def near_boundary_queries(draw):
    d = draw(st.integers(2, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
                   .filter(lambda vs: _det(vs) != 0))
    k = draw(st.integers(0, d - 1))
    x = np.array(draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d)))
    c = draw(st.lists(st.floats(-2, 2), min_size=d, max_size=d))
    # one-sided coefficients at or within a few ulps of zero: the float
    # solve cannot tell their signs apart, so the exact path decides
    c[k:] = [draw(st.sampled_from([0.0, 1e-17, -1e-17, 1e-16, -1e-16])) for _ in c[k:]]
    z = x + np.array([[float(e) for e in v] for v in vectors]).T @ np.array(c)
    return PositivityBasis(vectors=[tuple(v) for v in vectors], k=k), x, z


@given(near_boundary_queries())
@settings(max_examples=200, deadline=None)
# exact coefficients (0, 1e-16); the LU factors of B fill in its zero
@example((PositivityBasis([(F(3), F(1)), (F(1), F(0))], 0), np.zeros(2), np.array([1e-16, 0.0])))
def test_membership_matches_rational_oracle_inside_band(query):
    basis, x, z = query
    exact = _exact_coefficients(basis.vectors, [F(b) - F(a) for a, b in zip(x, z)])
    member, coeffs = d_membership(basis, x, z)
    assert member == all(c > 0 for c in exact[basis.k :])
    assert np.array_equal(coeffs, np.linalg.solve(basis.matrix(), z - x))


def test_membership_coefficients_bit_identical_at_d96():
    basis = choose_basis(compute_C(get_builtin("burgers"), max_rounds=3, combo_budget=0))
    assert basis.dim == 96
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(scale=0.5, size=96)
        z = x + rng.normal(size=96)
        _, coeffs = d_membership(basis, x, z)
        assert np.array_equal(coeffs, np.linalg.solve(basis.matrix(), z - x))


def test_basis_matrix_is_a_copy(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    B = basis.matrix()
    before = B.copy()
    B[:] = 0.0
    assert np.array_equal(basis.matrix(), before)
    assert d_membership(basis, [0.0, 0.0], [1.0, 5.0])[0]


def test_membership_singular_basis_refused():
    basis = PositivityBasis(vectors=[(F(1), F(0)), (F(2), F(0))], k=1)
    with pytest.raises(SingularBasisError):
        d_membership(basis, [0.0, 0.0], [1.0, 0.0])


def test_membership_short_orthogonal_basis_accepted():
    # 0.1 I at d = 13 is perfectly conditioned although det = 1e-13
    d = 13
    basis = PositivityBasis(
        vectors=[tuple(F(1, 10) * (i == j) for j in range(d)) for i in range(d)], k=0
    )
    member, coeffs = d_membership(basis, np.zeros(d), np.full(d, 0.05))
    assert member
    assert np.allclose(coeffs, 0.5)


def test_membership_full_odd_basis_is_everything():
    basis = choose_basis(compute_C(get_builtin("langevin")))
    assert basis.k == basis.dim
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, z = rng.normal(size=2), rng.normal(size=2)
        member, _ = d_membership(basis, x, z)
        assert member


# -- twist rank check -------------------------------------------------


def test_twist_rank_bhw(bhw_model):
    # family {X1, [X1, X0]} with [X1, X0] = (2y, -2x): full rank off the
    # y = 0 line, degenerate on it
    assert twist_rank_check(bhw_model, [np.array([0.5, 1.0])])
    assert not twist_rank_check(bhw_model, [np.array([0.0, 0.0])])
    assert not twist_rank_check(bhw_model, [np.array([3.0, 0.0])])
    assert bracket_rank(bhw_model, [[0.5, 1.0]]) == 2
    assert bracket_rank(bhw_model, [[3.0, 0.0], [0.0, 0.0]]) == 1


def test_twist_rank_noiseless_model():
    silent = ModelSpec(
        name="silent", d=2,
        drift=PolyVectorField(2, (Polynomial.variable(2, 1), Polynomial.zero(2))),
        noise=(),
    )
    assert bracket_rank(silent, [[1.0, 2.0]]) == 0
    assert not twist_rank_check(silent, [np.array([1.0, 2.0])])


def test_twist_rank_needs_points(bhw_model):
    with pytest.raises(ValueError):
        twist_rank_check(bhw_model, [])
