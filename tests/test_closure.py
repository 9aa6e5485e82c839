"""Cone generation, basis selection, and membership in the positivity
region."""

import hashlib
import json
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
    _candidates,
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
from conecert.polyfield import Derivation, Polynomial, PolyVectorField

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


# -- per-round goldens ------------------------------------------------


def cross_model():
    """d=3, noise e1 and e2, drift (0, 0, x*y): only combinations of the
    seeds reach e3."""
    x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    zero = Polynomial.zero(3)
    return ModelSpec("cross", 3, PolyVectorField(3, (zero, zero, x * y)),
                     ((F(1), F(0), F(0)), (F(0), F(1), F(0))))


def quad_model():
    """d=2, noise e1, drift (y, x^2 y + x^2)."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return ModelSpec("quad", 2, PolyVectorField(2, (y, x * x * y + x * x)),
                     ((F(1), F(0)),))


def _round_digest(model, combo_budget, rounds):
    """sha256 over every round's full state: counters, constants with
    parities and derivations, and the generators' parities and
    derivations."""
    def constants(cfs):
        return [[[str(c) for c in cf.value], cf.parity, str(cf.derivation)] for cf in cfs]

    h = hashlib.sha256()
    state = closure_init(model)
    for _ in range(rounds):
        state = closure_step(state, combo_budget=combo_budget)
        row = {
            "round": state.round,
            "added": state.last_round_added,
            "pairs": len(state.pairs_done),
            "odd": constants(state.odd_constants),
            "even": constants(state.even_constants),
            "gens": [[p, str(dv)] for _, p, dv in state.nonconstant_generators],
        }
        h.update(json.dumps(row, sort_keys=True).encode())
    return h.hexdigest()


ROUND_MODELS = {"langevin2d": lambda: get_builtin("langevin2d"),
                "cross": cross_model, "quad": quad_model}


@pytest.mark.parametrize("name,budget,digest", [
    ("langevin2d", 1, "069634830e3ecdaa0ae9e79e770b19c522ce21bb999c3905933fe6fd8789e0c5"),
    ("langevin2d", 2, "e34a7bc26cc1def0c5334fd8ea462f36459242070f55b9b3a023f866f6035585"),
    ("cross", 1, "5621cd941f2c1bb6b2346df53ce0ff5d8b50b592b5b7f1f44e25ccb0640ea964"),
    ("cross", 2, "939d7fdaf0a459bfeed634aac77e2a2df6b4d04079a8ad8a34f2e681620cab85"),
    ("quad", 1, "574e88d6f160b0ef17b64cf02b9eb28ae777bbd23793b84ae51731dff0773512"),
    ("quad", 2, "59ade780e2a61094b85ec3993dee8d842f658567a4d694348e11b8bc9644d081"),
])
def test_closure_round_goldens(name, budget, digest):
    assert _round_digest(ROUND_MODELS[name](), budget, 4) == digest


def test_burgers_combination_round_golden():
    # one round at budget 1: 120 seed pairs, 4 coefficient pairs each
    digest = "7dabc390723e99deb3d89a2326d0c2c6683e340a3ca8484b95c950c0b1cd7324"
    assert _round_digest(get_builtin("burgers"), 1, 1) == digest


def test_combinations_add_a_direction():
    model = cross_model()
    plain = compute_C(model, combo_budget=0)
    assert plain.rank() == 2 and not plain.even_generators
    cone = compute_C(model, combo_budget=1)
    assert [cf.value for cf in cone.even_generators] == [
        (F(0), F(0), F(1)), (F(0), F(0), F(-1))
    ]
    assert [str(cf.derivation) for cf in cone.even_generators] == [
        "ad^2((-1*(X1) + -1*(X2)))(X0)", "ad^2((-1*(X1) + X2))(X0)"
    ]
    assert cone.rank() == 3 and cone.rounds == 2 and cone.exhausted
    assert verify_derivations(model, cone)


def test_candidates_capped_in_order():
    # 70 two-sided items: every item, then the first 2000 of the
    # 70*69/2 * 4 pair combinations, coefficient pairs in (-1, 1) order
    items = [(PolyVectorField.from_constant([F(int(i == j)) for j in range(70)]),
              "seed", Derivation.leaf(f"X{i}")) for i in range(70)]
    out = list(_candidates(items, items, 1))
    assert len(out) == 70 + 2000
    assert [str(dv) for _, dv in out[70:74]] == [
        "(-1*(X0) + -1*(X1))", "(-1*(X0) + X1)", "(X0 + -1*(X1))", "(X0 + X1)"
    ]
    assert str(out[-1][1]) == "(X7 + X45)"  # pair 500 is (7, 45)
    even = [(V, "even", dv) for V, _, dv in items[:2]]
    assert [str(dv) for _, dv in _candidates([], even, 2)] == [
        "(X0 + X1)", "(X0 + 2*(X1))", "(2*(X0) + X1)", "(2*(X0) + 2*(X1))"
    ]
    assert list(_candidates(items, items, 0)) == [(V, dv) for V, _, dv in items]


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
