"""Exact polynomial arithmetic, Lie brackets, and relative degrees."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_vectors, polynomials, vector_fields
from conecert.closure import choose_basis, compute_C
from conecert.models import BUILTINS, get_builtin
from conecert.polyfield import (
    NO_DEGREE,
    DimensionMismatchError,
    Polynomial,
    PolyVectorField,
    _kernel,
    ad_power,
    compile_field,
    compile_jacobian,
    directional_derivative,
    field_from_json,
    field_to_json,
    jacobian,
    lie_bracket,
    poly_from_json,
    poly_to_json,
    relative_degree,
)
from conecert.reach import CertifyOptions, certify

F = Fraction


def p_of(dim, terms):
    return Polynomial(dim, {e: F(c) for e, c in terms.items()})


# -- basic arithmetic -------------------------------------------------


def test_add_mul_exact():
    # (x + 2y) * (x - y) = x^2 + xy - 2y^2
    p = p_of(2, {(1, 0): 1, (0, 1): 2})
    q = p_of(2, {(1, 0): 1, (0, 1): -1})
    expected = p_of(2, {(2, 0): 1, (1, 1): 1, (0, 2): -2})
    assert p * q == expected


def test_cancellation_removes_terms():
    p = p_of(2, {(1, 0): F(1, 3)})
    q = p_of(2, {(1, 0): F(-1, 3)})
    assert (p + q).is_zero()
    assert (p + q).degree() is NO_DEGREE


def test_zero_polynomial_has_no_degree():
    assert Polynomial.zero(3).degree() is NO_DEGREE
    assert Polynomial.constant(3, 5).degree() == 0


def test_grlex_canonical_order():
    p = p_of(2, {(0, 2): 1, (1, 0): 1, (0, 0): 1, (1, 1): 1})
    degrees = [sum(e) for e in p.terms]
    assert degrees == sorted(degrees)


def test_immutable():
    p = Polynomial.constant(1, 1)
    with pytest.raises(AttributeError):
        p.terms = {}


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        p_of(2, {(1, 0): 1}) + p_of(3, {(1, 0, 0): 1})
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, {(1, 0, 0): F(1)})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): F(1)})


def test_diff():
    # d/dx (x^2 y) = 2xy
    p = p_of(2, {(2, 1): 1})
    assert p.diff(0) == p_of(2, {(1, 1): 2})
    assert p.diff(1) == p_of(2, {(2, 0): 1})


def test_eval_exact_matches_float():
    p = p_of(2, {(2, 1): F(1, 2), (0, 1): -3})
    exact = p.eval_exact([F(1, 2), F(4)])
    assert exact == F(1, 2) * F(1, 4) * 4 - 12
    f = compile_field(PolyVectorField(2, (p, Polynomial.zero(2))))
    assert f([0.5, 4.0])[0] == pytest.approx(float(exact))


# -- oracles for brackets ---------------------------------------------


def test_jacobian_bhw_drift(bhw_model):
    # drift (a1 x - alpha1 x^2 + y^2, a2 y - alpha2 x y) has Jacobian
    # [[a1 - 2 alpha1 x, 2y], [-alpha2 y, a2 - alpha2 x]]
    J = jacobian(bhw_model.drift)
    assert J[0][0] == p_of(2, {(1, 0): -2})
    assert J[0][1] == p_of(2, {(0, 1): 2})
    assert J[1][0] == p_of(2, {(0, 1): -2})
    assert J[1][1] == p_of(2, {(1, 0): -2})


def test_bracket_shear_oracle():
    # V = d/dx, W = x d/dy: [V, W] = d/dy
    V = PolyVectorField.from_constant([F(1), F(0)])
    W = PolyVectorField(2, (Polynomial.zero(2), Polynomial.variable(2, 0)))
    assert lie_bracket(V, W) == PolyVectorField.from_constant([F(0), F(1)])


def test_bracket_finite_difference_consistency():
    # [V, W](x) ~ (DW V - DV W)(x), checked against central differences
    rng = np.random.default_rng(0)
    V = PolyVectorField(
        2, (p_of(2, {(2, 0): 1, (0, 1): -1}), p_of(2, {(1, 1): 2}))
    )
    W = PolyVectorField(
        2, (p_of(2, {(0, 2): 1}), p_of(2, {(1, 0): 3, (0, 0): 1}))
    )
    v, w, b = (compile_field(U) for U in (V, W, lie_bracket(V, W)))
    h = 1e-6
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        num = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            dW = (w(x + e) - w(x - e)) / (2 * h)
            dV = (v(x + e) - v(x - e)) / (2 * h)
            num += v(x)[i] * dW - w(x)[i] * dV
        assert np.allclose(b(x), num, atol=1e-6)


def test_ad_power_zero_and_identity():
    V = PolyVectorField.from_constant([F(1), F(0)])
    W = PolyVectorField(2, (Polynomial.zero(2), Polynomial.variable(2, 0)))
    assert ad_power(V, W, 0) == W
    assert ad_power(V, W, 1) == lie_bracket(V, W)
    # [V, W] = d/dy and [V, d/dy] = 0: the iteration stops at the zero iterate
    assert ad_power(V, W, 10**12) == PolyVectorField.zero(2)
    with pytest.raises(ValueError):
        ad_power(V, W, -1)


def test_directional_derivative_matches_constant_bracket():
    W = PolyVectorField(
        2, (p_of(2, {(2, 0): 1}), p_of(2, {(1, 1): -3}))
    )
    v = (F(2), F(-1))
    V = PolyVectorField.from_constant(v)
    assert directional_derivative(W, v) == lie_bracket(V, W)


def _bracket_by_jacobian(V, W):
    # [V, W]^j = sum_k (V^k dW^j/dx_k - W^k dV^j/dx_k), from the exact Jacobians
    JV, JW = jacobian(V), jacobian(W)
    comps = []
    for j in range(V.dim):
        acc = Polynomial.zero(V.dim)
        for k in range(V.dim):
            acc = acc + V.components[k] * JW[j][k] - W.components[k] * JV[j][k]
        comps.append(acc)
    return PolyVectorField(V.dim, tuple(comps))


@given(constant_vectors(3), vector_fields(3))
@settings(max_examples=60, deadline=None)
def test_bracket_with_constant_argument_matches_jacobian_formula(v, W):
    V = PolyVectorField.from_constant(v)
    assert lie_bracket(V, W) == _bracket_by_jacobian(V, W)
    assert lie_bracket(W, V) == _bracket_by_jacobian(W, V)


# -- relative degree --------------------------------------------------


def _line_degree(v, W):
    # degree of lambda -> W(lambda v) from exact values at lambda = 0..D:
    # the highest order whose forward difference at 0 is nonzero
    D = max((p.degree() for p in W.components if not p.is_zero()), default=0)
    best = None
    for p in W.components:
        vals = [p.eval_exact([t * c for c in v]) for t in range(D + 1)]
        for order in range(D + 1):
            if vals[0] != 0 and (best is None or order > best):
                best = order
            vals = [b - a for a, b in zip(vals, vals[1:])]
    return best


@given(
    # zero entries drop the terms off the line; +-1 make cancellations likely
    st.lists(st.sampled_from([F(0), F(1), F(-1), F(2, 3)]), min_size=3, max_size=3),
    vector_fields(3, max_degree=3),
)
@settings(max_examples=80, deadline=None)
def test_relative_degree_matches_exact_restriction(v, W):
    deg = _line_degree(v, W)
    expected = None if deg is None else (deg, "odd" if deg % 2 else "even")
    assert relative_degree(v, W) == expected


def test_relative_degree_undefined_for_zero_restriction():
    # W = (y - x) d/dx restricted to the line through (1, 1) vanishes
    W = PolyVectorField(
        2, (p_of(2, {(0, 1): 1, (1, 0): -1}), Polynomial.zero(2))
    )
    assert relative_degree((F(1), F(1)), W) is None


def test_relative_degree_parity():
    W = PolyVectorField(2, (p_of(2, {(3, 0): 1}), Polynomial.zero(2)))
    assert relative_degree((F(1), F(0)), W) == (3, "odd")
    W2 = PolyVectorField(2, (p_of(2, {(2, 0): 1}), Polynomial.zero(2)))
    assert relative_degree((F(1), F(0)), W2) == (2, "even")


def test_relative_degree_cancellation_across_components():
    # degree is the max over components, not the first nonzero
    W = PolyVectorField(
        2, (p_of(2, {(1, 0): 1}), p_of(2, {(0, 2): 1}))
    )
    assert relative_degree((F(1), F(1)), W) == (2, "even")


@given(constant_vectors(2), vector_fields(2, max_degree=3))
@settings(max_examples=60, deadline=None)
def test_relative_degree_scaling_invariance(v, W):
    # n(cv, W) = n(v, W) for any c != 0: scaling the direction rescales
    # lambda but never changes which powers appear
    rd = relative_degree(v, W)
    scaled = tuple(F(3, 2) * c for c in v)
    assert relative_degree(scaled, W) == rd


# -- algebraic properties (exact) -------------------------------------


@given(vector_fields(2), vector_fields(2))
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry(V, W):
    assert lie_bracket(V, W) == lie_bracket(W, V).scale(-1)


@given(vector_fields(2), vector_fields(2), vector_fields(2))
@settings(max_examples=25, deadline=None)
def test_bracket_bilinearity(U, V, W):
    lhs = lie_bracket(U + V.scale(F(2, 3)), W)
    rhs = lie_bracket(U, W) + lie_bracket(V, W).scale(F(2, 3))
    assert lhs == rhs


@given(
    vector_fields(2, max_degree=2),
    vector_fields(2, max_degree=2),
    vector_fields(2, max_degree=2),
)
@settings(max_examples=20, deadline=None)
def test_bracket_jacobi_identity(U, V, W):
    total = (
        lie_bracket(U, lie_bracket(V, W))
        + lie_bracket(V, lie_bracket(W, U))
        + lie_bracket(W, lie_bracket(U, V))
    )
    assert total.is_zero()


# -- serialization ----------------------------------------------------


@given(polynomials(3))
@settings(max_examples=40, deadline=None)
def test_poly_json_roundtrip(p):
    assert poly_from_json(poly_to_json(p), 3) == p


@given(vector_fields(2))
@settings(max_examples=30, deadline=None)
def test_field_json_roundtrip(V):
    assert field_from_json(field_to_json(V), 2) == V


# -- compiled evaluation ----------------------------------------------


def test_compile_field_matches_eval(bhw_model):
    f = compile_field(bhw_model.drift)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-2, 2, (50, 2))
    batched = f(xs)
    for x, row in zip(xs, batched):
        assert np.allclose(row, np.array(bhw_model.drift.eval_exact(x), float), atol=1e-12)
    # single-point call
    assert np.allclose(f(xs[0]), np.array(bhw_model.drift.eval_exact(xs[0]), float),
                       atol=1e-12)


def test_compile_jacobian_matches_symbolic(bhw_model):
    jf = compile_jacobian(bhw_model.drift)
    J = jacobian(bhw_model.drift)
    x = np.array([0.7, -1.3])
    expected = [[float(J[i][j].eval_exact(x)) for j in range(2)] for i in range(2)]
    assert np.allclose(jf(x), expected, atol=1e-12)


def _dyadic_point(rng, dim):
    # denominators are powers of two, so the float point is the rational one
    return [F(int(n), 8) for n in rng.integers(-12, 13, size=dim)]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_kernel_matches_exact(name):
    model = get_builtin(name)
    V = model.drift
    f = compile_field(V)
    jf = compile_jacobian(V)
    J = jacobian(V)
    rng = np.random.default_rng(7)
    for _ in range(1 if V.dim > 8 else 4):
        q = _dyadic_point(rng, V.dim)
        x = np.array([float(c) for c in q])
        exact = np.array([float(c) for c in V.eval_exact(q)])
        scale = max(1.0, np.abs(exact).max())
        np.testing.assert_allclose(f(x), exact, rtol=1e-12, atol=1e-12 * scale)
        exact_J = np.array([[float(p.eval_exact(q)) if p.terms else 0.0 for p in row]
                            for row in J])
        scale = max(1.0, np.abs(exact_J).max())
        np.testing.assert_allclose(jf(x), exact_J, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(vector_fields(3))
def test_kernel_matches_exact_random_fields(V):
    q = [F(3, 4), F(-5, 2), F(1, 8)]
    x = np.array([float(c) for c in q])
    exact = np.array([float(c) for c in V.eval_exact(q)])
    assert np.allclose(compile_field(V)(x), exact, rtol=1e-12, atol=1e-12)
    exact_J = [[float(p.eval_exact(q)) for p in row] for row in jacobian(V)]
    assert np.allclose(compile_jacobian(V)(x), exact_J, rtol=1e-12, atol=1e-12)


def test_kernel_input_shapes(bhw_model):
    f = compile_field(bhw_model.drift)
    jf = compile_jacobian(bhw_model.drift)
    xs = np.random.default_rng(2).uniform(-2, 2, (3, 4, 2))
    assert f(xs).shape == (3, 4, 2)
    assert jf(xs).shape == (3, 4, 2, 2)
    assert f(xs[0]).shape == (4, 2)
    assert jf(xs[0]).shape == (4, 2, 2)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(f(xs[i, j]), f(xs)[i, j])
            assert np.array_equal(jf(xs[i, j]), jf(xs)[i, j])
    # lists and integer points are accepted
    assert np.array_equal(f([1, 2]), f(np.array([1.0, 2.0])))


def test_kernel_zero_and_constant_fields():
    xs = np.random.default_rng(3).normal(size=(5, 3))
    zero = PolyVectorField.zero(3)
    assert np.array_equal(compile_field(zero)(xs), np.zeros((5, 3)))
    assert np.array_equal(compile_jacobian(zero)(xs), np.zeros((5, 3, 3)))
    const = PolyVectorField.from_constant([F(1, 2), F(0), F(-3)])
    assert np.array_equal(compile_field(const)(xs), np.tile([0.5, 0.0, -3.0], (5, 1)))
    assert np.array_equal(compile_field(const)(xs[0]), [0.5, 0.0, -3.0])
    assert np.array_equal(compile_jacobian(const)(xs), np.zeros((5, 3, 3)))


def test_certify_builds_each_kernel_once():
    model = get_builtin("langevin")
    basis = choose_basis(compute_C(model))
    options = CertifyOptions(seed=0, n_steps=200, pieces=4)
    _kernel.cache_clear()
    cert = certify(model, basis, [0.0, 0.0], [1.0, 0.0], 1.0, options)
    assert cert.verdict == "positive"
    info = _kernel.cache_info()
    # the drift's alone: the twist and rank checks read [X0, X_j] off its
    # Jacobian
    assert info.misses == info.currsize == 1
    assert info.hits > 0
    certify(model, basis, [0.0, 0.0], [1.0, 0.0], 1.0, options)
    assert _kernel.cache_info().misses == info.misses
