"""Exact polynomial arithmetic, Lie brackets, and relative degrees."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_vectors, exponents, polynomials, vector_fields
from conecert.closure import choose_basis, compute_C
from conecert.kernel import (
    _STRAIGHT_LINE_TERMS,
    _Kernel,
    _kernel,
    _SlotTable,
    _straight_line_field,
)
from conecert.models import BUILTINS, burgers, get_builtin, shell1_forcing
from conecert.polyfield import (
    NO_DEGREE,
    DimensionMismatchError,
    Polynomial,
    PolyVectorField,
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
    degrees = [sum(k for _, k in key) for key in p.terms]
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


# -- dense-exponent oracle --------------------------------------------
# Terms are keyed by (variable, power) pairs; these references compute on
# exponent tuples of length dim and read the keyed results through
# poly_to_json, term order included.


def dense(p):
    """{exponent tuple: coefficient} in poly_to_json's order."""
    return {tuple(t["exps"]): F(t["coeff"]) for t in poly_to_json(p)}


def graded(terms):
    """terms without zeros, in graded lex order."""
    return dict(sorted(((e, c) for e, c in terms.items() if c),
                       key=lambda ec: (sum(ec[0]), ec[0])))


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return graded(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return graded(out)


def ref_diff(a, i):
    return graded({e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]})


def ref_directional(W, v):
    out = []
    for a in W:
        acc = {}
        for k, vk in enumerate(v):
            acc = ref_add(acc, {e: c * vk for e, c in ref_diff(a, k).items()})
        out.append(acc)
    return out


def ref_bracket(V, W):
    # [V, W]^j = sum_k (V^k dW^j/dx_k - W^k dV^j/dx_k)
    out = []
    for j in range(len(V)):
        acc = {}
        for k in range(len(V)):
            acc = ref_add(acc, ref_mul(V[k], ref_diff(W[j], k)))
            acc = ref_add(acc, {e: -c for e, c in ref_mul(W[k], ref_diff(V[j], k)).items()})
        out.append(acc)
    return out


def ref_relative_degree(v, W):
    # on the line a term c x^e is c prod(v_i^e_i) lambda^|e|
    best = -1
    for a in W:
        sums = {}
        for e, c in a.items():
            for ek, vk in zip(e, v):
                c *= F(vk) ** ek
            sums[sum(e)] = sums.get(sum(e), 0) + c
        best = max([best, *(deg for deg, s in sums.items() if s)])
    return None if best < 0 else (best, "odd" if best % 2 else "even")


def items(p):
    return list(dense(p).items())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    polynomials(d), polynomials(d), vector_fields(d), vector_fields(d), constant_vectors(d),
    st.integers(0, d - 1))))
def test_pair_keys_match_dense_exponent_oracle(case):
    p, q, V, W, v, i = case
    assert [t["exps"] for t in poly_to_json(p)] == sorted(
        (t["exps"] for t in poly_to_json(p)), key=lambda e: (sum(e), e))
    assert items(p + q) == list(ref_add(dense(p), dense(q)).items())
    assert items(p * q) == list(ref_mul(dense(p), dense(q)).items())
    assert items(p.diff(i)) == list(ref_diff(dense(p), i).items())
    Vd, Wd = [dense(a) for a in V.components], [dense(a) for a in W.components]
    assert [items(a) for a in directional_derivative(W, v).components] == [
        list(a.items()) for a in ref_directional(Wd, v)]
    assert relative_degree(v, W) == ref_relative_degree(v, Wd)
    C = PolyVectorField.from_constant(v)
    Cd = [dense(a) for a in C.components]
    for X, Y, Xd, Yd in ((V, W, Vd, Wd), (C, W, Cd, Wd), (V, C, Vd, Cd)):
        assert [items(a) for a in lie_bracket(X, Y).components] == [
            list(a.items()) for a in ref_bracket(Xd, Yd)]


def assert_line_queries_match_oracle(W, v):
    Wd = [dense(a) for a in W.components]
    assert relative_degree(v, W) == ref_relative_degree(v, Wd)
    assert [items(a) for a in directional_derivative(W, v).components] == [
        list(a.items()) for a in ref_directional(Wd, v)]


def test_direction_missing_every_variable_sees_only_constant_terms():
    # W uses x0 and x1 alone; along e2 only its constant terms remain
    W = PolyVectorField(3, (p_of(3, {(1, 0, 0): 1, (0, 2, 0): 2}), p_of(3, {(1, 1, 0): -1}),
                            Polynomial.zero(3)))
    v = (F(0), F(0), F(5))
    assert relative_degree(v, W) is None
    assert_line_queries_match_oracle(W, v)
    with_constant = W + PolyVectorField.from_constant((F(0), F(-3), F(0)))
    assert relative_degree(v, with_constant) == (0, "even")
    assert_line_queries_match_oracle(with_constant, v)


def test_top_degree_cancels_on_the_line_below_another_component():
    # along (1, -1): x0^3 + x0^2 x1 vanishes to degree 3 in component 0,
    # x0 x1 keeps degree 2 in component 1, and x0 cancels x1 in component 2
    W = PolyVectorField(3, (p_of(3, {(3, 0, 0): 1, (2, 1, 0): 1, (1, 0, 0): 4}),
                            p_of(3, {(1, 1, 0): 1}), p_of(3, {(1, 0, 0): 1, (0, 1, 0): 1})))
    v = (F(1), F(-1), F(0))
    assert relative_degree(v, W) == (2, "even")
    assert_line_queries_match_oracle(W, v)


def test_field_mixing_constant_and_nonconstant_components():
    W = PolyVectorField(3, (Polynomial.constant(3, F(2, 3)), p_of(3, {(0, 0, 1): 1, (0, 0, 0): 1}),
                            Polynomial.zero(3)))
    assert not W.is_constant() and not W.is_zero()
    assert W.constant_value() == (F(2, 3), F(1), F(0))
    for v in ((F(1), F(0), F(0)), (F(0), F(0), F(-2)), (F(0),) * 3):
        assert_line_queries_match_oracle(W, v)
    assert relative_degree((F(0), F(0), F(-2)), W) == (1, "odd")


@settings(max_examples=40, deadline=None)
@given(vector_fields(4), st.lists(constant_vectors(4), min_size=2, max_size=5))
def test_one_field_along_several_directions_reuses_its_index(W, directions):
    for v in directions:  # the first query builds W's term index, the rest reuse it
        assert_line_queries_match_oracle(W, v)
    for v in directions:  # and a sparse direction: one coordinate of each
        k = next((i for i, c in enumerate(v) if c), 0)
        assert_line_queries_match_oracle(W, tuple(c if i == k else F(0) for i, c in enumerate(v)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    vector_fields(d), constant_vectors(d), st.integers(0, 3))))
def test_cached_constancy_matches_components(case):
    W, v, m = case
    d = W.dim
    C = PolyVectorField.from_constant(v)
    fields = [W, C, PolyVectorField.zero(d), ad_power(C, W, m), W.scale(0) + C]
    for X in fields:
        for _ in range(2):  # the second answer comes from the cached index
            assert X.is_constant() == all(p.is_constant() for p in X.components)
            assert X.constant_value() == tuple(p.constant_value() for p in X.components)
            assert X.is_zero() == all(p.is_zero() for p in X.components)
    assert C.is_constant() and C.constant_value() == v
    assert len({id(p) for p in C.components if p.is_zero()}) <= 1  # one zero, shared
    assert PolyVectorField.zero(d).is_zero()
    # a derivative along a direction carries the term index `_along` built
    # from the components it touched; it equals the one rebuilt from all
    for X in (ad_power(C, W, m), directional_derivative(W, v), lie_bracket(W, C)):
        rebuilt = PolyVectorField(d, X.components)
        assert X == rebuilt and hash(X) == hash(rebuilt)
        assert X._by_variable == rebuilt._by_variable
        assert X._constant_terms == rebuilt._constant_terms


def test_sparse_direction_cost_does_not_grow_with_dim():
    # 1,000 quadratic terms over 10^4 variables, along a direction of two
    # of them: dense exponent keys would hold about 80 MB of tuples
    d = 10_000
    pairs = np.random.default_rng(0).choice(d, size=(100, 10, 2)).tolist()
    x = {i: Polynomial.variable(d, i) for rows in pairs for pair in rows for i in pair}
    zero = Polynomial.zero(d)
    comps = [sum((x[a] * x[b] for a, b in rows), zero) for rows in pairs]
    assert sum(len(p.terms) for p in comps) > 990
    W = PolyVectorField(d, (*comps, *[zero] * (d - len(comps))))
    v = [0] * d
    for i in pairs[0][0]:
        v[i] = 1
    tracemalloc.start()
    try:
        dW = directional_derivative(W, v)
        rd = relative_degree(v, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rd == (2, "even")
    assert {p.degree() for p in dW.components if not p.is_zero()} == {1}
    assert peak < 4 * 2**20, peak


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


def sequential_reference(V, point):
    """README's rounding for a small drift, on Python floats: each monomial
    a left-to-right product in slot order, each component a sum from +0.0
    of c * monomial over its nonzero terms, in monomial order."""
    table = _kernel(V).field
    values = [float(v) for v in point]
    monomials = []
    for row in table.slots:
        factors = [values[j] for j in row if j < V.dim]
        m = factors[0] if factors else 1.0
        for v in factors[1:]:
            m = m * v
        monomials.append(m)
    out = []
    for j in range(V.dim):
        acc = 0.0
        for i in np.flatnonzero(table.coeffs[:, j]):
            acc = acc + float(table.coeffs[i, j]) * monomials[i]
        out.append(acc)
    return np.array(out)


def assert_batch_rounds_as_points(V, x):
    f = compile_field(V)
    batch = f(x)
    assert batch.shape == x.shape
    for point, row in zip(x.reshape(-1, V.dim), batch.reshape(-1, V.dim)):
        single = f(point)
        assert single.tobytes() == row.tobytes(), (point, single, row)
        assert sequential_reference(V, point).tobytes() == row.tobytes()


def test_small_drift_batch_rounds_as_single_points():
    # non-dyadic coefficients: a vector-matrix product would round these
    # rows differently from the term-by-term sum
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    V = PolyVectorField(2, (
        x0.scale(F(3, 10)) + (x1 * x1).scale(F(7, 3)) - (x0 * x1).scale(F(1, 7)),
        (x0 * x0 * x1).scale(F(1, 7)) - x1.scale(F(7, 3)) + Polynomial.constant(2, F(3, 10))))
    P = np.random.default_rng(0).normal(size=(5000, 2))
    assert_batch_rounds_as_points(V, P)
    assert_batch_rounds_as_points(V, P.reshape(50, 100, 2))
    # coordinate-major points, as Monte Carlo holds them
    assert_batch_rounds_as_points(V, np.ascontiguousarray(P.T).T)


@pytest.mark.parametrize("name", ["langevin", "langevin2d", "bhw", "nonexample3d"])
def test_small_drift_batch_is_laid_out_like_its_input(name):
    model = get_builtin(name)
    f = compile_field(model.drift)
    rows = np.random.default_rng(1).normal(size=(model.d, 300))  # one row per coordinate
    out = f(rows.T)
    assert out.T.flags.c_contiguous  # so out.T is coordinate-major without a copy
    assert out.tobytes() == f(np.ascontiguousarray(rows.T)).tobytes()


POINT_VALUES = st.one_of(
    st.floats(min_value=-4, max_value=4),  # takes in +0.0 and -0.0
    # cubes of these overflow, and inf - inf is NaN
    st.sampled_from([0.0, -0.0, 1e110, -1e110, 3e160, -3e160, 1e308, float("inf"),
                     float("-inf")]),
)


@st.composite
def small_drifts_and_batches(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=10)
    terms = st.lists(st.tuples(exponents(d, 3), coeffs), max_size=5)
    V = PolyVectorField(d, tuple(Polynomial(d, dict(draw(terms))) for _ in range(d)))
    shape = draw(st.sampled_from([(1,), (6,), (2, 3)])) + (d,)  # (n, d) and (n, m, d)
    values = draw(st.lists(POINT_VALUES, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return V, np.array(values).reshape(shape)


@settings(max_examples=80, deadline=None)
@given(small_drifts_and_batches())
def test_small_drift_batch_rounds_as_single_points_random(case):
    V, x = case
    with np.errstate(over="ignore", invalid="ignore"):
        assert_batch_rounds_as_points(V, x)


def test_kernel_zero_and_constant_fields():
    xs = np.random.default_rng(3).normal(size=(5, 3))
    zero = PolyVectorField.zero(3)
    assert np.array_equal(compile_field(zero)(xs), np.zeros((5, 3)))
    assert np.array_equal(compile_jacobian(zero)(xs), np.zeros((5, 3, 3)))
    const = PolyVectorField.from_constant([F(1, 2), F(0), F(-3)])
    assert np.array_equal(compile_field(const)(xs), np.tile([0.5, 0.0, -3.0], (5, 1)))
    assert np.array_equal(compile_field(const)(xs[0]), [0.5, 0.0, -3.0])
    assert np.array_equal(compile_jacobian(const)(xs), np.zeros((5, 3, 3)))


@st.composite
def large_drifts_and_points(draw):
    """A drift of more than _STRAIGHT_LINE_TERMS terms, 50 distinct
    monomials of degree <= D per component with coefficients p/q, and
    dyadic points in [-4, 4]^d of shape (2, 3, d), exact as floats."""
    d, D = draw(st.integers(6, 8)), draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    monomials = [e for e in itertools.product(range(D + 1), repeat=d) if sum(e) <= D]
    comps = []
    for _ in range(d):
        chosen = rng.choice(len(monomials), size=50, replace=False)
        coeffs = rng.choice([-1, 1], size=50) * rng.integers(1, 21, size=50)
        comps.append(Polynomial(d, {monomials[i]: F(int(c), int(q)) for i, c, q in
                                    zip(chosen, coeffs, rng.integers(1, 13, size=50))}))
    V = PolyVectorField(d, tuple(comps))
    n = draw(st.lists(st.integers(-2**20, 2**20), min_size=6 * d, max_size=6 * d))
    return V, D, [F(k, 2**18) for k in n]


@settings(max_examples=20, deadline=None)
@given(large_drifts_and_points())
def test_sparse_jacobian_is_exact_within_its_rounding(case):
    # entry (j, k) of n terms: each term a product of at most D - 1
    # factors, rounded with its coefficient and the multiply, then n - 1
    # additions, so |J - J_exact| <= gamma_(D + n - 1) * sum |term|
    V, D, q = case
    assert sum(len(p.terms) for p in V.components) > _STRAIGHT_LINE_TERMS
    d = V.dim
    jf = compile_jacobian(V)
    P = np.array([float(c) for c in q]).reshape(2, 3, d)
    batch = jf(P)
    assert batch.shape == (2, 3, d, d)
    exact_J = jacobian(V)
    u = F(1, 2**53)
    for point, row in zip(np.reshape(q, (6, d)).tolist(), batch.reshape(6, d, d)):
        assert jf(np.array([float(c) for c in point])).tobytes() == row.tobytes()
        for j, k in itertools.product(range(d), repeat=2):
            entry = exact_J[j][k]
            size = sum(abs(c) * math.prod(abs(point[i]) ** p for i, p in key)
                       for key, c in entry.terms.items())
            n = D + len(entry.terms)
            assert abs(F(row[j, k]) - entry.eval_exact(point)) <= n * u / (1 - n * u) * size


def straight_line_rows(V, P):
    """V's drift at each point of P by the straight-line field of the
    dense table a small drift's kernel holds, on Python floats."""
    field = _straight_line_field(_SlotTable(V.dim, [p.terms for p in V.components], (V.dim,)))
    return np.array([field(*point) for point in P.reshape(-1, V.dim).tolist()]).reshape(P.shape)


def test_burgers_field_rounds_as_the_straight_line_field():
    V = get_builtin("burgers").drift
    assert sum(len(p.terms) for p in V.components) > _STRAIGHT_LINE_TERMS
    f = compile_field(V)
    P = np.random.default_rng(7).normal(scale=0.7, size=(4, 16, V.dim))
    expected = straight_line_rows(V, P)
    assert f(P).tobytes() == expected.tobytes()
    assert f(P[0, 0]).tobytes() == expected[0, 0].tobytes()
    # coordinate-major points, as Monte Carlo holds them
    rows = np.ascontiguousarray(P.reshape(-1, V.dim).T)
    assert f(rows.T).tobytes() == expected.reshape(-1, V.dim).tobytes()


@settings(max_examples=20, deadline=None)
@given(large_drifts_and_points(), st.data())
def test_large_drift_field_rounds_as_the_straight_line_field(case, data):
    V, _, q = case
    d = V.dim
    # the dyadic points, then signed zeros, overflowing values and infinities
    extra = data.draw(st.lists(POINT_VALUES, min_size=6 * d, max_size=6 * d))
    P = np.array([float(c) for c in q] + extra).reshape(4, 3, d)
    f = compile_field(V)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = f(P)
        singles = [f(point) for point in P.reshape(-1, d)]
    expected = straight_line_rows(V, P)
    assert batch.tobytes() == expected.tobytes()
    for single, row in zip(singles, expected.reshape(-1, d)):
        assert single.tobytes() == row.tobytes()


def test_large_drift_field_sums_from_positive_zero():
    # every coefficient negative, so at the origin every term is -0.0,
    # and a sum from +0.0 is +0.0
    d = 6
    monomials = [e for e in itertools.product(range(4), repeat=d) if 1 <= sum(e) <= 3]
    V = PolyVectorField(d, tuple(Polynomial(d, {e: F(-1 - (i + j) % 3, 7)
                                                for i, e in enumerate(monomials)})
                                 for j in range(d)))
    assert sum(len(p.terms) for p in V.components) > _STRAIGHT_LINE_TERMS
    P = np.zeros((2, d))
    out = compile_field(V)(P)
    assert not np.signbit(out).any()
    assert out.tobytes() == straight_line_rows(V, P).tobytes()


def test_burgers_jacobian_rows_match_single_points():
    jf = compile_jacobian(get_builtin("burgers").drift)
    P = np.random.default_rng(4).normal(scale=0.7, size=(2, 4, 96))
    rows = jf(P)
    for point, row in zip(P.reshape(-1, 96), rows.reshape(-1, 96, 96)):
        assert jf(point).tobytes() == row.tobytes()


def test_burgers_n3_jacobian_memory_follows_its_nonzeros():
    # 30,816 nonzeros at d = 192; a dense coefficient table would hold
    # 193 x 192^2 doubles, 57 MB
    V = burgers(3, 1, forced_sigma=shell1_forcing(3)).drift
    kernel = _Kernel(V)  # uncached, and its field table built before tracing
    P = np.random.default_rng(0).normal(scale=0.1, size=(2, 4, V.dim))
    tracemalloc.start()
    try:
        J = kernel.jac(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J.shape == (2, 4, V.dim, V.dim) and np.isfinite(J).all()
    assert peak < 10 * 2**20, peak


def test_burgers_n3_field_memory_follows_its_terms():
    # 15,512 terms at d = 192; a dense coefficient table would hold
    # 9624 x 192 doubles, 14.8 MB
    V = burgers(3, 1, forced_sigma=shell1_forcing(3)).drift
    P = np.random.default_rng(0).normal(scale=0.1, size=(2, 4, V.dim))
    tracemalloc.start()
    try:
        X = _Kernel(V).field(P)  # uncached, so its field table is built while traced
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (2, 4, V.dim) and np.isfinite(X).all()
    assert peak < 10 * 2**20, peak


def test_certify_builds_each_kernel_once():
    model = get_builtin("langevin")
    basis = choose_basis(compute_C(model))
    options = CertifyOptions(seed=0, n_steps=200, pieces=4)
    _kernel.cache_clear()
    cert = certify(model, basis, [0.0, 0.0], [1.0, 0.0], 1.0, options)
    assert cert.verdict == "positive"
    info = _kernel.cache_info()
    # the drift's alone: the rank check reads [X0, X_j] off its Jacobian
    assert info.misses == info.currsize == 1
    assert info.hits > 0
    certify(model, basis, [0.0, 0.0], [1.0, 0.0], 1.0, options)
    assert _kernel.cache_info().misses == info.misses
