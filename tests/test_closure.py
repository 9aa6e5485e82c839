"""Cone generation, basis selection, and membership in the positivity
region."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conecert
from conftest import constant_vectors, vector_fields
from conecert.closure import (
    BasisSelectionError,
    GenerationState,
    PositivityBasis,
    RationalSpan,
    SingularBasisError,
    _candidates,
    _negates,
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
from conecert.models import (
    BUILTINS, ModelSpec, bhw, get_builtin, langevin, quartic_double_well)
from conecert.polyfield import (
    ConstantField, Polynomial, PolyVectorField, compile_field, compile_jacobian, lie_bracket,
    poly_from_json, poly_to_json)

F = Fraction
SRC = str(Path(conecert.__file__).resolve().parents[1])


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
    assert cone.rank() == 2
    assert not cone.even_generators
    values = [cf.value for cf in cone.odd_basis]
    assert (F(1), F(0)) in values
    assert (F(-1), F(1)) in values  # [X1, X0] = (-gamma*sigma, sigma)
    assert cone.exhausted


def test_langevin_2d_cone_all_odd():
    cone = compute_C(get_builtin("langevin2d"))
    assert cone.rank() == 4
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


def cross_gap_model():
    """cross_model with an all-zero noise vector between its two: seeds
    X1 and X3, and X2 adds nothing."""
    model = cross_model()
    return ModelSpec("cross_gap", 3, model.drift,
                     (model.noise[0], (F(0),) * 3, model.noise[1]))


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


def test_closure_step_skips_generators_equal_up_to_sign():
    # along V = e1 the brackets of c W are c G, G = (x1 + 1, 0); G itself
    # is constant on the line, so it adds no bracket of its own
    def field(terms):
        return PolyVectorField(2, (Polynomial(2, terms), Polynomial.zero(2)))

    G = field({(0, 1): 1, (0, 0): 1})
    odd = [(field({(1, 1): c, (1, 0): c}), "odd", f"W{c}") for c in (1, -1, 2)]
    # an even bracket equal to -G: only an odd one's sign is free
    even = (field({(2, 1): F(-1, 2), (2, 0): F(-1, 2)}), "odd", "Weven")
    state = GenerationState(
        odd_constants=[ConstantField((F(1), F(0)), "seed", "X1")], even_constants=[],
        nonconstant_generators=[(G, "odd", "G"), *odd, even], odd_span=RationalSpan(2))
    state.odd_span.add((F(1), F(0)))
    new = closure_step(state, combo_budget=0).nonconstant_generators[5:]
    assert new == [(G.scale(2), "odd", "[X1, W2]"), (G.scale(-1), "even", "ad^2(X1)(Weven)")]
    assert _negates(G.scale(-1), G) and not _negates(G, G)
    assert not _negates(field({(0, 0): -1}), G)  # the negation of only part of G


def test_burgers_closure_finishes_at_defaults():
    # rounds without combinations reach odd rank 96 in three rounds, so
    # the combination round, which alone took minutes, never runs
    cone = compute_C(get_builtin("burgers"))
    assert (cone.rounds, cone.exhausted, len(cone.odd_basis)) == (3, True, 96)


# sha256 of the sorted-key JSON report at budgets 1 and 2, which running
# the rounds without combinations first must leave as it was
@pytest.mark.parametrize("name,budget,digest", [
    ("langevin", 1, "71513d7e0605cc5d47dbe10ee4219f51c3059149e2caa339565ea4f5699997a3"),
    ("langevin", 2, "71513d7e0605cc5d47dbe10ee4219f51c3059149e2caa339565ea4f5699997a3"),
    ("langevin2d", 1, "0f98553f3e3e5ea5599f455cef5164c43a9b0e4ffa2a4c8f6d771316ee77ac70"),
    ("langevin2d", 2, "0f98553f3e3e5ea5599f455cef5164c43a9b0e4ffa2a4c8f6d771316ee77ac70"),
    ("bhw", 1, "bf1f3d042125b6b5801842135d25f890c92eff9de4ad4eb3500e18a5317b86be"),
    ("bhw", 2, "bf1f3d042125b6b5801842135d25f890c92eff9de4ad4eb3500e18a5317b86be"),
    ("nonexample3d", 1, "920dda7bceeb0b35b6408ae17581ed50ce3e3143cfb4866357e8b008ab6a91ce"),
    ("nonexample3d", 2, "920dda7bceeb0b35b6408ae17581ed50ce3e3143cfb4866357e8b008ab6a91ce"),
    ("cross", 1, "f7c46626eea80519877a151fd7bfb1425108b08a99215e9c231f9236be6a3909"),
    ("cross", 2, "61ddfd0ff9dbf92508f2e8fc33d9f82b1cf0aee75d5ef677f3e187ded76d9b90"),
    ("cross_gap", 1, "99afde07366cbee2058b62d2b8dcb266b09f48afb6f334c1ac8161eab625d0fc"),
    ("cross_gap", 2, "f1611c7bfd6637028052110864c5aeb163008bdb8abec2d9ca780f5b2378ca89"),
    ("quad", 1, "91c373e4aeb90b75e37ed1d449e4762c8be8deaffb993e04024ffdf1d897d38e"),
    ("quad", 2, "91c373e4aeb90b75e37ed1d449e4762c8be8deaffb993e04024ffdf1d897d38e"),
])
def test_closure_report_goldens(name, budget, digest):
    model = {"cross": cross_model, "cross_gap": cross_gap_model,
             "quad": quad_model}.get(name, lambda: get_builtin(name))()
    report = json.dumps(compute_C(model, combo_budget=budget).to_json(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_opposite_even_generators_are_two_sided():
    # the cone holds e3 and -e3, so e3 is a two-sided basis direction
    basis = choose_basis(compute_C(cross_model(), combo_budget=1))
    assert basis.k == 3
    for z in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.3, -0.2, -0.5]):
        assert d_membership(basis, np.zeros(3), z)[0]


def test_candidates_capped_in_order():
    # 70 two-sided items: every item, then the first 2000 of the
    # 70*69/2 * 4 pair combinations, coefficient pairs in (-1, 1) order
    items = [(PolyVectorField.from_constant([F(int(i == j)) for j in range(70)]),
              "seed", f"X{i}") for i in range(70)]
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
    assert np.array_equal(coeffs, np.linalg.inv(basis.matrix()) @ (z - x))


@st.composite
def membership_chains(draw):
    """A rational basis with at least one one-sided direction and points
    x, y = x + B c1, z = y + B c2, some one-sided coefficients at or
    within an ulp of zero."""
    d = draw(st.integers(2, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
                   .filter(lambda vs: _det(vs) != 0))
    k = draw(st.integers(0, d - 1))
    B = np.array([[float(e) for e in v] for v in vectors]).T
    coeff = st.one_of(st.floats(-1, 2), st.sampled_from([0.0, 1e-17, -1e-17, 1e-16]))
    x = np.array(draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d)))
    y = x + B @ np.array(draw(st.lists(coeff, min_size=d, max_size=d)))
    z = y + B @ np.array(draw(st.lists(coeff, min_size=d, max_size=d)))
    return PositivityBasis(vectors=[tuple(v) for v in vectors], k=k), x, y, z


@given(membership_chains())
@settings(max_examples=300, deadline=None)
def test_membership_is_transitive(query):
    # the exact one-sided coefficients are linear in the difference, and
    # Fraction(z) - Fraction(x) = (y - x) + (z - y): certify refuses a
    # via-equilibrium target outside x's own region on this
    basis, x, y, z = query
    if d_membership(basis, x, y)[0] and d_membership(basis, y, z)[0]:
        assert d_membership(basis, x, z)[0]


def test_membership_coefficients_bit_identical_at_d96():
    basis = choose_basis(compute_C(get_builtin("burgers"), max_rounds=3, combo_budget=0))
    assert basis.dim == 96
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(scale=0.5, size=96)
        z = x + rng.normal(size=96)
        _, coeffs = d_membership(basis, x, z)
        assert np.array_equal(coeffs, np.linalg.inv(basis.matrix()) @ (z - x))


# sha256 of the `burgers` basis's float inverse and of the coefficients
# of 20 seeded queries
BURGERS_COEFFICIENT_DIGESTS = """
import hashlib
import numpy as np
from conecert.closure import choose_basis, compute_C, d_membership
from conecert.models import get_builtin

basis = choose_basis(compute_C(get_builtin("burgers"), max_rounds=3, combo_budget=0))
rng = np.random.default_rng(1)
coeffs = [d_membership(basis, x, x + rng.normal(size=96))[1]
          for x in rng.normal(scale=0.5, size=(20, 96))]
print(hashlib.sha256(basis._inverse.tobytes()).hexdigest(),
      hashlib.sha256(np.stack(coeffs).tobytes()).hexdigest())
"""


def test_burgers_coefficients_ignore_blas_threads():
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", BURGERS_COEFFICIENT_DIGESTS],
                              capture_output=True, text=True, check=True, timeout=120, env=env)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests


def test_basis_is_inverted_once_and_never_solved(bhw_model, monkeypatch):
    basis = choose_basis(compute_C(bhw_model))
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: pytest.fail("np.linalg.solve called"))
    rng = np.random.default_rng(0)
    for x, z in rng.normal(size=(100, 2, 2)):
        d_membership(basis, x, z)
    assert len(calls) == 1
    assert not basis._inverse.flags.writeable


@pytest.mark.parametrize("name", ["bhw", "langevin"])
@pytest.mark.parametrize("bad", [0.0, [0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], [[0.0], [0.0]]])
def test_membership_refuses_endpoints_of_the_wrong_shape(name, bad):
    # bhw has a one-sided direction; langevin's are all two-sided
    basis = choose_basis(compute_C(get_builtin(name)))
    good = [1.0, 5.0]
    for x, z in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="shape"):
            d_membership(basis, x, z)


def test_membership_loads_no_scipy():
    # a one-sided coefficient of 1e-10 against |z - x| = 1, in a fresh
    # interpreter: the exact decision needs no float error analysis
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {SRC!r})
        from conecert.closure import choose_basis, compute_C, d_membership
        from conecert.models import get_builtin
        basis = choose_basis(compute_C(get_builtin("bhw")))
        assert d_membership(basis, [0.0, 0.0], [1e-10, 1.0])[0]
        print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.strip() == ""


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


@st.composite
def rational_bases(draw):
    """d <= 6 rational vectors; in half the draws one vector is a rational
    multiple of another, so singular bases come up often."""
    d = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    if d > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(d)))[:2]
        c = draw(entry)
        vectors[a] = [c * e for e in vectors[b]]
    return vectors


@given(rational_bases())
@settings(max_examples=200, deadline=None)
def test_exact_rows_are_the_one_sided_rows_of_the_inverse(vectors):
    d = len(vectors)
    singular = _det(vectors) == 0
    for k in range(d + 1):
        basis = PositivityBasis(vectors=[tuple(v) for v in vectors], k=k)
        if singular:
            with pytest.raises(SingularBasisError):
                basis._exact_rows
            with pytest.raises(SingularBasisError):
                d_membership(basis, np.zeros(d), np.ones(d))
            continue
        rows = basis._exact_rows
        assert len(rows) == d - k
        for i, row in enumerate(rows, start=k):
            assert all(c != 0 for _, c in row)
            for m, b in enumerate(vectors):
                assert sum(c * b[j] for j, c in row) == (i == m)


def _exact_inverse(vectors):
    # Gauss-Jordan over Q on [B | I]; the matrix's columns are the vectors
    n = len(vectors)
    rows = [[v[i] for v in vectors] + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = [e / rows[col][col] for e in rows[col]]
        rows[col] = p
        support = [j for j, e in enumerate(p) if e]
        for r, row in enumerate(rows):
            f = row[col]
            if r != col and f:
                for j in support:
                    row[j] -= f * p[j]
    return [row[n:] for row in rows]


def assert_coefficients_within_first_order_bound(basis, x, z, exact):
    """|c - c_exact|_inf <= 4 n eps kappa_inf(B) |B^-1|_inf |z - x|_inf:
    B rounded to floats and inverted by LU moves B^-1 by a relative
    O(n eps kappa), and the product with the rounded difference adds
    O(n eps |B^-1| |z - x|), which kappa >= 1 covers."""
    n = basis.dim
    norm = max(sum(abs(v[i]) for v in basis.vectors) for i in range(n))
    norm_inv = max(sum(map(abs, row)) for row in _exact_inverse(basis.vectors))
    rhs = max(abs(F(b) - F(a)) for a, b in zip(x, z))
    bound = 4 * n * F(np.finfo(float).eps) * norm * norm_inv * norm_inv * rhs
    _, coeffs = d_membership(basis, x, z)
    assert max(abs(F(c) - e) for c, e in zip(coeffs.tolist(), exact)) <= bound


@st.composite
def generic_queries(draw):
    vectors = draw(rational_bases().filter(lambda vs: _det(vs) != 0))
    d = len(vectors)
    point = st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)
    k = draw(st.integers(0, d))
    return (PositivityBasis(vectors=[tuple(v) for v in vectors], k=k),
            np.array(draw(point)), np.array(draw(point)))


@given(st.one_of(near_boundary_queries(), generic_queries()))
@settings(max_examples=200, deadline=None)
# exact coefficients (0, 1e-16): the error bound is absolute, not relative
@example((PositivityBasis([(F(3), F(1)), (F(1), F(0))], 0), np.zeros(2), np.array([1e-16, 0.0])))
def test_membership_coefficients_match_rational_oracle(query):
    basis, x, z = query
    exact = _exact_coefficients(basis.vectors, [F(b) - F(a) for a, b in zip(x, z)])
    assert_coefficients_within_first_order_bound(basis, x, z, exact)


def test_membership_coefficients_match_rational_oracle_at_d96():
    basis = choose_basis(compute_C(get_builtin("burgers"), max_rounds=3, combo_budget=0))
    inverse = _exact_inverse(basis.vectors)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(scale=0.5, size=96)
        z = x + rng.normal(size=96)
        rhs = [F(b) - F(a) for a, b in zip(x.tolist(), z.tolist())]
        exact = [sum(e * r for e, r in zip(row, rhs) if e) for row in inverse]
        assert_coefficients_within_first_order_bound(basis, x, z, exact)


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


def _magnitude(V: PolyVectorField) -> PolyVectorField:
    """V with every coefficient replaced by its absolute value."""
    return PolyVectorField(V.dim, tuple(
        poly_from_json([{**term, "coeff": str(abs(Fraction(term["coeff"])))}
                        for term in poly_to_json(p)], V.dim) for p in V.components))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    vector_fields(d), constant_vectors(d),
    st.lists(st.floats(-2, 2), min_size=d, max_size=d))))
def test_bracket_with_constant_is_minus_jacobian_product(case):
    # [X0, X_j] = -DX0 X_j for constant X_j, so the rank checks read the
    # brackets off the drift's Jacobian kernel
    drift, v, p = case
    X = np.array([float(c) for c in v])
    exact = compile_field(lie_bracket(drift, PolyVectorField.from_constant(v)))(np.array(p))
    via_jacobian = -(compile_jacobian(drift)(np.array(p)) @ X)
    # every term of either sum is at most this large
    size = compile_jacobian(_magnitude(drift))(np.abs(p)) @ np.abs(X)
    assert np.all(np.abs(exact - via_jacobian) <= 1e-12 * (1 + size))


def _exact_bracket_rank(model, P):
    """The rank bracket_rank computes, from the exact brackets [X0, X_j]."""
    A = np.hstack([model.noise_matrix()] + [
        compile_field(lie_bracket(model.drift, X))(P).T for X in model.noise_fields()])
    if not A.any():
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0]))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_bracket_rank_matches_exact_brackets(name):
    model = get_builtin(name)
    rng = np.random.default_rng(7)
    for count, scale in ((1, 1.0), (3, 0.5), (5, 2.0), (2, 0.0)):
        P = rng.normal(scale=scale, size=(count, model.d))
        assert bracket_rank(model, P) == _exact_bracket_rank(model, P)


def test_bracket_rank_of_non_finite_family_is_zero(bhw_model):
    # inf * 0 in -DX0 X_j would be NaN, on which the SVD fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for P in ([[np.inf, 0.0]], [[1e308, 1e308]], [[0.5, 1.0], [np.nan, 0.0]]):
            assert bracket_rank(bhw_model, P) == 0
        assert not twist_rank_check(bhw_model, [np.array([1e300, -1e300])])


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
