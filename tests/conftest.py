from fractions import Fraction

import pytest
from hypothesis import strategies as st

from conecert.polyfield import Polynomial, PolyVectorField


def small_fractions():
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    )


@st.composite
def exponents(draw, dim: int, max_degree: int):
    """Exponent vectors of total degree <= max_degree, drawn without
    rejection: each entry is capped by the degree the earlier ones left,
    and the entries are then shuffled."""
    left, exps = max_degree, []
    for _ in range(dim):
        e = draw(st.integers(min_value=0, max_value=left))
        exps.append(e)
        left -= e
    return tuple(draw(st.permutations(exps)))


def polynomials(dim: int, max_degree: int = 3, max_terms: int = 4):
    term = st.tuples(exponents(dim, max_degree), small_fractions())
    return st.lists(term, max_size=max_terms).map(
        lambda terms: Polynomial(dim, dict(terms))
    )


def vector_fields(dim: int, max_degree: int = 3):
    return st.lists(
        polynomials(dim, max_degree), min_size=dim, max_size=dim
    ).map(lambda ps: PolyVectorField(dim, tuple(ps)))


def constant_vectors(dim: int):
    return st.lists(small_fractions(), min_size=dim, max_size=dim).map(
        lambda v: tuple(Fraction(c) for c in v)
    )


@pytest.fixture
def bhw_model():
    from conecert.models import bhw

    return bhw(0, 0, 1, 2, 1)


def cubic_blowup():
    """dx = 50 x^3 dt + dW: from x = 0.5 many paths overflow within t = 1."""
    from conecert.models import ModelSpec

    x = Polynomial.variable(1, 0)
    return ModelSpec(name="cubic", d=1, drift=PolyVectorField(1, ((x * x * x).scale(50),)),
                     noise=((Fraction(1),),))


def no_noise_model():
    """r = 0: dx0 = (x0 - x0^3 + x1/2) dt, dx1 = (x0^2 - x1) dt, with
    equilibria at the origin and at x1 = x0^2, x0^2 - x0/2 = 1."""
    from conecert.models import ModelSpec

    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    drift = PolyVectorField(2, (x0 - x0 * x0 * x0 + x1.scale(Fraction(1, 2)), x0 * x0 - x1))
    return ModelSpec(name="silent", d=2, drift=drift, noise=())


# dx = -x dt + dW, as model JSON, and payloads that must be rejected
GOOD_MODEL_JSON = {"name": "m", "d": 1, "drift": [[{"coeff": "-1/1", "exps": [1]}]],
                   "noise": [["1"]]}

MALFORMED_MODELS = {
    "not_an_object": 5,
    "name_not_a_string": {**GOOD_MODEL_JSON, "name": ["x"]},
    "d_string": {**GOOD_MODEL_JSON, "d": "x"},
    "d_zero": {**GOOD_MODEL_JSON, "d": 0, "drift": [], "noise": []},
    "d_fractional": {**GOOD_MODEL_JSON, "d": 1.7},
    "noise_not_a_list": {**GOOD_MODEL_JSON, "noise": 5},
    "noise_not_a_number": {**GOOD_MODEL_JSON, "noise": [["a"]]},
    "noise_div_zero": {**GOOD_MODEL_JSON, "noise": [["1/0"]]},
    "drift_div_zero": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "1/0", "exps": [1]}]]},
    "noise_overflows_float": {**GOOD_MODEL_JSON, "noise": [["1e400"]]},
    "drift_overflows_float": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "1e400", "exps": [1]}]]},
    "exponent_fractional": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "-1", "exps": [1.5]}]]},
    "exponent_bool": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "-1", "exps": [True]}]]},
    "exponent_string": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "-1", "exps": ["2"]}]]},
    "exponent_wrong_length": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "-1", "exps": [1, 0]}]]},
    "exponent_negative": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "-1", "exps": [-1]}]]},
    "degree_above_bound": {**GOOD_MODEL_JSON, "drift": [[{"coeff": "-1", "exps": [1001]}]]},
    "param_not_a_number": {**GOOD_MODEL_JSON, "params": {"a": "q"}},
    "ball_not_a_number": {**GOOD_MODEL_JSON, "default_ball_n": "x"},
}
