"""The straight-line RK4 step of a small drift against the array step:
the same states, Gramian and sensitivities bit for bit, and divergence
at the same time."""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import vector_fields
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import reach
from conecert.models import BUILTINS, ModelSpec, get_builtin
from conecert.polyfield import (
    Polynomial,
    PolyVectorField,
    _kernel,
    _straight_line_rk4,
    compile_field,
    compile_rk4_step,
)
from conecert.reach import ControlPath, FlowDivergenceError

F = Fraction
SMALL_BUILTINS = sorted(n for n in BUILTINS if get_builtin(n).d <= 4)


@contextmanager
def step_kind(kind):
    """Force the flows' step: "straight" builds the straight-line step of
    any drift, "array" gives every drift the array step."""
    choose = {"straight": lambda V: _straight_line_rk4(_kernel(V).field),
              "array": lambda V: None}[kind]
    with mock.patch.object(reach, "compile_rk4_step", choose):
        yield


def flow_bytes(model, x, control, n_steps, carry):
    """Bytes of one pass's times, states and carried matrix, or the time
    its divergence was reported at."""
    try:
        flow = reach._integrate_once(model, x, control, n_steps, carry)
    except FlowDivergenceError as exc:
        return ("diverged", exc.time)
    Y = flow.M if flow.M is not None else flow.S
    return (flow.times.tobytes(), flow.states.tobytes(), None if Y is None else Y.tobytes())


def assert_same_both_ways(model, x, control, n_steps, carries=(None, "gramian", "sensitivity")):
    for carry in carries:
        with step_kind("straight"):
            straight = flow_bytes(model, x, control, n_steps, carry)
        with step_kind("array"):
            array = flow_bytes(model, x, control, n_steps, carry)
        assert straight == array, carry


@pytest.mark.parametrize("name", SMALL_BUILTINS)
def test_builtin_flows_match_bit_for_bit(name):
    model = get_builtin(name)
    assert compile_rk4_step(model.drift) is not None
    rng = np.random.default_rng(11)
    x = 0.5 * rng.normal(size=model.d)
    control = ControlPath.uniform(1.0, rng.normal(size=(5, model.r)))
    assert_same_both_ways(model, x, control, 600)


def test_burgers_takes_the_array_step():
    assert compile_rk4_step(get_builtin("burgers").drift) is None


@st.composite
def small_models(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    drift = draw(vector_fields(d))
    r = draw(st.integers(min_value=0, max_value=d))
    noise = [[F(int(i == j)) for i in range(d)] for j in range(r)]
    return ModelSpec(name="random", d=d, drift=drift, noise=tuple(map(tuple, noise)))


@settings(max_examples=60, deadline=None)
@given(model=small_models(), seed=st.integers(min_value=0, max_value=2**16))
def test_random_drift_flows_match_bit_for_bit(model, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=model.d)
    control = ControlPath.uniform(0.7, rng.normal(size=(3, model.r)))
    assert_same_both_ways(model, x, control, 40)


def test_signed_zeros_match_without_noise():
    # r = 0, zero forcing: a drift -x1 + x0 x1 at a signed-zero state has
    # -0.0 terms, and the array step's sum of them is +0.0
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    drift = PolyVectorField(2, (Polynomial.zero(2) - x1 + x0 * x1, (x0 * x0).scale(-3)))
    model = ModelSpec(name="silent", d=2, drift=drift, noise=())
    control = ControlPath.zero(1.0, 0)
    for x in ([0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.25, -0.5]):
        assert_same_both_ways(model, np.array(x), control, 50)
    with step_kind("straight"):
        flow = reach._integrate_once(model, np.array([-0.0, -0.0]), control, 10)
    assert not np.signbit(flow.states[1:]).any()
    # the kernel's own zeros are +0.0, as the vector-matrix product's are:
    # -1 * 0.0 is -0.0
    minus_x = PolyVectorField(1, (Polynomial.variable(1, 0).scale(-1),))
    assert not np.signbit(compile_field(minus_x)(np.array([0.0]))).any()


def cubic_blowup_2d():
    """dx0 = 3 x0^3 + x1/3, dx1 = -x0 x1 / 3 + dW: overflows before t = 1
    from x0 = 2."""
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    drift = PolyVectorField(2, ((x0 * x0 * x0).scale(3) + x1.scale(F(1, 3)),
                                (x0 * x1).scale(F(-1, 3))))
    return ModelSpec(name="blowup2", d=2, drift=drift, noise=((F(0), F(1)),))


@pytest.mark.parametrize("model", [
    ModelSpec(name="blowup", d=1, drift=PolyVectorField(1, (Polynomial(1, {(2,): F(1)}),)),
              noise=((F(1),),)),
    cubic_blowup_2d(),
], ids=["x_squared", "cubic_2d"])
def test_divergence_is_raised_at_the_same_time(model):
    x = np.full(model.d, 2.0)
    control = ControlPath.uniform(1.0, np.full((3, model.r), 0.5))
    for carry in (None, "gramian", "sensitivity"):
        times = []
        for kind in ("straight", "array"):
            with step_kind(kind), pytest.raises(FlowDivergenceError) as exc_info:
                reach._integrate_once(model, x, control, 4000, carry)
            times.append(exc_info.value.time)
        assert times[0] == times[1] and 0 < times[0] < 1
