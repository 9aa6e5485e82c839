"""The straight-line RK4 step of a small drift against the array step:
the same states, Gramian and sensitivities bit for bit, and divergence
at the same time."""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import vector_fields
from hypothesis import given, settings
from hypothesis import strategies as st

import conecert
from conecert import reach
from conecert.kernel import _kernel, _straight_line_rk4
from conecert.models import BUILTINS, ModelSpec, get_builtin
from conecert.polyfield import (
    Polynomial,
    PolyVectorField,
    compile_field,
    compile_rk4_step,
)
from conecert.reach import ControlPath, FlowDivergenceError

F = Fraction
SRC = str(Path(conecert.__file__).resolve().parents[1])
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


# sha256 of the states, then M or S, of one 8-step RK4 pass of `burgers`
# (d = 96, r = 16) under a seeded 2-piece control: the array step and the
# carried matrix's per-step products at d = 96
BURGERS_FLOW_DIGESTS = """
import hashlib, json
import numpy as np
from conecert.models import get_builtin
from conecert.reach import ControlPath, _integrate_once

model = get_builtin("burgers")
rng = np.random.default_rng(5)
x = 0.1 * rng.normal(size=model.d)
control = ControlPath.uniform(0.05, 0.5 * rng.normal(size=(2, model.r)))
out = {}
for carry in (None, "gramian", "sensitivity"):
    flow = _integrate_once(model, x, control, 8, carry)
    h = hashlib.sha256(flow.states.tobytes())
    for Y in (flow.M, flow.S):
        if Y is not None:
            h.update(Y.tobytes())
    out[str(carry)] = h.hexdigest()
print(json.dumps(out))
"""

BURGERS_FLOW_GOLDENS = {
    "None": "a1d11b21e3aa928d22f2dd140713f3e6d07dbb1c33f975ccfc527d251f98844d",
    "gramian": "77cc81fabcf7a364fb841eb7d067afc265174c037e79b32c9f4d8edd1e4024fb",
    "sensitivity": "c3b558b5baa6beef54efea5c0206b8e9dbbb5c46b50c8a790f2f09a1de32919b",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_burgers_flow_goldens(threads):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", BURGERS_FLOW_DIGESTS], capture_output=True,
                          text=True, check=True, timeout=120, env=env)
    assert json.loads(proc.stdout) == BURGERS_FLOW_GOLDENS


# sha256 of the `burgers` Jacobian at a seeded batch and at its first point
BURGERS_JACOBIAN_DIGEST = """
import hashlib
import numpy as np
from conecert.models import get_builtin
from conecert.polyfield import compile_jacobian

jf = compile_jacobian(get_builtin("burgers").drift)
P = np.random.default_rng(6).normal(scale=0.5, size=(3, 4, 96))
print(hashlib.sha256(jf(P).tobytes() + jf(P[0, 0]).tobytes()).hexdigest())
"""


BURGERS_JACOBIAN_GOLDEN = "c14ce0b8027d5c7d538bab0901b0c93b0522ea10a99fae9b84a54dc9b9fc1493"


def test_burgers_jacobian_bits_ignore_blas_threads():
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", BURGERS_JACOBIAN_DIGEST],
                              capture_output=True, text=True, check=True, timeout=120, env=env)
        digests.add(proc.stdout.strip())
    assert digests == {BURGERS_JACOBIAN_GOLDEN}, digests


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
