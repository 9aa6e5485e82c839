"""Controlled flow, the Gramian and control sensitivities it carries,
control synthesis, and the certificate pipeline."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import no_noise_model
from scipy.linalg import expm

from conecert import reach
from conecert.closure import BasisSelectionError, choose_basis, compute_C, d_membership
from conecert.equilibria import EquilibriumPoint
from conecert.models import ModelSpec, get_builtin, langevin
from conecert.polyfield import Polynomial, PolyVectorField, compile_field, compile_jacobian
from conecert.reach import (
    CertifyOptions,
    ControlPath,
    FlowDivergenceError,
    SynthesisError,
    _eps_reach,
    _norm,
    certify,
    gramian,
    gramian_threshold,
    integrate_flow,
    k_rank,
    synthesize_leg,
)

F = Fraction


def shear_model():
    """drift (0, x) with unit noise along e1: everything closed form."""
    return ModelSpec(
        name="shear",
        d=2,
        drift=PolyVectorField(2, (Polynomial.zero(2), Polynomial.variable(2, 0))),
        noise=((F(1), F(0)),),
    )


def linear_langevin():
    """gamma=1, F=0: drift (-x, x), linear, J(t) = expm(t A)."""
    return langevin(1, 1, [[1]], None)


def elliptic_model():
    return ModelSpec(
        name="bm2",
        d=2,
        drift=PolyVectorField.zero(2),
        noise=((F(1), F(0)), (F(0), F(1))),
    )


# -- ControlPath ------------------------------------------------------


def test_control_path_validation():
    with pytest.raises(ValueError):
        ControlPath(1.0, np.array([0.0, 0.5]), np.zeros((1, 1)))  # end != horizon
    with pytest.raises(ValueError):
        ControlPath(1.0, np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        ControlPath(1.0, np.array([0.0, 1.0]), np.array([[np.inf]]))


def test_control_path_concat_and_uniform():
    a = ControlPath.uniform(1.0, [[1.0], [2.0]])
    b = ControlPath.constant(0.5, [3.0])
    c = a.concat(b)
    assert c.horizon == pytest.approx(1.5)
    assert np.allclose(c.breakpoints, [0.0, 0.5, 1.0, 1.5])
    assert np.allclose(c.values, [[1.0], [2.0], [3.0]])
    assert ControlPath.zero(2.0, 3).values.shape == (1, 3)


# -- flow oracles -----------------------------------------------------


def test_flow_jacobian_shear_oracle():
    # drift (0, x), control along e1: the terminal state's derivative in
    # the value on piece [a, b] is (b - a, (b - a)(t - (a + b)/2)) exactly
    m = shear_model()
    control = ControlPath(1.0, np.array([0.0, 0.25, 0.6, 1.0]), [[1.0], [-2.0], [0.5]])
    S = reach._integrate_once(m, np.array([0.3, -0.1]), control, 40, "sensitivity").S
    a, b = control.breakpoints[:-1], control.breakpoints[1:]
    assert np.allclose(S, [b - a, (b - a) * (1.0 - 0.5 * (a + b))], atol=1e-12)


def test_flow_matches_matrix_exponential():
    m = linear_langevin()
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    x0 = np.array([0.7, -0.3])
    flow = integrate_flow(m, x0, ControlPath.zero(1.0, 1), n_steps=2000)
    assert np.allclose(flow.terminal, expm(A) @ x0, atol=1e-7)


@pytest.mark.parametrize("name", ["bhw", "langevin2d"])
def test_flow_states_independent_of_gramian(name):
    # the carried matrix never feeds back into the state arithmetic
    m = get_builtin(name)
    rng = np.random.default_rng(4)
    control = ControlPath.uniform(0.9, rng.normal(scale=0.5, size=(3, m.r)))
    x0 = rng.normal(scale=0.4, size=m.d)
    with_m = integrate_flow(m, x0, control, n_steps=300, with_jacobian=True)
    without = integrate_flow(m, x0, control, n_steps=300, with_jacobian=False)
    assert np.array_equal(with_m.states, without.states)
    assert np.array_equal(with_m.times, without.times)
    assert with_m.M is not None and without.M is None


def test_flow_constant_control_forcing():
    # zero drift: constant control integrates linearly
    m = elliptic_model()
    flow = integrate_flow(m, np.zeros(2), ControlPath.constant(2.0, [1.0, -0.5]))
    assert np.allclose(flow.terminal, [2.0, -1.0], atol=1e-12)


def test_flow_divergence_detected():
    # dx = x^2 from x=2 blows up at t = 1/2
    m = ModelSpec(
        name="blowup",
        d=1,
        drift=PolyVectorField(1, (Polynomial(1, {(2,): F(1)}),)),
        noise=((F(1),),),
    )
    with pytest.raises(FlowDivergenceError) as exc_info:
        integrate_flow(m, np.array([2.0]), ControlPath.zero(1.0, 1), n_steps=4000)
    assert 0 < exc_info.value.time <= 1.0


def test_flow_divergence_in_carried_matrix_detected():
    # over t = 1e6 langevin's state stays finite at zero control, but its
    # control sensitivities overflow
    m = get_builtin("langevin")
    control = ControlPath.uniform(1e6, np.zeros((2, 1)))
    assert np.all(np.isfinite(integrate_flow(m, [0.0, 0.0], control, n_steps=600,
                                             with_jacobian=False).terminal))
    with pytest.raises(FlowDivergenceError, match="non-finite state or matrix"):
        reach._integrate_once(m, np.zeros(2), control, 600, "sensitivity")


def test_refine_halves_until_converged(monkeypatch):
    m = linear_langevin()
    x0 = np.array([1.0, 0.0])
    coarse = integrate_flow(m, x0, ControlPath.zero(1.0, 1), n_steps=8)
    monkeypatch.setattr(reach, "_REFINE_TOL", 1e-10)
    fine = integrate_flow(m, x0, ControlPath.zero(1.0, 1), n_steps=8, refine=True)
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    exact = expm(A) @ x0
    assert np.linalg.norm(fine.terminal - exact) < np.linalg.norm(
        coarse.terminal - exact
    )
    assert np.allclose(fine.terminal, exact, atol=1e-9)


# -- the blocked carried matrices against a stage-by-stage reference ---


def stage_by_stage(model, x, control, n_steps, carry):
    """Reference for `_integrate_once`'s carried matrix: the state and Y
    advanced together one RK4 step at a time, the stage algebra of
    dY/ds = A Y (+ Y A^T) + G_p applied to Y itself, with G_p = B B^T
    for the Gramian and B in piece p's columns for the sensitivities."""
    d, B = model.d, model.noise_matrix()
    f, Jf = compile_field(model.drift), compile_jacobian(model.drift)
    n_pieces, r = control.values.shape
    lyapunov = carry == "gramian"
    if lyapunov:
        Y = np.zeros((d, d))
        drives = [B @ B.T] * n_pieces
    else:
        Y = np.zeros((d, n_pieces * r))
        drives = [np.zeros_like(Y) for _ in range(n_pieces)]
        for p, G in enumerate(drives):
            G[:, p * r : (p + 1) * r] = B
    state = np.array(x, dtype=float)
    states = [state]
    for (s0, s1), u, n_sub, G in zip(
        zip(control.breakpoints[:-1], control.breakpoints[1:]),
        control.values, reach._steps_per_interval(control, n_steps), drives,
    ):
        h = (s1 - s0) / n_sub
        forcing = B @ u
        for _ in range(n_sub):
            k1 = f(state) + forcing
            x2 = state + 0.5 * h * k1
            k2 = f(x2) + forcing
            x3 = state + 0.5 * h * k2
            k3 = f(x3) + forcing
            x4 = state + h * k3
            k4 = f(x4) + forcing
            A1, A2, A3, A4 = Jf(np.stack([state, x2, x3, x4]))

            def rhs(A, Ys):
                K = A @ Ys
                return (K + K.T if lyapunov else K) + G

            K1 = rhs(A1, Y)
            K2 = rhs(A2, Y + 0.5 * h * K1)
            K3 = rhs(A3, Y + 0.5 * h * K2)
            K4 = rhs(A4, Y + h * K3)
            Y = Y + (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(state)
    return np.array(states), Y


def carried(flow):
    return flow.M if flow.M is not None else flow.S


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_flow(name, pieces, horizon=1.0, seed=8):
    m = get_builtin(name)
    rng = np.random.default_rng(seed)
    control = ControlPath.uniform(horizon, rng.normal(scale=0.5, size=(pieces, m.r)))
    return m, rng.normal(scale=0.4, size=m.d), control


@pytest.mark.parametrize("carry", ["gramian", "sensitivity"])
@pytest.mark.parametrize("name", ["langevin", "langevin2d", "bhw"])
def test_carried_matrix_matches_stage_by_stage(name, carry):
    # langevin2d's 600 steps span two blocks
    m, x0, control = random_flow(name, pieces=5)
    flow = reach._integrate_once(m, x0, control, 600, carry)
    states, Y = stage_by_stage(m, x0, control, 600, carry)
    assert np.array_equal(flow.states, states)
    assert rel_diff(carried(flow), Y) <= 1e-10


def test_burgers_carried_matrices_match_stage_by_stage():
    # d = 96 takes one step a block
    m, x0, control = random_flow("burgers", pieces=2, horizon=0.05)
    flow = reach._integrate_once(m, x0, control, 8, "sensitivity")
    states, S = stage_by_stage(m, x0, control, 8, "sensitivity")
    assert np.array_equal(flow.states, states)
    assert rel_diff(flow.S, S) <= 1e-10
    # M <- Phi M Phi^T + C and RK4 of the Lyapunov equation are two fourth
    # order schemes: at 8 steps of burgers' stiff modes they differ by
    # 3e-8, less than either one's own error (5e-8 and 8e-8 against 1024
    # steps), and the difference shrinks like h^4
    diffs = [rel_diff(reach._integrate_once(m, x0, control, n, "gramian").M,
                      stage_by_stage(m, x0, control, n, "gramian")[1]) for n in (8, 16)]
    assert diffs[0] <= 1e-7 and diffs[1] <= diffs[0] / 12


@pytest.mark.parametrize("carry", ["gramian", "sensitivity"])
def test_blocks_do_not_change_the_carried_matrix(monkeypatch, carry):
    m, x0, control = random_flow("langevin2d", pieces=5)
    default = reach._integrate_once(m, x0, control, 600, carry)
    assert reach._block_steps(m.d) < len(default.times) - 1
    for steps in (7, 10_000):  # blocks that split a piece; one block for the flow
        monkeypatch.setattr(reach, "_BLOCK_BYTES", steps * 4 * m.d * m.d * 8)
        flow = reach._integrate_once(m, x0, control, 600, carry)
        assert np.array_equal(flow.states, default.states)
        assert rel_diff(carried(flow), carried(default)) <= 1e-14


def peak_beyond_result(run):
    """tracemalloc peak of run() less the arrays its FlowResult holds."""
    tracemalloc.start()
    try:
        flow = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - flow.states.nbytes - flow.times.nbytes - carried(flow).nbytes


def test_gramian_memory_does_not_grow_with_steps():
    m = get_builtin("langevin2d")
    control = ControlPath.uniform(1.0, np.full((2, m.r), 0.3))
    reach._integrate_once(m, np.zeros(m.d), control, 8, "gramian")  # kernels built
    short, long = (
        peak_beyond_result(lambda: reach._integrate_once(m, np.zeros(m.d), control, n, "gramian"))
        for n in (1000, 16000)
    )
    assert long <= short + 16 * 1024


def test_sensitivity_memory_does_not_grow_as_pieces_squared():
    m = get_builtin("langevin2d")
    x0 = np.zeros(m.d)
    reach._integrate_once(m, x0, ControlPath.zero(1.0, m.r), 8, "sensitivity")
    extra = {}
    for pieces in (4, 64):
        control = ControlPath.uniform(1.0, np.full((pieces, m.r), 0.3))
        extra[pieces] = peak_beyond_result(
            lambda: reach._integrate_once(m, x0, control, 128, "sensitivity"))
    # a few d x (pieces * r) copies of S, not one per piece
    assert extra[64] - extra[4] <= 4 * m.d * 64 * m.r * 8


@pytest.mark.parametrize("carry", ["gramian", "sensitivity"])
def test_one_jacobian_call_per_block(monkeypatch, carry):
    points = []
    compile_table = reach.compile_jacobian

    def counting(V):
        jac = compile_table(V)
        return lambda x: points.append(len(x)) or jac(x)

    monkeypatch.setattr(reach, "compile_jacobian", counting)
    m = get_builtin("langevin2d")
    control = ControlPath.uniform(1.0, np.full((3, m.r), 0.3))
    flow = reach._integrate_once(m, np.zeros(m.d), control, 2000, carry)
    steps = len(flow.times) - 1
    assert len(points) <= math.ceil(steps / reach._block_steps(m.d))
    assert sum(points) == steps  # each step's four stages evaluated once


def test_carry_free_pass_compiles_no_jacobian(monkeypatch):
    def refuse(V):
        raise AssertionError("a carry-free pass compiled the drift's Jacobian")

    monkeypatch.setattr(reach, "compile_jacobian", refuse)
    m = get_builtin("langevin2d")
    control = ControlPath.uniform(1.0, np.full((3, m.r), 0.3))
    flow = reach._integrate_once(m, np.zeros(m.d), control, 200)
    assert flow.M is None and flow.S is None


# -- Gramian ----------------------------------------------------------


def test_gramian_shear_oracle():
    # M = [[t, t^2/2], [t^2/2, t^3/3]] for drift (0,x), X1 = e1, at t=1
    m = shear_model()
    flow = integrate_flow(m, np.zeros(2), ControlPath.zero(1.0, 1))
    M, sigma_min = gramian(flow, m)
    assert np.allclose(M, [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-7)
    assert np.linalg.det(M) == pytest.approx(1.0 / 12.0, abs=1e-7)
    assert sigma_min > gramian_threshold(M)


def test_gramian_van_loan_oracle_ill_conditioned():
    # drift diag(-10, 10) x: cond(J_{0,1}) = e^20 > 1e8.  Closed form by
    # Van Loan's method: expm([[-A, B B^T], [0, A^T]] t) = [[., F12], [0, F22]]
    # gives M_t = F22^T F12.
    m = ModelSpec(
        name="saddle",
        d=2,
        drift=PolyVectorField(
            2, (Polynomial(2, {(1, 0): F(-10)}), Polynomial(2, {(0, 1): F(10)}))
        ),
        noise=((F(1), F(1)),),
    )
    A = np.diag([-10.0, 10.0])
    BBt = np.ones((2, 2))
    assert np.linalg.cond(expm(A)) > 1e8
    E = expm(np.block([[-A, BBt], [np.zeros((2, 2)), A.T]]))
    exact = E[2:, 2:].T @ E[:2, 2:]
    flow = integrate_flow(m, np.array([0.2, -0.1]), ControlPath.zero(1.0, 1))
    M, sigma_min = gramian(flow, m)
    assert np.allclose(M, exact, rtol=1e-7, atol=0)
    assert sigma_min == pytest.approx(np.linalg.svd(exact, compute_uv=False)[-1], rel=1e-7)


def test_gramian_symmetric_psd_random_flows():
    rng = np.random.default_rng(5)
    for name in ["langevin", "bhw"]:
        m = get_builtin(name)
        for _ in range(5):
            control = ControlPath.uniform(
                0.8, rng.normal(scale=0.5, size=(3, m.r))
            )
            x0 = rng.normal(scale=0.5, size=m.d)
            flow = integrate_flow(m, x0, control, n_steps=400)
            M, sigma_min = gramian(flow, m)
            assert np.allclose(M, M.T)
            eigs = np.linalg.eigvalsh(M)
            assert eigs[0] >= -1e-10
            assert sigma_min == pytest.approx(
                np.linalg.svd(M, compute_uv=False)[-1]
            )


def test_gramian_no_noise_is_zero():
    m = ModelSpec(
        name="silent", d=1,
        drift=PolyVectorField(1, (Polynomial.variable(1, 0),)),
        noise=(),
    )
    flow = integrate_flow(m, np.array([0.1]), ControlPath.zero(1.0, 0))
    M, sigma_min = gramian(flow, m)
    assert M.shape == (1, 1) and M[0, 0] == 0.0 and sigma_min == 0.0


# sha256 of the states, then M, of a 200-step r = 0 flow
NO_NOISE_FLOW_SHA256 = "ccc6c0f94684efbecc619a508f3f4b01c1d12efb7ff7cdd92e622a07a1555459"


def test_no_noise_flow_and_gramian_pinned():
    # r = 0 is plain empty-matrix algebra: the forcing B u is +0.0 and the
    # carried M exactly zero, as B B^T is
    m = no_noise_model()
    flow = integrate_flow(m, [0.3, -0.2], ControlPath.zero(1.0, 0), n_steps=200)
    digest = hashlib.sha256(flow.states.tobytes() + flow.M.tobytes()).hexdigest()
    assert digest == NO_NOISE_FLOW_SHA256
    M, sigma_min = gramian(flow, m)
    assert M.tobytes() == np.zeros((2, 2)).tobytes()  # +0.0 throughout
    assert sigma_min == 0.0 and not np.signbit(sigma_min)


def test_no_noise_gramian_needs_the_carried_matrix():
    # as for r > 0: a flow integrated without M has no Gramian to give
    m = no_noise_model()
    flow = integrate_flow(m, [0.3, -0.2], ControlPath.zero(1.0, 0), n_steps=20,
                          with_jacobian=False)
    with pytest.raises(ValueError, match="without its Gramian"):
        gramian(flow, m)


# -- k_rank -----------------------------------------------------------


def test_k_rank_shear_full():
    m = shear_model()
    flow = integrate_flow(m, np.zeros(2), ControlPath.zero(1.0, 1))
    assert k_rank(flow, m) == 2


def test_k_rank_no_noise_zero():
    m = ModelSpec(
        name="silent", d=1,
        drift=PolyVectorField(1, (Polynomial.variable(1, 0),)),
        noise=(),
    )
    flow = integrate_flow(m, np.array([0.1]), ControlPath.zero(1.0, 0))
    assert k_rank(flow, m) == 0


def test_k_rank_consistency_with_gramian():
    # full bracket rank along the flow forces an invertible Gramian
    rng = np.random.default_rng(11)
    violations = 0
    for name in ["langevin", "langevin2d", "bhw"]:
        m = get_builtin(name)
        for _ in range(5):
            control = ControlPath.uniform(
                1.0, rng.normal(scale=0.4, size=(2, m.r))
            )
            x0 = rng.normal(scale=0.5, size=m.d)
            flow = integrate_flow(m, x0, control, n_steps=400)
            M, sigma_min = gramian(flow, m)
            if k_rank(flow, m) == m.d and sigma_min <= gramian_threshold(M):
                violations += 1
    assert violations == 0


# -- synthesis --------------------------------------------------------


def test_synthesis_elliptic_shortcut_exact():
    m = elliptic_model()
    control, _ = synthesize_leg(m, [0.0, 0.0], [1.0, -2.0], 1.0)
    flow = integrate_flow(m, np.zeros(2), control, with_jacobian=False)
    assert np.allclose(flow.terminal, [1.0, -2.0], atol=1e-12)


def test_synthesis_elliptic_far_target_within_eps_reach():
    # zero drift and full-rank noise take the general least-squares path
    m = elliptic_model()
    to = np.array([1e6, 1e6])
    control, terminal = synthesize_leg(m, [0.0, 0.0], to, 1.0)
    assert np.linalg.norm(terminal - to) <= _eps_reach(to)
    flow = integrate_flow(m, np.zeros(2), control, n_steps=600, with_jacobian=False)
    assert np.linalg.norm(flow.terminal - to) <= _eps_reach(to)


def test_synthesis_langevin_leg():
    m = get_builtin("langevin")
    control, _ = synthesize_leg(m, [0.0, 0.0], [1.0, 0.0], 1.0, seed=0)
    flow = integrate_flow(m, np.zeros(2), control, n_steps=2000, with_jacobian=False)
    assert np.linalg.norm(flow.terminal - [1.0, 0.0]) < 1e-5 * 2.0


@pytest.mark.parametrize("m", [get_builtin("langevin"), elliptic_model()],
                         ids=["langevin", "elliptic"])
def test_synthesis_terminal_is_the_n_step_flow(m):
    # the returned terminal is where certify starts the next leg: the
    # carry-free n_steps flow of the returned control, bit for bit
    control, terminal = synthesize_leg(m, [0.0, 0.0], [1.0, 0.0], 1.0, n_steps=300)
    flow = integrate_flow(m, [0.0, 0.0], control, n_steps=300, with_jacobian=False)
    assert np.array_equal(terminal, flow.terminal)


def test_synthesis_variational_gradient_matches_fd():
    m = get_builtin("bhw")
    pieces, r = 3, m.r
    u = np.array([0.4, -0.2, 0.7])
    x0 = np.array([0.1, 0.2])

    def terminal(uflat):
        c = ControlPath.uniform(0.8, uflat.reshape(pieces, r))
        return reach._integrate_once(m, x0, c, 600, "sensitivity").terminal

    J = reach._integrate_once(m, x0, ControlPath.uniform(0.8, u.reshape(pieces, r)), 600,
                              "sensitivity").S
    h = 1e-6
    for p in range(pieces):
        e = np.zeros(pieces * r)
        e[p] = h
        fd = (terminal(u + e) - terminal(u - e)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(J[:, p] - fd) / denom < 1e-4


def record_carries(monkeypatch):
    """The carry of every RK4 pass `reach` runs from here on, in order."""
    carries = []
    original = reach._integrate_once

    def counting(model, x, control, n_steps, carry=None):
        carries.append(carry)
        return original(model, x, control, n_steps, carry)

    monkeypatch.setattr(reach, "_integrate_once", counting)
    return carries


def random_linear_model(d, r, rng):
    """drift A x and constant noise B, small rational entries: the
    terminal map of a leg is affine in its control values."""
    A = [[F(int(a), 4) for a in row] for row in rng.integers(-4, 5, size=(d, d))]
    drift = PolyVectorField(d, tuple(
        Polynomial(d, {tuple(int(i == j) for i in range(d)): A[k][j] for j in range(d)})
        for k in range(d)))
    noise = tuple(tuple(F(int(b), 2) for b in col) for col in rng.integers(-2, 3, size=(r, d)))
    return ModelSpec(name="linear", d=d, drift=drift, noise=noise)


def integer_linear_model(A):
    """drift A x for an integer matrix A, noise e_d."""
    d = len(A)
    drift = PolyVectorField(d, tuple(
        Polynomial(d, {tuple(int(i == j) for i in range(d)): F(int(a)) for j, a in enumerate(row)})
        for row in A))
    return ModelSpec(name="linear", d=d, drift=drift,
                     noise=(tuple(F(int(i == d - 1)) for i in range(d)),))


def test_controllable_linear_models_are_certified_or_refused_at_synthesis():
    # integer A in [-2, 2], b = e_d, 10 controllable pairs at each d = 2..5.
    # From d = 3 the depth-1 family [b, A b] has rank 2 < d at every point,
    # yet a controllable pair's Gramian is invertible along any control
    rng = np.random.default_rng(7)
    outcomes = []
    for d in range(2, 6):
        pairs = 0
        while pairs < 10:
            A = rng.integers(-2, 3, size=(d, d))
            kalman = np.column_stack([np.linalg.matrix_power(A, k)[:, -1] for k in range(d)])
            if np.linalg.matrix_rank(kalman) < d:
                continue
            pairs += 1
            m = integer_linear_model(A)
            cert = certify(m, choose_basis(compute_C(m)), np.zeros(d), rng.normal(size=d), 1.0,
                           CertifyOptions(pieces=4, n_steps=200))
            outcomes.append((d, cert.verdict, cert.stage))
    assert {o[1:] for o in outcomes} <= {("positive", None), ("inconclusive", "synthesis")}
    assert [o for o in outcomes if o[2] == "synthesis"] == [(4, "inconclusive", "synthesis")]
    # an uncontrollable pair is still refused: x1 decays on its own, and
    # the noise e_2 never reaches it
    with pytest.raises(BasisSelectionError):
        choose_basis(compute_C(integer_linear_model([[-1, 0], [0, 1]])))


@pytest.mark.parametrize("seed", range(6))
def test_synthesis_matches_the_ridge_minimiser_of_a_linear_model(seed):
    # Phi(u) = Phi(0) + S u exactly, so the minimiser of
    # |Phi(u) - to|^2 + ridge^2 |u|^2 is one linear least-squares solve
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    m = random_linear_model(d, int(rng.integers(1, d + 1)), rng)
    frm, to = rng.normal(size=d), rng.normal(size=d)
    pieces, n_steps, ridge = 4, 200, 1e-6
    control, _ = synthesize_leg(m, frm, to, 1.0, pieces=pieces, n_steps=n_steps)
    flow = reach._integrate_once(m, frm, ControlPath.uniform(1.0, np.zeros((pieces, m.r))),
                                 n_steps, "sensitivity")
    n = pieces * m.r
    expected = np.linalg.lstsq(np.vstack([flow.S, ridge * np.eye(n)]),
                               np.concatenate([to - flow.terminal, np.zeros(n)]),
                               rcond=None)[0]
    assert rel_diff(control.values.ravel(), expected) < 1e-9


# (model, x, z, via) -> sensitivity flows of a certificate at pieces 4,
# 200 steps, as least_squares(method="trf") took them
CERTIFY_FLOWS = [
    ("langevin", [0.0, 0.0], [1.0, 0.0], False, 6),
    ("bhw", [0.0, 0.0], [1.0, 0.5], False, 20),
    ("bhw", [0.0, 0.0], [2.0, 1.0], True, 16),
]


@pytest.mark.parametrize("name,x,z,via,flows", CERTIFY_FLOWS)
def test_synthesis_takes_no_more_flows_than_trf(monkeypatch, name, x, z, via, flows):
    carries = record_carries(monkeypatch)
    m = get_builtin(name)
    cert = certify(m, choose_basis(compute_C(m)), x, z, 1.0,
                   CertifyOptions(seed=0, n_steps=200, pieces=4, via_equilibrium=via))
    assert cert.verdict == "positive"
    assert 0 < carries.count("sensitivity") <= flows


def test_certify_tiny_horizon_inconclusive_at_synthesis():
    # at t = 1e-300 the least-squares solver's own arithmetic overflows;
    # the leg is refused on its terminal error, with no RuntimeWarning
    m = get_builtin("langevin")
    cert = certify(m, choose_basis(compute_C(m)), [0.0, 0.0], [1.0, 0.0], 1e-300,
                   CertifyOptions(seed=0, n_steps=200, pieces=4))
    assert (cert.verdict, cert.stage) == ("inconclusive", "synthesis")


def test_synthesis_requires_control_directions():
    m = ModelSpec(
        name="silent", d=1,
        drift=PolyVectorField(1, (Polynomial.variable(1, 0),)),
        noise=(),
    )
    with pytest.raises(SynthesisError):
        synthesize_leg(m, [0.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        synthesize_leg(get_builtin("langevin"), [0.0, 0.0], [1.0, 0.0], -1.0)


def test_norm_rescales_only_where_the_plain_norm_overflows():
    rng = np.random.default_rng(3)
    for v in (rng.normal(size=5), 1e150 * rng.normal(size=3), np.array([1e-300, 0.0])):
        assert _norm(v) == np.linalg.norm(v)
    rows = rng.normal(size=(4, 3))
    assert _norm(rows, axis=1).tobytes() == np.linalg.norm(rows, axis=1).tobytes()
    assert _norm(np.full(2, 1e160)) == pytest.approx(math.sqrt(2) * 1e160, rel=1e-15)
    assert _norm(np.array([np.inf, 1.0])) == np.inf


def test_eps_reach_of_a_huge_finite_target_is_finite():
    eps = _eps_reach(np.full(2, 1e160))
    assert math.isfinite(eps) and eps == pytest.approx(1e-5 * math.sqrt(2) * 1e160, rel=1e-15)


# -- certificates -----------------------------------------------------


def test_certify_langevin_positive():
    m = get_builtin("langevin")
    basis = choose_basis(compute_C(m))
    cert = certify(m, basis, [0.0, 0.0], [1.0, 0.0], 1.0, CertifyOptions(seed=0))
    assert cert.verdict == "positive"
    assert cert.terminal_error < 1e-5 * 2.0
    assert cert.K_rank == 2
    assert cert.sigma_min > 0
    js = cert.to_json()
    assert js["verdict"] == "positive" and js["control"] is not None


def test_certify_decides_on_the_signed_smallest_eigenvalue(monkeypatch):
    # an indefinite M: its smallest singular value, 0.5, is far above the
    # threshold, but its smallest eigenvalue, -0.5, is not a margin
    M = np.diag([1.0, -0.5])
    monkeypatch.setattr(reach, "gramian", lambda flow, model: (M, 0.5))
    m = get_builtin("langevin")
    cert = certify(m, choose_basis(compute_C(m)), [0.0, 0.0], [1.0, 0.0], 1.0,
                   CertifyOptions(seed=0, n_steps=200, pieces=4))
    assert (cert.verdict, cert.stage) == ("inconclusive", "verdict")
    assert cert.sigma_min == 0.5 and cert.K_rank == 2
    assert "lambda_min=-0.5 (>= 2.5e-09 needed" in cert.detail


def test_certify_runs_one_carry_free_flow(monkeypatch):
    # legs are accepted on the solver's sensitivity flow and the next leg
    # starts from its terminal; only the refine's coarse pass skips the matrix
    carries = record_carries(monkeypatch)
    m = get_builtin("langevin")
    cert = certify(m, choose_basis(compute_C(m)), [0.0, 0.0], [1.0, 0.0], 1.0,
                   CertifyOptions(seed=0, n_steps=200, pieces=4))
    assert cert.verdict == "positive"
    assert carries.count(None) == 1 and carries[-1] == "gramian"


def test_certify_membership_failure(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    cert = certify(bhw_model, basis, [0.0, 0.0], [-1.0, 0.0], 1.0)
    assert cert.verdict == "inconclusive"
    assert cert.stage == "membership"
    assert cert.detail == "target is not strictly inside the positivity region of x"
    assert cert.control is None


@pytest.mark.parametrize("x, z", [
    ([0.0, 0.0], [np.nan, 0.0]),
    ([0.0, 0.0], [np.inf, 1.0]),
    # finite endpoints whose float difference overflows
    ([-1e308, 0.0], [1e308, 0.0]),
])
def test_nonfinite_difference_never_member(x, z):
    # langevin's basis is all two-sided (k = d): no one-sided row decides
    m = get_builtin("langevin")
    basis = choose_basis(compute_C(m))
    assert basis.k == basis.dim
    assert d_membership(basis, x, z)[0] is False
    cert = certify(m, basis, x, z, 1.0)
    assert (cert.verdict, cert.stage) == ("inconclusive", "membership")


NO_CHAIN = "no equilibrium chains x to z through the positivity regions"


@pytest.mark.parametrize("z", [[1.0, 0.0], [0.5, 0.0]])
def test_certify_bhw_along_the_one_sided_axis(bhw_model, z):
    # z - x lies along the one-sided direction (1, 0), so every waypoint
    # would be on y = 0, where [X0, X1] is parallel to X1: no twist set
    # spans, the one leg steers to z, and the Gramian decides
    basis = choose_basis(compute_C(bhw_model))
    cert = certify(bhw_model, basis, [0.0, 0.0], z, 1.0, CertifyOptions(pieces=4, n_steps=200))
    assert cert.verdict == "positive"
    assert len(cert.waypoints) == 1 and np.array_equal(cert.waypoints[0], z)
    assert cert.K_rank == 2


@pytest.mark.parametrize("z, via, stage, detail", [
    pytest.param([-1.0, 0.3], True, "membership", NO_CHAIN, id=f"z1-True-membership-{NO_CHAIN}"),
    # the drift overflows at the equilibrium search's starts
    pytest.param([1e160, 1.0], True, "membership", NO_CHAIN, id=f"z2-True-membership-{NO_CHAIN}"),
])
def test_certify_refusal_stages(bhw_model, z, via, stage, detail):
    basis = choose_basis(compute_C(bhw_model))
    cert = certify(
        bhw_model, basis, [0.0, 0.0], z, 1.0, CertifyOptions(via_equilibrium=via)
    )
    assert (cert.verdict, cert.stage, cert.detail) == ("inconclusive", stage, detail)
    assert cert.control is None and cert.sigma_min is None and cert.dwell is None


def test_certify_via_equilibrium_bhw(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    cert = certify(
        bhw_model, basis, [0.0, 0.0], [2.0, 1.0], 1.0,
        CertifyOptions(via_equilibrium=True, seed=0),
    )
    assert cert.verdict == "positive"
    assert cert.dwell is not None
    start, duration = cert.dwell
    assert duration == pytest.approx(0.25)
    # the synthesized control really dwells: state is near-stationary there
    flow = integrate_flow(
        bhw_model, np.zeros(2), cert.control, n_steps=2000, with_jacobian=False
    )
    mask = (flow.times >= start + 0.01) & (flow.times <= start + duration - 0.01)
    dwell_states = flow.states[mask]
    drift = np.ptp(dwell_states, axis=0)
    assert np.all(drift < 0.05)


@pytest.mark.parametrize("x, z, searches, verdict", [
    # outside x's own region, so no chain through an equilibrium reaches it
    ([0.0, 0.0], [-1.0, 0.3], 0, "inconclusive"),
    ([0.0, 0.0], [2.0, 1.0], 1, "positive"),
    # z - x overflows: never a member, yet a chain is still looked for
    ([-1e308, 0.0], [1e308, 0.5], 1, "inconclusive"),
])
def test_via_refusal_before_the_equilibrium_search(monkeypatch, bhw_model, x, z, searches,
                                                   verdict):
    calls = []
    search = reach.find_equilibria
    monkeypatch.setattr(reach, "find_equilibria",
                        lambda *a, **k: calls.append(1) or search(*a, **k))
    basis = choose_basis(compute_C(bhw_model))
    cert = certify(bhw_model, basis, x, z, 1.0,
                   CertifyOptions(via_equilibrium=True, seed=0, n_steps=200, pieces=4))
    assert len(calls) == searches
    assert cert.verdict == verdict
    if verdict == "inconclusive":
        assert (cert.stage, cert.detail) == ("membership", NO_CHAIN)


def test_via_refusal_with_a_given_equilibrium(monkeypatch, bhw_model):
    # (1/2, 1/2) is an equilibrium of bhw (x^2 = y^2), but z is outside x's region
    chains = []
    monkeypatch.setattr(reach, "iter_chains", lambda *a: chains.append(1) or iter(()))
    ok, u, residual = reach.is_equilibrium(bhw_model, [0.5, 0.5])
    assert ok
    monkeypatch.setattr(reach, "find_equilibria", lambda *a, **k: [
        EquilibriumPoint(np.array([0.5, 0.5]), u, residual)])
    basis = choose_basis(compute_C(bhw_model))
    cert = certify(bhw_model, basis, [0.0, 0.0], [-1.0, 0.3], 1.0,
                   CertifyOptions(via_equilibrium=True))
    assert (cert.verdict, cert.stage, cert.detail) == ("inconclusive", "membership", NO_CHAIN)
    assert not chains


def test_synthesis_error_message_does_not_grow_with_d():
    # zero drift, one noise direction: a target off the noise line is out of
    # reach at every d, and the message gives norms, not the endpoints
    messages = []
    for d in (2, 16, 96):
        m = ModelSpec(name="line", d=d, drift=PolyVectorField.zero(d),
                      noise=(tuple(F(int(i == 0)) for i in range(d)),))
        with pytest.raises(SynthesisError) as exc_info:
            synthesize_leg(m, np.zeros(d), np.full(d, 0.5), 1.0, pieces=2, n_steps=4)
        messages.append(str(exc_info.value))
    assert messages[0].startswith("no control found steering |frm| = 0 to |to| = 0.707")
    # each of the four figures takes at most 9 characters at .3g
    assert all(len(msg) < 120 and "[" not in msg for msg in messages)


def test_synthesis_error_counts_diverged_starts(monkeypatch):
    # the first start's flow diverges, the other five end off the noise line
    m = ModelSpec(name="line", d=2, drift=PolyVectorField.zero(2), noise=((F(1), F(0)),))
    flows = []
    integrate_once = reach._integrate_once

    def first_diverges(*args):
        flows.append(1)
        if len(flows) == 1:
            raise FlowDivergenceError(0.5)
        return integrate_once(*args)

    monkeypatch.setattr(reach, "_integrate_once", first_diverges)
    with pytest.raises(SynthesisError) as exc_info:
        synthesize_leg(m, np.zeros(2), np.full(2, 0.5), 1.0, pieces=2, n_steps=4)
    assert str(exc_info.value).endswith(
        "(best terminal error 0.5 > 1.71e-05; 1 of 6 starts diverged)")


def test_synthesis_refusal_names_the_leg():
    m = get_builtin("langevin")
    cert = certify(m, choose_basis(compute_C(m)), [0.0, 0.0], [1.0, 0.0], 1e-300,
                   CertifyOptions(seed=0, n_steps=200, pieces=4))
    assert cert.detail.startswith("leg 0: no control found steering |frm| = 0 to |to| = 1 ")
