"""Controlled flows, Gramian checks and control synthesis for
positivity certificates.

The controlled flow follows the drift plus piecewise-constant inputs in
the noise directions.  Along a synthesized path, invertibility of the
Gramian M_t = int J_{s,t} B B^T J_{s,t}^T ds certifies strict
positivity of the stopped transition density at the endpoint, for any
stopping ball containing the whole path.

One forward RK4 pass yields the state and, from its stage points,
either the Gramian, from the Lyapunov equation dM/ds = A M + M A^T +
B B^T, or the sensitivities of the terminal state to the control
values, from dS/ds = A S + B E_p (E_p selects the active piece p), with
A = DX0(Phi_s) and M_0 = S_0 = 0.  The state loop calls one RK4 step
function: for a drift of at most `kernel._STRAIGHT_LINE_TERMS` terms
the straight-line step generated for it, on Python floats (a state-only
step takes about 2.5-3 us at d <= 4, a carried one about 8-12 us), else
the array step, one kernel call per stage point.  The two round alike,
so a flow's bits do not depend on which one runs.  The matrix advances a
block of steps at a time, by each step's RK4 propagator Phi_n, from the
stage Jacobians of one kernel call per block (`_advance`), so its
memory is bounded by a fixed byte budget.  A pass whose state or matrix
is not finite raises FlowDivergenceError; the states are checked once a
control piece, and the error gives the time of the first non-finite
one.

`certify` takes one route whatever the query.  Membership yields the
target of the transit from x: z itself, or the equilibrium y of a chain
x -> y -> z, after which the control dwells at y for a quarter of t and
a final leg of half the rest steers to z.  Every such chain puts z in
x's own region, so a via-equilibrium target outside it is refused
before the equilibrium search.  Twist waypoints, leg synthesis and the
Gramian then run the same way for both.  A leg's control minimises
|terminal - target|^2 + ridge^2 |u|^2 by trust-region Gauss-Newton on
the sensitivities (`equilibria.trust_region_least_squares`, which the
equilibrium search shares), stopping at a vanishing gradient, step or
cost decrease, or after 200 flows.  Each leg is accepted on the
solver's own sensitivity flow, and the next leg starts from that flow's
terminal state; the refined flow of the whole path alone decides the
terminal error and the Gramian, whose margin is its signed smallest
eigenvalue.  Norms there, and in synthesis, rescale only where the
plain norm overflows (`_norm`).  The rank of the noise plus its first
drift brackets, [X0, X_j] = -DX0 X_j for the constant X_j, picks the
twist waypoints (none when no set spans) and is reported as `k_rank`
along the path; it never refuses.  Both read it from
`closure.bracket_rank`, which gives a family with a non-finite entry
rank 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closure import PositivityBasis, bracket_rank, d_membership, twist_rank_check
from .equilibria import find_equilibria, is_equilibrium, iter_chains, trust_region_least_squares
from .models import ModelSpec
# lie_bracket is not called here; the benchmark tracer patches the name
from .polyfield import (  # noqa: F401
    compile_field, compile_jacobian, compile_rk4_step, lie_bracket)


class FlowDivergenceError(RuntimeError):
    def __init__(self, time: float):
        super().__init__(f"flow diverged (non-finite state or matrix) at time {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant control h on [0, horizon]; the integrated
    control is piecewise linear and square integrable."""

    horizon: float
    breakpoints: np.ndarray  # increasing, first 0, last horizon
    values: np.ndarray  # (n_intervals, r)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if bp[0] != 0 or not np.isclose(bp[-1], self.horizon):
            raise ValueError("breakpoints must start at 0 and end at the horizon")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bp) - 1:
            raise ValueError("need one value row per interval")
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, horizon: float, r: int) -> "ControlPath":
        return cls(horizon, np.array([0.0, horizon]), np.zeros((1, r)))

    @classmethod
    def constant(cls, horizon: float, u) -> "ControlPath":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(horizon, np.array([0.0, horizon]), u.reshape(1, -1))

    @classmethod
    def uniform(cls, horizon: float, values) -> "ControlPath":
        values = np.atleast_2d(np.asarray(values, dtype=float))
        n = len(values)
        return cls(horizon, np.linspace(0.0, horizon, n + 1), values)

    def concat(self, other: "ControlPath") -> "ControlPath":
        return ControlPath(
            self.horizon + other.horizon,
            np.concatenate([self.breakpoints, other.breakpoints[1:] + self.horizon]),
            np.vstack([self.values, other.values]),
        )

    def to_json(self) -> dict:
        return {
            "horizon": float(self.horizon),
            "breakpoints": [float(b) for b in self.breakpoints],
            "values": self.values.tolist(),
        }


@dataclass(frozen=True)
class FlowResult:
    times: np.ndarray  # RK4 nodes, including 0 and t
    states: np.ndarray  # (n_nodes, d)
    M: np.ndarray | None  # Gramian M_t, when carried
    S: np.ndarray | None  # control sensitivities S_t, when carried

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _steps_per_interval(control: ControlPath, n_steps: int) -> list[int]:
    """Distribute RK4 substeps over control intervals in proportion to
    their lengths: ceil(n_steps L / T), rounded up to even and at least 2,
    for an interval of length L.  Doubling n_steps doubles that count when
    n_steps L / T is an even integer, not in general: breakpoints
    (0, 0.1234, 1) give [248, 1754] at 2000 steps, [494, 3508] at 4000."""
    lengths = np.diff(control.breakpoints)
    out = []
    for L in lengths:
        n = max(2, int(math.ceil(n_steps * L / control.horizon)))
        if n % 2:
            n += 1
        out.append(n)
    return out


_REFINE_TOL = 1e-8  # relative terminal-state agreement that ends refinement


def integrate_flow(
    model: ModelSpec,
    x,
    control: ControlPath,
    n_steps: int = 2000,
    refine: bool = False,
    with_jacobian: bool = True,
) -> FlowResult:
    """Fixed-step RK4 for the controlled flow; with_jacobian also
    integrates the Gramian dM/ds = A M + M A^T + B B^T from M_0 = 0,
    A = DX0(Phi_s), from the same stage points.

    With refine=True the step is halved until two successive refinements
    agree to _REFINE_TOL in relative terminal state.  Only the terminal
    state decides, and it does not depend on whether M is carried, so
    the coarsest pass skips M.
    """
    carry = "gramian" if with_jacobian else None
    result = _integrate_once(model, x, control, n_steps, None if refine else carry)
    if refine:
        for _ in range(6):
            finer = _integrate_once(model, x, control, 2 * n_steps, carry)
            scale = 1.0 + np.linalg.norm(finer.terminal)
            if np.linalg.norm(finer.terminal - result.terminal) <= _REFINE_TOL * scale:
                return finer
            n_steps *= 2
            result = finer
    return result


# Byte budget of one block's stage-Jacobian stack (block x 4 x d x d
# floats): 512 steps at d = 2, 128 at d = 4, one step at d = 96.  The
# block's other arrays take about twice as much again.  A larger budget
# raised the peak memory of `conecert reach` and bought no speed.
_BLOCK_BYTES = 1 << 16


def _block_steps(d: int) -> int:
    """RK4 steps per block of the carried matrix's pass."""
    return max(1, _BLOCK_BYTES // (4 * d * d * 8))


def _integrate_once(model, x, control, n_steps, carry=None):
    """One RK4 pass over the control's grid.  The state loop calls one
    step function: the drift's straight-line step (`compile_rk4_step`)
    when it has one, else the array step.  With carry, it also keeps each
    step's four stage points and advances a matrix Y with
    dY/ds = A Y (+ Y A^T) + G_p, Y_0 = 0, once per block of steps
    (`_advance`): "gramian" gives M_t (G_p = B B^T, with the transpose
    term), "sensitivity" gives S_t = d(terminal)/d(control values),
    d x (pieces*r) (G_p = B in piece p's columns)."""
    d = model.d
    B = model.noise_matrix()
    step = compile_rk4_step(model.drift) or _array_rk4_step(compile_field(model.drift))
    counts = _steps_per_interval(control, n_steps)
    times = np.empty(sum(counts) + 1)
    states = np.empty((len(times), d))
    times[0] = 0.0
    states[0] = x
    Y = None
    if carry:
        jac = compile_jacobian(model.drift)
        G = B @ B.T if carry == "gramian" else B
        Y = np.zeros((d, d) if carry == "gramian" else (d, control.values.size))
        block = _block_steps(d)
        rows = []  # one flat row (h, piece, *x, *x2, *x3, *x4) per step

    state = states[0].tolist()
    s = 0.0
    i = 0
    # overflow in a step is diagnosed as divergence, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for p, ((s0, s1), u, n_sub) in enumerate(zip(
            zip(control.breakpoints[:-1], control.breakpoints[1:]),
            control.values,
            counts,
        )):
            h = float((s1 - s0) / n_sub)
            forcing = (B @ u).tolist()
            first = i + 1
            for _ in range(n_sub):
                new, x2, x3, x4 = step(state, forcing, h)
                if carry:
                    rows.append((h, p, *state, *x2, *x3, *x4))
                    if len(rows) == block:
                        Y = _advance(Y, rows, jac, G, carry)
                        rows = []
                state = new
                s += h
                i += 1
                times[i] = s
                states[i] = state
            # checked once a piece: the flow diverged at its first
            # non-finite state
            finite = np.isfinite(states[first : i + 1]).all(axis=1)
            if not finite.all():
                raise FlowDivergenceError(times[first + int(np.argmin(finite))])
        if carry and rows:
            Y = _advance(Y, rows, jac, G, carry)
    # a non-finite entry of Y stays non-finite under the propagators
    if Y is not None and not np.isfinite(Y).all():
        raise FlowDivergenceError(s)

    return FlowResult(
        times=times,
        states=states,
        M=Y if carry == "gramian" else None,
        S=Y if carry == "sensitivity" else None,
    )


def _array_rk4_step(f):
    """The RK4 step of a drift with no straight-line step, on arrays, with
    f its compiled drift: step(x, F, h) -> (x_new, x2, x3, x4)."""

    def step(state, forcing, h):
        forcing = np.asarray(forcing)
        k1 = f(state) + forcing
        x2 = state + 0.5 * h * k1
        k2 = f(x2) + forcing
        x3 = state + 0.5 * h * k2
        k3 = f(x3) + forcing
        x4 = state + h * k3
        k4 = f(x4) + forcing
        return state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), x2, x3, x4

    return step


def _advance(Y, rows, jac, G, carry):
    """Y advanced over one block of recorded steps.  One kernel call gives
    the stage Jacobians A_n1..A_n4 of every step, and batched products
    give each step's RK4 propagator Phi_n (the stage algebra of
    dY/ds = A Y from Y_0 = I) and its increment from Y_0 = 0: Psi_n B for
    the sensitivities, the Lyapunov increment C_n for the Gramian.  Then
    S <- Phi_n S + Psi_n B E_p, or M <- Phi_n M Phi_n^T + C_n, step by
    step."""
    rows = np.array(rows)
    A = jac(rows[:, 2:].reshape(len(rows), 4, -1))
    h = rows[:, 0, None, None]
    Phi = _propagators(A, h)
    if carry == "gramian":
        for P, C in zip(Phi, _increments(A, h, G, lyapunov=True)):
            Y = P @ Y @ P.T + C
        return Y
    r = G.shape[1]
    for P, F, p in zip(Phi, _increments(A, h, G), rows[:, 1].astype(np.intp)):
        Y = P @ Y
        Y[:, p * r : (p + 1) * r] += F
    return Y


def _propagators(A, h):
    """RK4 propagators of dY/ds = A Y, one per step: the stage algebra
    from Y_0 = I, with A (n, 4, d, d) the stage Jacobians and h (n, 1, 1)
    the step sizes."""
    eye = np.eye(A.shape[-1])
    K1 = A[:, 0]
    K2 = A[:, 1] @ (eye + 0.5 * h * K1)
    K3 = A[:, 2] @ (eye + 0.5 * h * K2)
    K4 = A[:, 3] @ (eye + h * K3)
    return eye + (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)


def _increments(A, h, G, lyapunov=False):
    """One RK4 step of dY/ds = A Y + G (A Y + Y A^T + G when lyapunov,
    for symmetric G) from Y_0 = 0, per step: the forcing map applied to
    G, or the Lyapunov increment."""

    def rhs(Ak, Ys):
        K = Ak @ Ys
        if lyapunov:
            K = K + K.swapaxes(-1, -2)  # A Y + Y A^T, as Y stays exactly symmetric
        return K + G

    K2 = rhs(A[:, 1], 0.5 * h * G)
    K3 = rhs(A[:, 2], 0.5 * h * K2)
    K4 = rhs(A[:, 3], h * K3)
    return (h / 6.0) * (G + 2 * K2 + 2 * K3 + K4)


# --------------------------------------------------------------------
# Gramian.


def gramian(flow: FlowResult, model: ModelSpec) -> tuple[np.ndarray, float]:
    """Deterministic Malliavin matrix M_t = int_0^t J_{s,t} B B^T J_{s,t}^T ds,
    as integrated along the flow, and its smallest singular value (reported;
    `certify` decides on the signed smallest eigenvalue).  With no noise
    (r = 0) the carried M is exactly zero, as B B^T is."""
    if flow.M is None:
        raise ValueError("flow was integrated without its Gramian (with_jacobian=False)")
    M = 0.5 * (flow.M + flow.M.T)
    sigma_min = float(np.linalg.svd(M, compute_uv=False)[-1])
    return M, sigma_min


def gramian_threshold(M: np.ndarray) -> float:
    """Default invertibility threshold: 1e-8 * trace(M) / d."""
    d = len(M)
    return 1e-8 * float(np.trace(M)) / d


def k_rank(flow: FlowResult, model: ModelSpec) -> int:
    """Numerical rank of the noise directions plus drift brackets
    sampled along the interior of the trajectory (about 200 nodes)."""
    interior = flow.states[1:-1]
    return bracket_rank(model, interior[:: max(1, len(interior) // 200)])


# --------------------------------------------------------------------
# Control synthesis by direct shooting with variational gradients.


class SynthesisError(RuntimeError):
    pass


_SYNTHESIS_STARTS = 6  # least-squares starts per leg: zero, then random
_SYNTHESIS_FLOWS = 200  # sensitivity flows per start


def _norm(v, axis=None):
    """Euclidean norm of v (along axis), rescaled by max|v| only where the
    plain norm overflows, so that every finite norm keeps its bits."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v, axis=axis)
    if np.isinf(n).any():
        top = np.max(np.abs(v))
        if np.isfinite(top):
            n = top * np.linalg.norm(v / top, axis=axis)
    return n


def _eps_reach(z) -> float:
    """Terminal error a synthesized leg, and a certificate, may leave at z."""
    return 1e-5 * (1.0 + _norm(z))


def synthesize_leg(
    model: ModelSpec,
    frm,
    to,
    t_leg: float,
    pieces: int = 6,
    seed: int = 0,
    n_steps: int = 600,
) -> tuple[ControlPath, np.ndarray]:
    """Piecewise-constant control steering frm to within _eps_reach(to)
    of to over t_leg, and the n_steps terminal state it reaches.  Each
    start runs `trust_region_least_squares` on the terminal error, with
    the sensitivities as Jacobian, to a gradient of 1e-12 or
    _SYNTHESIS_FLOWS flows; the leg is accepted on the solver's own
    flow.  Raises SynthesisError after _SYNTHESIS_STARTS starts."""
    if t_leg <= 0:
        raise ValueError("t_leg must be positive")
    if pieces < 2:
        raise ValueError("need at least 2 control pieces")
    frm = np.asarray(frm, dtype=float)
    to = np.asarray(to, dtype=float)
    eps_reach = _eps_reach(to)
    r = model.r
    if r == 0:
        raise SynthesisError("no control directions available")

    ridge = 1e-6

    def pack(control_values):
        return ControlPath.uniform(t_leg, control_values.reshape(pieces, r))

    def evaluate(uflat):
        if not np.isfinite(uflat).all():
            # an iterate beyond float range: its flow is non-finite from
            # the first step, so the start fails
            raise FlowDivergenceError(0.0)
        flow = _integrate_once(model, frm, pack(uflat), n_steps, "sensitivity")
        F = np.concatenate([flow.terminal - to, ridge * uflat])
        return F, np.vstack([flow.S, ridge * np.eye(len(uflat))]), flow

    rng = np.random.default_rng(seed)
    # a start beyond float range diverges below, not with a warning
    with np.errstate(over="ignore"):
        scale0 = _norm(to - frm) / t_leg + 1.0
    best_err = np.inf
    diverged = 0  # starts whose flow diverged: they have no terminal error
    for start in range(_SYNTHESIS_STARTS):
        if start == 0:
            u0 = np.zeros(pieces * r)
        else:
            with np.errstate(over="ignore"):
                u0 = rng.normal(scale=scale0 * start, size=pieces * r)
        # the solver's own arithmetic can overflow (on a tiny t_leg, say);
        # every leg is accepted on its terminal error below, so no float
        # fault is an error here
        try:
            with np.errstate(all="ignore"):
                u, flow = trust_region_least_squares(evaluate, u0, 1e-12, _SYNTHESIS_FLOWS)
        except (FlowDivergenceError, FloatingPointError):
            diverged += 1
            continue
        terminal = flow.terminal
        err = float(_norm(terminal - to))
        best_err = min(best_err, err)
        if err <= eps_reach:
            return pack(u), terminal
    if diverged == _SYNTHESIS_STARTS:
        outcome = f"all {diverged} starts diverged"
    else:
        outcome = f"best terminal error {best_err:.3g} > {eps_reach:.3g}"
        if diverged:
            outcome += f"; {diverged} of {_SYNTHESIS_STARTS} starts diverged"
    # norms, not the endpoints: at d = 96 two vectors are kilobytes of digits
    raise SynthesisError(
        f"no control found steering |frm| = {_norm(frm):.3g} to"
        f" |to| = {_norm(to):.3g} in t = {t_leg:.3g} ({outcome})"
    )


# --------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class ReachabilityCertificate:
    model_name: str
    model_hash: str
    x: np.ndarray
    z: np.ndarray
    t: float
    waypoints: list
    verdict: str  # "positive" | "inconclusive"
    control: ControlPath | None = None
    terminal_error: float | None = None
    sigma_min: float | None = None
    K_rank: int | None = None
    ball_n: int | None = None
    stage: str | None = None  # failing stage when inconclusive
    detail: str | None = None
    dwell: tuple[float, float] | None = None  # (start, duration) at the equilibrium

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "model_hash": self.model_hash,
            "x": list(map(float, self.x)),
            "z": list(map(float, self.z)),
            "t": float(self.t),
            "waypoints": [list(map(float, w)) for w in self.waypoints],
            "control": self.control.to_json() if self.control else None,
            "terminal_error": self.terminal_error,
            "sigma_min": self.sigma_min,
            "K_rank": self.K_rank,
            "ball_n": self.ball_n,
            "verdict": self.verdict,
            "stage": self.stage,
            "detail": self.detail,
            "dwell": list(self.dwell) if self.dwell else None,
        }


@dataclass
class CertifyOptions:
    via_equilibrium: bool = False
    pieces: int = 8
    seed: int = 0
    n_steps: int = 600


_TWIST_BUDGET = 12  # waypoint sets tried before the twist stage takes none
_DWELL_FRAC = 0.25  # share of t spent at the equilibrium
_SEARCH_BOX_PAD = 3.0  # the equilibrium search box is the x-z box grown by this
_NO_CHAIN = "no equilibrium chains x to z through the positivity regions"


def _inconclusive(model, x, z, t, stage, detail, waypoints=()):
    return ReachabilityCertificate(
        model_name=model.name,
        model_hash=model.spec_hash(),
        x=x,
        z=z,
        t=t,
        waypoints=list(waypoints),
        verdict="inconclusive",
        stage=stage,
        detail=detail,
    )


def _slab_waypoints(basis: PositivityBasis, x, coeffs, count, rng):
    """Waypoints in nested dyadic slabs between x and the target x + B c
    (c = coeffs): the one-sided coordinates advance through disjoint
    windows scaled by the smallest one-sided coefficient, so each
    waypoint is strictly reachable from its predecessor."""
    Bmat = basis.matrix()
    k = basis.k
    d = basis.dim
    lam = float(np.min(coeffs[k:])) if k < d else 1.0
    alphas = np.concatenate([[0.0], np.cumsum(0.5 ** np.arange(1, count + 2))])
    points = []
    for l in range(count):
        frac = (l + 1) / (count + 1)
        c = np.zeros(d)
        c[:k] = coeffs[:k] * frac
        if k < d:
            lo, hi = alphas[l] * lam, alphas[l + 1] * lam
            c[k:] = lo + (0.3 + 0.4 * rng.random(d - k)) * (hi - lo)
        points.append(np.asarray(x, float) + Bmat @ c)
    return points


def _select_twist_points(model, basis, x, coeffs, rng):
    """Waypoints at which the noise-plus-bracket family spans R^d, and
    whether it does: none when x alone spans, else the first spanning set
    of 1 to _TWIST_BUDGET points, each count drawn afresh; else none."""
    if twist_rank_check(model, [x]):
        return [], True
    for count in range(1, _TWIST_BUDGET + 1):
        points = _slab_waypoints(basis, x, coeffs, count, rng)
        if twist_rank_check(model, points):
            return points, True
    return [], False


def certify(
    model: ModelSpec,
    basis: PositivityBasis,
    x,
    z,
    t: float,
    options: CertifyOptions | None = None,
) -> ReachabilityCertificate:
    """Assemble a machine-checkable positivity certificate: membership,
    twist waypoints, per-leg control synthesis, full-path Gramian, on
    the one route the module docstring describes."""
    options = options or CertifyOptions()
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    rng = np.random.default_rng(options.seed)
    via = options.via_equilibrium

    # --- membership stage: candidate transit targets and their coefficients
    member, coeffs = d_membership(basis, x, z)
    if via:
        # A chain x -> y -> z needs positive one-sided coefficients of y - x
        # and of z - y.  They are linear in the exact differences, and
        # Fraction(z) - Fraction(x) = (y - x) + (z - y), so z lies in x's
        # own region: a target outside it is refused before any search.  A
        # float z - x that overflows is never a member, yet may still chain.
        if not member:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(z - x).all()
            if finite:
                return _inconclusive(model, x, z, t, "membership", _NO_CHAIN)
        pad = _SEARCH_BOX_PAD
        box = list(zip(np.minimum(x, z) - pad, np.maximum(x, z) + pad))
        equilibria = find_equilibria(model, box, n_starts=64, seed=options.seed, tol=1e-8)
        candidates = (
            (chain.y, chain.coeffs_xy)
            for chain in iter_chains(model, basis, x, z, equilibria)
        )
    else:
        if not member:
            return _inconclusive(
                model, x, z, t, "membership",
                "target is not strictly inside the positivity region of x",
            )
        candidates = [(z, coeffs)]

    # --- twist stage: waypoints, never a refusal.  Equilibria come in
    # families (whole curves of them), and a candidate too close to x can
    # give a degenerate bracket family: take the first candidate whose
    # family spans, else the first (the shortest detour) with no waypoints.
    first = None
    for target, coeffs in candidates:
        twist_points, spans = _select_twist_points(model, basis, x, coeffs, rng)
        if spans:
            break
        first = target if first is None else first
    else:
        if first is None:
            return _inconclusive(model, x, z, t, "membership", _NO_CHAIN)
        target = first

    # --- time budget: for the direct route t - 0.0 - 0.0 == t exactly
    t_dwell = _DWELL_FRAC * t if via else 0.0
    t_final = 0.5 * (t - t_dwell) if via else 0.0
    waypoints = [*twist_points, target]
    t_leg = (t - t_dwell - t_final) / len(waypoints)

    # --- synthesis stage
    controls: list[ControlPath] = []
    dwell = None
    current = x
    try:
        for leg_index, waypoint in enumerate(waypoints):
            leg, current = _synthesize_escalating(
                model, current, waypoint, t_leg, options, leg_index)
            controls.append(leg)
        if via:
            dwell = (sum(c.horizon for c in controls), t_dwell)
            held, u, resid = is_equilibrium(model, current, tol=1e-6)
            if not held:
                raise SynthesisError(f"dwell point |y| = {_norm(current):.3g} is not an"
                                     f" equilibrium (residual {resid:.3g})")
            controls.append(ControlPath.constant(t_dwell, u))
            controls.append(_synthesize_escalating(
                model, current, z, t_final, options, len(waypoints))[0])
    except SynthesisError as exc:
        return _inconclusive(model, x, z, t, "synthesis", str(exc), waypoints)

    control = functools.reduce(ControlPath.concat, controls)

    # --- gramian stage
    try:
        flow = integrate_flow(
            model, x, control, n_steps=max(2000, 2 * options.n_steps),
            refine=True, with_jacobian=True,
        )
        M, sigma_min = gramian(flow, model)
    except FlowDivergenceError as exc:
        return _inconclusive(model, x, z, t, "gramian", str(exc), waypoints)

    rank = k_rank(flow, model)
    terminal_error = float(_norm(flow.terminal - z))
    eps_reach = _eps_reach(z)
    eps_gram = gramian_threshold(M)
    # the margin is the signed smallest eigenvalue: sigma_min = min |lambda|
    # would count a negative eigenvalue as margin
    lambda_min = float(np.linalg.eigvalsh(M)[0])
    ball_n = int(math.ceil(_norm(flow.states, axis=1).max())) + 1

    ok = terminal_error <= eps_reach and lambda_min >= eps_gram
    return ReachabilityCertificate(
        model_name=model.name,
        model_hash=model.spec_hash(),
        x=x,
        z=z,
        t=t,
        waypoints=waypoints,
        control=control,
        terminal_error=terminal_error,
        sigma_min=sigma_min,
        K_rank=rank,
        ball_n=ball_n,
        verdict="positive" if ok else "inconclusive",
        stage=None if ok else "verdict",
        detail=None if ok else (
            f"terminal_error={terminal_error:.3g} (<= {eps_reach:.3g} needed), "
            f"lambda_min={lambda_min:.3g} (>= {eps_gram:.3g} needed; sigma_min={sigma_min:.3g}), "
            f"K_rank={rank} (d={model.d}; reported, not gated)"
        ),
        dwell=dwell,
    )


def _synthesize_escalating(model, frm, to, t_leg, options: CertifyOptions, leg: int):
    """Leg number `leg` of a certificate, at 1, 2 and 4 times the pieces."""
    last_exc = None
    for factor in (1, 2, 4):
        try:
            return synthesize_leg(
                model, frm, to, t_leg,
                pieces=options.pieces * factor,
                seed=options.seed + factor,
                n_steps=options.n_steps,
            )
        except SynthesisError as exc:
            last_exc = exc
    raise SynthesisError(f"leg {leg}: {last_exc}")
