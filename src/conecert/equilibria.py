"""Equilibrium points of the controlled drift family and the
x -> y -> z positivity chain.

A state y is an equilibrium when the drift at y can be cancelled
exactly by a constant control in the noise directions; the optimal
control is the least-squares projection of the negated drift onto the
noise span.  With no noise (r = 0) that span is empty: the control is
empty too, and the search projects onto the whole space.

The multistart search draws its starts from a seeded Latin hypercube
(`_latin_hypercube`: each coordinate of the box cut into n equal
strata, one start in each) and solves each start with the numpy
`trust_region_least_squares` that leg synthesis shares: no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closure import PositivityBasis, d_membership
from .models import ModelSpec

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EquilibriumPoint:
    y: np.ndarray
    u: np.ndarray
    residual: float

    def to_json(self) -> dict:
        return {
            "y": list(map(float, self.y)),
            "u": list(map(float, self.u)),
            "residual": float(self.residual),
        }


@dataclass(frozen=True)
class PositivityChain:
    y: np.ndarray


def is_equilibrium(
    model: ModelSpec, y, tol: float = 1e-10
) -> tuple[bool, np.ndarray, float]:
    """Least-squares control cancelling the drift at y; the residual is
    the norm of what no control can reach.  With no noise (r = 0) the
    control is empty and the residual is |drift(y)|."""
    from .polyfield import compile_field

    if tol <= 0:
        raise ValueError("tol must be positive")
    y = np.asarray(y, dtype=float)
    drift = compile_field(model.drift)(y)
    B = model.noise_matrix()
    u, _, _, _ = np.linalg.lstsq(B, -drift, rcond=None)
    residual = float(np.linalg.norm(drift + B @ u))
    return residual <= tol, u, residual


def find_equilibria(
    model: ModelSpec,
    box: list[tuple[float, float]],
    n_starts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
) -> list[EquilibriumPoint]:
    """Multistart Newton-type search for roots of the drift projected
    onto the orthogonal complement of the noise span.

    Returns verified points, deduplicated within 1e-6; an empty list is
    a valid outcome and claims nothing about nonexistence.
    """
    if len(box) != model.d or any(hi <= lo for lo, hi in box):
        raise ValueError(f"degenerate box {box}")
    B = model.noise_matrix()
    if np.linalg.matrix_rank(B) == model.d:
        # every point is an equilibrium; report the box center
        center = np.array([(lo + hi) / 2 for lo, hi in box])
        _, u, residual = is_equilibrium(model, center, tol=max(tol, 1e-9))
        return [EquilibriumPoint(y=center, u=u, residual=residual)]

    # orthogonal-complement projector, exactly the identity when r = 0
    Q, _ = np.linalg.qr(B)
    P = np.eye(model.d) - Q @ Q.T

    from .polyfield import compile_field, compile_jacobian

    drift_fn, jac_fn = compile_field(model.drift), compile_jacobian(model.drift)

    def evaluate(y):
        return P @ drift_fn(y), P @ jac_fn(y), None

    unit_starts = _latin_hypercube(model.d, n_starts, seed)
    lo, hi = np.array(box, dtype=float).T
    found: list[EquilibriumPoint] = []
    # On a box with huge bounds the starts, the drift and the solver's own
    # arithmetic can overflow.  A start whose cost is not finite is skipped,
    # and every solution is checked below, so no float fault is an error.
    with np.errstate(all="ignore"):
        for start in lo + (hi - lo) * unit_starts:
            try:
                y, _ = trust_region_least_squares(evaluate, start, 1e-14, 100 * model.d)
            except FloatingPointError:
                continue
            if not np.all((lo - 1e-9 <= y) & (y <= hi + 1e-9)):
                continue  # outside the box, or not finite
            ok, u, resid = is_equilibrium(model, y, tol=tol)
            if not ok:
                continue
            if any(np.linalg.norm(y - ep.y) < 1e-6 for ep in found):
                continue
            found.append(EquilibriumPoint(y=y, u=u, residual=resid))
    found.sort(key=lambda ep: (ep.residual, tuple(ep.y)))
    return found


def trust_region_least_squares(evaluate, x, gtol: float, max_evals: int):
    """Minimise |f(x)|^2 / 2 as scipy's `least_squares(method="trf")` does
    without bounds, with x_scale 1, the exact SVD trust-region solver and
    ftol = xtol = 1e-14.  evaluate(x) -> (f, J, extra) runs once per trial
    point, at most max_evals times; returns the last accepted x and its
    extra.  Raises FloatingPointError if the starting cost is not finite."""
    x = np.array(x, dtype=float)
    f, J, extra = evaluate(x)
    cost = 0.5 * np.dot(f, f)
    if not np.isfinite(cost):
        raise FloatingPointError("least-squares cost is not finite at the start")
    m, n = J.shape
    g = J.T.dot(f)
    radius = np.linalg.norm(x) or 1.0
    alpha = 0.0  # Levenberg-Marquardt parameter, carried between steps
    evals = 1
    done = False
    while not (np.max(np.abs(g)) < gtol or done or evals >= max_evals):
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        uf = U.T.dot(f)
        reduction = -1
        while not done and reduction <= 0 and evals < max_evals:
            step, alpha = _trust_region_step(n, m, uf, s, Vt.T, radius, alpha)
            Js = J.dot(step)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            f_new, J_new, extra_new = evaluate(x + step)
            evals += 1
            step_norm = np.linalg.norm(step)
            if not np.all(np.isfinite(f_new)):
                radius = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            done = (reduction < 1e-14 * cost and ratio > 0.25
                    or step_norm < 1e-14 * (1e-14 + np.linalg.norm(x)))
            grow = 2.0 if ratio > 0.75 and step_norm > 0.95 * radius else 1.0
            new_radius = 0.25 * step_norm if ratio < 0.25 else grow * radius
            alpha, radius = alpha * (radius / new_radius), new_radius
        if reduction > 0:
            x, f, J, extra, cost = x + step, f_new, J_new, extra_new, cost_new
            g = J.T.dot(f)
    return x, extra


def _trust_region_step(n, m, uf, s, V, radius, alpha):
    """scipy's `solve_lsq_trust_region`: with J = U diag(s) V^T and uf =
    U^T f, the step p minimising |J p + f| within radius, and alpha with
    (J^T J + alpha) p = -J^T f.  At full rank the Gauss-Newton step if it
    fits; else at most 10 Newton steps on |p(alpha)| - radius (More)."""

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - radius, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    alpha_lower, alpha_upper = 0.0, np.linalg.norm(suf) / radius
    if m >= n and s[-1] > _EPS * m * s[0]:  # full rank
        p = -V.dot(uf / s)
        if np.linalg.norm(p) <= radius:
            return p, 0.0
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    elif alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + radius) * ratio / radius
        if np.abs(phi) < 0.01 * radius:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= radius / np.linalg.norm(p)
    return p, alpha


def _latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """n points in [0, 1)^d with one point in each of n equal strata of
    every coordinate (McKay, Beckman and Conover's Latin hypercube)."""
    rng = np.random.default_rng(seed)
    return (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.random((n, d))) / n


def iter_chains(
    model: ModelSpec,
    basis: PositivityBasis,
    x,
    z,
    equilibria: list[EquilibriumPoint],
):
    """Yield every chain x -> y -> z with y an equilibrium, y strictly
    reachable from x and z strictly reachable from y, ordered by total
    detour length ||y-x|| + ||z-y||."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    candidates = sorted(
        equilibria,
        key=lambda ep: np.linalg.norm(ep.y - x) + np.linalg.norm(z - ep.y),
    )
    for ep in candidates:
        if d_membership(basis, x, ep.y)[0] and d_membership(basis, ep.y, z)[0]:
            yield PositivityChain(y=ep.y)

