"""Equilibrium points of the controlled drift family and the
x -> y -> z positivity chain.

A state y is an equilibrium when the drift at y can be cancelled
exactly by a constant control in the noise directions; the optimal
control is the least-squares projection of the negated drift onto the
noise span.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .closure import PositivityBasis, d_membership
from .models import ModelSpec


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
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    coeffs_xy: np.ndarray
    coeffs_yz: np.ndarray
    equilibrium: EquilibriumPoint


def is_equilibrium(
    model: ModelSpec, y, tol: float = 1e-10
) -> tuple[bool, np.ndarray, float]:
    """Least-squares control cancelling the drift at y; the residual is
    the norm of what no control can reach."""
    from .polyfield import compile_field

    if tol <= 0:
        raise ValueError("tol must be positive")
    y = np.asarray(y, dtype=float)
    drift = compile_field(model.drift)(y)
    B = model.noise_matrix()
    if model.r == 0:
        residual = float(np.linalg.norm(drift))
        return residual <= tol, np.zeros(0), residual
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
    from scipy.stats import qmc  # deferred: loading it loads all of scipy.stats

    if len(box) != model.d or any(hi <= lo for lo, hi in box):
        raise ValueError(f"degenerate box {box}")
    B = model.noise_matrix()
    if model.r > 0 and np.linalg.matrix_rank(B) == model.d:
        # every point is an equilibrium; report the box center
        center = np.array([(lo + hi) / 2 for lo, hi in box])
        _, u, residual = is_equilibrium(model, center, tol=max(tol, 1e-9))
        return [EquilibriumPoint(y=center, u=u, residual=residual)]

    # orthogonal-complement projector
    if model.r > 0:
        Q, _ = np.linalg.qr(B)
        P = np.eye(model.d) - Q @ Q.T
    else:
        P = np.eye(model.d)

    from .polyfield import compile_field, compile_jacobian

    drift_fn = compile_field(model.drift)
    jac_fn = compile_jacobian(model.drift)

    def residual_fn(y):
        return P @ drift_fn(y)

    def residual_jac(y):
        return P @ jac_fn(y)

    sampler = qmc.Sobol(d=model.d, seed=seed)
    with warnings.catch_warnings():
        # any n_starts is allowed; the balance of a power of 2 is not needed
        warnings.filterwarnings("ignore", "The balance properties of Sobol", UserWarning)
        unit_starts = sampler.random(n_starts)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    found: list[EquilibriumPoint] = []
    # On a box with huge bounds the starts, the drift and the solver's own
    # arithmetic can overflow.  A start whose squared residual is not finite
    # is skipped, and every solution is checked below, so no float fault is
    # an error here.
    with np.errstate(all="ignore"):
        for start in lo + (hi - lo) * unit_starts:
            r0 = residual_fn(start)
            if not np.isfinite(r0 @ r0):
                continue  # least_squares cannot start here
            y = least_squares(
                residual_fn, start, jac=residual_jac, xtol=1e-14, ftol=1e-14, gtol=1e-14
            ).x
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
        member_xy, coeffs_xy = d_membership(basis, x, ep.y)
        if not member_xy:
            continue
        member_yz, coeffs_yz = d_membership(basis, ep.y, z)
        if not member_yz:
            continue
        yield PositivityChain(
            x=x, y=ep.y, z=z, coeffs_xy=coeffs_xy, coeffs_yz=coeffs_yz, equilibrium=ep
        )

