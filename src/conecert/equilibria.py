"""Equilibrium points of the controlled drift family and the
x -> y -> z positivity chain.

A state y is an equilibrium when the drift at y can be cancelled
exactly by a constant control in the noise directions; the optimal
control is the least-squares projection of the negated drift onto the
noise span.  With no noise (r = 0) that span is empty: the control is
empty too, and the search projects onto the whole space.

The multistart search draws its starts from a scrambled Sobol sequence,
scipy's `qmc.Sobol(d, seed=seed).random(n)` bit for bit, computed here
from the direction numbers scipy ships (`_sobol_starts`), so that the
search does not load `scipy.stats`.
"""

from __future__ import annotations

import functools
import importlib.util
import os
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

    drift_fn = compile_field(model.drift)
    jac_fn = compile_jacobian(model.drift)

    def residual_fn(y):
        return P @ drift_fn(y)

    def residual_jac(y):
        return P @ jac_fn(y)

    unit_starts = _sobol_starts(model.d, n_starts, seed)
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


_SOBOL_BITS = 30


@functools.lru_cache(maxsize=1)
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """Primitive polynomials and initial direction numbers, one row per
    dimension, as scipy ships them (Joe and Kuo's table)."""
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    with np.load(os.path.join(root, "stats", "_sobol_direction_numbers.npz")) as table:
        return table["poly"], table["vinit"]


def _sobol_starts(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of scipy's scrambled Sobol sequence in d
    dimensions at this seed, `qmc.Sobol(d, seed=seed).random(n)`: 30-bit
    direction numbers (Bratley and Fox's recurrence), a random digital
    shift and left matrix scrambles drawn from `default_rng(seed)`, and
    the points in Gray-code order."""
    poly, vinit = _sobol_table()
    bits = _SOBOL_BITS
    v = np.zeros((d, bits), dtype=np.int64)
    v[0] = 1
    for k in range(1, d):
        p = int(poly[k])
        m = p.bit_length() - 1
        v[k, :m] = vinit[k, :m]
        for j in range(m, bits):
            new = v[k, j - m]
            for i in range(m):
                if (p >> (m - 1 - i)) & 1:
                    new ^= v[k, j - i - 1] << (i + 1)
            v[k, j] = new
    msb_first = np.arange(bits - 1, -1, -1)
    v <<= msb_first
    rng = np.random.default_rng(seed)
    draw = functools.partial(rng.integers, 2, dtype=np.uint32)  # scipy's draws
    shift = draw(size=(d, bits)).astype(np.int64) @ (1 << np.arange(bits))
    ltm = np.tril(draw(size=(d, bits, bits))).astype(np.int64)
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # scrambled direction number j of dimension k: bit row p of ltm[k]
    # times v[k, j]'s bits, most significant first, over GF(2)
    scrambled = ((v[:, :, None] >> msb_first) & 1) @ ltm.transpose(0, 2, 1) & 1
    sv = (scrambled << msb_first).sum(axis=-1)
    gray = np.arange(n) ^ (np.arange(n) >> 1)
    q = np.tile(shift, (n, 1))
    for b in range(bits):
        q ^= np.where((gray >> b)[:, None] & 1 == 1, sv[:, b], 0)
    return q * (1.0 / (1 << bits))


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

