"""Stopped Euler-Maruyama simulation and binomial positivity evidence.

Paths are frozen on first exit from the stopping ball; the fraction of
unstopped paths landing in a small ball around the target, with a
Clopper-Pearson lower confidence bound, corroborates (never proves) a
positivity verdict.  The bound is a binomial quantile: bisection on p
of the regularized incomplete beta function I_p(k, n-k+1), which is
evaluated by its continued fraction (Numerical Recipes 6.4, modified
Lentz method), so this module needs no scipy.

Each block of _CHUNK paths has its own Philox stream, from which every
step draws that step's normals, so memory grows with the number of
paths but not with the number of steps.  A block steps its live paths
as one compacted array; it re-gathers them, and writes the leavers'
rows back, only on a step where some path stops.  The ball-exit test
is also the finiteness test: NaN and inf never land inside the ball.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .models import ModelError, ModelSpec
from .polyfield import compile_field

_CHUNK = 4096  # fixed path-block size; part of the reproducibility contract

# Most Euler-Maruyama steps (t / dt) a configuration may ask for.  A step
# of one block of paths takes tens of microseconds or more, so 10^7 steps
# already run for minutes per block; a finer dt could not finish.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class SimConfig:
    t: float
    dt: float
    n_ball: float
    n_paths: int
    seed: int
    z: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        for name, v in (("t", self.t), ("dt", self.dt), ("delta", self.delta)):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**128):
            raise ValueError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.dt > self.t / 100:
            raise ValueError(f"dt={self.dt} too coarse; need dt <= t/100")
        if not self.t / self.dt <= MAX_STEPS:
            raise ValueError(f"dt={self.dt} too fine; need t/dt <= {MAX_STEPS}")
        # the stopping ball must contain the target ball; +inf (no stopping
        # ball) passes, NaN fails
        need = np.linalg.norm(self.z) + self.delta
        if not self.n_ball >= need:
            raise ValueError(f"n_ball must be at least |z|+delta={need}, got {self.n_ball}")

    @classmethod
    def default(cls, t, z, n_ball, n_paths=100_000, seed=0, delta=0.25, dt=None):
        if dt is None:
            dt = t / 4000
        return cls(t=t, dt=dt, n_ball=n_ball, n_paths=n_paths, seed=seed,
                   z=z, delta=delta)


@dataclass(frozen=True)
class PositivityEvidence:
    hits: int
    n_paths: int
    lower_cb: float
    stopped_fraction: float
    nonfinite_paths: int = 0

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "n_paths": self.n_paths,
            "lower_cb": self.lower_cb,
            "stopped_fraction": self.stopped_fraction,
            "nonfinite_paths": self.nonfinite_paths,
        }


def clopper_pearson_lower(hits: int, n: int, confidence: float = 0.99) -> float:
    """One-sided lower confidence bound on a binomial proportion: the p at
    which I_p(hits, n - hits + 1) = 1 - confidence."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(hits, numbers.Integral) and 0 <= hits <= n):
        raise ValueError(f"hits must be an integer in [0, n={n}], got {hits!r}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if hits == 0:
        return 0.0
    a, b, alpha = int(hits), int(n - hits + 1), 1.0 - confidence
    # I_p rises from 0 to 1 on [0, 1]: halve [lo, hi] until no double lies inside
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _beta_inc(a, b, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return hi


_CF_TERMS = 1000  # the fraction converges in under 200 terms for n up to 1e12
_TINY = 1e-300  # stands in for a zero denominator in Lentz's method
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _stirling_tail(x):
    """log Gamma(x) - ((x - 1/2) log x - x + log(2 pi)/2), to 2e-14 for x >= 10."""
    return sum(c / x ** (2 * i + 1) for i, c in enumerate(_STIRLING))


def _log_beta(a, b):
    """log B(a, b).  For b >= 10, log Gamma(a+b) - log Gamma(b) is expanded
    by Stirling's series, so its two ~b log b halves never cancel in
    floating point (with lgamma alone, the bound for 3 hits in 10**6 is
    off by 5e-10 relative)."""
    a, b = min(a, b), max(a, b)
    if b < 10:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_rising = (a * math.log(a + b) + (b - 0.5) * math.log1p(a / b) - a
                  + _stirling_tail(a + b) - _stirling_tail(b))
    return math.lgamma(a) - log_rising


def _beta_inc(a, b, x):
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1.  The continued
    fraction converges fast below (a+1)/(a+b+2); above it, I_x(a, b) is
    1 - I_{1-x}(b, a)."""
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a, b, x):
    """The continued fraction of I_x(a, b) (Numerical Recipes 6.4), by the
    modified Lentz method."""
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1) or _TINY)
    h = d
    for m in range(1, _CF_TERMS):
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + term * d or _TINY)
            c = 1.0 + term / c or _TINY
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # counter-based generator: the high counter word isolates chunks, so
    # a path's increments depend only on (seed, path index)
    bitgen = np.random.Philox(key=seed, counter=[0, 0, chunk_index, 0])
    return np.random.Generator(bitgen)


def _simulate_endpoints(model: ModelSpec, x, cfg: SimConfig):
    """Endpoint states, stopped mask and nonfinite counter, chunked so
    results are independent of scheduling."""
    x = np.asarray(x, dtype=float)
    d = model.d
    r = model.r
    B = model.noise_matrix()
    f = compile_field(model.drift)
    n_steps = int(round(cfg.t / cfg.dt))
    dt = cfg.t / n_steps
    sqrt_dt = math.sqrt(dt)

    endpoints = np.zeros((cfg.n_paths, d))
    stopped = np.ones(cfg.n_paths, dtype=bool)
    nonfinite = 0
    ball2 = cfg.n_ball * cfg.n_ball

    # overflow in a step is diagnosed as a nonfinite path, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cfg.n_paths, _CHUNK):
            m = min(_CHUNK, cfg.n_paths - start)
            rng = _chunk_rng(cfg.seed, start // _CHUNK)
            states = np.tile(x, (m, 1))
            # idx: the live rows of the chunk, cur: their states (a NaN
            # start is live, so its first step counts it as nonfinite)
            idx = np.flatnonzero(~(np.einsum("ij,ij->i", states, states) >= ball2))
            cur = states[idx]
            for _ in range(n_steps):
                if idx.size == 0:
                    break
                incr = f(cur) * dt
                if r > 0:
                    # the same stream, value for value, as one (n_steps, m, r) draw
                    noise = rng.standard_normal((m, r))
                    incr += ((noise if idx.size == m else noise[idx]) * sqrt_dt) @ B.T
                nxt = cur + incr
                # NaN and inf fail the test, so "all inside" means "all finite"
                inside = np.einsum("ij,ij->i", nxt, nxt) < ball2
                if inside.all():
                    cur = nxt
                    continue
                finite = np.isfinite(nxt).all(axis=1)
                nonfinite += idx.size - int(finite.sum())
                nxt[~finite] = np.nan
                states[idx[~inside]] = nxt[~inside]
                idx, cur = idx[inside], nxt[inside]
            states[idx] = cur
            endpoints[start : start + m] = states
            stopped[start + idx] = False
    return endpoints, stopped, nonfinite


def _evidence(cfg: SimConfig, endpoints, stopped, nonfinite) -> PositivityEvidence:
    live = ~stopped
    dist = np.linalg.norm(endpoints[live] - cfg.z, axis=1)
    hits = int(np.sum(dist <= cfg.delta))
    return PositivityEvidence(
        hits=hits,
        n_paths=cfg.n_paths,
        lower_cb=clopper_pearson_lower(hits, cfg.n_paths),
        stopped_fraction=float(stopped.mean()),
        nonfinite_paths=nonfinite,
    )


def simulate(model: ModelSpec, x, cfg: SimConfig) -> PositivityEvidence:
    """Euler-Maruyama with additive noise, frozen at first ball exit.
    Stopped paths never count as hits."""
    return _evidence(cfg, *_simulate_endpoints(model, x, cfg))


def density_heatmap(
    model: ModelSpec, x, cfg: SimConfig, grid: tuple[np.ndarray, np.ndarray]
) -> tuple[PositivityEvidence, np.ndarray]:
    """`simulate`'s evidence and, from the same paths, the 2-D histogram of
    the unstopped endpoints' first two coordinates over the bin edges."""
    if model.d < 2:  # checked before simulating; the CLI reports it as an input error
        raise ModelError("heatmap needs at least two coordinates")
    endpoints, stopped, nonfinite = _simulate_endpoints(model, x, cfg)
    pts = endpoints[~stopped]
    counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=grid)
    return _evidence(cfg, endpoints, stopped, nonfinite), counts
