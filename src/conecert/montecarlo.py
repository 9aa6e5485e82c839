"""Stopped Euler-Maruyama simulation and binomial positivity evidence.

Paths are frozen on first exit from the stopping ball; the fraction of
unstopped paths landing in a small ball around the target, with a
Clopper-Pearson lower confidence bound, corroborates (never proves) a
positivity verdict.

Each block of _CHUNK paths has its own Philox stream, from which every
step draws that step's normals, so memory grows with the number of
paths but not with the number of steps.  A block steps its live paths
as one compacted array; it re-gathers them, and writes the leavers'
rows back, only on a step where some path stops.  The ball-exit test
is also the finiteness test: NaN and inf never land inside the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta

from .models import ModelSpec
from .polyfield import compile_field

_CHUNK = 4096  # fixed path-block size; part of the reproducibility contract


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
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.dt > self.t / 100:
            raise ValueError(f"dt={self.dt} too coarse; need dt <= t/100")
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
    """One-sided lower confidence bound on a binomial proportion."""
    if hits <= 0:
        return 0.0
    return float(beta.ppf(1.0 - confidence, hits, n - hits + 1))


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


def simulate(model: ModelSpec, x, cfg: SimConfig) -> PositivityEvidence:
    """Euler-Maruyama with additive noise, frozen at first ball exit.
    Stopped paths never count as hits."""
    endpoints, stopped, nonfinite = _simulate_endpoints(model, x, cfg)
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


def density_heatmap(
    model: ModelSpec,
    x,
    cfg: SimConfig,
    grid: tuple[np.ndarray, np.ndarray],
    projection: tuple[int, int] = (0, 1),
) -> np.ndarray:
    """2-D histogram of unstopped endpoints over the given bin edges."""
    if model.d < 2:
        raise ValueError("heatmap needs at least two coordinates")
    endpoints, stopped, _ = _simulate_endpoints(model, x, cfg)
    pts = endpoints[~stopped]
    i, j = projection
    counts, _, _ = np.histogram2d(pts[:, i], pts[:, j], bins=grid)
    return counts
