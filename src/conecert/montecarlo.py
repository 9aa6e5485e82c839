"""Stopped Euler-Maruyama simulation and binomial positivity evidence.

Paths are frozen on first exit from the stopping ball; the fraction of
unstopped paths landing in a small ball around the target, with a
Clopper-Pearson lower confidence bound, corroborates (never proves) a
positivity verdict.  The bound is a binomial quantile: bisection on p
of the regularized incomplete beta function I_p(k, n-k+1), which is
evaluated by its continued fraction (Numerical Recipes 6.4, modified
Lentz method), so this module needs no scipy.

Each block of _CHUNK paths has its own Philox stream.  Its normals are
drawn a few steps at a time, _NOISE_BYTES of normals and increments
per draw, on one worker thread that draws the next steps' noise while
the block takes the current ones; the values are those of one draw
per step, so memory grows with the number of paths but not with the
number of steps.  The worker also forms the increments, one row per
coordinate, from the normals by elementwise products and sums
(`_increments`), never a BLAS call.  The drift, of any size, is summed
term by term in the kernel's fixed order, never by a BLAS product
either.  So chunking, the worker's scheduling, the draw size and the
BLAS thread count never change a value.

A block holds its live paths coordinate-major, as one (d, live) array,
so each step's arithmetic runs on contiguous rows; the drift takes
them as the points of cur.T.  The block re-gathers them, and writes the
leavers back, only on a step where some path stops.  The ball-exit test
is also the finiteness test: NaN and inf never land inside the ball.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .models import ModelError, ModelSpec
from .polyfield import compile_field

_CHUNK = 4096  # fixed path-block size; part of the reproducibility contract

# Bytes of the normals and increments of one noise draw.  It sets how
# many steps a draw covers, never the values drawn.  At most two draws
# are alive, so memory stays within about twice this.
_NOISE_BYTES = 1 << 20

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
        for name in ("seed", "n_paths"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            # as an int, since a numpy integer is no JSON
            object.__setattr__(self, name, int(v))
        if not 0 <= self.seed < 2**128:
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
        return asdict(self)


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


def _increments(rng: np.random.Generator, m: int, sqrt_dt: float, Bt: np.ndarray,
                k: int) -> np.ndarray:
    """The next k steps' noise increments of m paths, shape (k, d, m), from
    the stream, value for value, of k draws of m x r normals: row j of a
    step sums (normal_q * sqrt_dt) * B[j, q] over the nonzero B[j, q], in q
    order from +0.0, each product rounded first.  Elementwise numpy alone,
    so no BLAS call sets the bits; with at most one nonzero per row of B
    it is the product (normals * sqrt_dt) @ B^T, bit for bit."""
    noise = rng.standard_normal((k, m, Bt.shape[0]))
    out = np.zeros((k, Bt.shape[1], m))  # a row without a nonzero stays +0.0
    started = set()
    for q, j in zip(*np.nonzero(Bt)):  # q-major, so each row adds in q order
        # a row's first term is written in place: a (k, m) temporary is
        # mapped afresh on every draw, and its page faults slow the steps
        row = out[:, j]
        term = np.multiply(noise[..., q], sqrt_dt, out=None if j in started else row)
        if Bt[q, j] != 1.0:  # x * 1.0 is x
            term *= Bt[q, j]
        if j in started:
            row += term
        started.add(j)
    out += 0.0  # as if each row summed from +0.0: a -0.0 sum becomes +0.0
    return out


class _DrawAhead:
    """Iterates over the n_steps steps of the blocks draw(k) (the last one
    shorter), each block drawn on one worker thread while the caller
    takes the steps of the one before it, so at most two blocks are
    alive.  A context manager: on exit, however it comes, the worker
    stops after its current draw and is joined."""

    def __init__(self, draw, n_steps: int, k: int):
        self._draw, self._n_steps, self._k = draw, n_steps, k
        self._free = threading.Semaphore(1)  # the worker may start a draw
        self._ready = threading.Semaphore(0)  # a drawn block waits in _block
        self._stop = False
        self._thread = threading.Thread(target=self._work, name="montecarlo-noise")

    def _work(self):
        # error state is per thread, and overflow is diagnosed downstream
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, self._n_steps, self._k):
                self._free.acquire()
                if self._stop:
                    return
                try:
                    self._block = self._draw(min(self._k, self._n_steps - start))
                except BaseException as exc:  # raised again on the caller's thread
                    self._block = exc
                    return
                finally:
                    self._ready.release()

    def __enter__(self):
        self._thread.start()
        return self

    def __iter__(self):
        for _ in range(0, self._n_steps, self._k):
            self._ready.acquire()
            block = self._block
            self._free.release()
            if isinstance(block, BaseException):
                raise block
            yield from block

    def __exit__(self, *exc_info):
        self._stop = True
        self._free.release()
        self._thread.join()


def _simulate_endpoints(model: ModelSpec, x, cfg: SimConfig):
    """Endpoint states, stopped mask and nonfinite counter, the same
    whatever the chunks' scheduling, draw size and BLAS thread count.  A
    step is incr = f * dt, incr += dw, then cur + incr."""
    d = model.d
    r = model.r
    if cfg.z.shape != (d,):  # it would broadcast against the endpoints
        raise ValueError(f"z must have the model's {d} coordinates, got shape {cfg.z.shape}")
    x = np.asarray(x, dtype=float).reshape(d)
    B = model.noise_matrix()
    f = compile_field(model.drift)
    n_steps = int(round(cfg.t / cfg.dt))
    dt = cfg.t / n_steps
    sqrt_dt = math.sqrt(dt)

    endpoints = np.empty((cfg.n_paths, d))  # each chunk fills its rows
    stopped = np.ones(cfg.n_paths, dtype=bool)
    nonfinite = 0
    ball2 = cfg.n_ball * cfg.n_ball

    # overflow in a step is diagnosed as a nonfinite path, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cfg.n_paths, _CHUNK):
            m = min(_CHUNK, cfg.n_paths - start)
            # steps per draw, from the byte budget of a draw
            k = max(1, min(n_steps, _NOISE_BYTES // (8 * m * (r + d))))
            # the draw binds this chunk's stream and row count
            draw = partial(_increments, _chunk_rng(cfg.seed, start // _CHUNK), m, sqrt_dt, B.T)
            states = endpoints[start : start + m]
            states[...] = x  # the endpoint of a path that never steps
            # idx: the live paths of the chunk, cur: their states, one
            # row per coordinate (a NaN start is live, so its first step
            # counts it as nonfinite)
            cur = np.repeat(x[:, None], m, axis=1)
            idx = np.flatnonzero(~(_radius2(cur) >= ball2))
            cur = cur[:, idx]
            with _DrawAhead(draw, n_steps, k) as noise:
                for dw in noise:
                    if idx.size == 0:
                        break
                    # the field takes points as rows; on cur.T they are
                    # its columns, and its output .T is coordinate-major
                    incr = f(cur.T).T * dt
                    # take and compress copy columns as indexing does,
                    # several times faster
                    incr += dw if idx.size == m else dw.take(idx, axis=1)
                    nxt = cur + incr
                    # NaN and inf fail the test, so "all inside" means "all finite"
                    inside = _radius2(nxt) < ball2
                    if inside.all():
                        cur = nxt
                        continue
                    finite = np.isfinite(nxt).all(axis=0)
                    nonfinite += idx.size - int(finite.sum())
                    nxt[:, ~finite] = np.nan
                    states[idx[~inside]] = nxt.compress(~inside, axis=1).T
                    idx, cur = idx.compress(inside), nxt.compress(inside, axis=1)
            states[idx] = cur.T
            stopped[start + idx] = False
    return endpoints, stopped, nonfinite


def _radius2(states: np.ndarray) -> np.ndarray:
    """Squared radius of each column of a (d, n) array: the squared
    coordinates summed from +0.0 in coordinate order."""
    return np.einsum("ij,ij->j", states, states)


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
