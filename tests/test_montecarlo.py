"""Stopped Euler-Maruyama simulation and binomial evidence."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import cubic_blowup
from scipy.stats import beta, ncx2
from test_goldens import ENDPOINT_GOLDENS

import conecert
from conecert import montecarlo
from conecert.models import ModelSpec, get_builtin
from conecert.montecarlo import (
    MAX_STEPS,
    SimConfig,
    _simulate_endpoints,
    clopper_pearson_lower,
    density_heatmap,
    simulate,
)
from conecert.polyfield import Polynomial, PolyVectorField

F = Fraction


def brownian2d():
    return ModelSpec(
        name="bm2",
        d=2,
        drift=PolyVectorField.zero(2),
        noise=((F(1), F(0)), (F(0), F(1))),
    )


# -- configuration ----------------------------------------------------


def test_simconfig_validation():
    with pytest.raises(ValueError):  # dt too coarse
        SimConfig(t=1.0, dt=0.5, n_ball=10, n_paths=10, seed=0,
                  z=np.zeros(2), delta=0.1)
    with pytest.raises(ValueError):  # nonpositive delta
        SimConfig(t=1.0, dt=1e-3, n_ball=10, n_paths=10, seed=0,
                  z=np.zeros(2), delta=0.0)
    with pytest.raises(ValueError):  # target ball pokes out of stopping ball
        SimConfig(t=1.0, dt=1e-3, n_ball=1.0, n_paths=10, seed=0,
                  z=np.array([1.0, 0.0]), delta=0.25)


@pytest.mark.parametrize("field,value", [
    ("n_paths", 0), ("n_paths", -5),
    ("t", 0.0), ("t", -1.0), ("t", float("nan")), ("t", float("inf")),
    ("dt", 0.0), ("dt", -1e-3), ("dt", float("nan")), ("dt", float("inf")),
    ("n_ball", float("nan")), ("n_ball", 0.05),
    ("delta", float("nan")), ("delta", float("inf")), ("delta", 0.0),
    # Philox keys are integers in [0, 2**128)
    ("seed", -1), ("seed", 2**128), ("seed", 10**42), ("seed", 1.5), ("seed", "0"),
])
def test_simconfig_rejects_bad_sizes(field, value):
    kwargs = dict(t=1.0, dt=1e-3, n_ball=10, n_paths=10, seed=0,
                  z=np.zeros(2), delta=0.1)
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"^{field} "):
        SimConfig(**kwargs)


def test_simconfig_rejects_more_steps_than_can_run():
    kwargs = dict(t=1.0, n_ball=10, n_paths=10, seed=0, z=np.zeros(2), delta=0.1)
    for dt in (1e-300, 0.99 / MAX_STEPS):
        with pytest.raises(ValueError, match="too fine"):
            SimConfig(dt=dt, **kwargs)
    with pytest.raises(ValueError, match="too fine"):  # t / dt overflows
        SimConfig(**{**kwargs, "t": 1e300}, dt=1e-300)
    assert SimConfig(dt=1e-6, **kwargs).dt == 1e-6


def test_simconfig_accepts_the_largest_philox_key():
    cfg = SimConfig(t=0.1, dt=1e-3, n_ball=10, n_paths=10, seed=2**128 - 1,
                    z=np.zeros(2), delta=0.1)
    assert simulate(brownian2d(), np.zeros(2), cfg).n_paths == 10


def test_simconfig_default_dt():
    cfg = SimConfig.default(t=2.0, z=np.zeros(2), n_ball=10)
    assert cfg.dt == pytest.approx(2.0 / 4000)


@pytest.mark.parametrize("n_paths", [2.5, 16.0, True, False, "16", None])
def test_simconfig_rejects_a_non_integer_path_count(n_paths):
    with pytest.raises(ValueError, match="^n_paths must be an integer"):
        SimConfig(t=0.1, dt=1e-3, n_ball=10, n_paths=n_paths, seed=0, z=np.zeros(2), delta=0.1)


def test_simconfig_stores_the_path_count_as_int():
    cfg = SimConfig(t=0.1, dt=1e-3, n_ball=10, n_paths=np.int64(16), seed=0, z=np.zeros(2),
                    delta=0.1)
    assert type(cfg.n_paths) is int
    ev = simulate(brownian2d(), np.zeros(2), cfg)
    assert type(ev.n_paths) is int and ev.n_paths == 16
    assert json.loads(json.dumps(ev.to_json()))["n_paths"] == 16


@pytest.mark.parametrize("seed", [True, False])
def test_simconfig_rejects_a_bool_seed(seed):
    # a bool is an Integral, and True would run as Philox key 1
    with pytest.raises(ValueError, match="^seed must be an integer"):
        SimConfig(t=0.1, dt=1e-3, n_ball=10, n_paths=16, seed=seed, z=np.zeros(2), delta=0.1)


def test_simconfig_stores_the_seed_as_int():
    kwargs = dict(t=0.1, dt=1e-3, n_ball=10, n_paths=16, z=np.zeros(2), delta=0.1)
    cfg = SimConfig(seed=np.int64(7), **kwargs)
    assert type(cfg.seed) is int and cfg.seed == 7
    assert json.dumps(cfg.seed) == "7"  # a numpy integer is no JSON
    assert simulate(brownian2d(), np.zeros(2), cfg) == simulate(
        brownian2d(), np.zeros(2), SimConfig(seed=7, **kwargs))


@pytest.mark.parametrize("z", [[1.0], [1.0, 0.0, 0.0]])
@pytest.mark.parametrize("run", ["simulate", "density_heatmap"])
def test_z_of_another_length_than_d_is_refused_before_stepping(monkeypatch, run, z):
    def no_steps(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(montecarlo, "_DrawAhead", no_steps)
    cfg = SimConfig(t=1.0, dt=1e-3, n_ball=1.3, n_paths=256, seed=0, z=z, delta=0.25)
    edges = np.linspace(-2.0, 2.0, 5)
    call = {"simulate": lambda: simulate(get_builtin("langevin"), np.zeros(2), cfg),
            "density_heatmap": lambda: density_heatmap(get_builtin("langevin"), np.zeros(2), cfg,
                                                       (edges, edges))}[run]
    with pytest.raises(ValueError, match="^z must have the model's 2 coordinates"):
        call()


# -- noise increments -------------------------------------------------


@pytest.mark.parametrize("name", ["langevin", "langevin2d", "bhw", "nonexample3d", "burgers"])
def test_increments_are_the_noise_product_of_every_builtin(name):
    B = get_builtin(name).noise_matrix()
    m, k, sqrt_dt = 300, 7, 0.0316
    got = montecarlo._increments(montecarlo._chunk_rng(5, 1), m, sqrt_dt, B.T, k)
    normals = montecarlo._chunk_rng(5, 1).standard_normal((k, m, B.shape[1]))
    product = (normals * sqrt_dt) @ B.T  # at most one nonzero per row of B
    assert got.shape == (k, B.shape[0], m) and got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(product.transpose(0, 2, 1)).tobytes()


class _Normals:
    """Stands in for a generator: hands out fixed "normals"."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, shape):
        assert shape == self.values.shape
        return self.values.copy()


def test_increments_sum_products_in_noise_order_from_positive_zero():
    # rows: two nonzeros, three, one, none; 1e-300 * 1e-300 underflows to
    # a signed zero, and -0.0 normals make -0.0 products
    B = np.array([[0.3, 0.0, -1.7, 0.0],
                  [1e-300, 2.5, 0.0, -1e-300],
                  [0.0, 0.0, 0.0, 7.0],
                  [0.0, 0.0, 0.0, 0.0]])
    k, m, sqrt_dt = 3, 40, 0.1
    normals = np.random.default_rng(3).standard_normal((k, m, 4))
    normals[0, :4] = [[-0.0, 1.0, -0.0, -0.0], [-1e-300, -0.0, 0.0, 1e-300],
                      [1e-300, 0.0, -0.0, -1e-300], [-0.0, -0.0, -0.0, -0.0]]
    got = montecarlo._increments(_Normals(normals), m, sqrt_dt, B.T, k)
    for step in range(k):
        for path in range(m):
            for j in range(4):
                acc = 0.0
                for q in range(4):
                    if B[j, q] != 0:
                        acc = acc + float(normals[step, path, q]) * sqrt_dt * float(B[j, q])
                assert np.float64(acc).tobytes() == got[step, j, path].tobytes(), (step, path, j)
    assert not np.signbit(got[:, 3]).any()  # a row without a nonzero is +0.0


# -- Clopper-Pearson --------------------------------------------------


def test_clopper_pearson_zero_hits():
    assert clopper_pearson_lower(0, 100) == 0.0


def test_clopper_pearson_matches_beta_quantile():
    assert clopper_pearson_lower(7, 100) == pytest.approx(
        beta.ppf(0.01, 7, 94)
    )
    # lower bound sits below the point estimate
    assert clopper_pearson_lower(7, 100) < 0.07


def test_clopper_pearson_monotone_in_hits():
    lows = [clopper_pearson_lower(h, 1000) for h in (1, 5, 20, 100)]
    assert lows == sorted(lows)


def _cp_grid():
    rng = np.random.default_rng(12)
    for n in (1, 2, 10, 100, 2048, 10**4, 2 * 10**4, 10**5, 10**6):
        ks = {1, 2, 3, n // 3, n // 2, n - 1, n, *rng.integers(1, n + 1, 5).tolist()}
        for k in sorted(k for k in ks if 1 <= k <= n):
            yield k, n, 0.99
        for confidence in (0.95, 0.999):
            yield n // 2 or 1, n, confidence
            yield 1, n, confidence


def test_clopper_pearson_matches_scipy_on_a_grid():
    for k, n, confidence in _cp_grid():
        low = clopper_pearson_lower(k, n, confidence)
        assert low == pytest.approx(beta.ppf(1 - confidence, k, n - k + 1),
                                    rel=1e-9, abs=0), (k, n, confidence)
        assert 0 < low < k / n


@pytest.mark.parametrize("hits,n,confidence", [
    (5, 3, 0.99),     # more hits than trials
    (-1, 10, 0.99),   # negative hits
    (1.5, 10, 0.99),  # fractional hits
    (1, 0, 0.99),     # no trials
    (0, 0, 0.99),
    (1, 2.5, 0.99),   # fractional trials
    (1, 10, 1.5),    # confidence outside (0, 1)
    (1, 10, 1.0),
    (1, 10, 0.0),
    (1, 10, -0.5),
    (1, 10, float("nan")),
])
def test_clopper_pearson_rejects_bad_inputs(hits, n, confidence):
    with pytest.raises(ValueError):
        clopper_pearson_lower(hits, n, confidence)


# -- simulation oracles -----------------------------------------------


def test_gaussian_ball_mass_oracle():
    # zero drift, identity noise: endpoint ~ N(x, t I); the hit
    # probability is a noncentral chi-square ball mass
    m = brownian2d()
    z = np.array([0.5, 0.0])
    cfg = SimConfig.default(t=1.0, z=z, n_ball=8.0, n_paths=20000, seed=1,
                            delta=0.25)
    ev = simulate(m, np.zeros(2), cfg)
    p = ncx2.cdf(cfg.delta**2, 2, float(z @ z))
    se = np.sqrt(p * (1 - p) / cfg.n_paths)
    assert abs(ev.hits / ev.n_paths - p) < 3 * se
    assert 0 < ev.lower_cb < ev.hits / ev.n_paths


def test_zero_noise_is_deterministic():
    # pure drift: all paths identical, hit count is all-or-nothing
    m = ModelSpec(
        name="drift-only", d=1,
        drift=PolyVectorField(1, (Polynomial.constant(1, 1),)),
        noise=(),
    )
    cfg = SimConfig(t=1.0, dt=1e-3, n_ball=5.0, n_paths=100, seed=0,
                    z=np.array([1.0]), delta=0.05)
    ev = simulate(m, np.zeros(1), cfg)
    assert ev.hits == 100
    cfg2 = SimConfig(t=1.0, dt=1e-3, n_ball=5.0, n_paths=100, seed=0,
                     z=np.array([2.0]), delta=0.05)
    assert simulate(m, np.zeros(1), cfg2).hits == 0


def test_seed_determinism_bit_exact():
    m = get_builtin("bhw")
    cfg = SimConfig(t=0.5, dt=5e-3, n_ball=8.0, n_paths=5000, seed=42,
                    z=np.array([1.0, 1.0]), delta=0.5)
    a = simulate(m, np.zeros(2), cfg)
    b = simulate(m, np.zeros(2), cfg)
    assert (a.hits, a.stopped_fraction) == (b.hits, b.stopped_fraction)
    c = simulate(m, np.zeros(2),
                 SimConfig(t=0.5, dt=5e-3, n_ball=8.0, n_paths=5000, seed=43,
                           z=np.array([1.0, 1.0]), delta=0.5))
    assert c.hits != a.hits or c.stopped_fraction != a.stopped_fraction


def test_path_count_invariance_of_common_paths():
    # chunked counter keying: the first 4096 paths are the same whatever
    # the total path count, so hits can only grow with n_paths
    m = brownian2d()
    z = np.array([0.2, 0.1])
    base = dict(t=0.5, dt=5e-3, n_ball=8.0, seed=9, z=z, delta=0.3)
    small = simulate(m, np.zeros(2), SimConfig(n_paths=4096, **base))
    large = simulate(m, np.zeros(2), SimConfig(n_paths=8192, **base))
    assert large.hits >= small.hits


def test_noise_memory_independent_of_steps():
    # 4000 steps x 256 paths x 2 normals, drawn as one block, take 16 MB
    m = get_builtin("langevin2d")
    cfg = SimConfig.default(t=1.0, z=np.zeros(m.d), n_ball=10.0, n_paths=256, seed=0)
    assert round(cfg.t / cfg.dt) * cfg.n_paths * m.r * 8 > 16e6
    tracemalloc.start()
    try:
        simulate(m, np.zeros(m.d), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_diverging_paths_warn_nothing():
    cfg = SimConfig(t=1.0, dt=1e-3, n_ball=1e300, n_paths=500, seed=1,
                    z=np.zeros(1), delta=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = simulate(cubic_blowup(), np.array([0.5]), cfg)
    assert ev.nonfinite_paths > 0
    assert ev.stopped_fraction == 1.0 and ev.hits == 0


def test_overflowing_noise_warns_nothing():
    # the increments overflow where they are drawn, on the noise thread
    m = ModelSpec(name="loud", d=1, drift=PolyVectorField.zero(1), noise=((F(10**308),),))
    cfg = SimConfig(t=1e4, dt=100.0, n_ball=float("inf"), n_paths=200, seed=0,
                    z=np.zeros(1), delta=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = simulate(m, np.zeros(1), cfg)
    assert ev.nonfinite_paths > 0


def test_stopping_freezes_paths():
    # strong outward drift: every path leaves the unit ball and freezes;
    # no path can then count as a hit at the origin
    m = ModelSpec(
        name="outward", d=1,
        drift=PolyVectorField(1, (Polynomial.constant(1, 10),)),
        noise=((F(1, 100),),),
    )
    cfg = SimConfig(t=1.0, dt=1e-3, n_ball=1.0, n_paths=500, seed=0,
                    z=np.array([0.0]), delta=0.5)
    ev = simulate(m, np.zeros(1), cfg)
    assert ev.stopped_fraction == 1.0
    assert ev.hits == 0 and ev.lower_cb == 0.0


def test_a_start_outside_the_stopping_ball_ends_where_it_starts():
    x = np.array([2.0, -1.0])
    endpoints, stopped, nonfinite = _simulate_endpoints(
        get_builtin("langevin"), x, SimConfig(t=0.1, dt=1e-3, n_ball=1.3, n_paths=300, seed=0,
                                              z=np.array([1.0, 0.0]), delta=0.25))
    assert stopped.all() and nonfinite == 0
    assert (endpoints == x).all()


def test_infinite_stopping_ball_stops_nothing():
    cfg = SimConfig(t=1.0, dt=1e-3, n_ball=float("inf"), n_paths=200, seed=0,
                    z=np.zeros(2), delta=2.0)
    ev = simulate(brownian2d(), np.zeros(2), cfg)
    assert ev.stopped_fraction == 0.0 and ev.hits > 0


def test_heatmap_matches_gaussian_histogram():
    # chi-square goodness of fit of the endpoint histogram against the
    # exact Gaussian cell masses, at the 1% level
    from scipy.stats import chi2, norm

    m = brownian2d()
    cfg = SimConfig(t=1.0, dt=5e-3, n_ball=10.0, n_paths=20000, seed=5,
                    z=np.zeros(2), delta=0.25)
    edges = np.linspace(-3.0, 3.0, 7)
    ev, counts = density_heatmap(m, np.zeros(2), cfg, (edges, edges))
    assert ev == simulate(m, np.zeros(2), cfg)
    cell = np.diff(norm.cdf(edges))
    expected = cfg.n_paths * np.outer(cell, cell)
    mask = expected > 10
    stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(mask.sum()) - 1
    assert stat < chi2.ppf(0.99, dof)


def test_heatmap_needs_two_dims():
    m = ModelSpec(
        name="line", d=1, drift=PolyVectorField.zero(1), noise=((F(1),),)
    )
    cfg = SimConfig(t=1.0, dt=5e-3, n_ball=10.0, n_paths=100, seed=0,
                    z=np.array([0.0]), delta=0.25)
    with pytest.raises(ValueError):
        density_heatmap(m, np.zeros(1), cfg, (np.linspace(-1, 1, 3),) * 2)


# -- noise drawn ahead ------------------------------------------------


def endpoint_bytes(model, x, kwargs):
    endpoints, stopped, nonfinite = _simulate_endpoints(model, np.array(x), SimConfig(**kwargs))
    return endpoints.tobytes(), stopped.tobytes(), nonfinite


# langevin stop-heavy, and the cubic model, whose 5000 paths are two
# chunks that each stop every path early
@pytest.mark.parametrize("make_model,x,kwargs,expected", ENDPOINT_GOLDENS[:2],
                         ids=["langevin_stop_heavy", "cubic_blowup"])
def test_endpoints_independent_of_noise_draw_size(monkeypatch, make_model, x, kwargs, expected):
    model = make_model()
    reference = endpoint_bytes(model, x, kwargs)
    seen = []  # steps per draw, per chunk
    draw_ahead = montecarlo._DrawAhead
    monkeypatch.setattr(montecarlo, "_DrawAhead",
                        lambda draw, n_steps, k: seen.append(k) or draw_ahead(draw, n_steps, k))
    step_bytes = 8 * montecarlo._CHUNK * (model.r + model.d)  # one step of a full chunk
    # one step a draw; 7 steps (31 in the 904-path chunk), which divide
    # none of the 1000; all 1000 steps in one draw
    for budget, ks in ((1, [1, 1]), (7 * step_bytes, [7, 31]), (10**12, [1000, 1000])):
        seen.clear()
        monkeypatch.setattr(montecarlo, "_NOISE_BYTES", budget)
        assert endpoint_bytes(model, x, kwargs) == reference, budget
        assert seen == ks


def test_draw_ahead_under_thread_stress(monkeypatch):
    # one step a draw and a 1 us switch interval, for the most handoffs
    # between caller and worker, in four simulations at once: eight
    # threads on the machine's cores
    kwargs = dict(t=0.1, dt=1e-3, n_ball=1.3, n_paths=300, seed=3, z=[1.0, 0.0], delta=0.25)
    model = get_builtin("langevin")
    reference = endpoint_bytes(model, [0.0, 0.0], kwargs)
    monkeypatch.setattr(montecarlo, "_NOISE_BYTES", 1)
    results = [None] * 4

    def run(i):
        results[i] = endpoint_bytes(model, [0.0, 0.0], kwargs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [reference] * 4


ENDPOINT_DIGESTS = """
import hashlib, json
import numpy as np
from test_goldens import ENDPOINT_GOLDENS
from conecert.montecarlo import SimConfig, _simulate_endpoints

out = []
for make_model, x, kwargs, _ in ENDPOINT_GOLDENS:
    endpoints, stopped, nonfinite = _simulate_endpoints(make_model(), np.array(x),
                                                        SimConfig(**kwargs))
    digest = hashlib.sha256(endpoints.tobytes() + stopped.tobytes()).hexdigest()
    out.append([digest, int(stopped.sum()), nonfinite])
print(json.dumps(out))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_endpoint_goldens_at_one_and_two_blas_threads(threads):
    # the noise thread's BLAS products run beside the steps
    paths = [str(Path(conecert.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", ENDPOINT_DIGESTS], capture_output=True,
                          text=True, check=True, timeout=300, env=env)
    assert json.loads(proc.stdout) == [list(expected) for *_, expected in ENDPOINT_GOLDENS]


BURGERS_EVIDENCE = """
import hashlib, json
import numpy as np
from conecert import SimConfig, get_builtin, simulate
from conecert.montecarlo import _simulate_endpoints

model = get_builtin("burgers")
out = []
for ball, delta in ((1.0, 0.5), (2.0, 1.0)):
    cfg = SimConfig(t=0.05, dt=5e-4, n_ball=ball, n_paths=64, seed=0, z=np.zeros(model.d),
                    delta=delta)
    ev = simulate(model, np.zeros(model.d), cfg)
    endpoints, stopped, _ = _simulate_endpoints(model, np.zeros(model.d), cfg)
    digest = hashlib.sha256(endpoints.tobytes() + stopped.tobytes()).hexdigest()
    out.append([ev.hits, ev.stopped_fraction, ev.nonfinite_paths, digest])
print(json.dumps(out))
"""


def test_burgers_evidence_same_at_one_and_two_blas_threads():
    # burgers' drift, like every drift, is summed term by term in a fixed
    # order with no BLAS product, so its endpoints' bits, and the counts
    # drawn from them, do not follow the thread count
    env = {**os.environ, "PYTHONPATH": str(Path(conecert.__file__).resolve().parents[1])}
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", BURGERS_EVIDENCE], capture_output=True, text=True, check=True,
        timeout=300, env={**env, "OPENBLAS_NUM_THREADS": threads}).stdout)
        for threads in ("1", "2")]
    assert runs[0] == runs[1]
    assert runs[0][0][1] > 0 and runs[0][1][0] > 0  # some paths stop, some hit


def test_simulate_leaves_no_thread(monkeypatch):
    before = threading.active_count()
    # a normal run, and one whose every path stops early in both chunks
    simulate(get_builtin("langevin"), np.zeros(2), SimConfig.default(
        t=1.0, z=np.array([1.0, 0.0]), n_ball=1.3, n_paths=300, seed=0))
    assert threading.active_count() == before
    make_model, x, kwargs, _ = ENDPOINT_GOLDENS[1]
    ev = simulate(make_model(), np.array(x), SimConfig(**kwargs))
    assert ev.stopped_fraction == 1.0
    assert threading.active_count() == before

    # a drift that raises mid-run, and a noise draw that raises
    field = montecarlo.compile_field

    def raising_field(V):
        f, calls = field(V), []

        def evaluate(x):
            calls.append(1)
            if len(calls) == 50:
                raise ArithmeticError("drift failed")
            return f(x)

        return evaluate

    cfg = SimConfig(t=1.0, dt=1e-3, n_ball=10.0, n_paths=100, seed=0, z=np.zeros(2), delta=0.25)
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "compile_field", raising_field)
        with pytest.raises(ArithmeticError, match="drift failed"):
            simulate(get_builtin("langevin"), np.zeros(2), cfg)
    assert threading.active_count() == before

    def raising_draw(rng, m, sqrt_dt, Bt, k):
        raise MemoryError("no room for the noise")

    monkeypatch.setattr(montecarlo, "_increments", raising_draw)
    with pytest.raises(MemoryError, match="no room"):
        simulate(get_builtin("langevin"), np.zeros(2), cfg)
    assert threading.active_count() == before
