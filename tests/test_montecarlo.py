"""Stopped Euler-Maruyama simulation and binomial evidence."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import cubic_blowup
from scipy.stats import beta, ncx2

from conecert.models import ModelSpec, get_builtin
from conecert.montecarlo import (
    SimConfig,
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
])
def test_simconfig_rejects_bad_sizes(field, value):
    kwargs = dict(t=1.0, dt=1e-3, n_ball=10, n_paths=10, seed=0,
                  z=np.zeros(2), delta=0.1)
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"^{field} "):
        SimConfig(**kwargs)


def test_simconfig_default_dt():
    cfg = SimConfig.default(t=2.0, z=np.zeros(2), n_ball=10)
    assert cfg.dt == pytest.approx(2.0 / 4000)


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
    counts = density_heatmap(m, np.zeros(2), cfg, (edges, edges))
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
