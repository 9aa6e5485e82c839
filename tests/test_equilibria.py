"""Equilibrium search and the x -> equilibrium -> z chain."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import no_noise_model

from conecert.closure import choose_basis, compute_C
from conecert.equilibria import _sobol_starts, find_equilibria, is_equilibrium, iter_chains
from conecert.models import bhw, get_builtin, langevin, quartic_double_well
from conecert.polyfield import compile_field

F = Fraction


def test_langevin_origin_is_equilibrium():
    m = get_builtin("langevin")
    ok, u, resid = is_equilibrium(m, [0.0, 0.0])
    assert ok and resid < 1e-12
    assert np.allclose(u, [0.0])
    # (0, 1) is not: the position drift x cannot be cancelled through x-noise
    ok, _, resid = is_equilibrium(m, [0.0, 1.0])
    assert ok  # drift at (0,1) is (1-1, 0) = (0,0): still an equilibrium
    ok, _, resid = is_equilibrium(m, [1.0, 0.0])
    assert not ok and resid == pytest.approx(1.0)  # dy = x = 1, uncancellable


def test_bhw_diagonal_equilibrium(bhw_model):
    # on y = x the x-drift vanishes; the y-drift -2xy is cancelled by
    # control u = 2xy through the noise direction (0,1)
    ok, u, resid = is_equilibrium(bhw_model, [1.0, 1.0])
    assert ok and resid < 1e-12
    assert np.allclose(u, [2.0])
    ok, _, resid = is_equilibrium(bhw_model, [1.0, 0.5])
    assert not ok and resid == pytest.approx(abs(-1.0 + 0.25))


def test_is_equilibrium_rejects_bad_tol(bhw_model):
    with pytest.raises(ValueError):
        is_equilibrium(bhw_model, [0.0, 0.0], tol=0.0)


def test_find_equilibria_on_diagonals(bhw_model):
    pts = find_equilibria(bhw_model, [(-2, 2), (-2, 2)], n_starts=64, seed=0)
    assert pts
    for p in pts:
        assert p.residual < 1e-10
        x, y = p.y
        assert abs(x * x - y * y) < 1e-6  # on the locus y^2 = x^2
        # reported control re-verifies
        ok, _, _ = is_equilibrium(bhw_model, p.y, tol=1e-8)
        assert ok


def test_find_equilibria_random_parabola_models():
    # for generic parameters the equilibria lie on a1 x - alpha1 x^2 + y^2 = 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        a1 = int(rng.integers(-2, 3))
        m = bhw(a1, int(rng.integers(-2, 3)), 1, 2, 1)
        pts = find_equilibria(m, [(-3, 3), (-3, 3)], n_starts=32, seed=1)
        for p in pts:
            x, y = p.y
            assert abs(a1 * x - x * x + y * y) < 1e-6


def test_find_equilibria_full_rank_noise_shortcut():
    m = langevin(1, 1, [[1]], quartic_double_well(1))
    # with an extra noise direction spanning R^2 every point qualifies
    from conecert.models import ModelSpec

    m2 = ModelSpec(
        name="elliptic",
        d=2,
        drift=m.drift,
        noise=((F(1), F(0)), (F(0), F(1))),
    )
    pts = find_equilibria(m2, [(-1, 1), (-1, 1)], n_starts=8, seed=0)
    assert len(pts) == 1
    assert np.allclose(pts[0].y, [0.0, 0.0])  # box center


def test_no_noise_is_equilibrium_is_the_drift_norm():
    # r = 0: the d x 0 noise matrix gives the empty control and the
    # residual |drift(y)|, with no case of its own
    m = no_noise_model()
    assert m.noise_matrix().shape == (2, 0)
    y = np.array([0.5, 0.25])
    ok, u, resid = is_equilibrium(m, y)
    assert not ok and u.shape == (0,)
    assert resid == float(np.linalg.norm(compile_field(m.drift)(y))) == 0.5


# sha256 of the y bytes of the three equilibria found in the r = 0 model
NO_NOISE_EQUILIBRIA_SHA256 = "ea67891a5bb9ee490f7c7eaa181ba0a6e92f14a17a3605d1aeab68c94247491a"


def test_no_noise_find_equilibria_pinned():
    # with no noise the projector is the identity: plain zeros of the drift
    found = find_equilibria(no_noise_model(), [(-2.0, 2.0), (-2.0, 2.0)], n_starts=64, seed=0)
    digest = hashlib.sha256(b"".join(ep.y.tobytes() for ep in found)).hexdigest()
    assert digest == NO_NOISE_EQUILIBRIA_SHA256
    assert all(ep.u.shape == (0,) for ep in found)
    roots = sorted([0.0, (0.5 - math.sqrt(4.25)) / 2, (0.5 + math.sqrt(4.25)) / 2])
    assert [ep.y[0] for ep in sorted(found, key=lambda ep: ep.y[0])] == pytest.approx(
        roots, abs=1e-12)
    for ep in found:
        assert ep.y[1] == pytest.approx(ep.y[0] ** 2, abs=1e-12)


def test_find_equilibria_degenerate_box(bhw_model):
    with pytest.raises(ValueError):
        find_equilibria(bhw_model, [(1, 1), (0, 2)])


def test_find_equilibria_skips_overflowing_starts(bhw_model):
    # x^2 overflows at nearly every start in this box; an empty list is
    # a valid outcome
    assert find_equilibria(bhw_model, [(0, 1e160), (0, 1)]) == []


# boxes with huge finite bounds, each overflowing somewhere: in the squared
# norm of the starts' residuals, in the solver's trust-region arithmetic,
# or in the box width itself
HUGE_BOXES = [
    ("bhw", [(0, 1e150), (0, 1)]),
    ("bhw", [(1.5243448201481792e16, 3.7338969076329064e16),
             (-8.544012179583062e56, 4.4527802084354433e-122)]),
    ("bhw", [(-3.545298355692283e51, -1.6703356487053424e16),
             (1e-06, 5.4717223385380376e16)]),
    ("langevin", [(-1e100, 1e100)] * 2),
    ("nonexample3d", [(-1.7976931348623157e308, 1.7976931348623157e308)] * 3),
]


@pytest.mark.parametrize("name,box", HUGE_BOXES)
def test_find_equilibria_huge_box_warns_nothing(name, box):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_equilibria(get_builtin(name), box, n_starts=16) == []


def test_build_chain_bhw(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    eqs = find_equilibria(bhw_model, [(-3, 3), (-3, 3)], n_starts=64, seed=0)
    chain = next(iter_chains(bhw_model, basis, [0.0, 0.0], [2.0, 1.0], eqs), None)
    assert chain is not None
    # equilibrium is strictly in D(x): its even coefficient is positive
    assert chain.coeffs_xy[1] > 0
    assert chain.coeffs_yz[1] > 0
    assert chain.y[0] > 0


def test_build_chain_failure(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    eqs = find_equilibria(bhw_model, [(-3, 3), (-3, 3)], n_starts=64, seed=0)
    # target strictly left of x: no equilibrium can bridge the cone
    assert next(iter_chains(bhw_model, basis, [0.0, 0.0], [-2.0, 0.0], eqs), None) is None


def test_iter_chains_ordered_by_detour(bhw_model):
    basis = choose_basis(compute_C(bhw_model))
    eqs = find_equilibria(bhw_model, [(-3, 3), (-3, 3)], n_starts=64, seed=0)
    x, z = np.zeros(2), np.array([2.0, 1.0])
    chains = list(iter_chains(bhw_model, basis, x, z, eqs))
    detours = [
        np.linalg.norm(c.y - x) + np.linalg.norm(z - c.y) for c in chains
    ]
    assert detours == sorted(detours)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 96])
def test_sobol_starts_match_scipy(d):
    from scipy.stats import qmc

    for seed in (0, 1, 5, 123):
        for n in (1, 2, 64, 100):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # n = 100 is no power of 2
                expected = qmc.Sobol(d, seed=seed).random(n)
            starts = _sobol_starts(d, n, seed)
            assert starts.dtype == expected.dtype and starts.shape == expected.shape
            assert starts.tobytes() == expected.tobytes()
