"""Equilibrium search and the x -> equilibrium -> z chain."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import no_noise_model

from conecert.closure import choose_basis, compute_C
from conecert.equilibria import (_latin_hypercube, find_equilibria, is_equilibrium,
                                 iter_chains, trust_region_least_squares)
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
NO_NOISE_EQUILIBRIA_SHA256 = "5c9162b989a250b9833a010c7bfa9574ababea8db4443978fcd3f6ea8f278361"


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
    # the equilibrium is strictly in D(x), and z strictly in D(y): over Q,
    # the one-sided coefficient of (dx, dy) in the basis ((0, 1), (a, 0))
    # is dx / a
    assert basis.vectors[0] == (F(0), F(1)) and basis.vectors[1][1] == 0
    a = basis.vectors[1][0]
    assert (F(chain.y[0]) - 0) / a > 0
    assert (F(2.0) - F(chain.y[0])) / a > 0
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
def test_latin_hypercube_starts(d):
    for seed in (0, 1, 5, 123):
        for n in (1, 2, 64, 100):
            starts = _latin_hypercube(d, n, seed)
            assert starts.shape == (n, d)
            assert np.all((0 <= starts) & (starts <= 1))
            # each coordinate puts exactly one start in each of n strata
            strata = np.floor(starts * n).astype(int)
            assert np.all(np.sort(strata, axis=0) == np.arange(n)[:, None])
            if n >= 64:  # each coordinate orders its strata by its own permutation
                assert len({column.tobytes() for column in strata.T}) == d
            assert _latin_hypercube(d, n, seed).tobytes() == starts.tobytes()
    for n in (1, 2, 64, 100):
        assert _latin_hypercube(d, n, 0).tobytes() != _latin_hypercube(d, n, 1).tobytes()


LSQ_KINDS = ["over", "projected", "under", "zero_jacobian"]


def least_squares_problem(kind, rng):
    """A smooth residual f, its Jacobian and a start, of one of four
    kinds: overdetermined and full rank; square and rank-deficient, P f
    with P a projector off r >= 1 random directions, as in the search;
    underdetermined; and a zero Jacobian at the start."""
    n = int(rng.integers(2, 6))
    m = {"over": n + int(rng.integers(1, 4)), "projected": n, "under": n - 1,
         "zero_jacobian": n}[kind]
    A, C = rng.normal(size=(m, n)), rng.normal(size=(m, n))
    c = rng.normal(size=m)
    P = np.eye(m)
    if kind == "projected":
        Q, _ = np.linalg.qr(rng.normal(size=(m, int(rng.integers(1, n)))))
        P -= Q @ Q.T
    x0 = 2.0 * rng.normal(size=n)
    if kind == "zero_jacobian":
        # f = (x_i^2 - 1)_i mixed by A, stationary at the start x0 = 0
        x0 = np.zeros(n)
        return (lambda x: A @ (x**2 - 1.0)), (lambda x: A * (2.0 * x)), x0
    return ((lambda x: P @ (A @ x + c + 0.5 * np.sin(C @ x))),
            (lambda x: P @ (A + 0.5 * np.cos(C @ x)[:, None] * C)), x0)


# the two callers' settings: leg synthesis, and the search at d = n
@pytest.mark.parametrize("kind", LSQ_KINDS)
@pytest.mark.parametrize("caller", ["synthesis", "search"])
def test_least_squares_matches_scipy_trf(monkeypatch, kind, caller):
    from scipy.linalg import svd
    from scipy.optimize import least_squares

    # scipy's SVD: numpy's may round last bits differently
    monkeypatch.setattr(np.linalg, "svd", svd)
    rng = np.random.default_rng(LSQ_KINDS.index(kind))
    for _ in range(8):
        fun, jac, x0 = least_squares_problem(kind, rng)
        gtol, max_evals = (1e-12, 200) if caller == "synthesis" else (1e-14, 100 * len(x0))
        with np.errstate(all="ignore"):
            x, extra = trust_region_least_squares(
                lambda x: (fun(x), jac(x), "flow"), x0, gtol, max_evals)
            expected = least_squares(fun, x0, jac=jac, method="trf", x_scale=1.0, ftol=1e-14,
                                     xtol=1e-14, gtol=gtol, max_nfev=max_evals).x
        assert x.tobytes() == expected.tobytes()
        assert extra == "flow"


@pytest.mark.parametrize("f0", [[np.inf, 0.0], [np.nan, 1.0], [1e200, 0.0]])
def test_least_squares_refuses_a_start_of_non_finite_cost(f0):
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        trust_region_least_squares(lambda x: (np.array(f0), np.eye(2), None),
                                   np.zeros(2), 1e-12, 200)
