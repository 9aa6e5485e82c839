"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line; tolerances and runtime budgets are asserted inside the test.
"""

import functools
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from conecert import reach
from conecert.brackets import parse_bracket
from conecert.closure import (
    RationalSpan,
    choose_basis,
    compute_C,
    primitive_direction,
)
from conecert.equilibria import EquilibriumPoint
from conecert.models import ModelSpec, bhw, get_builtin, langevin
from conecert.montecarlo import SimConfig, simulate
from conecert.polyfield import (
    Polynomial,
    PolyVectorField,
    ad_power,
    lie_bracket,
)
from conecert.reach import (
    CertifyOptions,
    ControlPath,
    _integrate_once,
    certify,
    gramian,
    gramian_threshold,
    integrate_flow,
    k_rank,
)

F = Fraction


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {title}")
                raise
            print(f"\n[PASS] criterion {number}: {title}")

        return wrapper

    return deco


COMMUTATOR_PAIRS = [
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
    ((1, 1), (0, -1)),
    ((1, 1), (-1, 0)),
]


def _perp(j):
    return (-j[1], j[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _n2(a):
    return a[0] * a[0] + a[1] * a[1]


def _spectral_expected(bg, j, m, flavor):
    """Exact right-hand side of the four displayed commutator identities."""
    layout = bg.layout
    k = (j[0] + m[0], j[1] + m[1])
    pj = _dot(_perp(j), m)
    c1 = F(pj) * (F(1, _n2(j)) - F(1, _n2(m)))
    c2 = F(2 * pj * pj, _n2(j) * _n2(m))
    c3 = F(_dot(m, k), _n2(m))
    c4 = F(pj * _dot(m, (m[0] + 2 * j[0], m[1] + 2 * j[1])), _n2(j) * _n2(m))
    plain, tilde, cp, ct = {
        1: ("im_w", "im_q", c1, -c2),
        2: ("re_w", "re_q", -c1, c2),
        3: ("im_w", "im_q", c3, c4),
        4: ("re_w", "re_q", -c3, -c4),
    }[flavor]
    out = PolyVectorField.zero(bg.d)
    if cp != 0:
        out = out + PolyVectorField.from_constant(layout.unit(k, plain)).scale(cp)
    if ct != 0:
        out = out + PolyVectorField.from_constant(layout.unit(k, tilde)).scale(ct)
    return out


@criterion(1, "bracket golden vectors (exact rational arithmetic)")
def test_criterion_1_bracket_goldens():
    t0 = time.monotonic()

    # [X_j, X0] = (-gamma sigma_j, sigma_j) for damped second-order dynamics
    for gamma, sigma in [(1, [1]), (3, [2]), (F(1, 2), [5])]:
        m = langevin(1, gamma, [sigma], None)
        X1 = m.noise_fields()[0]
        got = lie_bracket(X1, m.drift)
        assert got.is_constant()
        assert got.constant_value() == (
            -F(gamma) * F(sigma[0]),
            F(sigma[0]),
        )

    # ad^2 X1 (X0) = 2 d/dx for the planar quadratic model with eps=1
    m = bhw(0, 0, 1, 2, 1)
    got = ad_power(m.noise_fields()[0], m.drift, 2)
    assert got.constant_value() == (F(2), F(0))

    # the four spectral commutator families at six (j, m) pairs each
    bg = get_builtin("burgers")
    syms = {1: "X", 2: "Y", 3: "Xt", 4: "Yt"}
    for flavor, sym in syms.items():
        for j, mm in COMMUTATOR_PAIRS:
            got = parse_bracket(
                f"[{sym}({mm[0]},{mm[1]}),[X({j[0]},{j[1]}),X0]]", bg
            )
            assert got == _spectral_expected(bg, j, mm, flavor), (flavor, j, mm)

    assert time.monotonic() - t0 < 10.0


@criterion(2, "closure golden sets (exact)")
def test_criterion_2_closure_goldens():
    t0 = time.monotonic()

    for name, dim in [("langevin", 2), ("langevin2d", 4)]:
        cone = compute_C(get_builtin(name))
        assert cone.rank() == dim
        assert not cone.even_generators  # all-odd

    cone = compute_C(get_builtin("bhw"))
    assert [cf.value for cf in cone.odd_basis] == [(F(0), F(1))]
    assert [cf.value for cf in cone.even_generators] == [(F(1), F(0))]

    cone = compute_C(get_builtin("nonexample3d"))
    assert cone.rank() == 2
    assert [cf.value for cf in cone.odd_basis] == [(F(1), F(0), F(0))]
    assert [primitive_direction(cf.value) for cf in cone.even_generators] == [
        (F(0), F(1), F(0))
    ]
    from conecert.closure import BasisSelectionError

    with pytest.raises(BasisSelectionError):
        choose_basis(cone)

    assert time.monotonic() - t0 < 30.0


@criterion(3, "spectral-model induction step over the first shell")
def test_criterion_3_burgers_induction():
    t0 = time.monotonic()
    bg = get_builtin("burgers")
    layout = bg.layout
    cone = compute_C(bg, max_rounds=6, combo_budget=0)

    assert not cone.even_generators  # every discovered direction is two-sided
    span = RationalSpan(bg.d)
    for cf in cone.odd_basis:
        assert cf.parity in ("seed", "odd")
        span.add(cf.value)

    shell1 = [k for k in layout.modes if max(abs(k[0]), abs(k[1])) == 1]
    assert len(shell1) == 8
    for k in shell1:
        for part in ("re_q", "im_q"):  # the compressible (tilde) constants
            assert span.contains(layout.unit(k, part)), (k, part)
    for k in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        for part in ("re_q", "im_q"):
            assert span.contains(layout.unit(k, part)), (k, part)

    assert time.monotonic() - t0 < 300.0


@criterion(4, "Gramian closed-form oracle")
def test_criterion_4_gramian_oracle():
    t0 = time.monotonic()
    m = ModelSpec(
        name="shear",
        d=2,
        drift=PolyVectorField(
            2, (Polynomial.zero(2), Polynomial.variable(2, 0))
        ),
        noise=((F(1), F(0)),),
    )
    flow = integrate_flow(m, np.zeros(2), ControlPath.zero(1.0, 1))
    M, _ = gramian(flow, m)
    assert np.max(np.abs(M - np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]]))) < 1e-7
    assert abs(np.linalg.det(M) - 1.0 / 12.0) < 1e-7
    assert time.monotonic() - t0 < 1.0


@criterion(5, "full bracket rank implies invertible Gramian (50 flows)")
def test_criterion_5_rank_gramian_consistency():
    rng = np.random.default_rng(2024)
    names = ["langevin", "langevin2d", "bhw", "nonexample3d"]
    violations = 0
    checked = 0
    while checked < 50:
        m = get_builtin(names[checked % len(names)])
        pieces = int(rng.integers(1, 4))
        control = ControlPath.uniform(
            float(rng.uniform(0.3, 1.2)),
            rng.normal(scale=0.5, size=(pieces, m.r)),
        )
        x0 = rng.normal(scale=0.5, size=m.d)
        flow = integrate_flow(m, x0, control, n_steps=400)
        M, sigma_min = gramian(flow, m)
        if k_rank(flow, m) == m.d and sigma_min <= gramian_threshold(M):
            violations += 1
        checked += 1
    assert violations == 0


@criterion(6, "positivity certificates (direct, via equilibrium, refusal)")
def test_criterion_6_certificates(monkeypatch):
    t0 = time.monotonic()

    m = get_builtin("langevin")
    basis = choose_basis(compute_C(m))
    cert = certify(m, basis, [0.0, 0.0], [1.0, 0.0], 1.0, CertifyOptions(seed=0))
    assert cert.verdict == "positive"
    assert cert.terminal_error < 1e-5
    assert cert.sigma_min > 0 and cert.K_rank == 2

    b = get_builtin("bhw")
    basis_b = choose_basis(compute_C(b))
    monkeypatch.setattr(reach, "find_equilibria", lambda *a, **k: [
        EquilibriumPoint(y=np.array([1.0, 1.0]), u=np.array([2.0]), residual=0.0)])
    cert2 = certify(b, basis_b, [0.0, 0.0], [2.0, 1.0], 1.0,
                    CertifyOptions(via_equilibrium=True, seed=0))
    assert cert2.verdict == "positive"
    assert cert2.terminal_error < 1e-5
    assert cert2.sigma_min > 0

    cert3 = certify(b, basis_b, [0.0, 0.0], [-1.0, 0.0], 1.0)
    assert cert3.verdict == "inconclusive" and cert3.stage == "membership"

    assert time.monotonic() - t0 < 120.0


@criterion(7, "Monte Carlo corroboration and Gaussian reference")
def test_criterion_7_monte_carlo():
    t0 = time.monotonic()

    m = get_builtin("langevin")
    cfg = SimConfig.default(
        t=1.0, z=np.array([1.0, 0.0]), n_ball=10.0, n_paths=100_000,
        seed=7, delta=0.25,
    )
    ev = simulate(m, np.zeros(2), cfg)
    assert ev.lower_cb > 0.0

    # reference: zero drift, identity noise, endpoint ~ N(0, t I)
    from scipy.stats import ncx2

    g = ModelSpec(
        name="bm2", d=2, drift=PolyVectorField.zero(2),
        noise=((F(1), F(0)), (F(0), F(1))),
    )
    z = np.array([0.5, 0.0])
    cfg2 = SimConfig.default(
        t=1.0, z=z, n_ball=10.0, n_paths=20_000, seed=7, delta=0.25
    )
    ev2 = simulate(g, np.zeros(2), cfg2)
    p = ncx2.cdf(cfg2.delta**2, 2, float(z @ z))
    se = np.sqrt(p * (1 - p) / cfg2.n_paths)
    assert abs(ev2.hits / ev2.n_paths - p) < 3 * se

    assert time.monotonic() - t0 < 120.0


@criterion(8, "algebraic and numerical property suites")
def test_criterion_8_property_suites():
    t0 = time.monotonic()

    # exact bracket algebra on random rational fields
    rng = np.random.default_rng(99)

    def rand_field(dim=2, max_deg=2):
        comps = []
        for _ in range(dim):
            terms = {}
            for _ in range(3):
                e = tuple(int(v) for v in rng.integers(0, max_deg + 1, dim))
                if sum(e) > max_deg:
                    continue
                terms[e] = F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            comps.append(Polynomial(dim, terms))
        return PolyVectorField(dim, tuple(comps))

    for _ in range(20):
        U, V, W = rand_field(), rand_field(), rand_field()
        assert lie_bracket(U, V) == lie_bracket(V, U).scale(-1)
        c = F(2, 3)
        assert lie_bracket(U + V.scale(c), W) == (
            lie_bracket(U, W) + lie_bracket(V, W).scale(c)
        )
        jac_sum = (
            lie_bracket(U, lie_bracket(V, W))
            + lie_bracket(V, lie_bracket(W, U))
            + lie_bracket(W, lie_bracket(U, V))
        )
        assert jac_sum.is_zero()

    # Gramian symmetry / PSD at 1e-7
    m = get_builtin("bhw")
    for _ in range(5):
        control = ControlPath.uniform(0.8, rng.normal(scale=0.5, size=(2, m.r)))
        x0 = rng.normal(scale=0.4, size=2)
        flow = integrate_flow(m, x0, control, n_steps=800)
        M, _ = gramian(flow, m)
        assert np.max(np.abs(M - M.T)) < 1e-7
        assert np.linalg.eigvalsh(M)[0] >= -1e-7

    # Gramian against Van Loan's closed form, at cond(J_{0,t}) = e^20:
    # expm([[-A, B B^T], [0, A^T]] t) = [[., F12], [0, F22]], M_t = F22^T F12
    saddle = ModelSpec(
        name="saddle",
        d=2,
        drift=PolyVectorField(
            2, (Polynomial(2, {(1, 0): F(-10)}), Polynomial(2, {(0, 1): F(10)}))
        ),
        noise=((F(1), F(1)),),
    )
    A = np.diag([-10.0, 10.0])
    E = expm(np.block([[-A, np.ones((2, 2))], [np.zeros((2, 2)), A.T]]))
    exact = E[2:, 2:].T @ E[:2, 2:]
    flow = integrate_flow(saddle, np.zeros(2), ControlPath.zero(1.0, 1))
    M, _ = gramian(flow, saddle)
    assert np.max(np.abs(M - exact) / np.abs(exact)) < 1e-7

    # variational gradient vs central differences at 1e-4 relative
    pieces = 3
    u = np.array([0.4, -0.2, 0.7])
    x0 = np.array([0.1, 0.2])

    def terminal(uflat):
        c = ControlPath.uniform(0.8, uflat.reshape(pieces, 1))
        return _integrate_once(m, x0, c, 600, "sensitivity").terminal

    J = _integrate_once(
        m, x0, ControlPath.uniform(0.8, u.reshape(pieces, 1)), 600, "sensitivity"
    ).S
    h = 1e-6
    for p in range(pieces):
        e = np.zeros(pieces)
        e[p] = h
        fd = (terminal(u + e) - terminal(u - e)) / (2 * h)
        assert np.linalg.norm(J[:, p] - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4

    # bit-exact seed determinism of the simulator
    cfg = SimConfig(
        t=0.5, dt=5e-3, n_ball=8.0, n_paths=4096, seed=13,
        z=np.array([1.0, 1.0]), delta=0.5,
    )
    a = simulate(m, np.zeros(2), cfg)
    b = simulate(m, np.zeros(2), cfg)
    assert (a.hits, a.stopped_fraction, a.nonfinite_paths) == (
        b.hits, b.stopped_fraction, b.nonfinite_paths
    )

    assert time.monotonic() - t0 < 180.0
