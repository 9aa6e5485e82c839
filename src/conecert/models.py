"""Built-in SDE models and the model-spec JSON format.

Each model is a drift given by a polynomial vector field plus a list of
constant noise directions.  Parameters are bound to exact rationals at
construction time.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polyfield import (
    Polynomial,
    PolyVectorField,
    Rational,
    field_from_json,
    field_to_json,
)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    name: str
    d: int
    drift: PolyVectorField
    noise: tuple[tuple[Fraction, ...], ...]
    params: dict[str, Fraction] = field(default_factory=dict)
    default_ball_n: int = 10
    # spectral coordinate names of `burgers`; not in the JSON, so never loaded
    layout: BurgersLayout | None = None

    def __post_init__(self):
        if self.drift.dim != self.d:
            raise ModelError(f"drift dim {self.drift.dim} != d {self.d}")
        noise = tuple(tuple(Fraction(c) for c in v) for v in self.noise)
        for v in noise:
            if len(v) != self.d:
                raise ModelError(f"noise vector {v} has length {len(v)}, expected {self.d}")
        object.__setattr__(self, "noise", noise)

    @property
    def r(self) -> int:
        return len(self.noise)

    def noise_matrix(self) -> np.ndarray:
        """d x r matrix whose columns are the noise directions."""
        if self.r == 0:
            return np.zeros((self.d, 0))
        return np.array([[float(c) for c in v] for v in self.noise]).T

    def noise_fields(self) -> list[PolyVectorField]:
        return [PolyVectorField.from_constant(v) for v in self.noise]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "d": self.d,
            "drift": field_to_json(self.drift),
            "noise": [
                [f"{c.numerator}/{c.denominator}" for c in v] for v in self.noise
            ],
            "params": {
                k: f"{v.numerator}/{v.denominator}" for k, v in self.params.items()
            },
            "default_ball_n": self.default_ball_n,
        }

    def spec_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def save_model(spec: ModelSpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(spec.to_json(), fh, indent=2)


def load_model(path: str) -> ModelSpec:
    with open(path) as fh:
        data = json.load(fh)
    return model_from_json(data)


def _positive_int(data: dict, key: str, default=None) -> int:
    v = data.get(key, default)
    if type(v) is not int or v < 1:  # bool is an int subclass; reject it too
        raise ModelError(f"{key} must be an integer >= 1, got {v!r}")
    return v


def _rational(x, where: str) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ModelError(f"{where}: {x!r} is not a rational number") from exc


def _float_sized(c: Fraction, where: str) -> Fraction:
    """c, when float(c) is finite: every numeric use evaluates in floats."""
    try:
        float(c)
    except OverflowError as exc:
        raise ModelError(
            f"{where}: a coefficient is too large for a float (above {sys.float_info.max:.4g})"
        ) from exc
    return c


def model_from_json(data: dict) -> ModelSpec:
    if not isinstance(data, dict):
        raise ModelError(f"model JSON must be an object, got {data!r}")
    for key in ("name", "d", "drift", "noise"):
        if key not in data:
            raise ModelError(f"model JSON missing field {key!r}")
    if not isinstance(data["name"], str):
        raise ModelError(f"name must be a string, got {data['name']!r}")
    d = _positive_int(data, "d")
    try:
        drift = field_from_json(data["drift"], d)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"drift: {exc}") from exc
    for j, p in enumerate(drift.components):
        for c in p.terms.values():
            _float_sized(c, f"drift component {j}")
    if not isinstance(data["noise"], list):
        raise ModelError(f"noise must be a list, got {data['noise']!r}")
    noise = []
    for i, v in enumerate(data["noise"]):
        if not isinstance(v, list) or len(v) != d:
            raise ModelError(f"noise[{i}] must be a list of length {d}, got {v!r}")
        where = f"noise[{i}]"
        noise.append(tuple(_float_sized(_rational(c, where), where) for c in v))
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ModelError(f"params must be an object, got {params!r}")
    return ModelSpec(
        name=data["name"],
        d=d,
        drift=drift,
        noise=tuple(noise),
        params={k: _rational(v, f"params[{k!r}]") for k, v in params.items()},
        default_ball_n=_positive_int(data, "default_ball_n", 10),
    )


# --------------------------------------------------------------------
# Langevin dynamics: velocity/position pairs with a polynomial potential.


def langevin(
    d: int,
    gamma: Rational,
    sigmas: Sequence[Sequence[Rational]],
    F_coeffs: dict | None = None,
) -> ModelSpec:
    """State (x, y) in R^{2d}: dx = (-gamma*x - grad F(y)) dt + sum sigma_j dW,
    dy = x dt.

    F_coeffs maps exponent tuples over the y variables to rational
    coefficients; None means F = 0.  When the sigmas span R^d the origin is
    an equilibrium of the control family, and [X_j, X0] = (-gamma*sigma_j, sigma_j).
    """
    gamma = Fraction(gamma)
    n = 2 * d
    F = Polynomial(d, F_coeffs or {})  # the potential, over the y variables

    def lift(p: Polynomial) -> Polynomial:
        # embed a polynomial in y-variables into the (x, y) space
        return Polynomial(
            n, {(0,) * d + e: c for e, c in p.terms.items()}
        )

    comps = []
    for i in range(d):
        xi = Polynomial.variable(n, i)
        comps.append(xi.scale(-gamma) - lift(F.diff(i)))
    for i in range(d):
        comps.append(Polynomial.variable(n, i))
    drift = PolyVectorField(n, tuple(comps))
    noise = []
    for s in sigmas:
        if len(s) != d:
            raise ModelError(f"sigma vector {s} has length {len(s)}, expected {d}")
        noise.append(tuple(Fraction(c) for c in s) + (Fraction(0),) * d)
    return ModelSpec(
        name="langevin",
        d=n,
        drift=drift,
        noise=tuple(noise),
        params={"gamma": gamma},
    )


def quartic_double_well(d: int = 1) -> dict:
    """Coefficients of F(y) = |y|^4/4 - |y|^2/2."""
    coeffs: dict[tuple, Fraction] = {}
    # |y|^4 = (sum y_i^2)^2
    for i in range(d):
        for j in range(d):
            e = [0] * d
            e[i] += 2
            e[j] += 2
            key = tuple(e)
            coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(1, 4)
    for i in range(d):
        e = [0] * d
        e[i] = 2
        key = tuple(e)
        coeffs[key] = coeffs.get(key, Fraction(0)) - Fraction(1, 2)
    return coeffs


# --------------------------------------------------------------------
# Two-dimensional model with a one-sided cone direction.


def bhw(
    a1: Rational, a2: Rational, alpha1: Rational, alpha2: Rational, eps: Rational
) -> ModelSpec:
    """dx = (a1*x - alpha1*x^2 + y^2) dt, dy = (a2*y - alpha2*x*y) dt + eps dW.

    Requires alpha2 > alpha1 > 0 and eps > 0.  Control equilibria lie on
    x = (a1 +/- sqrt(a1^2 + 4*alpha1*y^2)) / (2*alpha1), and
    ad^2(X1)(X0) = (2*eps^2, 0).
    """
    a1, a2 = Fraction(a1), Fraction(a2)
    alpha1, alpha2 = Fraction(alpha1), Fraction(alpha2)
    eps = Fraction(eps)
    if not (alpha2 > alpha1 > 0):
        raise ModelError(f"need alpha2 > alpha1 > 0, got {alpha1}, {alpha2}")
    if eps <= 0:
        raise ModelError(f"need eps > 0, got {eps}")
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    drift = PolyVectorField(
        2,
        (
            x.scale(a1) - (x * x).scale(alpha1) + y * y,
            y.scale(a2) - (x * y).scale(alpha2),
        ),
    )
    return ModelSpec(
        name="bhw",
        d=2,
        drift=drift,
        noise=((Fraction(0), eps),),
        params={"a1": a1, "a2": a2, "alpha1": alpha1, "alpha2": alpha2, "eps": eps},
    )


# --------------------------------------------------------------------
# Three-dimensional system whose cone is only two-dimensional.


def nonexample3d() -> ModelSpec:
    """dx = -xy dt + dB, dy = (x^2 - yz) dt, dz = (y^2 - z) dt.

    Its cone is span{e1} + cone{e2}, of dimension 2.
    """
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    z = Polynomial.variable(3, 2)
    drift = PolyVectorField(
        3,
        (
            -(x * y),
            x * x - y * z,
            y * y - z,
        ),
    )
    return ModelSpec(
        name="nonexample3d",
        d=3,
        drift=drift,
        noise=((Fraction(1), Fraction(0), Fraction(0)),),
    )


# --------------------------------------------------------------------
# Galerkin-truncated 2-D stochastic Burgers system.
#
# State per wavevector k: the incompressible amplitude w_k and the
# compressible amplitude q_k, both complex, realified as
# (Re w_k, Im w_k, Re q_k, Im q_k).  No reality constraint is imposed:
# every k in the index set carries independent coordinates.  The
# holomorphic control fields map to coordinate fields:
# X_k = d/d(Re w_k), Y_k = d/d(Im w_k), Xt_k = d/d(Re q_k),
# Yt_k = d/d(Im q_k) (identification scale 1).


def index_set(N: int) -> list[tuple[int, int]]:
    """Nonzero integer wavevectors with sup-norm at most N, sorted."""
    out = [
        (k1, k2)
        for k1 in range(-N, N + 1)
        for k2 in range(-N, N + 1)
        if (k1, k2) != (0, 0)
    ]
    return sorted(out)


@dataclass(frozen=True)
class BurgersLayout:
    """Coordinate layout of the realified truncation."""

    modes: tuple[tuple[int, int], ...]

    def coord(self, k: tuple[int, int], part: str) -> int:
        """Index of a coordinate: part in {re_w, im_w, re_q, im_q}."""
        base = 4 * self.modes.index(k)
        return base + ("re_w", "im_w", "re_q", "im_q").index(part)

    @property
    def dim(self) -> int:
        return 4 * len(self.modes)

    def unit(self, k: tuple[int, int], part: str) -> tuple[Fraction, ...]:
        v = [Fraction(0)] * self.dim
        v[self.coord(k, part)] = Fraction(1)
        return tuple(v)


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _perp(a) -> tuple[int, int]:
    return (-a[1], a[0])


def _norm2(a) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _add_i_product(acc: tuple[dict, dict], c: Fraction, u, v) -> None:
    """Add i*c*u*v to the complex component acc = (re terms, im terms),
    for complex variables u, v given by their (re, im) coordinates.
    Terms are keyed by sorted pairs of variable indices."""
    if not c:
        return
    (ur, ui), (vr, vi) = u, v
    re, im = acc
    for terms, i, j, s in ((re, ur, vi, -c), (re, ui, vr, -c), (im, ur, vr, c), (im, ui, vi, -c)):
        key = (i, j) if i <= j else (j, i)
        terms[key] = terms.get(key, 0) + s


def _from_index_terms(dim: int, terms: dict) -> Polynomial:
    """Polynomial from {tuple of variable indices: coefficient}; an
    index's multiplicity in its tuple is its exponent."""
    out = {}
    for key, c in terms.items():
        if c:
            e = [0] * dim
            for i in key:
                e[i] += 1
            out[tuple(e)] = c
    return Polynomial._raw(dim, out)


def burgers(
    N: int,
    nu: Rational,
    forced_sigma: Sequence[tuple[int, int]] = (),
    forced_gamma: Sequence[tuple[int, int]] = (),
) -> ModelSpec:
    """Spectral truncation of the 2-D stochastic Burgers equation.

    forced_sigma lists the modes whose incompressible amplitudes are
    driven (both real and imaginary channels); forced_gamma likewise for
    the compressible amplitudes.
    """
    if N < 2:
        raise ModelError(f"need N >= 2, got {N}")
    nu = Fraction(nu)
    modes = tuple(index_set(N))
    layout = BurgersLayout(modes)
    dim = layout.dim
    mode_set = set(modes)
    for k in list(forced_sigma) + list(forced_gamma):
        if tuple(k) not in mode_set:
            raise ModelError(f"forced mode {k} outside the truncation index set")

    # (re, im) coordinates of each mode's complex amplitudes
    w = {k: (layout.coord(k, "re_w"), layout.coord(k, "im_w")) for k in modes}
    q = {k: (layout.coord(k, "re_q"), layout.coord(k, "im_q")) for k in modes}
    comps: list[Polynomial | None] = [None] * dim
    for k in modes:
        # dw = visc*w_k + i*Fperp, dq = visc*q_k + i*Fpar, with the
        # symmetrized nonlinearities Fperp and Fpar summed over l
        visc = Fraction(-nu * _norm2(k))
        (wr, wi), (qr, qi) = w[k], q[k]
        dw = ({(wr,): visc}, {(wi,): visc})
        dq = ({(qr,): visc}, {(qi,): visc})
        for l in modes:
            kl = (k[0] - l[0], k[1] - l[1])
            if kl not in mode_set:
                continue
            lp_k = _dot(_perp(l), k)
            nl, nkl = _norm2(l), _norm2(kl)
            _add_i_product(dw, Fraction(lp_k, 2) * (Fraction(1, nl) - Fraction(1, nkl)),
                           w[l], w[kl])
            _add_i_product(dw, Fraction(_dot(kl, k), nkl), w[l], q[kl])
            _add_i_product(dq, Fraction(-lp_k * lp_k, nl * nkl), w[l], w[kl])
            _add_i_product(dq, Fraction(lp_k * _dot(kl, (k[0] + l[0], k[1] + l[1])),
                                        nl * nkl), w[l], q[kl])
            _add_i_product(dq, Fraction(_dot(l, kl) * _norm2(k), 2 * nl * nkl), q[l], q[kl])
        for i, terms in zip((wr, wi, qr, qi), (*dw, *dq)):
            comps[i] = _from_index_terms(dim, terms)

    drift = PolyVectorField(dim, tuple(comps))
    noise = []
    for k in forced_sigma:
        noise.append(layout.unit(tuple(k), "re_w"))
        noise.append(layout.unit(tuple(k), "im_w"))
    for k in forced_gamma:
        noise.append(layout.unit(tuple(k), "re_q"))
        noise.append(layout.unit(tuple(k), "im_q"))
    return ModelSpec(
        name=f"burgers_N{N}",
        d=dim,
        drift=drift,
        noise=tuple(noise),
        params={"nu": nu},
        layout=layout,
    )


# --------------------------------------------------------------------
# Registry for the CLI.


def shell1_forcing(N: int) -> list[tuple[int, int]]:
    return [k for k in index_set(N) if max(abs(k[0]), abs(k[1])) == 1]


BUILTINS = {
    "langevin": lambda: langevin(
        1, 1, [[1]], quartic_double_well(1)
    ),
    "langevin2d": lambda: langevin(
        2, 1, [[1, 0], [0, 1]], quartic_double_well(2)
    ),
    "bhw": lambda: bhw(0, 0, 1, 2, 1),
    "nonexample3d": nonexample3d,
    "burgers": lambda: burgers(2, 1, forced_sigma=shell1_forcing(2)),
}


def get_builtin(name: str) -> ModelSpec:
    if name not in BUILTINS:
        raise ModelError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}"
        )
    return BUILTINS[name]()
