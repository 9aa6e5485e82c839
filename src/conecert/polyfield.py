"""Exact multivariate polynomials and polynomial vector-field calculus.

Coefficients are rationals (`fractions.Fraction`) throughout, so parity
decisions and zero tests are never contaminated by floating point.  All
values are immutable after construction and every operation is a pure
function.  Floats enter only through the compiled kernels at the end of
the module (`compile_field`, `compile_jacobian`), the one float evaluator.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

Exponents = tuple[int, ...]
Rational = Fraction | int


class DegreeSentinel(enum.Enum):
    """Degree of the zero polynomial: neither even nor odd, not an int."""

    NO_DEGREE = "no-degree"


NO_DEGREE = DegreeSentinel.NO_DEGREE


class DimensionMismatchError(ValueError):
    pass


def _grlex_key(exps: Exponents) -> tuple:
    # graded lexicographic: total degree first, then lexicographic
    return (sum(exps), exps)


_ZERO = Fraction(0)


class Polynomial:
    """Sparse exact-rational polynomial in `dim` variables.

    Terms map exponent tuples of length `dim` to nonzero Fractions.
    Term order is canonical (graded lex), so equal polynomials compare
    equal structurally.
    """

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[Exponents, Rational] = ()):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        clean: dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != dim:
                raise DimensionMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {dim}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coeff)
            if c != 0:
                c += clean.get(exps, Fraction(0))
                if c == 0:
                    del clean[exps]
                else:
                    clean[exps] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(
            self, "terms", dict(sorted(clean.items(), key=lambda kv: _grlex_key(kv[0])))
        )
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "Polynomial":
        """Trusted constructor for internal arithmetic: `terms` must
        already map valid exponent tuples to nonzero Fractions."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(
            obj, "terms", dict(sorted(terms.items(), key=lambda kv: _grlex_key(kv[0])))
        )
        object.__setattr__(obj, "_hash", None)
        return obj

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c: Rational) -> "Polynomial":
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        c = Fraction(c)
        return cls._raw(dim, {(0,) * dim: c} if c else {})

    @classmethod
    def variable(cls, dim: int, i: int) -> "Polynomial":
        exps = [0] * dim
        exps[i] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.dim, _ZERO)

    def degree(self) -> int | DegreeSentinel:
        if not self.terms:
            return NO_DEGREE
        return max(sum(e) for e in self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, _ZERO) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial._raw(self.dim, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        terms: dict[Exponents, Fraction] = {}
        _accumulate_product(terms, self, other, 1)
        return Polynomial._raw(self.dim, terms)

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.dim)
        return Polynomial._raw(self.dim, {e: c * co for e, co in self.terms.items()})

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i, exact."""
        terms: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            terms[tuple(d)] = c * e[i]
        return Polynomial._raw(self.dim, terms)

    def eval_exact(self, x: Sequence[Rational]) -> Fraction:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point length {len(x)} != dim {self.dim}")
        x = [Fraction(c) for c in x]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for xi, ei in zip(x, e):
                if ei:
                    term *= xi**ei
            total += term
        return total

    # -- comparison / repr --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.dim, tuple(self.terms.items())))
            )
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms.items():
            mon = "*".join(
                f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(e) if p
            )
            parts.append(f"{c}" if not mon else f"{c}*{mon}")
        return " + ".join(parts)


@dataclass(frozen=True)
class PolyVectorField:
    """A vector field on R^dim whose components are Polynomials."""

    dim: int
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise DimensionMismatchError(
                f"{len(self.components)} components for dim {self.dim}"
            )
        for p in self.components:
            if p.dim != self.dim:
                raise DimensionMismatchError(
                    f"component dim {p.dim} != field dim {self.dim}"
                )
        object.__setattr__(self, "components", tuple(self.components))

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # computed once; the closure keys its bookkeeping on fields
        return hash(self.components)

    @classmethod
    def zero(cls, dim: int) -> "PolyVectorField":
        return cls(dim, tuple(Polynomial.zero(dim) for _ in range(dim)))

    @classmethod
    def from_constant(cls, v: Sequence[Rational]) -> "PolyVectorField":
        dim = len(v)
        return cls(
            dim, tuple(Polynomial.constant(dim, c) for c in v)
        )

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def is_constant(self) -> bool:
        return all(p.is_constant() for p in self.components)

    def constant_value(self) -> tuple[Fraction, ...]:
        return tuple(p.constant_value() for p in self.components)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(
            self.dim, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def scale(self, c: Rational) -> "PolyVectorField":
        return PolyVectorField(self.dim, tuple(p.scale(c) for p in self.components))

    def eval_exact(self, x: Sequence[Rational]) -> tuple[Fraction, ...]:
        return tuple(p.eval_exact(x) for p in self.components)


def jacobian(V: PolyVectorField) -> list[list[Polynomial]]:
    """Exact Jacobian matrix: entry (j, k) = dV^j/dx_k."""
    return [[V.components[j].diff(k) for k in range(V.dim)] for j in range(V.dim)]


def directional_derivative(W: PolyVectorField, v: Sequence[Rational]) -> PolyVectorField:
    """Derivative of W along the constant direction v, component-wise."""
    if len(v) != W.dim:
        raise DimensionMismatchError(f"vector length {len(v)} != dim {W.dim}")
    nz = [(k, Fraction(vk)) for k, vk in enumerate(v) if vk]
    comps = []
    for p in W.components:
        acc: dict[Exponents, Fraction] = {}
        for e, c in p.terms.items():
            for k, vk in nz:
                ek = e[k]
                if ek:
                    de = e[:k] + (ek - 1,) + e[k + 1 :]
                    s = acc.get(de, _ZERO) + c * ek * vk
                    if s == 0:
                        acc.pop(de, None)
                    else:
                        acc[de] = s
        comps.append(Polynomial._raw(W.dim, acc))
    return PolyVectorField(W.dim, tuple(comps))


def lie_bracket(V: PolyVectorField, W: PolyVectorField) -> PolyVectorField:
    """Commutator [V, W]^j = sum_k (V^k dW^j/dx_k - W^k dV^j/dx_k)."""
    if V.dim != W.dim:
        raise DimensionMismatchError(f"dim {V.dim} vs {W.dim}")
    # a constant argument has zero partials, so one of the two sums vanishes
    if V.is_constant():
        return directional_derivative(W, V.constant_value())
    if W.is_constant():
        return directional_derivative(V, [-c for c in W.constant_value()])
    d = V.dim
    v_nz = [k for k in range(d) if not V.components[k].is_zero()]
    w_nz = [k for k in range(d) if not W.components[k].is_zero()]
    comps = []
    for j in range(d):
        acc: dict = {}
        for k in v_nz:
            dw = _diff_cached(W.components[j], k)
            if dw.is_zero():
                continue
            _accumulate_product(acc, V.components[k], dw, 1)
        for k in w_nz:
            dv = _diff_cached(V.components[j], k)
            if dv.is_zero():
                continue
            _accumulate_product(acc, W.components[k], dv, -1)
        comps.append(Polynomial._raw(d, acc))
    return PolyVectorField(d, tuple(comps))


@functools.lru_cache(maxsize=65536)
def _diff_cached(p: Polynomial, i: int) -> Polynomial:
    # the same field gets bracketed against many directions; its partials
    # are worth remembering
    return p.diff(i)


def _accumulate_product(acc: dict, p: Polynomial, q: Polynomial, sign: int) -> None:
    """acc += sign * p * q, in place on a raw term dict."""
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = acc.get(e, _ZERO) + sign * c1 * c2
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s


def ad_power(V: PolyVectorField, W: PolyVectorField, m: int) -> PolyVectorField:
    """m-fold iterated bracket ad^m V (W); ad^0 V (W) = W."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    out = W
    for _ in range(m):
        if out.is_zero():  # every further iterate is zero too
            break
        out = lie_bracket(V, out)
    return out


def relative_degree(
    v: Sequence[Rational], W: PolyVectorField
) -> tuple[int, str] | None:
    """Maximal degree of lambda -> W(lambda*v) and its parity.

    Returns None when every component restricts to the zero polynomial
    (the zero polynomial has neither even nor odd degree).
    """
    if len(v) != W.dim:
        raise DimensionMismatchError(f"vector length {len(v)} != dim {W.dim}")
    # on the line a term c x^e is c prod(v_i^e_i) lambda^|e|; it vanishes
    # unless every variable it uses is in the support of v
    support = [i for i, c in enumerate(v) if c]
    scales = [(i, Fraction(v[i])) for i in support if v[i] != 1]
    best = -1
    for p in W.components:
        sums: dict[int, Fraction] = {}
        for e, c in p.terms.items():
            deg = sum(map(e.__getitem__, support))
            if deg <= best or sum(e) != deg:
                continue
            for i, vi in scales:
                if e[i]:
                    c *= vi ** e[i]
            sums[deg] = sums.get(deg, _ZERO) + c
        best = max([best, *(deg for deg, s in sums.items() if s)])
    if best < 0:
        return None
    return best, ("odd" if best % 2 else "even")


@dataclass(frozen=True)
class ConstantField:
    """A constant direction with its parity tag and derivation, the
    bracket expression (`brackets.parse_bracket` syntax) that produced it.

    parity is "seed" for the noise fields and their span, else the
    parity of the relative degree that produced the direction.
    """

    value: tuple[Fraction, ...]
    parity: str
    derivation: str

    def __post_init__(self):
        if self.parity not in ("odd", "even", "seed"):
            raise ValueError(f"bad parity {self.parity!r}")
        object.__setattr__(self, "value", tuple(Fraction(c) for c in self.value))


# --------------------------------------------------------------------
# Serialization: JSON list of {"coeff": "p/q", "exps": [...]}; vector
# fields as lists of such lists.  Round-trips are bit exact.


def poly_to_json(p: Polynomial) -> list[dict]:
    return [
        {"coeff": f"{c.numerator}/{c.denominator}", "exps": list(e)}
        for e, c in p.terms.items()
    ]


def poly_from_json(data: list[dict], dim: int) -> Polynomial:
    terms = {}
    for i, entry in enumerate(data):
        try:
            coeff = Fraction(entry["coeff"])
            exps = tuple(int(e) for e in entry["exps"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"malformed polynomial term {i}: {entry!r}") from exc
        if len(exps) != dim:
            raise ValueError(
                f"term {i}: exponent vector length {len(exps)} != dim {dim}"
            )
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Polynomial(dim, terms)


def field_to_json(V: PolyVectorField) -> list[list[dict]]:
    return [poly_to_json(p) for p in V.components]


def field_from_json(data: list[list[dict]], dim: int) -> PolyVectorField:
    if len(data) != dim:
        raise ValueError(f"vector field has {len(data)} components, expected {dim}")
    comps = []
    for j, comp in enumerate(data):
        try:
            comps.append(poly_from_json(comp, dim))
        except ValueError as exc:
            raise ValueError(f"component {j}: {exc}") from exc
    return PolyVectorField(dim, tuple(comps))


# --------------------------------------------------------------------
# Numeric compilation: one kernel per field, built on first numeric use
# and cached.  A monomial is a row of variable indices (its "slots",
# highest power first) padded with index dim, which addresses a constant
# 1 appended to the point; all monomials are one gather and one product
# over the slots, and the polynomials one dense coefficient matrix.  A
# single point (each RK4 stage of a flow) takes a short path through the
# same three operations, 3.5-5 us a call at d <= 4 against 8-9 us.


class _SlotTable:
    """Polynomials over one monomial basis, one per row of `rows` (term
    dicts), evaluated to an array of `shape` per point."""

    def __init__(self, dim: int, rows: Sequence[Mapping[Exponents, Fraction]],
                 shape: tuple[int, ...]):
        index: dict[Exponents, int] = {}
        for terms in rows:
            for e in terms:
                index.setdefault(e, len(index))
        self.slots = np.full((len(index), max(map(sum, index), default=0)), dim, np.intp)
        for e, col in index.items():
            # highest power first: x_i^2 x_j is (x_i x_i) x_j, the rounding
            # the pinned Monte Carlo outputs were made with
            order = sorted((i for i, k in enumerate(e) if k), key=lambda i: -e[i])
            idx = [i for i in order for _ in range(e[i])]
            self.slots[col, : len(idx)] = idx
        self.coeffs = np.zeros((len(index), len(rows)))
        for j, terms in enumerate(rows):
            for e, c in terms.items():
                self.coeffs[index[e], j] = float(c)
        # cached and shared by every caller of the field
        self.slots.flags.writeable = self.coeffs.flags.writeable = False
        self.shape = shape

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            # one point, as every RK4 stage asks: the same gather, product
            # and vector-matrix product, less the general path's overhead
            padded = np.empty(len(x) + 1)
            padded[:-1] = x
            padded[-1] = 1.0
            out = np.multiply.reduce(padded[self.slots], axis=-1) @ self.coeffs
            return out if len(self.shape) == 1 else out.reshape(self.shape)
        padded = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
        padded[..., :-1] = x
        padded[..., -1] = 1.0
        out = padded[..., self.slots].prod(axis=-1) @ self.coeffs
        return out.reshape(x.shape[:-1] + self.shape)


class _Kernel:
    """Compiled drift of a field and, built on first request, its Jacobian."""

    def __init__(self, V: PolyVectorField):
        self.V = V
        self.field = _SlotTable(V.dim, [p.terms for p in V.components], (V.dim,))

    @functools.cached_property
    def jac(self) -> _SlotTable:
        d = self.V.dim
        return _SlotTable(d, [p.terms for row in jacobian(self.V) for p in row], (d, d))


_kernel = functools.lru_cache(maxsize=64)(_Kernel)  # keyed on the frozen field


def compile_field(V: PolyVectorField):
    """Compile to a function f(x) -> drift, x of shape (..., dim)."""
    return _kernel(V).field


def compile_jacobian(V: PolyVectorField):
    """Compile the Jacobian to a function J(x) -> (..., dim, dim) array."""
    return _kernel(V).jac
