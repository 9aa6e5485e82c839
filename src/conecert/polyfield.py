"""Exact multivariate polynomials and polynomial vector-field calculus.

Coefficients are rationals (`fractions.Fraction`) throughout, so parity
decisions and zero tests are never contaminated by floating point.  A
monomial is keyed by its sorted (variable, power) pairs, so a term costs
O(its variables), not O(dim); exponent tuples of length dim appear only
in the `Polynomial(dim, mapping)` constructor, the JSON form and error
messages.  A vector field indexes its terms by variable, so a derivative
or relative degree along a sparse direction visits only the terms that
use its support, and its constancy is read off the same index.  All
values are immutable after construction and every operation is a pure
function.  The module imports no numpy: floats enter only through
`compile_field`, `compile_jacobian` and `compile_rk4_step`, which build
the one float evaluator, and the RK4 step generated for a small drift,
in `kernel` when first called.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

# a monomial: its (variable, power) pairs, variables ascending, powers >= 1
Monomial = tuple[tuple[int, int], ...]
Rational = Fraction | int


class DegreeSentinel(enum.Enum):
    """Degree of the zero polynomial: neither even nor odd, not an int."""

    NO_DEGREE = "no-degree"


NO_DEGREE = DegreeSentinel.NO_DEGREE


class DimensionMismatchError(ValueError):
    pass


def _degree(key: Monomial) -> int:
    return sum(map(itemgetter(1), key))


def _grlex(item: tuple[Monomial, Fraction]) -> tuple:
    # graded lex on the exponent tuples: a key that skips a variable (a 0
    # exponent) sorts before one that has it, so the variables are negated
    return (_degree(item[0]), tuple((-i, p) for i, p in item[0]))


def _lowered(key: Monomial, i: int, p: int) -> Monomial:
    """key with the power p of its variable i lowered by one."""
    n = key.index((i, p))
    return key[:n] + key[n + 1 :] if p == 1 else key[:n] + ((i, p - 1),) + key[n + 1 :]


_ZERO = Fraction(0)


class Polynomial:
    """Sparse exact-rational polynomial in `dim` variables.

    `terms` maps monomials, as sorted (variable, power) pairs, to nonzero
    Fractions.  Term order is canonical (graded lex on the exponent
    tuples), so equal polynomials compare equal structurally.  The
    constructor takes exponent tuples of length `dim`.
    """

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], Rational] = ()):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        clean: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != dim:
                raise DimensionMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {dim}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            key = tuple((i, e) for i, e in enumerate(exps) if e)
            clean[key] = clean.get(key, _ZERO) + Fraction(coeff)
        self._fill(dim, clean)

    def _fill(self, dim: int, terms: dict) -> None:
        terms = {e: c for e, c in terms.items() if c}
        object.__setattr__(self, "dim", dim)
        if len(terms) > 1:
            terms = dict(sorted(terms.items(), key=_grlex))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "Polynomial":
        """Trusted constructor for internal arithmetic: `terms` must
        already map valid monomial keys to Fractions; zeros are dropped."""
        obj = object.__new__(cls)
        obj._fill(dim, terms)
        return obj

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c: Rational) -> "Polynomial":
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        return cls._raw(dim, {(): Fraction(c)})

    @classmethod
    def variable(cls, dim: int, i: int) -> "Polynomial":
        return cls._raw(dim, {((range(dim)[i], 1),): Fraction(1)})  # i checked as an index

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= {()}

    def constant_value(self) -> Fraction:
        return self.terms.get((), _ZERO)

    def degree(self) -> int | DegreeSentinel:
        if not self.terms:
            return NO_DEGREE
        return _degree(next(reversed(self.terms)))  # the last term in graded order

    # -- arithmetic ---------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, _ZERO) + c
        return Polynomial._raw(self.dim, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        terms: dict[Monomial, Fraction] = {}
        _accumulate_product(terms, self, other, 1)
        return Polynomial._raw(self.dim, terms)

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._raw(self.dim, {e: c * co for e, co in self.terms.items()})

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i, exact."""
        terms: dict[Monomial, Fraction] = {}
        for key, c in self.terms.items():
            for j, p in key:
                if j == i:
                    terms[_lowered(key, i, p)] = c * p
                    break
        return Polynomial._raw(self.dim, terms)

    def eval_exact(self, x: Sequence[Rational]) -> Fraction:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point length {len(x)} != dim {self.dim}")
        x = [Fraction(c) for c in x]
        total = Fraction(0)
        for key, c in self.terms.items():
            term = c
            for i, p in key:
                term *= x[i] ** p
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
        for key, c in self.terms.items():
            mon = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in key)
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
        zero = Polynomial._raw(dim, {})  # one, shared by the zero components
        return cls(dim, tuple(Polynomial.constant(dim, c) if c else zero for c in v))

    def is_zero(self) -> bool:
        return not self._by_variable and not self._constant_terms

    def is_constant(self) -> bool:
        return not self._by_variable

    def constant_value(self) -> tuple[Fraction, ...]:
        return tuple(self._constant_terms.get(j, _ZERO) for j in range(self.dim))

    # A field indexes its terms once, on first use: its constant terms by
    # component, and each other term under every variable it uses
    @functools.cached_property
    def _constant_terms(self) -> dict[int, Fraction]:
        return {j: p.terms[()] for j, p in enumerate(self.components) if () in p.terms}

    @functools.cached_property
    def _by_variable(self) -> dict[int, list[tuple[int, Monomial, Fraction, int]]]:
        # variable -> the (component, key, coeff, power) of each term using it
        index: dict[int, list] = {}
        for j, p in enumerate(self.components):
            for key, c in p.terms.items():
                for i, e in key:
                    index.setdefault(i, []).append((j, key, c, e))
        return index

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
    rows: list[list[dict]] = [[{} for _ in range(V.dim)] for _ in range(V.dim)]
    for row, p in zip(rows, V.components):  # one pass over each component's terms
        for key, c in p.terms.items():
            for k, e in key:
                row[k][_lowered(key, k, e)] = c * e
    return [[Polynomial._raw(V.dim, terms) for terms in row] for row in rows]


def directional_derivative(W: PolyVectorField, v: Sequence[Rational]) -> PolyVectorField:
    """Derivative of W along the constant direction v, component-wise."""
    if len(v) != W.dim:
        raise DimensionMismatchError(f"vector length {len(v)} != dim {W.dim}")
    return _along(W, _support(v))


def _along(W: PolyVectorField, support: Mapping[int, Fraction]) -> PolyVectorField:
    # W's derivative along the direction with these nonzero coordinates
    accs: dict[int, dict[Monomial, Fraction]] = {}
    for k, vk in support.items():
        for j, key, c, e in W._by_variable.get(k, ()):
            acc = accs.setdefault(j, {})
            de = _lowered(key, k, e)
            acc[de] = acc.get(de, _ZERO) + c * e * vk
    comps = [Polynomial.zero(W.dim)] * W.dim  # one zero, shared by the untouched components
    for j, acc in accs.items():
        comps[j] = Polynomial._raw(W.dim, acc)
    return PolyVectorField(W.dim, tuple(comps))


def _support(v: Sequence[Rational]) -> dict[int, Fraction]:
    # the shared zero of a constant field's value needs no Fraction test
    return {i: Fraction(c) for i, c in enumerate(v) if c is not _ZERO and c}


def lie_bracket(V: PolyVectorField, W: PolyVectorField) -> PolyVectorField:
    """Commutator [V, W]^j = sum_k (V^k dW^j/dx_k - W^k dV^j/dx_k).  Every
    bracket the closure forms has a constant operand: a directional derivative."""
    if V.dim != W.dim:
        raise DimensionMismatchError(f"dim {V.dim} vs {W.dim}")
    # a constant argument has zero partials, so one of the two sums vanishes
    if V.is_constant():
        return _along(W, V._constant_terms)
    if W.is_constant():
        return _along(V, {k: -c for k, c in W._constant_terms.items()})
    d = V.dim
    JV, JW = jacobian(V), jacobian(W)
    comps = []
    for j in range(d):
        acc: dict = {}
        for k in range(d):
            _accumulate_product(acc, V.components[k], JW[j][k], 1)
            _accumulate_product(acc, W.components[k], JV[j][k], -1)
        comps.append(Polynomial._raw(d, acc))
    return PolyVectorField(d, tuple(comps))


def _accumulate_product(acc: dict, p: Polynomial, q: Polynomial, sign: int) -> None:
    """acc += sign * p * q, in place on a raw term dict."""
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            powers = dict(k1)
            for i, n in k2:
                powers[i] = powers.get(i, 0) + n
            e = tuple(sorted(powers.items()))
            acc[e] = acc.get(e, _ZERO) + sign * c1 * c2


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
    # unless every variable it uses is in the support of v, so each such
    # term is found once, under its first variable
    support = _support(v)
    sums: dict[tuple[int, int], Fraction] = {}  # (component, degree) -> sum
    for i in support:
        for j, key, c, _ in W._by_variable.get(i, ()):
            if key[0][0] != i:
                continue
            for k, e in key:
                if k not in support:
                    break
                c *= support[k] ** e
            else:
                deg = _degree(key)
                sums[j, deg] = sums.get((j, deg), _ZERO) + c
    best = max((deg for (_, deg), s in sums.items() if s), default=-1)
    if best < 0:  # only constant terms can remain on the line
        return (0, "even") if W._constant_terms else None
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


# --------------------------------------------------------------------
# Serialization: JSON list of {"coeff": "p/q", "exps": [...]}; vector
# fields as lists of such lists.  Round-trips are bit exact.


def poly_to_json(p: Polynomial) -> list[dict]:
    out = []
    for key, c in p.terms.items():
        exps = [0] * p.dim
        for i, k in key:
            exps[i] = k
        out.append({"coeff": f"{c.numerator}/{c.denominator}", "exps": exps})
    return out


def poly_from_json(data: list[dict], dim: int) -> Polynomial:
    terms = []
    for i, entry in enumerate(data):
        try:
            coeff = Fraction(entry["coeff"])
            exps = tuple(entry["exps"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"malformed polynomial term {i}: {entry!r}") from exc
        if not all(type(e) is int for e in exps):  # JSON integers only; no bool, 1.5 or "2"
            raise ValueError(f"term {i}: exponents must be integers, got {entry['exps']!r}")
        terms.append((exps, coeff))
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
# Numeric compilation, in `kernel`: imported on the first call, so only
# a process that computes floats loads numpy.  Each runs once per flow
# or simulation, not per point.


def compile_field(V: PolyVectorField):
    """Compile to a function f(x) -> drift, x of shape (..., dim)."""
    from .kernel import _kernel

    return _kernel(V).field


def compile_jacobian(V: PolyVectorField):
    """Compile the Jacobian to a function J(x) -> (..., dim, dim) array."""
    from .kernel import _kernel

    return _kernel(V).jac


def compile_rk4_step(V: PolyVectorField):
    """The straight-line RK4 step of a drift of at most
    `kernel._STRAIGHT_LINE_TERMS` terms (see `kernel._straight_line_rk4`);
    None for a larger one."""
    from .kernel import _kernel

    return _kernel(V).rk4_step
