"""Cone closure of bracket-generated constant directions.

Starting from the noise directions, iterated top-degree adjoints of
constant odd directions against the stored generators accumulate an odd
subspace and a one-sided cone of even directions.  Each side of a round
lists its plain candidates first, then at most 2000 integer combinations
of pairs (seeds on the direction side, generators on the other) with
coefficients up to the combination budget in size; an even member takes
positive coefficients only.  `compute_C` brings combinations in only
once a round without them adds nothing.  Every direction carries its
derivation, a bracket expression that `conecert bracket --expr`
evaluates; the result is a sound under-approximation of the full cone
(enumeration is bounded by a round limit and a combination budget).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .brackets import parse_bracket
from .models import ModelError, ModelSpec
# lie_bracket is not called here; the benchmark tracer patches the name
from .polyfield import (  # noqa: F401
    _ZERO,
    ConstantField,
    PolyVectorField,
    _support,
    ad_power,
    lie_bracket,
    relative_degree,
)

if TYPE_CHECKING:
    import numpy as np


class SingularBasisError(ModelError):
    """The positivity basis is not invertible, over Q or in floating point."""


# --------------------------------------------------------------------
# Exact rational span bookkeeping.


class RationalSpan:
    """Row space over Q, kept in echelon form for membership tests.  A row
    is zero before its pivot, so reducing a vector's nonzero entries by
    the rows in pivot order leaves every pivot clear."""

    def __init__(self, dim: int):
        self.dim = dim
        # (pivot, the row's nonzero (index, value) pairs)
        self.rows: list[tuple[int, tuple[tuple[int, Fraction], ...]]] = []

    def _residual(self, v) -> dict[int, Fraction]:
        red = _support(v)
        for pivot, row in self.rows:
            c = red.get(pivot)
            if c:
                for i, r in row:
                    red[i] = red.get(i, _ZERO) - c * r
        return {i: c for i, c in red.items() if c}

    def reduce(self, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        red = self._residual(v)
        return tuple(red.get(i, _ZERO) for i in range(self.dim))

    def contains(self, v: tuple[Fraction, ...]) -> bool:
        return not self._residual(v)

    def add(self, v: tuple[Fraction, ...]) -> bool:
        """Insert the direction; True if it enlarged the span."""
        red = self._residual(v)
        if not red:
            return False
        pivot = min(red)
        inv = 1 / red[pivot]
        self.rows.append((pivot, tuple((i, red[i] * inv) for i in sorted(red))))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def primitive_direction(v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Scale by a positive rational so entries are coprime integers."""
    if not any(v):
        return v
    scale = Fraction(math.lcm(*(c.denominator for c in v)), math.gcd(*(c.numerator for c in v)))
    return tuple(c * scale for c in v)


def _even_direction(span: RationalSpan, v: tuple[Fraction, ...]) -> tuple[Fraction, ...] | None:
    """v modulo the odd span, as a primitive cone direction; None when v
    lies in the span."""
    residual = span.reduce(v)
    return primitive_direction(residual) if any(residual) else None


# --------------------------------------------------------------------
# Generation state.


@dataclass
class GenerationState:
    odd_constants: list[ConstantField]
    even_constants: list[ConstantField]
    # (field, parity, derivation); parity of a nonconstant generator
    # controls the sign of admissible coefficients in combinations
    nonconstant_generators: list[tuple[PolyVectorField, str, str]]
    round: int = 0
    odd_span: RationalSpan = None
    # odd_constants as (field, parity, derivation), built once each
    odd_fields: list[tuple[PolyVectorField, str, str]] = field(default_factory=list)
    even_seen: set = field(default_factory=set)
    pairs_done: set = field(default_factory=set)
    last_round_added: bool = True


def closure_init(model: ModelSpec) -> GenerationState:
    """Seed with the noise directions; the drift is the one generator."""
    span = RationalSpan(model.d)
    odd = []
    for j, v in enumerate(model.noise, start=1):
        if span.add(v):
            odd.append(ConstantField(v, "seed", f"X{j}"))
    return GenerationState(
        odd_constants=odd,
        even_constants=[],
        nonconstant_generators=[(model.drift, "odd", "X0")],
        round=0,
        odd_span=span,
    )


_COMBO_CAP = 2000  # integer combinations tried per side and round


def _candidates(items, pool, combo_budget: int):
    """Each (field, parity, derivation) item as (field, derivation), then
    at most _COMBO_CAP combinations ca*A + cb*B of pairs from the pool,
    0 < |c| <= combo_budget.  An even (one-sided) member takes c > 0 only:
    the cone is closed under positive combinations, not under negation."""
    for X, _, deriv in items:
        yield X, deriv
    positive = range(1, combo_budget + 1)
    both = range(-combo_budget, combo_budget + 1)
    combos = (
        (ca, A, da, cb, B, db)
        for (A, pa, da), (B, pb, db) in itertools.combinations(pool, 2)
        for ca in (positive if pa == "even" else both) if ca
        for cb in (positive if pb == "even" else both) if cb
    )
    for ca, A, da, cb, B, db in itertools.islice(combos, _COMBO_CAP):
        yield A.scale(ca) + B.scale(cb), f"({_term(ca, da)} + {_term(cb, db)})"


def _term(c: int, deriv: str) -> str:
    return deriv if c == 1 else f"{c}*({deriv})"


def closure_step(state: GenerationState, combo_budget: int = 1) -> GenerationState:
    """One round: bracket every admissible (V, W) pair at its relative
    degree and fold the results into the state, which is returned.  Both
    candidate lists are fixed before the round, so a direction found in
    it is bracketed from the next round on."""
    span = state.odd_span
    gens = state.nonconstant_generators
    added = False

    # generators under a key W and -W share, so that a new bracket's sign
    # duplicates are found without building its negation
    twins: dict[tuple, list[PolyVectorField]] = {}
    for W, _, _ in gens:
        twins.setdefault(_sign_free_key(W), []).append(W)

    # V: the odd constants, plus combinations of the seeds; the seeds are
    # linearly independent, so no such combination is zero
    odd = state.odd_fields
    odd += [(PolyVectorField.from_constant(cf.value), cf.parity, cf.derivation)
            for cf in state.odd_constants[len(odd):]]
    v_list = list(_candidates(odd, [v for v in odd if v[1] == "seed"], combo_budget))
    w_list = list(_candidates(gens, gens, combo_budget))

    for V, v_deriv in v_list:
        v_value = V.constant_value()
        for W, w_deriv in w_list:
            pair = (V, W)
            if pair in state.pairs_done:
                # both arguments existed in an earlier round; the result
                # has already been folded in
                continue
            state.pairs_done.add(pair)
            rd = relative_degree(v_value, W)
            if rd is None:
                continue
            m, parity = rd
            if m == 0:
                # W already constant along the line; bracket adds nothing
                continue
            B = ad_power(V, W, m)
            deriv = f"[{v_deriv}, {w_deriv}]" if m == 1 else f"ad^{m}({v_deriv})({w_deriv})"
            if B.is_constant():
                value = B.constant_value()
                if parity == "odd":
                    if span.add(value):
                        state.odd_constants.append(ConstantField(value, "odd", deriv))
                        added = True
                else:
                    key = _even_direction(span, value)
                    if key is not None and key not in state.even_seen:
                        state.even_seen.add(key)
                        state.even_constants.append(ConstantField(value, "even", deriv))
                        added = True
            else:
                known = twins.setdefault(_sign_free_key(B), [])
                if any(B == G or (parity == "odd" and _negates(B, G)) for G in known):
                    continue
                known.append(B)
                gens.append((B, parity, deriv))
                added = True

    state.round += 1
    state.last_round_added = added
    return state


def _sign_free_key(W: PolyVectorField) -> tuple:
    """The first term of W's first nonzero component, with the absolute
    value of its coefficient: the same for W and -W."""
    for j, p in enumerate(W.components):
        for key, c in p.terms.items():
            return j, key, abs(c)
    return ()


def _negates(B: PolyVectorField, G: PolyVectorField) -> bool:
    """B == -G, read off the term dicts."""
    return all(len(p.terms) == len(q.terms) and all(q.terms.get(key) == -c
                                                    for key, c in p.terms.items())
               for p, q in zip(B.components, G.components))


# --------------------------------------------------------------------
# The computed cone.


@dataclass(frozen=True)
class ConeSpan:
    dim: int
    odd_basis: list[ConstantField]
    even_generators: list[ConstantField]
    exhausted: bool
    rounds: int

    def rank(self) -> int:
        span = RationalSpan(self.dim)
        for cf in self.odd_basis:
            span.add(cf.value)
        for cf in self.even_generators:
            span.add(cf.value)
        return span.rank

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "odd_basis": [[str(c) for c in cf.value] for cf in self.odd_basis],
            "even_generators": [
                [str(c) for c in cf.value] for cf in self.even_generators
            ],
            "exhausted": self.exhausted,
            "rounds": self.rounds,
            "derivations": {
                "odd": [cf.derivation for cf in self.odd_basis],
                "even": [cf.derivation for cf in self.even_generators],
            },
        }


def compute_C(
    model: ModelSpec, max_rounds: int = 12, combo_budget: int = 1
) -> ConeSpan:
    """Iterate closure rounds to fixpoint (of this enumeration), to an odd
    span of rank d, or to the round limit.  Rounds run without
    combinations until one adds nothing; that round is not counted, and
    the same round runs again at combo_budget (its plain pairs are done,
    so only the combinations are new), as do all later ones.  Even
    generators are reported modulo the odd span."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    state = closure_init(model)
    exhausted = False
    budget = 0
    while state.round < max_rounds:
        if state.odd_span.rank == model.d:  # the cone is R^d: no round changes it
            exhausted = True
            break
        state = closure_step(state, budget)
        if not state.last_round_added:
            if budget == combo_budget:
                exhausted = True
                break
            state.round -= 1
            budget = combo_budget

    # each odd constant was kept because it enlarged the odd span, so
    # they are linearly independent, in discovery order
    span = state.odd_span

    # evens modulo the odd span, deduplicated as primitive cone directions
    even_out = []
    seen = set()
    for cf in state.even_constants:
        prim = _even_direction(span, cf.value)
        if prim is None or prim in seen:
            continue
        seen.add(prim)
        even_out.append(ConstantField(prim, "even", cf.derivation))

    return ConeSpan(
        dim=model.d,
        odd_basis=state.odd_constants,
        even_generators=even_out,
        exhausted=exhausted,
        rounds=state.round,
    )


def verify_derivations(model: ModelSpec, cone: ConeSpan) -> bool:
    """Re-evaluate every derivation with the bracket parser and compare
    with the stored direction (evens modulo the odd span)."""
    span = RationalSpan(model.d)
    for cf in cone.odd_basis:
        V = parse_bracket(cf.derivation, model)
        if not V.is_constant() or V.constant_value() != cf.value:
            return False
        span.add(cf.value)
    for cf in cone.even_generators:
        V = parse_bracket(cf.derivation, model)
        if not V.is_constant():
            return False
        if _even_direction(span, V.constant_value()) != cf.value:
            return False
    return True


# --------------------------------------------------------------------
# Basis selection and membership in the positivity region.


@dataclass(frozen=True)
class PositivityBasis:
    vectors: list[tuple[Fraction, ...]]
    k: int  # first k vectors are two-sided, the rest are one-sided

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        # the copy keeps the column-major layout of the cached matrix, so
        # products with it round as they always have
        return self._matrix.copy(order="K")

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        # columns are basis vectors; read-only, as every query shares it
        import numpy as np

        B = np.array([[float(c) for c in v] for v in self.vectors]).T
        B.flags.writeable = False
        return B

    @functools.cached_property
    def _exact_rows(self) -> list[list[tuple[int, Fraction]]]:
        """One-sided rows of B^-1 over Q, as sparse (column, value) lists;
        none when every direction is two-sided.  B is singular exactly
        when fewer than n pivots fall below index n in the span of the
        b_i (k = n), or else of the (b_i | e_i), where (e_j | 0) reduces
        to (0 | -column j of B^-1)."""
        n = self.dim
        width = 2 * n if self.k < n else n
        span = RationalSpan(width)
        for i, v in enumerate(self.vectors):
            span.add((*v, *(int(i == j) for j in range(width - n))))
        if sum(pivot < n for pivot, _ in span.rows) < n:
            raise SingularBasisError("positivity basis is singular over Q")
        columns = [span.reduce([int(i == j) for i in range(width)])[n:]
                   for j in range(n if self.k < n else 0)]
        return [[(j, -col[i]) for j, col in enumerate(columns) if col[i] != 0]
                for i in range(self.k, n)]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "vectors": [[str(c) for c in v] for v in self.vectors],
        }


class BasisSelectionError(ValueError):
    """The computed cone does not span the state space."""


def choose_basis(C: ConeSpan) -> PositivityBasis:
    """All two-sided directions first (the odd ones, then each even
    generator whose negation is an even generator too), then greedily
    complete from the even generators; raises when the cone is rank
    deficient."""
    evens = [cf.value for cf in C.even_generators]
    negated = {tuple(-c for c in v) for v in evens}
    two_sided = [cf.value for cf in C.odd_basis] + [v for v in evens if v in negated]
    span = RationalSpan(C.dim)
    vectors = [v for v in two_sided if span.add(v)]
    k = len(vectors)
    vectors += [v for v in evens if span.add(v)]
    if len(vectors) < C.dim:
        raise BasisSelectionError(
            f"cone has rank {len(vectors)} < dimension {C.dim}"
        )
    return PositivityBasis(vectors=vectors, k=k)


def d_membership(
    basis: PositivityBasis, x: np.ndarray, z: np.ndarray
) -> tuple[bool, np.ndarray]:
    """Membership of z in the positivity region of x: every one-sided
    coefficient of z - x in the basis strictly positive (boundary points
    are excluded), decided over Q from the exact rows of B^-1 and the
    exact difference of the float inputs.  The float solve of B c = z - x
    only supplies the returned coefficients.  A float difference z - x
    that is not finite (a non-finite endpoint, or an overflow) is never a
    member: no caller could use its coefficients.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    rows = basis._exact_rows  # raises SingularBasisError when B is singular over Q
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = z - x
        try:
            coeffs = np.linalg.solve(basis._matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError("positivity basis is singular in floating point") from exc
    if not np.all(np.isfinite(rhs)):
        return False, coeffs
    if not rows:
        return True, coeffs
    exact_rhs = [Fraction(b) - Fraction(a) for a, b in zip(x.tolist(), z.tolist())]
    return all(sum(c * exact_rhs[j] for j, c in row) > 0 for row in rows), coeffs


def bracket_rank(model: ModelSpec, points) -> int:
    """Numerical rank (singular values above 1e-9 times the largest) of
    the noise directions X_j plus the first drift brackets [X0, X_j] at
    each of the points.  X_j is constant, so [X0, X_j] = -DX0 X_j: the
    brackets at all points are one call of the drift's Jacobian kernel
    (sign and column order leave the rank unchanged).  A family with a
    non-finite entry, as far out along an overflowing drift, has rank 0."""
    import numpy as np

    from .polyfield import compile_jacobian  # at call time, as the tracer patches it

    P = np.asarray(points, dtype=float).reshape(-1, model.d)
    B = model.noise_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.hstack([B, *(compile_jacobian(model.drift)(P) @ B)])
    if not A.any() or not np.isfinite(A).all():
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0]))


def twist_rank_check(model: ModelSpec, points: list[np.ndarray]) -> bool:
    """True when the noise directions plus first drift brackets at the
    sample points already span the state space numerically."""
    if not points:
        raise ValueError("points must be nonempty")
    return bracket_rank(model, points) == model.d
