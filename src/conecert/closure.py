"""Cone closure of bracket-generated constant directions.

Starting from the noise directions, iterated top-degree adjoints of
constant odd directions against the stored generators accumulate an odd
subspace and a one-sided cone of even directions.  Each side of a round
lists its plain candidates first, then at most 2000 integer combinations
of pairs (seeds on the direction side, generators on the other) with
coefficients up to the combination budget in size; an even member takes
positive coefficients only.  Every direction carries a derivation tree;
the result is a sound under-approximation of the full cone (enumeration
is bounded by a round limit and a combination budget).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .models import ModelSpec
from .polyfield import (
    ConstantField,
    Derivation,
    PolyVectorField,
    ad_power,
    compile_field,
    lie_bracket,
    relative_degree,
)


class SingularBasisError(ValueError):
    pass


# --------------------------------------------------------------------
# Exact rational span bookkeeping.


class RationalSpan:
    """Row space over Q, kept in echelon form for membership tests."""

    def __init__(self, dim: int):
        self.dim = dim
        # (pivot, the row's nonzero (index, value) pairs)
        self.rows: list[tuple[int, tuple[tuple[int, Fraction], ...]]] = []

    def reduce(self, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        v = list(v)
        for pivot, row in self.rows:
            c = v[pivot]
            if c != 0:
                for i, r in row:
                    v[i] -= c * r
        return tuple(v)

    def contains(self, v: tuple[Fraction, ...]) -> bool:
        return all(c == 0 for c in self.reduce(v))

    def add(self, v: tuple[Fraction, ...]) -> bool:
        """Insert the direction; True if it enlarged the span."""
        red = self.reduce(v)
        for pivot in range(self.dim):
            if red[pivot] != 0:
                inv = 1 / red[pivot]
                row = tuple((i, c * inv) for i, c in enumerate(red) if c != 0)
                self.rows.append((pivot, row))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def primitive_direction(v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Scale by a positive rational so entries are coprime integers."""
    nonzero = [c for c in v if c != 0]
    if not nonzero:
        return v
    from math import gcd

    num_gcd = 0
    den_lcm = 1
    for c in nonzero:
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    scale = Fraction(den_lcm, num_gcd)
    return tuple(c * scale for c in v)


# --------------------------------------------------------------------
# Generation state.


@dataclass
class GenerationState:
    model: ModelSpec
    odd_constants: list[ConstantField]
    even_constants: list[ConstantField]
    # (field, parity, derivation); parity of a nonconstant generator
    # controls the sign of admissible coefficients in combinations
    nonconstant_generators: list[tuple[PolyVectorField, str, Derivation]]
    round: int = 0
    odd_span: RationalSpan = None
    even_seen: set = field(default_factory=set)
    pairs_done: set = field(default_factory=set)
    last_round_added: bool = True


def closure_init(model: ModelSpec) -> GenerationState:
    """Seed with the noise directions; the drift is the one generator."""
    span = RationalSpan(model.d)
    odd = []
    for j, v in enumerate(model.noise, start=1):
        if all(c == 0 for c in v):
            continue
        if span.add(v):
            odd.append(ConstantField(v, "seed", Derivation.leaf(f"X{j}")))
    return GenerationState(
        model=model,
        odd_constants=odd,
        even_constants=[],
        nonconstant_generators=[(model.drift, "odd", Derivation.leaf("X0"))],
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
    both = [*range(-combo_budget, 0), *positive]
    combos = (
        (ca, A, da, cb, B, db)
        for (A, pa, da), (B, pb, db) in itertools.combinations(pool, 2)
        for ca in (positive if pa == "even" else both)
        for cb in (positive if pb == "even" else both)
    )
    for ca, A, da, cb, B, db in itertools.islice(combos, _COMBO_CAP):
        yield A.scale(ca) + B.scale(cb), Derivation.combo([(ca, da), (cb, db)])


def closure_step(state: GenerationState, combo_budget: int = 1) -> GenerationState:
    """One round: bracket every admissible (V, W) pair at its relative
    degree and fold the results into the state, which is returned.  Both
    candidate lists are fixed before the round, so a direction found in
    it is bracketed from the next round on."""
    span = state.odd_span
    gens = state.nonconstant_generators
    added = False

    # fields cache their hashes, so keying on them hashes each field once
    gen_keys = {W for W, _, _ in gens}

    # V: the odd constants, plus combinations of the seeds; the seeds are
    # linearly independent, so no such combination is zero
    odd = [(PolyVectorField.from_constant(cf.value), cf.parity, cf.derivation)
           for cf in state.odd_constants]
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
            if B.is_zero():
                continue
            deriv = Derivation.ad(m, v_deriv, w_deriv)
            if B.is_constant():
                value = B.constant_value()
                if parity == "odd":
                    if span.add(value):
                        state.odd_constants.append(ConstantField(value, "odd", deriv))
                        added = True
                else:
                    residual = span.reduce(value)
                    if all(c == 0 for c in residual):
                        continue
                    key = primitive_direction(residual)
                    if key not in state.even_seen:
                        state.even_seen.add(key)
                        state.even_constants.append(ConstantField(value, "even", deriv))
                        added = True
            else:
                if B in gen_keys or (parity == "odd" and B.scale(-1) in gen_keys):
                    continue
                gen_keys.add(B)
                gens.append((B, parity, deriv))
                added = True

    state.round += 1
    state.last_round_added = added
    return state


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

    def is_full_dim(self) -> bool:
        return self.rank() == self.dim

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
                "odd": [str(cf.derivation) for cf in self.odd_basis],
                "even": [str(cf.derivation) for cf in self.even_generators],
            },
        }


def compute_C(
    model: ModelSpec, max_rounds: int = 12, combo_budget: int = 1
) -> ConeSpan:
    """Iterate closure rounds to fixpoint (of this enumeration) or the
    round limit.  Even generators are reported modulo the odd span."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    state = closure_init(model)
    exhausted = False
    for _ in range(max_rounds):
        state = closure_step(state, combo_budget)
        if not state.last_round_added:
            exhausted = True
            break

    # linearly independent odd directions, in discovery order
    span = RationalSpan(model.d)
    odd_basis = [cf for cf in state.odd_constants if span.add(cf.value)]

    # evens modulo the odd span, deduplicated as primitive cone directions
    even_out = []
    seen = set()
    for cf in state.even_constants:
        residual = span.reduce(cf.value)
        if all(c == 0 for c in residual):
            continue
        prim = primitive_direction(residual)
        if prim in seen:
            continue
        seen.add(prim)
        even_out.append(ConstantField(prim, "even", cf.derivation))

    return ConeSpan(
        dim=model.d,
        odd_basis=odd_basis,
        even_generators=even_out,
        exhausted=exhausted,
        rounds=state.round,
    )


def verify_derivations(model: ModelSpec, cone: ConeSpan) -> bool:
    """Re-evaluate every derivation tree through the bracket engine and
    compare with the stored direction (evens modulo the odd span)."""
    leaves = {"X0": model.drift}
    for j, v in enumerate(model.noise, start=1):
        leaves[f"X{j}"] = PolyVectorField.from_constant(v)
    span = RationalSpan(model.d)
    for cf in cone.odd_basis:
        V = cf.derivation.evaluate(leaves)
        if not V.is_constant() or V.constant_value() != cf.value:
            return False
        span.add(cf.value)
    for cf in cone.even_generators:
        V = cf.derivation.evaluate(leaves)
        if not V.is_constant():
            return False
        residual = span.reduce(V.constant_value())
        if primitive_direction(residual) != cf.value:
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
        # np.array keeps the column-major layout of the cached matrix, so
        # products with the copy round as they always have
        return np.array(self._matrix)

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        # columns are basis vectors; read-only, as every query shares it
        B = np.array([[float(c) for c in v] for v in self.vectors]).T
        B.flags.writeable = False
        return B

    @functools.cached_property
    def _singular(self) -> bool:
        # a rank test, unlike |det|, does not depend on the vectors' scale
        return np.linalg.matrix_rank(self._matrix) < self.dim

    @functools.cached_property
    def _error_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """|B^-1| |P L| |U| and |B^-1|, one-sided rows only: the componentwise
        sensitivity of the solved coefficients to rounding.  |P L| |U|, not
        |B|, bounds the solve's backward error: the factors fill in where B
        has zeros."""
        import scipy.linalg  # deferred: the exact-algebra commands never get here

        P, L, U = scipy.linalg.lu(self._matrix)
        inv = np.abs(np.linalg.inv(self._matrix)[self.k :])
        return inv @ np.abs(P @ L) @ np.abs(U), inv

    @functools.cached_property
    def _exact_rows(self) -> list[list[tuple[int, Fraction]]]:
        """One-sided rows of B^-1 over Q, as sparse (column, value) lists,
        by Gauss-Jordan elimination of [B | I]."""
        n = self.dim
        rows = [
            [v[i] for v in self.vectors] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if pivot is None:
                raise SingularBasisError("positivity basis is singular over Q")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = 1 / rows[col][col]
            rows[col] = [c * inv for c in rows[col]]
            for r in range(n):
                f = rows[r][col]
                if r != col and f != 0:
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        return [[(j, c) for j, c in enumerate(row[n:]) if c != 0] for row in rows[self.k :]]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "vectors": [[str(c) for c in v] for v in self.vectors],
        }


class BasisSelectionError(ValueError):
    """The computed cone does not span the state space."""


def choose_basis(C: ConeSpan) -> PositivityBasis:
    """All odd directions first, then greedily complete from the even
    generators; raises when the cone is rank deficient."""
    span = RationalSpan(C.dim)
    vectors = []
    for cf in C.odd_basis:
        if span.add(cf.value):
            vectors.append(cf.value)
    k = len(vectors)
    for cf in C.even_generators:
        if span.add(cf.value):
            vectors.append(cf.value)
    if len(vectors) < C.dim:
        raise BasisSelectionError(
            f"cone has rank {len(vectors)} < dimension {C.dim}"
        )
    return PositivityBasis(vectors=vectors, k=k)


# first-order componentwise error bound of a partial-pivoting LU solve,
# 3 d u |B^-1| |P L| |U| |c|, taken as 3 d^2 u, plus the rounding of B and
# of z - x, doubled for the rounding of the float inverse it is computed from
_BAND_UNIT = 8 * np.finfo(float).eps


def d_membership(
    basis: PositivityBasis, x: np.ndarray, z: np.ndarray
) -> tuple[bool, np.ndarray]:
    """Solve B c = z - x; membership needs every one-sided coefficient
    strictly positive (boundary points are excluded).

    The verdict is exact for the float inputs given.  A one-sided float
    coefficient decides its sign only outside its rounding-error band;
    inside it, the coefficient is recomputed over Q from the exact
    difference z - x.  The float coefficients are returned either way.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if basis._singular:
        raise SingularBasisError("positivity basis matrix is singular")
    rhs = z - x
    coeffs = np.linalg.solve(basis._matrix, rhs)
    one_sided = coeffs[basis.k :]
    sens, inv = basis._error_rows
    band = _BAND_UNIT * basis.dim**2 * (sens @ np.abs(coeffs) + inv @ np.abs(rhs))
    if np.all(one_sided > band):
        return True, coeffs
    if not (np.all(one_sided >= -band) and np.all(np.isfinite(rhs))):
        # a coefficient certainly not positive, or an input not finite
        return False, coeffs
    exact_rhs = [Fraction(b) - Fraction(a) for a, b in zip(x.tolist(), z.tolist())]
    rows = basis._exact_rows
    member = all(
        sum(c * exact_rhs[j] for j, c in rows[i]) > 0
        for i in np.flatnonzero(one_sided <= band)
    )
    return member, coeffs


def bracket_rank(model: ModelSpec, points) -> int:
    """Numerical rank (singular values above 1e-9 times the largest) of
    the noise directions plus the first drift brackets [X0, X_j] at each
    of the points."""
    P = np.asarray(points, dtype=float).reshape(-1, model.d)
    A = np.hstack(
        [model.noise_matrix()]
        + [compile_field(lie_bracket(model.drift, Xf))(P).T for Xf in model.noise_fields()]
    )
    if not A.any():  # no noise directions, or all of them zero
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0]))


def twist_rank_check(model: ModelSpec, points: list[np.ndarray]) -> bool:
    """True when the noise directions plus first drift brackets at the
    sample points already span the state space numerically."""
    if not points:
        raise ValueError("points must be nonempty")
    return bracket_rank(model, points) == model.d
