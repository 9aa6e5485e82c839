"""The numeric kernel: polynomial vector fields compiled to float
evaluators.

One kernel per field, built on first numeric use and cached.  A
monomial is a row of variable indices (its "slots", highest power
first) padded with index dim, which addresses a constant 1 appended to
the point.

Every drift rounds by one contract: each monomial a left-to-right
product in slot order, each component a sum from +0.0 of its terms in
monomial order, each product c * monomial rounded first.  No BLAS
product sets a bit of a drift, since OpenBLAS fuses multiply-adds and
regroups rows of four or more monomials, so a drift's bits follow
neither the BLAS thread count nor the batch shape.

A drift of at most _STRAIGHT_LINE_TERMS terms is one generated
straight-line function of its coordinates (`_straight_line_field`), and
its RK4 step another (`_straight_line_rk4`), both emitted from one
source (`_drift_source`) over a `_SlotTable`.  A point runs it on
Python floats (about 1.5 us at d <= 4), a batch on the coordinate
columns (27 us for 2048 langevin points, against 47 us for the table's
gather and product; timeit, 2-core x86_64).

A larger drift is a `_SparseTable`, its polynomials stored by their
terms and evaluated points last with elementwise numpy alone; its flows
take the array step in `reach`.  For burgers (d = 96, 3464 of the
218,880 coefficients of a dense table nonzero) a point takes 84 us,
4 points 110 us and 64 points 0.63 ms, where the dense table's product
took 115 us, 337 us and 1.45 ms (best of 5, one BLAS thread, 2-core
x86_64).

The Jacobian of a small drift is a dense `_SlotTable` over its own
monomials.  That of a larger drift is a `_SparseTable` built from the
drift's terms, never as the exact d x d Jacobian or a dense table, its
entries summed in the drift's term order.  burgers' takes 2.5 ms at
(16, 4, 96) points, where scattering each term rank into a points-first
output took 8.6 ms; at N = 3 (d = 192, 30,816 nonzeros) it builds in
0.09 s and keeps 0.6 MB, where a dense table held 57 MB (best of 5 and
tracemalloc, one BLAS thread, 2-core x86_64).

`polyfield.compile_field`, `compile_jacobian` and `compile_rk4_step`
are the entry points; they import this module when called, so the
exact layer loads numpy only where floats are computed.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .polyfield import Monomial, PolyVectorField, _degree, _lowered, jacobian


# Drift terms up to which the straight-line step is used.  A state-only
# step of a random cubic drift took as long either way at 256-384 terms
# (d = 8 to 32; single runs, one BLAS thread, 2-core x86_64): 41 us
# against 42 at d = 8, 256 terms, and 3.7 against 38 at d = 4, 16 terms.
# The cut-off sits at the low end, since building the source also costs
# 14-28 ms at 256 terms.  burgers (3464 terms) keeps the array step.
_STRAIGHT_LINE_TERMS = 256


class _SlotTable:
    """Polynomials over one monomial basis, one per row of `rows` (term
    dicts), evaluated to an array of `shape` per point."""

    def __init__(self, dim: int, rows: Sequence[Mapping[Monomial, Fraction]],
                 shape: tuple[int, ...], sequential: bool = False):
        index = _monomial_index(rows)
        self.slots = _slots(index, dim)
        self.coeffs = np.zeros((len(index), len(rows)))
        for j, terms in enumerate(rows):
            for e, c in terms.items():
                self.coeffs[index[e], j] = float(c)
        # cached and shared by every caller of the field
        self.slots.flags.writeable = self.coeffs.flags.writeable = False
        self.shape = shape
        self.columns = _straight_line_field(self) if sequential else None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.columns is not None:
            # a point as floats, a batch as columns: the same rounding
            if x.ndim == 1:
                return np.array(self.columns(*x.tolist()))
            # laid out like x, so points stored coordinate-major stay so
            out = np.empty_like(x)
            axes = (-1, *range(x.ndim - 1))  # a transpose is cheaper than moveaxis
            for column, value in zip(out.transpose(axes), self.columns(*x.transpose(axes))):
                column[...] = value
            return out
        out = _padded(x)[..., self.slots].prod(axis=-1) @ self.coeffs
        return out.reshape(x.shape[:-1] + self.shape)


class _SparseTable:
    """Polynomials stored by their terms, one per flat output entry and
    laid out as `shape`, evaluated points last.  `terms` yields (flat
    entry, monomial, coefficient), each entry's terms in the order they
    are summed.

    The monomial values are built slot by slot as (monomials, n) rows,
    and every term's product c * monomial is rounded in one pass.  The
    entries with terms are sorted by term count, so the t-th terms of
    the entries that have one, rank t, sum into a prefix of them: rank
    0 is the accumulator and each later rank is added in place.  Adding
    +0.0 then makes each entry a sum from +0.0, and one permutation
    restores the entry order."""

    def __init__(self, dim: int, terms: Iterable[tuple[int, Monomial, Fraction]],
                 shape: tuple[int, ...]):
        index: dict[Monomial, int] = {}
        count: dict[int, int] = {}  # flat entry -> its terms so far
        entries, term_ranks, monomials, coeffs = [], [], [], []
        for entry, key, c in terms:
            t = count.get(entry, 0)
            count[entry] = t + 1
            entries.append(entry)
            term_ranks.append(t)
            monomials.append(index.setdefault(key, len(index)))
            coeffs.append(float(c))
        self.dim, self.shape = dim, shape
        self.slots = _slots(index, dim)
        self.order = np.array(sorted(count, key=count.__getitem__, reverse=True), np.intp)
        position = np.empty(math.prod(shape), np.intp)
        position[self.order] = np.arange(len(self.order))
        # rank by rank, each in the sorted entries' order
        rows = np.lexsort((position[np.array(entries, np.intp)], term_ranks))
        self.monomials = np.array(monomials, np.intp)[rows]
        self.coeffs = np.array(coeffs)[rows, None]
        # (first row, length) of each rank after the first
        lengths = np.bincount(term_ranks).tolist()
        self.ranks = list(zip(np.cumsum(lengths).tolist(), lengths[1:]))
        # cached and shared by every caller of the drift
        for array in (self.slots, self.order, self.monomials, self.coeffs):
            array.flags.writeable = False

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1, self.dim).T  # one row per coordinate
        n = points.shape[1]
        padded = np.empty((self.dim + 1, n))
        padded[:-1] = points
        padded[-1] = 1.0
        values = padded.take(self.slots[:, 0], axis=0)
        for column in self.slots.T[1:]:
            values *= padded.take(column, axis=0)
        terms = values.take(self.monomials, axis=0)
        terms *= self.coeffs
        sums = terms[: len(self.order)]  # rank 0
        for start, length in self.ranks:
            sums[:length] += terms[start : start + length]
        sums += 0.0  # -0.0 + 0.0 is +0.0; no other value moves
        out = np.zeros((n, math.prod(self.shape)))
        out[:, self.order] = sums.T
        return out.reshape(x.shape[:-1] + self.shape)


def _monomial_index(rows: Sequence[Mapping[Monomial, Fraction]]) -> dict[Monomial, int]:
    """Each monomial of the term dicts `rows`, numbered by first
    appearance: the monomial order a drift's components are summed in."""
    index: dict[Monomial, int] = {}
    for terms in rows:
        for key in terms:
            index.setdefault(key, len(index))
    return index


def _slots(index: Mapping[Monomial, int], dim: int) -> np.ndarray:
    """Row index[key] lists the variables of monomial key, one per power,
    padded with dim (the constant 1 `_padded` appends); at least one
    column, so a constant monomial is the 1 alone."""
    slots = np.full((len(index), max(1, max(map(_degree, index), default=0))), dim, np.intp)
    for key, row in index.items():
        # highest power first, ties by variable: x_i^2 x_j is (x_i x_i)
        # x_j, the rounding the pinned Monte Carlo outputs were made with
        idx = [i for i, p in sorted(key, key=lambda ip: -ip[1]) for _ in range(p)]
        slots[row, : len(idx)] = idx
    return slots


def _padded(x: np.ndarray) -> np.ndarray:
    """x with a constant 1 appended to each point."""
    padded = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    padded[..., :-1] = x
    padded[..., -1] = 1.0
    return padded


class _Kernel:
    """Compiled drift of a field and, built on first request, its Jacobian
    and, for a drift of few terms, its straight-line RK4 step."""

    def __init__(self, V: PolyVectorField):
        self.V = V
        rows = [p.terms for p in V.components]
        self.small = sum(map(len, rows)) <= _STRAIGHT_LINE_TERMS
        if self.small:
            self.field = _SlotTable(V.dim, rows, (V.dim,), sequential=True)
        else:
            # each component's terms in monomial order, as the
            # straight-line field sums them
            index = _monomial_index(rows)
            self.field = _SparseTable(V.dim, (
                (j, key, c) for j, terms in enumerate(rows)
                for key, c in sorted(terms.items(), key=lambda term: index[term[0]])), (V.dim,))

    @functools.cached_property
    def jac(self) -> _SlotTable | _SparseTable:
        d = self.V.dim
        if self.small:
            return _SlotTable(d, [p.terms for row in jacobian(self.V) for p in row], (d, d))
        # d/dx_k of c x^e is c e_k x^(e - 1_k): entry (j, k) takes one
        # term for each term of component j that uses x_k, in the
        # drift's term order
        return _SparseTable(d, (
            (j * d + k, _lowered(key, k, e), c * e)
            for j, p in enumerate(self.V.components) for key, c in p.terms.items()
            for k, e in key), (d, d))

    @functools.cached_property
    def rk4_step(self):
        return _straight_line_rk4(self.field) if self.small else None


def _drift_source(table: _SlotTable, point: Sequence[str]) -> tuple[list[str], list[str]]:
    """Source of the drift at the variables named `point`: lines binding
    each monomial of more than one factor to m<i>, a left-to-right product
    in slot order, and per component an expression summing the nonzero
    terms from 0.0 in monomial order, each product rounded first.  It
    holds only names and repr(float) literals of the table's coefficients."""
    pad = len(point)  # slot index of the constant 1
    lines = []
    names = []  # per monomial: its value's name, or None for the constant 1
    for i, row in enumerate(table.slots):
        factors = [point[j] for j in row if j != pad]
        if len(factors) > 1:
            lines.append(f"m{i} = " + " * ".join(factors))
            names.append(f"m{i}")
        else:
            names.append(factors[0] if factors else None)
    exprs = []
    for j in range(table.coeffs.shape[1]):
        expr = "0.0"
        for i in np.flatnonzero(table.coeffs[:, j]):
            c = float(table.coeffs[i, j])
            # acc - |c| m is acc + c m exactly, and 1.0 m is m
            term = repr(abs(c)) if names[i] is None else (
                names[i] if abs(c) == 1.0 else f"{abs(c)!r} * {names[i]}")
            expr += f" {'-' if c < 0 else '+'} {term}"
        exprs.append(expr)
    return lines, exprs


def _generated(name: str, lines: list[str]):
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _straight_line_field(table: _SlotTable):
    """The drift as one generated function field(x0, ..., x{d-1}) ->
    tuple of d components, on Python floats or on numpy arrays of one
    shape alike (`_drift_source`'s rounding either way; a component with
    no variable term is a float)."""
    point = [f"x{j}" for j in range(table.coeffs.shape[1])]
    lines, exprs = _drift_source(table, point)
    return _generated("field", [f"def field({', '.join(point)}):",
                                *(f"    {line}" for line in lines),
                                f"    return ({''.join(f'{e}, ' for e in exprs)})"])


def _straight_line_rk4(table: _SlotTable):
    """One RK4 step of dx/ds = X0(x) + F as a generated function
    step(x, F, h) -> (x_new, x2, x3, x4) on tuples of Python floats, with
    the kernel's rounding (`_drift_source`), then + F; x2 = x + (0.5 h)
    k1, x3 = x + (0.5 h) k2, x4 = x + h k3 and x_new = x + (h / 6) (((k1
    + 2 k2) + 2 k3) + k4)."""
    d = table.coeffs.shape[1]
    lines = [
        "def rk4_step(x, F, h):",
        "    " + "".join(f"x1_{j}, " for j in range(d)) + "= x",
        "    " + "".join(f"F{j}, " for j in range(d)) + "= F",
        "    hh = 0.5 * h",
    ]
    for stage in (1, 2, 3, 4):
        monomials, exprs = _drift_source(table, [f"x{stage}_{j}" for j in range(d)])
        lines += [f"    {line}" for line in monomials]
        lines += [f"    k{stage}_{j} = {expr} + F{j}" for j, expr in enumerate(exprs)]
        if stage < 4:
            scale = "h" if stage == 3 else "hh"
            lines += [f"    x{stage + 1}_{j} = x1_{j} + {scale} * k{stage}_{j}" for j in range(d)]
    lines.append("    h6 = h / 6.0")
    new = "".join(
        f"x1_{j} + h6 * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j}), " for j in range(d))
    stages = ", ".join("(" + "".join(f"x{s}_{j}, " for j in range(d)) + ")" for s in (2, 3, 4))
    lines.append(f"    return ({new}), {stages}")
    return _generated("rk4_step", lines)


_kernel = functools.lru_cache(maxsize=64)(_Kernel)  # keyed on the frozen field
