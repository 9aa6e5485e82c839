"""Output checks that do not trust the code under test.

- ExactMembership: membership in the positivity region decided over Q,
  by an exact Gauss-Jordan inverse of the basis matrix built with
  fractions.  Floats convert to rationals exactly, so the answer is the
  true one for the float inputs the library received.
- recheck_certificate: re-integrates a positive certificate's control
  at a finer step and recomputes its Gramian.
- Pins: bit-exact Monte Carlo outputs for fixed seeds, and the list of
  known defects a failed check may be attributed to.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# strictness margin of the library's float membership test, relative to
# |z - x|; a known defect rejects exact members inside this band
LIBRARY_MEMBERSHIP_MARGIN = 1e-9


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


class ExactMembership:
    """Exact decision of z - x = B c with c[k:] > 0 over Q."""

    def __init__(self, vectors, k):
        self.k = k
        self.d = len(vectors)
        cols = [[Fraction(c) for c in v] for v in vectors]
        # rows of B (columns are basis vectors), augmented with identity
        rows = [[cols[j][i] for j in range(self.d)]
                + [Fraction(int(i == j)) for j in range(self.d)]
                for i in range(self.d)]
        n = self.d
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if pivot is None:
                raise ValueError("basis is singular over Q")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = 1 / rows[col][col]
            rows[col] = [v * inv for v in rows[col]]
            nz = [(j, v) for j, v in enumerate(rows[col]) if v != 0]
            for r in range(n):
                f = rows[r][col]
                if r != col and f != 0:
                    row = rows[r]
                    for j, v in nz:
                        row[j] -= f * v
        # only the one-sided coefficient rows are ever needed
        self.onesided_rows = [
            [(j, v) for j, v in enumerate(rows[i][n:]) if v != 0] for i in range(k, n)
        ]

    def coefficients(self, x, z):
        rhs = [Fraction(float(b)) - Fraction(float(a)) for a, b in zip(x, z)]
        return [sum((v * rhs[j] for j, v in row), Fraction(0)) for row in self.onesided_rows]

    def member(self, x, z) -> tuple[bool, Fraction | None]:
        """(exact verdict, smallest one-sided coefficient or None)."""
        coeffs = self.coefficients(x, z)
        if not coeffs:
            return True, None
        low = min(coeffs)
        return low > 0, low


def membership_check(oracle: ExactMembership, x, z, got: bool):
    """(ok, known-defect tag or None) for one d_membership answer."""
    want, low = oracle.member(x, z)
    if got == want:
        return True, None
    norm = math.sqrt(sum((float(b) - float(a)) ** 2 for a, b in zip(x, z)))
    if want and not got and low is not None and float(low) <= LIBRARY_MEMBERSHIP_MARGIN * norm * (1 + 1e-6):
        return False, "membership_near_boundary"
    return False, None


def recheck_certificate(lib, model, cert, x, z, eps=None, n_fine=4000, n_gram=2000):
    """Independent re-check of a positive certificate; returns a list of
    failure strings (empty when the certificate holds)."""
    import numpy as np

    reach = lib.reach
    z = np.asarray(z, float)
    if eps is None:
        eps = 1e-5 * (1.0 + float(np.linalg.norm(z)))
    problems = []
    fine = reach.integrate_flow(model, x, cert.control, n_steps=n_fine, with_jacobian=False)
    err = float(np.linalg.norm(fine.terminal - z))
    if not err <= eps:
        problems.append(f"terminal error {err:.3g} > {eps:.3g} at {n_fine} steps")
    flow = reach.integrate_flow(model, x, cert.control, n_steps=n_gram, with_jacobian=True)
    M, sigma = reach.gramian(flow, model)
    thr = reach.gramian_threshold(M)
    if not (cert.sigma_min >= thr and sigma >= thr):
        problems.append(f"sigma_min {cert.sigma_min:.3g}/{sigma:.3g} < threshold {thr:.3g}")
    if cert.K_rank != model.d:
        problems.append(f"K_rank {cert.K_rank} != d {model.d}")
    return problems


def exact_rank(vectors) -> int:
    """Rank over Q of a list of rational vectors (sparse elimination)."""
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for v in vectors:
        row = {i: Fraction(c) for i, c in enumerate(v) if c != 0}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                rank += 1
                break
            prow = pivots[lead]
            f = row[lead] / prow[lead]
            for i, c in prow.items():
                nv = row.get(i, Fraction(0)) - f * c
                if nv == 0:
                    row.pop(i, None)
                else:
                    row[i] = nv
    return rank
