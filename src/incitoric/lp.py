"""Exact feasibility of ``A x = b`` with integer data and some ``x_j >= 0``.

This is the one LP the face test poses: integer equality rows, variables
flagged non-negative (one column) or free (split into a difference of
non-negatives), and no objective.  Phase one of a dense-tableau simplex
decides it in integers from input to certificate: every row gets an
artificial, each tableau row is an integer vector with one positive
denominator, so a pivot is integer cross multiplication followed by a gcd
reduction and the ratio test never leaves the integers.

Pivoting is deterministic: steepest Dantzig descent with smallest-index
tie-breaks, falling back to Bland's rule after a fixed pivot count so
termination is still guaranteed on (never observed) cycling instances.
The answer comes back as integers over one positive denominator: a
feasible point, or a Farkas certificate with one free multiplier per
row whose combination annihilates every free variable column, is
non-negative on every non-negative column, and makes the right-hand side
negative.  Both are re-verified in integers before being returned; a
failed check raises CertificateError.

Tuples on the face-test path are built from lists, not generators.
``tuple()`` of a generator grows its result by resizing, and CPython
keeps each freed tuple of at most 20 items on a per-length free list
(2,000 deep) that only a full garbage collection empties.  An integer LP
allocates few collectable objects, so full collections are rare and
those free lists held about a megabyte of peak memory over a face scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import BadParameters, CertificateError, DimensionMismatch


@dataclass(frozen=True)
class LinearConstraint:
    """The row ``coeffs . x = rhs`` with integer coefficients and rhs."""

    coeffs: tuple
    rhs: int

    def __post_init__(self):
        if not all(isinstance(a, int) for a in (*self.coeffs, self.rhs)):
            raise BadParameters("constraint data must be integers")

    # kept beside the constructor: the benchmark's tracer wraps ``of`` by name
    @classmethod
    def of(cls, coeffs: Sequence[int], rhs: int) -> "LinearConstraint":
        return cls(tuple(coeffs), rhs)


# the name stays although the data are integers: the benchmark's tracer
# looks the class up by it
@dataclass(frozen=True)
class RationalLpProblem:
    """Is there an x with every constraint holding and x_j >= 0 wherever
    ``nonneg[j]``?  One flag per variable."""

    constraints: tuple
    nonneg: tuple

    def __post_init__(self):
        for c in self.constraints:
            if len(c.coeffs) != len(self.nonneg):
                raise DimensionMismatch("one nonneg flag per variable required")

    # kept beside the constructor: the benchmark's tracer wraps ``of`` by name
    @classmethod
    def of(cls, constraints: Sequence[LinearConstraint], nonneg: Sequence) -> "RationalLpProblem":
        return cls(tuple(constraints), tuple([bool(b) for b in nonneg]))


@dataclass(frozen=True)
class LpResult:
    # "optimal" (a feasible point) or "infeasible"; the benchmark's tracer
    # counts calls by these two strings
    status: str
    # optimal: the point's numerators over ``den``, one per variable;
    # infeasible: ``den`` times the Farkas multipliers, one per constraint
    values: tuple
    den: int


def _reduce_row(num: list, den: int) -> tuple:
    g = den
    for x in num:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        num = [x // g for x in num]
        den //= g
    return num, den


def _eliminate(num: list, den: int, prow: list, col: int) -> tuple:
    """The row ``num / den`` minus the multiple of the pivot row ``prow``
    (any denominator) that clears column ``col``, reduced, with a positive
    denominator."""
    f, piv = num[col], prow[col]
    new = [a * piv - f * b for a, b in zip(num, prow)]
    d = den * piv
    if d < 0:
        d = -d
        new = [-x for x in new]
    return _reduce_row(new, d)


class _Tableau:
    """Phase one over the rows ``[A | I | b]`` with the artificials
    ``I`` basic.  Rows store (integer vector including the rhs column,
    positive denominator); the cost row, the sum of the artificials priced
    out, is stored the same way with -z in the rhs slot."""

    def __init__(self, rows: list, art_base: int):
        self.m = len(rows)
        self.ncols = art_base + self.m
        self.num = rows
        self.den = [1] * self.m
        self.basis = list(range(art_base, self.ncols))
        self.cost = [-sum([r[j] for r in rows]) for j in range(self.ncols + 1)]
        self.cost[art_base:self.ncols] = [0] * self.m
        self.cden = 1
        self.pivots_done = 0

    def pivot(self, row, col):
        self.pivots_done += 1
        rn = self.num[row]
        for i in range(self.m):
            if i != row and self.num[i][col]:
                self.num[i], self.den[i] = _eliminate(self.num[i], self.den[i], rn, col)
        if self.cost[col]:
            self.cost, self.cden = _eliminate(self.cost, self.cden, rn, col)
        d = rn[col]
        if d < 0:
            d = -d
            rn = [-x for x in rn]
        self.num[row], self.den[row] = _reduce_row(rn, d)
        self.basis[row] = col

    def _entering(self, bland: bool) -> Optional[int]:
        if bland:
            for j in range(self.ncols):
                if self.cost[j] < 0:
                    return j
            return None
        best = None
        for j in range(self.ncols):
            c = self.cost[j]
            if c < 0 and (best is None or c < best[0]):
                best = (c, j)
        return None if best is None else best[1]

    def _leaving(self, col) -> Optional[int]:
        best = None
        for i in range(self.m):
            a = self.num[i][col]
            if a > 0:
                b = self.num[i][self.ncols]
                # compare b/a across rows by cross multiplication
                if best is None:
                    best = (b, a, self.basis[i], i)
                else:
                    lhs = b * best[1]
                    rhs = best[0] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < best[2]):
                        best = (b, a, self.basis[i], i)
        return None if best is None else best[3]

    def solve(self, bland_after: int = 10_000) -> None:
        while True:
            col = self._entering(self.pivots_done > bland_after)
            if col is None:
                return
            row = self._leaving(col)
            if row is None:
                raise CertificateError("phase one of the simplex did not reach an optimum")
            self.pivot(row, col)


# kept under this name: the benchmark's tracer wraps it and counts its statuses
def lp_feasible(problem: RationalLpProblem) -> LpResult:
    """Decide the problem exactly: a feasible point, or an infeasibility
    certificate, each re-checked in integers."""
    cons = problem.constraints
    m = len(cons)

    # one column per non-negative variable, a (+,-) pair per free one
    cols = []
    for j, nonneg in enumerate(problem.nonneg):
        cols.append((j, 1))
        if not nonneg:
            cols.append((j, -1))
    art_base = len(cols)

    # row i is sigma[i] * constraint i, so that its rhs is non-negative,
    # plus its artificial
    rows = []
    sigma = []
    for i, c in enumerate(cons):
        s = -1 if c.rhs < 0 else 1
        row = [s * sign * c.coeffs[j] for j, sign in cols] + [0] * m + [s * c.rhs]
        row[art_base + i] = 1
        sigma.append(s)
        rows.append(row)

    tab = _Tableau(rows, art_base)
    tab.solve()
    ncols = tab.ncols
    if tab.cost[ncols] < 0:  # the artificials sum to -cost[rhs] / cden > 0
        # multiplier of row i: 1 - (reduced cost of its artificial)
        farkas = tuple([(tab.cost[art_base + i] - tab.cden) * sigma[i] for i in range(m)])
        if not verify_farkas(problem, farkas):
            raise CertificateError("bad Farkas certificate")
        return LpResult("infeasible", farkas, tab.cden)

    # the point is xs / d, d the common denominator of the rows
    d = lcm(*tab.den)
    values = {tab.basis[i]: tab.num[i][ncols] * (d // tab.den[i]) for i in range(m)}
    xs = [0] * len(problem.nonneg)
    for col, (j, sign) in enumerate(cols):
        xs[j] += sign * values.get(col, 0)
    if any(x < 0 for x, nonneg in zip(xs, problem.nonneg) if nonneg) or any(
        sum([a * x for a, x in zip(c.coeffs, xs)]) != c.rhs * d for c in cons
    ):
        raise CertificateError("simplex returned an infeasible point")
    return LpResult("optimal", tuple(xs), d)


# kept under this name: the benchmark's tracer wraps it
def verify_farkas(problem: RationalLpProblem, lam: Sequence[int]) -> bool:
    """Re-check an infeasibility certificate: integer multipliers (any
    positive multiple of the Farkas multipliers), one per constraint of
    ``problem.constraints``."""
    cons = problem.constraints
    if len(lam) != len(cons):
        raise DimensionMismatch("one Farkas multiplier per constraint required")
    for j, nonneg in enumerate(problem.nonneg):
        combined = sum([l * c.coeffs[j] for l, c in zip(lam, cons)])
        if combined < 0 or (combined and not nonneg):
            return False
    return sum([l * c.rhs for l, c in zip(lam, cons)]) < 0
