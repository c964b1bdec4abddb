"""Exact feasibility of ``A x = b, x >= 0`` with integer data.

Integer equality rows, non-negative variables and no objective.  The
face test poses it with one row per Gale coordinate and one variable per
point outside the face.  Phase one of a dense-tableau simplex decides it
in integers from input to certificate: every row gets an artificial,
and each tableau row is kept as the one primitive integer multiple of
itself that is positive at its lead column, its basic column.  That
entry is the row's denominator, so none is stored beside the row.  A
pivot cross-multiplies each row with the pivot row in integers and then
divides the result by the gcd of its entries, which keeps it primitive;
the cost row leads in a -z column of its own, so a pivot treats it like
any row.  The subtraction touches only the pivot row's nonzeros, and a
pivot entry of 1 scales nothing: every pivot of the (6,3,2) face scan is
1, and 94% of those of the (7,3,2) scan, whose pivot rows are 29%
nonzero.  A row's canonical form does not depend on the pivots that
reached it, and the ratio test compares quotients by cross
multiplication, so the integers are never left.

Pivoting is deterministic: steepest Dantzig descent with smallest-index
tie-breaks, falling back to Bland's rule after a fixed pivot count so
termination is still guaranteed on (never observed) cycling instances.
The answer comes back as integers over one positive denominator: a
feasible point, or a Farkas certificate with one multiplier of any sign
per row whose combination is non-negative on every column and makes the
right-hand side negative.  Both are re-verified in integers before being
returned; a failed check raises CertificateError.

Tuples on the face-test path are built from lists, not generators.
``tuple()`` of a generator grows its result by resizing, and CPython
keeps each freed tuple of at most 20 items on a per-length free list
(2,000 deep) that only a full garbage collection empties.  An integer LP
allocates few collectable objects, so full collections are rare and
those free lists held about a megabyte of peak memory over a face scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import BadParameters, CertificateError, DimensionMismatch


@dataclass(frozen=True)
class LinearConstraint:
    """The row ``coeffs . x = rhs`` with integer coefficients and rhs."""

    coeffs: tuple
    rhs: int

    def __post_init__(self):
        if not (isinstance(self.rhs, int) and all(map(isinstance, self.coeffs, repeat(int)))):
            raise BadParameters("constraint data must be integers")

    # kept beside the constructor: the benchmark's tracer wraps ``of`` by name
    @classmethod
    def of(cls, coeffs: Sequence[int], rhs: int) -> "LinearConstraint":
        return cls(tuple(coeffs), rhs)


# the name stays although the data are integers: the benchmark's tracer
# looks the class up by it
@dataclass(frozen=True)
class RationalLpProblem:
    """Is there an x >= 0 of ``nvars`` variables with every constraint
    holding?  The count is a field of its own: a face test in Gale rank 0
    has no constraint to read it from."""

    constraints: tuple
    nvars: int

    def __post_init__(self):
        if self.nvars < 0:
            raise BadParameters("the variable count must be non-negative")
        for c in self.constraints:
            if len(c.coeffs) != self.nvars:
                raise DimensionMismatch("one coefficient per variable required")

    # kept beside the constructor: the benchmark's tracer wraps ``of`` by name
    @classmethod
    def of(cls, constraints: Sequence[LinearConstraint], nvars: int) -> "RationalLpProblem":
        return cls(tuple(constraints), nvars)


@dataclass(frozen=True)
class LpResult:
    # "optimal" (a feasible point) or "infeasible"; the benchmark's tracer
    # counts calls by these two strings
    status: str
    # optimal: the point's numerators over ``den``, one per variable;
    # infeasible: ``den`` times the Farkas multipliers, one per constraint
    values: tuple
    den: int


# pivots by steepest descent before Bland's rule takes over
_BLAND_AFTER = 10_000


def _entering(cost: list, bland: bool) -> Optional[int]:
    """The column to enter: the most negative reduced cost, or under
    Bland's rule the first negative one; ties go to the smallest index.
    The last two entries of the cost row, its -z lead and the rhs, never
    enter."""
    reduced = cost[:-2]
    if bland:
        return next((j for j, c in enumerate(reduced) if c < 0), None)
    c = min(reduced, default=0)
    return reduced.index(c) if c < 0 else None


def _leaving(rows: list, basis: list, col: int) -> Optional[int]:
    """The row of the ratio test in ``col``: the least rhs / entry over the
    positive entries, compared by cross multiplication, ties to the
    smallest basic column."""
    best = None
    for i, r in enumerate(rows):
        a = r[col]
        if a > 0:
            b = r[-1]
            if best is None or (b * best[1], basis[i]) < (best[0] * a, best[2]):
                best = (b, a, basis[i], i)
    return None if best is None else best[3]


# kept under this name: the benchmark's tracer wraps it and counts its statuses
def lp_feasible(problem: RationalLpProblem) -> LpResult:
    """Decide the problem exactly: a feasible point, or an infeasibility
    certificate, each re-checked in integers."""
    cons = problem.constraints
    m, art_base = len(cons), problem.nvars
    ncols = art_base + m

    # row i is sigma[i] * constraint i, so that its rhs is non-negative,
    # with its artificial basic and a zero in the -z column
    sigma = [-1 if c.rhs < 0 else 1 for c in cons]
    rows = []
    for i, (c, s) in enumerate(zip(cons, sigma)):
        row = [s * a for a in c.coeffs] + [0] * (m + 1) + [s * c.rhs]
        row[art_base + i] = 1
        rows.append(row)
    # the cost row, the sum of the artificials priced out, leads in -z
    cost = [-sum(col) for col in zip(*rows, [0] * (ncols + 2))]
    cost[art_base:ncols + 1] = [0] * m + [1]
    rows.append(cost)
    lead = list(range(art_base, ncols + 1))

    pivots = 0
    while (col := _entering(rows[m], pivots > _BLAND_AFTER)) is not None:
        # the cost row is negative at col, so the ratio test passes it by
        row = _leaving(rows, lead, col)
        if row is None:
            raise CertificateError("phase one of the simplex did not reach an optimum")
        pivots += 1
        # the pivot row is already primitive and positive at col; clearing
        # col from a row multiplies its lead by piv > 0, and the gcd
        # division keeps the row primitive
        prow = rows[row]
        piv = prow[col]
        # a*piv - f*0 == a*piv: only the pivot row's nonzeros need the
        # subtraction, and a unit pivot scales nothing
        support = [(j, b) for j, b in enumerate(prow) if b]
        for i, r in enumerate(rows):
            f = r[col]
            if f and i != row:
                new = r[:] if piv == 1 else [a * piv for a in r]
                for j, b in support:
                    new[j] -= f * b
                g = 1 if new[lead[i]] == 1 else gcd(*new)
                rows[i] = new if g == 1 else [x // g for x in new]
        lead[row] = col

    cost = rows[m]
    # a row's lead entry is its denominator; the cost row's is cost[ncols]
    if cost[-1] < 0:  # the artificials sum to -cost[rhs] / cost[ncols] > 0
        # multiplier of row i: 1 - (reduced cost of its artificial)
        farkas = tuple([(cost[art_base + i] - cost[ncols]) * sigma[i] for i in range(m)])
        if not verify_farkas(problem, farkas):
            raise CertificateError("bad Farkas certificate")
        return LpResult("infeasible", farkas, cost[ncols])

    # the point is xs / d, d the common denominator of the rows
    dens = [r[j] for r, j in zip(rows, lead[:m])]
    d = lcm(*dens)
    xs = [0] * art_base
    for r, j, den in zip(rows, lead, dens):
        if j < art_base:
            xs[j] = r[-1] * (d // den)
    if any(x < 0 for x in xs) or any(
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
    for j in range(problem.nvars):
        if sum([l * c.coeffs[j] for l, c in zip(lam, cons)]) < 0:
            return False
    return sum([l * c.rhs for l, c in zip(lam, cons)]) < 0
