"""Exact rational linear programming.

Two-phase dense-tableau simplex in integers from input to certificate.
Each constraint is stored with its denominators cleared (a positive
multiple of a constraint is the same constraint), and each tableau row
is an integer vector with one positive denominator, so a pivot is
integer cross multiplication followed by a gcd reduction and the ratio
test never leaves the integers.  Variables may be declared non-negative
(one column) or left free (split into a difference of non-negatives);
every row gets an artificial in phase one.

Pivoting is deterministic: steepest Dantzig descent with smallest-index
tie-breaks, falling back to Bland's rule after a fixed pivot count so
termination is still guaranteed on (never observed) cycling instances.
Infeasibility comes back as a Farkas certificate indexed by
``problem.constraints``: multipliers >= 0 on '<=' rows, <= 0 on '>=' rows
and free on '=' rows whose combination annihilates every free variable
column, is non-negative on every non-negative column, and makes the
right-hand side negative.  Certificates and points are re-verified in
integers before being returned; a failed check raises CertificateError.
``Fraction``s are built only for the returned point, objective value and
Farkas multipliers.

Tuples on the face-test path are built from lists, not generators.
``tuple()`` of a generator grows its result by resizing, and CPython
keeps each freed tuple of at most 20 items on a per-length free list
(2,000 deep) that only a full garbage collection empties.  An integer LP
allocates few collectable objects, so full collections are rare and
those free lists held about a megabyte of peak memory over a face scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import BadParameters, CertificateError, DimensionMismatch
from .exactmath import clear_denominators

RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True)
class LinearConstraint:
    """``coeffs . x  relation  rhs`` with integer coefficients and rhs;
    ``of`` builds one from rational data."""

    coeffs: tuple
    relation: str
    rhs: int

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise BadParameters(f"unknown relation {self.relation!r}")
        if not all(isinstance(a, int) for a in (*self.coeffs, self.rhs)):
            raise BadParameters("constraint data must be integers; LinearConstraint.of clears denominators")

    @classmethod
    def of(cls, coeffs: Sequence, relation: str, rhs) -> "LinearConstraint":
        values, _ = clear_denominators([*coeffs, rhs])
        return cls(values[:-1], relation, values[-1])

    def _holds(self, xs: Sequence[int], d: int) -> bool:
        """Exact check at the point ``xs / d`` with ``d > 0``."""
        gap = sum(a * v for a, v in zip(self.coeffs, xs)) - self.rhs * d
        if self.relation == "<=":
            return gap <= 0
        if self.relation == ">=":
            return gap >= 0
        return gap == 0


@dataclass(frozen=True)
class RationalLpProblem:
    """Maximize objective . x subject to the constraints; a zero objective
    asks for feasibility only.  ``nonneg[j]`` constrains x_j >= 0."""

    objective: tuple
    constraints: tuple
    nonneg: tuple = ()

    def __post_init__(self):
        n = len(self.objective)
        for c in self.constraints:
            if len(c.coeffs) != n:
                raise DimensionMismatch("constraint arity differs from objective")
        if self.nonneg and len(self.nonneg) != n:
            raise DimensionMismatch("one nonneg flag per variable required")

    @classmethod
    def of(cls, objective: Sequence, constraints, nonneg: Sequence = ()) -> "RationalLpProblem":
        return cls(
            tuple(objective),
            tuple([
                c if isinstance(c, LinearConstraint) else LinearConstraint.of(*c)
                for c in constraints
            ]),
            tuple([bool(b) for b in nonneg]),
        )

    def is_nonneg(self, j: int) -> bool:
        return bool(self.nonneg) and self.nonneg[j]


@dataclass(frozen=True)
class LpResult:
    status: str  # optimal | infeasible | unbounded
    point: Optional[tuple]
    objective_value: Optional[Fraction]
    farkas: Optional[tuple]  # one multiplier per constraint


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
    """Rows store (integer vector including the rhs column, positive
    denominator); the cost row is stored the same way with -z in the rhs
    slot."""

    def __init__(self, rows: list, ncols: int):
        self.m = len(rows)
        self.ncols = ncols
        self.num = rows
        self.den = [1] * self.m
        self.cost = [0] * (ncols + 1)
        self.cden = 1
        self.basis = [0] * self.m
        self.pivots_done = 0
        self.banned: set = set()  # columns that may never enter the basis

    def set_cost(self, cost: list):
        """Install an integer cost row (without its rhs slot) and price
        out the basic columns."""
        self.cost, self.cden = cost + [0], 1
        for i in range(self.m):
            if self.cost[self.basis[i]]:
                self.cost, self.cden = _eliminate(self.cost, self.cden, self.num[i], self.basis[i])

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
                if self.cost[j] < 0 and j not in self.banned:
                    return j
            return None
        best = None
        for j in range(self.ncols):
            c = self.cost[j]
            if c < 0 and j not in self.banned and (best is None or c < best[0]):
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

    def solve(self, bland_after: int = 10_000) -> str:
        start = self.pivots_done
        while True:
            bland = self.pivots_done - start > bland_after
            col = self._entering(bland)
            if col is None:
                return "optimal"
            row = self._leaving(col)
            if row is None:
                return "unbounded"
            self.pivot(row, col)




def lp_feasible(problem: RationalLpProblem) -> LpResult:
    """Solve the LP exactly.

    Returns an optimal (or merely feasible, for a zero objective) rational
    point, an 'unbounded' status, or an 'infeasible' status carrying a
    Farkas certificate.
    """
    nvars = len(problem.objective)
    cons = problem.constraints
    m = len(cons)

    # column layout: one column per non-negative variable, a (+,-) pair per
    # free variable, then slacks, then one artificial per row
    col_of_var = []
    neg_col_of_var = []
    ncols = 0
    for j in range(nvars):
        col_of_var.append(ncols)
        ncols += 1
        if problem.is_nonneg(j):
            neg_col_of_var.append(None)
        else:
            neg_col_of_var.append(ncols)
            ncols += 1
    nslack = sum(1 for c in cons if c.relation != "=")
    slack_base = ncols
    ncols += nslack
    art_base = ncols
    ncols += m

    # row i is sigma[i] * tau[i] * (constraint i, with its slack), so that
    # the rhs is non-negative, plus its artificial
    rows = []
    tau = []
    sigma = [1] * m
    s_idx = slack_base
    for i, c in enumerate(cons):
        tau.append(-1 if c.relation == ">=" else 1)
        row = [0] * (ncols + 1)
        for j, a in enumerate(c.coeffs):
            if a:
                row[col_of_var[j]] = tau[i] * a
                if neg_col_of_var[j] is not None:
                    row[neg_col_of_var[j]] = -tau[i] * a
        row[ncols] = tau[i] * c.rhs
        if c.relation != "=":
            row[s_idx] = 1
            s_idx += 1
        if row[ncols] < 0:
            sigma[i] = -1
            row = [-x for x in row]
        row[art_base + i] = 1
        rows.append(row)

    tab = _Tableau(rows, ncols)
    for i in range(m):
        tab.basis[i] = art_base + i

    # phase 1: minimize the sum of artificials
    tab.set_cost([0] * art_base + [1] * m)
    if tab.solve() != "optimal":
        raise CertificateError("phase one of the simplex did not reach an optimum")
    if tab.cost[ncols] < 0:  # the artificials sum to -cost[rhs] / cden > 0
        # multiplier of row i: 1 - (reduced cost of its artificial)
        farkas = tuple([
            Fraction((tab.cost[art_base + i] - tab.cden) * sigma[i] * tau[i], tab.cden)
            for i in range(m)
        ])
        if not verify_farkas(problem, farkas):
            raise CertificateError("bad Farkas certificate")
        return LpResult("infeasible", None, None, farkas)

    obj, obj_den = clear_denominators(problem.objective)
    if any(obj):
        # drive any zero-level artificials out of the basis
        for i in range(m):
            if tab.basis[i] >= art_base:
                col = next((j for j in range(art_base) if tab.num[i][j] != 0), None)
                if col is not None:
                    tab.pivot(i, col)
        cost = [0] * ncols
        for j, cj in enumerate(obj):
            cost[col_of_var[j]] = -cj
            if neg_col_of_var[j] is not None:
                cost[neg_col_of_var[j]] = cj
        tab.banned = {art_base + i for i in range(m)}  # artificials never re-enter
        tab.set_cost(cost)
        if tab.solve() == "unbounded":
            return LpResult("unbounded", None, None, None)

    # the point is xs / d, d the common denominator of the rows
    d = lcm(*tab.den)
    values = {tab.basis[i]: tab.num[i][ncols] * (d // tab.den[i]) for i in range(m)}
    xs = []
    for j in range(nvars):
        v = values.get(col_of_var[j], 0)
        if neg_col_of_var[j] is not None:
            v -= values.get(neg_col_of_var[j], 0)
        xs.append(v)
    if not all(c._holds(xs, d) for c in cons):
        raise CertificateError("simplex returned an infeasible point")
    value = Fraction(sum(c * x for c, x in zip(obj, xs)), obj_den * d)
    return LpResult("optimal", tuple([Fraction(x, d) for x in xs]), value, None)


def verify_farkas(problem: RationalLpProblem, lam: Sequence) -> bool:
    """Re-check an infeasibility certificate (one rational multiplier per
    constraint of ``problem.constraints``) in integers."""
    cons = problem.constraints
    if len(lam) != len(cons):
        raise DimensionMismatch("one Farkas multiplier per constraint required")
    lam, _ = clear_denominators(lam)
    for l, c in zip(lam, cons):
        if (c.relation == "<=" and l < 0) or (c.relation == ">=" and l > 0):
            return False
    for j in range(len(problem.objective)):
        combined = sum(l * c.coeffs[j] for l, c in zip(lam, cons))
        if combined < 0 or (combined and not problem.is_nonneg(j)):
            return False
    return sum(l * c.rhs for l, c in zip(lam, cons)) < 0
