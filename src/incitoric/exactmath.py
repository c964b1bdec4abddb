"""Exact integer linear algebra over arbitrary-precision integers.

Dense matrices only; the one sparse structure is the staircase the HNF
solver keeps, so that a membership test touches only nonzero entries.
The module provides the column-style Hermite normal form with its unimodular
transform, saturated integer kernels, one fraction-free echelon kernel
behind the ranks over Q and over prime fields and the determinants, and
one HNF solver, whose certified staircase decides lattice membership and
gives integer lattice coordinates.  A lattice is a plain tuple of basis
vectors, its column HNF, built without a transform; the HNF is unique, so
two lattices are equal exactly when these tuples are.  No floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Sequence

from .errors import BadParameters, CertificateError, CompositeModulus, DimensionMismatch


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix over Python ints, stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise BadParameters("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.rows else tuple(() for _ in range(self.cols)))

    def mat_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)


@dataclass(frozen=True)
class HnfResult:
    """Column Hermite normal form ``h`` with unimodular transform ``u``,
    both tuples of columns: ``m`` times column j of ``u`` is column j of
    ``h``."""

    h: tuple
    u: tuple
    pivots: tuple  # (row, col) staircase positions


def hnf(m: IntMatrix) -> HnfResult:
    """Column-style Hermite normal form.

    Returns ``h`` in lower staircase form with positive pivots, entries to
    the left of each pivot reduced into [0, pivot), zero columns at the
    right, and a unimodular ``u`` with ``m @ u == h``.  Each working column
    is one list, its ``h`` entries over its ``u`` entries, so a column
    operation acts on both at once.  Deterministic for fixed input.
    """
    r, c = m.rows, m.cols
    cols = [list(m.column(j)) + [1 if i == j else 0 for i in range(c)] for j in range(c)]
    pivots = tuple(_column_hnf(cols, r))
    return HnfResult(tuple(tuple(col[:r]) for col in cols), tuple(tuple(col[r:]) for col in cols), pivots)


def _column_hnf(cols: list, r: int) -> list:
    """Bring the first ``r`` entries of the working columns ``cols`` to
    column HNF in place, by integer column operations that act on whole
    columns, and return the (row, col) staircase positions."""
    c = len(cols)
    pivots = []
    pc = 0
    for i in range(r):
        if pc == c:
            break
        nz = [j for j in range(pc, c) if cols[j][i]]
        if not nz:
            continue
        while len(nz) > 1:
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            if cols[j0][i] < 0:
                cols[j0] = [-a for a in cols[j0]]
            piv = cols[j0]
            for j in nz:
                q = cols[j][i] // piv[i]
                if j != j0 and q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], piv)]
            nz = [j for j in range(pc, c) if cols[j][i]]
        j0 = nz[0]
        cols[pc], cols[j0] = cols[j0], cols[pc]
        if cols[pc][i] < 0:
            cols[pc] = [-a for a in cols[pc]]
        piv = cols[pc]
        for j in range(pc):
            q = cols[j][i] // piv[i]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], piv)]
        pivots.append((i, pc))
        pc += 1
    return pivots


def _echelon(m: IntMatrix, p: int = 0) -> tuple:
    """Fraction-free row echelon form of ``m`` over Z, or over the field
    with ``p`` elements when ``p`` is nonzero.

    Over Z this is Bareiss elimination: every entry stays a minor of ``m``,
    so each division by the previous pivot is exact.  Mod ``p`` nothing is
    divided: scaling a row by the pivot, a unit, keeps the rank, so a row
    with nothing to eliminate is skipped.  Returns the rank and the last
    pivot signed by the row swaps, which over Z is the determinant of a
    nonsingular square ``m``.
    """
    a = [[x % p for x in row] for row in m.entries] if p else [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[col]
        for i in range(rank + 1, rows):
            row = a[i]
            f = row[col]
            if p:
                if f:
                    for j in range(col + 1, cols):
                        row[j] = (pivot * row[j] - f * top[j]) % p
            else:
                for j in range(col + 1, cols):
                    row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
        rank += 1
    return rank, sign * prev


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    rank, last = _echelon(m)
    return last if rank == m.rows else 0


def rank_q(m: IntMatrix) -> int:
    """Rank over the rationals (fraction-free elimination)."""
    return _echelon(m)[0]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank over the field with ``p`` elements."""
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    return _echelon(m, p)[0]


def kernel_basis(m: IntMatrix) -> tuple:
    """Basis vectors of the full integer kernel ker_Z(m).

    Computed from the column HNF: the transform columns matching zero HNF
    columns span the kernel, and because the transform is unimodular the
    resulting lattice is saturated (every integer kernel vector is an
    integer combination of the basis).
    """
    res = hnf(m)
    return res.u[len(res.pivots):]


class HnfSolver:
    """Integer solutions of ``m x = v`` for many right-hand sides ``v``.

    The column HNF of ``m`` is computed once and kept as its staircase: for
    each pivot its row, its entry, the nonzero entries of its column below
    it and its transform column, and the rows without a pivot.  A vector is
    reduced with one exact quotient per pivot, each step updating only the
    nonzero entries below that pivot; it lies in the column lattice exactly
    when every quotient is exact and the rows without a pivot end at zero.
    Construction certifies that the staircase spans exactly the column
    lattice: each staircase column is ``m`` times its transform column, and
    each column of ``m`` reduces to zero.
    """

    def __init__(self, m: IntMatrix):
        self.m = m
        res = hnf(m)
        self.rank = len(res.pivots)
        self._staircase = tuple(
            (i, res.h[j][i], tuple((k, a) for k, a in enumerate(res.h[j]) if k > i and a), res.u[j])
            for i, j in res.pivots
        )
        pivot_rows = {i for i, _ in res.pivots}
        self._free_rows = tuple(i for i in range(m.rows) if i not in pivot_rows)
        for i, j in res.pivots:
            # the staircase keeps only the entries from the pivot row down
            if any(res.h[j][:i]) or m.mat_vec(res.u[j]) != res.h[j]:
                raise CertificateError(f"the staircase column of pivot row {i} is not m times its transform column")
        for j in range(m.cols):
            if self._reduce(m.column(j)) is None:
                raise CertificateError(f"column {j} of the matrix does not reduce to zero down the staircase")

    def _reduce(self, v: Sequence[int]) -> Optional[list]:
        """The nonzero quotients of ``v`` down the staircase, each with its
        transform column, or None when ``v`` lies outside the column
        lattice."""
        if len(v) != self.m.rows:
            raise DimensionMismatch("right-hand side length does not match row count")
        rem = list(v)
        steps = []
        for i, pivot, below, u in self._staircase:
            q, r = divmod(rem[i], pivot)
            if r:
                return None
            if q:
                # the staircase column is zero above its pivot row
                for k, a in below:
                    rem[k] -= q * a
                steps.append((q, u))
        return None if any(rem[i] for i in self._free_rows) else steps

    def contains(self, v: Sequence[int]) -> bool:
        """Whether ``v`` lies in the column lattice of ``m``."""
        return self._reduce(v) is not None

    def solve(self, v: Sequence[int]) -> Optional[tuple]:
        """An integer ``x`` with ``m x == v``, or None when ``v`` lies
        outside the column lattice of ``m``."""
        v = tuple(int(a) for a in v)
        steps = self._reduce(v)
        if steps is None:
            return None
        x = tuple(sum(q * u[c] for q, u in steps) for c in range(self.m.cols))
        if self.m.mat_vec(x) != v:
            raise CertificateError("HNF solution does not recombine to the right-hand side")
        return x


# kept for the benchmark's tracer, which wraps it by name; no library caller
def lattice_member(basis: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[tuple]:
    """Integer coefficients expressing ``v`` in the basis, or None.

    The certificate recomputes to ``v`` exactly: the sum of ``c_i`` times
    the i-th basis vector is ``v``.
    """
    solver = HnfSolver(IntMatrix(len(basis), len(v), tuple(basis)).transpose())
    if solver.rank != len(basis):
        raise BadParameters("basis vectors are not Z-linearly independent")
    return solver.solve(v)


def lattice_from_generators(ambient_dim: int, generators: Iterable[Sequence[int]]) -> tuple:
    """HNF-reduce a (possibly dependent) generating set to basis vectors."""
    cols = [[int(x) for x in g] for g in generators]
    for g in cols:
        if len(g) != ambient_dim:
            raise DimensionMismatch("generator of wrong length")
    rank = len(_column_hnf(cols, ambient_dim))
    return tuple(tuple(col) for col in cols[:rank])


# kept for the benchmark's tracer, which wraps it by name; no library caller
def solve_rational(a_rows: Sequence[Sequence], b: Sequence) -> Optional[list]:
    """One exact solution of A x = b over Q, or None if inconsistent."""
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a_rows, b)]
    if len(rows) != len(b):
        raise DimensionMismatch("right-hand side length mismatch")
    ncols = len(rows[0]) - 1 if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return x
