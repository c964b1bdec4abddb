"""Exact integer linear algebra over arbitrary-precision integers.

Dense matrices only; desk-scale instances never need sparsity.  The module
provides the column-style Hermite normal form with its unimodular
transform, saturated integer kernels, one fraction-free echelon kernel
behind the ranks over Q and over prime fields and the determinants, and
one HNF solver for integer lattice coordinates.  A lattice is a plain
tuple of basis vectors; every membership certificate is one solve
against the ``basis_solver`` of that tuple.  No floating point anywhere.
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
    return HnfResult(
        tuple(tuple(col[:r]) for col in cols), tuple(tuple(col[r:]) for col in cols), tuple(pivots)
    )


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

    The column HNF of ``m`` is computed once; each solve is one
    back-substitution down the pivot columns of its staircase, adding up
    the matching columns of the unimodular transform as it goes.
    """

    def __init__(self, m: IntMatrix):
        self.m = m
        self._hnf = hnf(m)
        self.rank = len(self._hnf.pivots)

    def solve(self, v: Sequence[int]) -> Optional[tuple]:
        """An integer ``x`` with ``m x == v``, or None when ``v`` lies
        outside the column lattice of ``m``."""
        if len(v) != self.m.rows:
            raise DimensionMismatch("right-hand side length does not match row count")
        v = tuple(int(a) for a in v)
        h, u = self._hnf.h, self._hnf.u
        rem = list(v)
        x = [0] * self.m.cols
        for pi, pj in self._hnf.pivots:
            col = h[pj]
            q, r = divmod(rem[pi], col[pi])
            if r:
                return None
            if q:
                # column pj of the staircase is zero above its pivot row
                for i in range(pi, len(rem)):
                    rem[i] -= q * col[i]
                x = [a + q * b for a, b in zip(x, u[pj])]
        if any(rem):
            return None
        x = tuple(x)
        if self.m.mat_vec(x) != v:
            raise CertificateError("HNF solution does not recombine to the right-hand side")
        return x


def basis_solver(ambient_dim: int, basis: Sequence[Sequence[int]]) -> HnfSolver:
    """One ``HnfSolver`` with the basis vectors, of length ``ambient_dim``,
    as its columns: its solutions are coordinates in the basis."""
    solver = HnfSolver(IntMatrix(len(basis), ambient_dim, tuple(basis)).transpose())
    if solver.rank != len(basis):
        raise BadParameters("basis vectors are not Z-linearly independent")
    return solver


# kept for the benchmark's tracer, which wraps it by name; no library caller
def lattice_member(basis: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[tuple]:
    """Integer coefficients expressing ``v`` in the basis, or None.

    The certificate recomputes to ``v`` exactly: the sum of ``c_i`` times
    the i-th basis vector is ``v``.
    """
    return basis_solver(len(v), basis).solve(v)


def lattice_from_generators(ambient_dim: int, generators: Iterable[Sequence[int]]) -> tuple:
    """HNF-reduce a (possibly dependent) generating set to basis vectors."""
    gens = [tuple(int(x) for x in g) for g in generators]
    for g in gens:
        if len(g) != ambient_dim:
            raise DimensionMismatch("generator of wrong length")
    if not gens:
        return ()
    res = hnf(IntMatrix.from_rows(gens).transpose())
    return res.h[:len(res.pivots)]


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
