"""Exact integer linear algebra over arbitrary-precision integers.

Dense matrices only; desk-scale instances never need sparsity.  The module
provides the column-style Hermite normal form with its unimodular
transform, saturated integer kernels, exact ranks over Q and over prime
fields, Bareiss determinants and one HNF solver for integer lattice
coordinates (behind every lattice membership certificate).  No floating
point anywhere.
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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.rows else tuple(() for _ in range(self.cols)))

    def mat_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [str(x) for row in self.entries for x in row],
        }


@dataclass(frozen=True)
class HnfResult:
    """Column Hermite normal form ``h`` with unimodular ``u``, ``m @ u == h``."""

    h: IntMatrix
    u: IntMatrix
    pivots: tuple  # (row, col) staircase positions


@dataclass(frozen=True)
class LatticeBasis:
    """Z-linearly independent integer vectors spanning a lattice."""

    ambient_dim: int
    vectors: tuple

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch("basis vector of wrong length")

    @property
    def rank(self) -> int:
        return len(self.vectors)


def hnf(m: IntMatrix) -> HnfResult:
    """Column-style Hermite normal form.

    Returns ``h`` in lower staircase form with positive pivots, entries to
    the left of each pivot reduced into [0, pivot), zero columns at the
    right, and a unimodular ``u`` with ``m @ u == h``.  Deterministic for
    fixed input.
    """
    r, c = m.rows, m.cols
    h = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def col_sub(j, k, q):
        # column j -= q * column k
        if q == 0:
            return
        for i in range(r):
            h[i][j] -= q * h[i][k]
        for i in range(c):
            u[i][j] -= q * u[i][k]

    def col_swap(j, k):
        for i in range(r):
            h[i][j], h[i][k] = h[i][k], h[i][j]
        for i in range(c):
            u[i][j], u[i][k] = u[i][k], u[i][j]

    def col_neg(j):
        for i in range(r):
            h[i][j] = -h[i][j]
        for i in range(c):
            u[i][j] = -u[i][j]

    pivots = []
    pc = 0
    for i in range(r):
        if pc == c:
            break
        nz = [j for j in range(pc, c) if h[i][j] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            j0 = min(nz, key=lambda j: abs(h[i][j]))
            if h[i][j0] < 0:
                col_neg(j0)
            p = h[i][j0]
            for j in nz:
                if j != j0:
                    col_sub(j, j0, h[i][j] // p)
            nz = [j for j in range(pc, c) if h[i][j] != 0]
        j0 = nz[0]
        if j0 != pc:
            col_swap(j0, pc)
        if h[i][pc] < 0:
            col_neg(pc)
        p = h[i][pc]
        for j in range(pc):
            col_sub(j, pc, h[i][j] // p)
        pivots.append((i, pc))
        pc += 1

    return HnfResult(
        IntMatrix.from_rows(h) if r else IntMatrix.zeros(0, c),
        IntMatrix.from_rows(u),
        tuple(pivots),
    )


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rank_q(m: IntMatrix) -> int:
    """Rank over the rationals (fraction-free elimination)."""
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    for col in range(cols):
        piv = None
        for i in range(rank, rows):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pivot = a[rank][col]
        for i in range(rank + 1, rows):
            if any(a[i][j] for j in range(col, cols)):
                for j in range(col + 1, cols):
                    a[i][j] = (pivot * a[i][j] - a[i][col] * a[rank][j]) // prev
                a[i][col] = 0
        prev = pivot
        rank += 1
        if rank == rows:
            break
    return rank


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
    a = [[x % p for x in row] for row in m.entries]
    rows, cols = m.rows, m.cols
    rank = 0
    for col in range(cols):
        piv = None
        for i in range(rank, rows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def kernel_basis(m: IntMatrix) -> LatticeBasis:
    """Basis of the full integer kernel ker_Z(m).

    Computed from the column HNF: the transform columns matching zero HNF
    columns span the kernel, and because the transform is unimodular the
    resulting lattice is saturated (every integer kernel vector is an
    integer combination of the basis).
    """
    res = hnf(m)
    rank = len(res.pivots)
    vecs = tuple(res.u.column(j) for j in range(rank, m.cols))
    return LatticeBasis(m.cols, vecs)


class HnfSolver:
    """Integer solutions of ``m x = v`` for many right-hand sides ``v``.

    The column HNF of ``m`` is computed once; each solve is one
    back-substitution through its staircase followed by one product with
    the unimodular transform.
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
        h = self._hnf.h.entries
        rem = list(v)
        y = [0] * self.m.cols
        for pi, pj in self._hnf.pivots:
            q, r = divmod(rem[pi], h[pi][pj])
            if r:
                return None
            y[pj] = q
            if q:
                # column pj of the staircase is zero above its pivot row
                for i in range(pi, self.m.rows):
                    rem[i] -= q * h[i][pj]
        if any(rem):
            return None
        x = self._hnf.u.mat_vec(y)
        if self.m.mat_vec(x) != v:
            raise CertificateError("HNF solution does not recombine to the right-hand side")
        return x


def _basis_solver(basis: LatticeBasis) -> HnfSolver:
    """One ``HnfSolver`` with the basis vectors as columns."""
    columns = IntMatrix(basis.rank, basis.ambient_dim, tuple(map(tuple, basis.vectors))).transpose()
    solver = HnfSolver(columns)
    if solver.rank != basis.rank:
        raise BadParameters("basis vectors are not Z-linearly independent")
    return solver


# kept for the benchmark's tracer, which wraps it by name; no library caller
def lattice_member(basis: LatticeBasis, v: Sequence[int]) -> Optional[tuple]:
    """Integer coefficients expressing ``v`` in the basis, or None.

    The certificate recomputes to ``v`` exactly: the sum of ``c_i`` times
    the i-th basis vector is ``v``.
    """
    if len(v) != basis.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    return _basis_solver(basis).solve(v)


def lattices_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Mutual-inclusion test: every generator of each lies in the other.
    Each side is factored once."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return all(
        all(solver.solve(v) is not None for v in others)
        for solver, others in ((_basis_solver(b), a.vectors), (_basis_solver(a), b.vectors))
    )


def lattice_from_generators(ambient_dim: int, generators: Iterable[Sequence[int]]) -> LatticeBasis:
    """HNF-reduce a (possibly dependent) generating set to a basis."""
    gens = [tuple(int(x) for x in g) for g in generators]
    for g in gens:
        if len(g) != ambient_dim:
            raise DimensionMismatch("generator of wrong length")
    if not gens:
        return LatticeBasis(ambient_dim, ())
    cols = IntMatrix.from_rows(gens).transpose()
    res = hnf(cols)
    rank = len(res.pivots)
    return LatticeBasis(ambient_dim, tuple(res.h.column(j) for j in range(rank)))


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
