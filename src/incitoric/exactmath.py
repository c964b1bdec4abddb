"""Exact integer linear algebra over arbitrary-precision integers.

Matrices are stored dense.  Each also keeps the nonzero ``(row, value)``
pairs of its columns, built once on first use; such pairs are the
library's one sparse vector shape.  ``mat_vec`` runs over them alone,
``sparse_dot`` evaluates a dense functional at a sparse vector.  A
point configuration is such a matrix, so its sparse points are its
column nonzeros, and the staircase the HNF solver keeps takes the same
shape, so that a membership test touches only nonzero entries.
One elimination kernel, the Euclidean column echelon over Z, does all the
work; no arithmetic runs mod p.  Its pivot count is the rank over Q, and
the signed product of its pivots is the determinant.  Echelons of a
matrix and of its transpose in turn give a diagonal form, whose entries
give the rank mod every prime and the order of the torsion of the
cokernel.  One pass that reduces the entries left of each pivot turns
the echelon into the column-style Hermite normal form with its
unimodular transform, behind the saturated integer kernels, the lattice
bases, the staircase reader of a basis's pivot rows and index, and one
HNF solver, whose certified staircase decides lattice membership and
gives integer lattice coordinates.  A lattice is a plain tuple of basis
vectors, its column HNF, built without a transform; the HNF is unique,
so two lattices are equal exactly when these tuples are.  No floating
point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, prod
from typing import Iterable, Optional, Sequence

from .errors import BadParameters, CertificateError, CompositeModulus, DimensionMismatch


def nonzeros(vectors: Iterable[Sequence[int]]) -> tuple:
    """Each vector's nonzero ``(index, value)`` pairs."""
    return tuple([tuple([(i, x) for i, x in enumerate(v) if x]) for v in vectors])


def sparse_dot(pairs: Iterable[tuple], v: Sequence[int]) -> int:
    """The dot product of ``v`` with the vector whose nonzero entries are
    ``pairs``."""
    # a plain loop: on the 3 to 5 pairs of a 0/1 point it takes half the
    # time of sum() over a list comprehension
    total = 0
    for i, x in pairs:
        total += v[i] * x
    return total


@dataclass(frozen=True)
class IntMatrix:
    """Matrix over Python ints, stored as a tuple of row tuples, with the
    nonzero entries of each column kept once, on first use, for
    ``mat_vec``."""

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

    @cached_property
    def column_nonzeros(self) -> tuple:
        """Each column's nonzero ``(row, value)`` pairs."""
        return nonzeros(self.transpose().entries)

    def mat_vec(self, v: Sequence[int]) -> tuple:
        """``self @ v``: each nonzero entry of ``v`` adds its multiple of the
        column's nonzero entries."""
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        out = [0] * self.rows
        for col, x in zip(self.column_nonzeros, v):
            for i, a in col if x else ():
                out[i] += a * x
        return tuple(out)


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


def _echelon(cols: list, r: int) -> tuple:
    """Bring the first ``r`` entries of the working columns ``cols`` to
    lower column echelon form over Z in place, and return the (row, col)
    pivots and the sign of the swaps and negations.

    Row by row, Euclid's algorithm on the entries of that row clears all
    but one column, which moves to the next pivot position with its pivot
    made positive.  The operations act on whole columns, transform entries
    included, but only from the pivot row down: the columns from the pivot
    on are zero above it.  Every operation but a swap or a negation has
    determinant 1, so a nonsingular square matrix has determinant the sign
    times the product of the pivots.  This is the one elimination of the
    module: the HNF, the determinant, the rank over Q and the diagonal
    form all run it.
    """
    c = len(cols)
    pivots = []
    sign = 1
    for i in range(r):
        pc = len(pivots)
        nz = [j for j in range(pc, c) if cols[j][i]]
        if not nz:
            continue
        while len(nz) > 1:
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            sign *= _unit_pivot(cols[j0], i)
            piv = cols[j0]
            for j in nz:
                q = cols[j][i] // piv[i]
                if j != j0 and q:
                    _subtract(cols[j], q, piv, i)
            nz = [j for j in nz if cols[j][i]]
        j0 = nz[0]
        if j0 != pc:
            cols[pc], cols[j0] = cols[j0], cols[pc]
            sign = -sign
        sign *= _unit_pivot(cols[pc], i)
        pivots.append((i, pc))
    return pivots, sign


def _unit_pivot(col: list, i: int) -> int:
    """Make entry ``i`` of ``col`` positive by negating the column from
    row ``i`` down; return the sign of the negation."""
    if col[i] < 0:
        col[i:] = [-a for a in col[i:]]
        return -1
    return 1


def _subtract(col: list, q: int, piv: list, i: int) -> None:
    """``col -= q * piv`` from row ``i`` down, where ``piv`` is zero above
    row ``i``."""
    col[i:] = [a - q * b for a, b in zip(col[i:], piv[i:])]


def _column_hnf(cols: list, r: int) -> list:
    """Bring the first ``r`` entries of the working columns ``cols`` to
    column HNF in place and return the (row, col) staircase positions: the
    column echelon, then one pass in pivot order that reduces the entries
    left of each pivot into [0, pivot)."""
    pivots, _ = _echelon(cols, r)
    for i, pc in pivots:
        piv = cols[pc]
        for j in range(pc):
            q = cols[j][i] // piv[i]
            if q:
                _subtract(cols[j], q, piv, i)
    return pivots


def staircase(basis: Sequence[Sequence[int]]) -> tuple:
    """The pivot rows of an HNF basis and its index, the product of its
    pivots: the index in Z^d of its projection to those d rows."""
    rows = tuple([next(i for i, x in enumerate(b) if x) for b in basis])
    return rows, prod([b[i] for b, i in zip(basis, rows)])


def _columns(m: IntMatrix) -> list:
    """The columns of ``m`` as working lists."""
    return [list(col) for col in zip(*m.entries)]


def diagonal(m: IntMatrix) -> tuple:
    """The nonzero entries of a diagonal form ``U m V``, with ``U`` and
    ``V`` unimodular: column echelons over Z of the matrix and of its
    transpose in turn, each dropping its zero columns, until every column
    holds only its pivot.  No transform is kept.

    The entries are positive but need not divide one another, as Smith's
    do.  Their count is the rank over Q; as ``U`` and ``V`` stay
    invertible mod every prime p, the rank mod p is the number of entries
    p does not divide; their product is the order of the torsion of Z^rows
    modulo the column lattice.
    """
    cols, r = _columns(m), m.rows
    while True:
        pivots, _ = _echelon(cols, r)
        if not any(any(col[i + 1 :]) for (i, _), col in zip(pivots, cols)):
            return tuple(col[i] for (i, _), col in zip(pivots, cols))
        cols, r = [list(row) for row in zip(*cols[: len(pivots)])], len(pivots)


def determinant(m: IntMatrix) -> int:
    """Exact determinant: the signed product of the column echelon's
    pivots."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    cols = _columns(m)
    pivots, sign = _echelon(cols, m.rows)
    return sign * prod([cols[j][i] for i, j in pivots]) if len(pivots) == m.rows else 0


# exported, and kept for the benchmark's tracer, which wraps it by name; no
# library caller
def rank_q(m: IntMatrix) -> int:
    """Rank over the rationals: the column echelon's pivot count."""
    return len(_echelon(_columns(m), m.rows)[0])


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


# exported, and kept for the benchmark's tracer, which wraps it by name; no
# library caller
def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank over the field with ``p`` elements: the number of entries of
    the diagonal form that ``p`` does not divide."""
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    return sum(1 for d in diagonal(m) if d % p)


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
