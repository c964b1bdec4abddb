"""Exact linear algebra: normal forms, kernels, ranks, minors."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incitoric import exactmath as em
from incitoric.errors import CertificateError, CompositeModulus, DimensionMismatch
from incitoric.exactmath import IntMatrix
from incitoric.incidence import RANK_LAW_PRIMES, build_matrix


def small_matrices():
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ).map(IntMatrix.from_rows)


def rank_fraction_oracle(m: IntMatrix) -> int:
    rows = [[Fraction(x) for x in row] for row in m.entries]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(m.rows):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def columns_recombine(m: IntMatrix, res) -> bool:
    """m times column j of the transform is column j of the HNF, for every j."""
    return len(res.u) == len(res.h) == m.cols and all(m.mat_vec(u) == h for u, h in zip(res.u, res.h))


def is_saturated(basis: tuple) -> bool:
    """Oracle: a lattice is saturated exactly when the Smith invariant
    factors of its basis matrix are all 1 (sympy's, test-only)."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    if not basis:
        return True
    return all(f == 1 for f in invariant_factors(Matrix(basis), domain=ZZ))


def det_permanent_oracle(m: IntMatrix) -> int:
    from itertools import permutations

    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # sign from cycle count
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        sign = -1 if (n - cycles) % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m.entries[i][perm[i]]
        total += sign * prod
    return total


class TestHnf:
    def test_identity(self):
        m = IntMatrix.identity(3)
        res = em.hnf(m)
        assert res.h == m.entries
        assert res.u == m.entries

    def test_two_by_two_pivots(self):
        m = IntMatrix.from_rows([[2, 4], [0, 3]])
        res = em.hnf(m)
        assert [res.h[j][i] for (i, j) in res.pivots] == [2, 3]
        assert abs(em.determinant(IntMatrix.from_rows(res.h))) == 6
        assert columns_recombine(m, res)

    def test_incidence_432_rank_four(self):
        inc = build_matrix(4, 3, 2)
        res = em.hnf(inc.matrix)
        assert len(res.pivots) == 4

    def test_empty_shapes(self):
        # no rows: every column is a zero HNF column over a unit column
        res = em.hnf(IntMatrix(0, 3, ()))
        assert res.h == ((), (), ())
        assert res.u == IntMatrix.identity(3).entries
        assert res.pivots == ()
        res = em.hnf(IntMatrix(2, 0, ((), ())))
        assert res.h == res.u == res.pivots == ()

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_hnf_canonical_form(self, m):
        res = em.hnf(m)
        assert columns_recombine(m, res)
        assert em.determinant(IntMatrix.from_rows(res.u)) in (1, -1)
        # staircase, read from the columns: pivot rows strictly increase,
        # pivots positive, all entries above a pivot vanish, entries left
        # of a pivot reduced
        prev_row = -1
        for (i, j) in res.pivots:
            assert i > prev_row
            prev_row = i
            p = res.h[j][i]
            assert p > 0
            assert not any(res.h[j][:i])
            for j2 in range(j):
                assert 0 <= res.h[j2][i] < p
        rank = len(res.pivots)
        for j in range(rank, m.cols):
            assert not any(res.h[j])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 7).flatmap(
            lambda r: st.integers(0, 7).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r
                ).map(lambda rows: IntMatrix(r, c, tuple(map(tuple, rows))))
            )
        )
    )
    def test_hnf_matches_the_interleaved_loop(self, m):
        # the echelon followed by one reducing pass gives the same h, u and
        # pivots as reducing left of each pivot as soon as it is found
        res = em.hnf(m)
        assert (res.h, res.u, res.pivots) == interleaved_hnf(m)


def interleaved_hnf(m: IntMatrix) -> tuple:
    """Oracle for hnf: the column HNF by one loop that, row by row, clears
    the row by Euclid's algorithm on whole columns and at once reduces the
    entries left of the new pivot."""
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
    return tuple(tuple(col[:r]) for col in cols), tuple(tuple(col[r:]) for col in cols), tuple(pivots)


class TestKernel:
    def test_432_trivial(self):
        inc = build_matrix(4, 3, 2)
        assert em.kernel_basis(inc.matrix) == ()

    def test_632_rank_five(self):
        inc = build_matrix(6, 3, 2)
        kb = em.kernel_basis(inc.matrix)
        assert len(kb) == 5
        for v in kb:
            assert not any(inc.matrix.mat_vec(v))
        assert is_saturated(kb)

    def test_zero_matrix(self):
        kb = em.kernel_basis(IntMatrix(1, 3, ((0, 0, 0),)))
        assert len(kb) == 3

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_kernel_sound_and_saturated(self, m):
        kb = em.kernel_basis(m)
        for v in kb:
            assert not any(m.mat_vec(v))
        assert is_saturated(kb)

    def test_kernel_complete_against_box(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            )
            kb = em.kernel_basis(m)
            for v in product(range(-3, 4), repeat=cols):
                if any(m.mat_vec(v)):
                    continue
                assert em.lattice_member(kb, v) is not None


class TestRanks:
    def test_632_over_q(self):
        inc = build_matrix(6, 3, 2)
        assert em.rank_q(inc.matrix) == 15

    def test_632_mod_primes(self):
        inc = build_matrix(6, 3, 2)
        assert em.rank_mod_p(inc.matrix, 5) == 15
        # frozen regression value for the singular prime
        assert em.rank_mod_p(inc.matrix, 2) == 10
        assert em.rank_mod_p(inc.matrix, 3) == 14

    def test_composite_modulus(self):
        with pytest.raises(CompositeModulus):
            em.rank_mod_p(IntMatrix.identity(2), 6)

    @settings(max_examples=120, deadline=None)
    @given(small_matrices())
    def test_rank_matches_fraction_oracle(self, m):
        assert em.rank_q(m) == rank_fraction_oracle(m)

    @settings(max_examples=80, deadline=None)
    @given(small_matrices())
    def test_rank_mod_p_at_most_rational(self, m):
        rq = em.rank_q(m)
        for p in (2, 3, 5, 7):
            assert em.rank_mod_p(m, p) <= rq

    def test_determinant_against_permutation_oracle(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            assert em.determinant(m) == det_permanent_oracle(m)


class TestSympyOracles:
    @settings(max_examples=80, deadline=None)
    @given(small_matrices())
    def test_hnf_lattice_matches_sympy(self, m):
        # sympy's HNF has another staircase convention; its columns and
        # ours must still be bases of one lattice, each integral in the other
        from sympy import Matrix
        from sympy.matrices.normalforms import hermite_normal_form

        res = em.hnf(m)
        rank = len(res.pivots)
        ours = Matrix([[res.h[j][i] for j in range(rank)] for i in range(m.rows)])
        theirs = hermite_normal_form(Matrix(m.rows, m.cols, [x for row in m.entries for x in row]))
        assert theirs.shape == (m.rows, rank)
        if rank:
            for a, b in ((ours, theirs), (theirs, ours)):
                x, _ = a.gauss_jordan_solve(b)  # unique: a has full column rank
                assert all(v.is_integer for v in x)

    @settings(max_examples=120, deadline=None)
    @given(small_matrices())
    def test_ranks_match_sympy(self, m):
        from sympy import GF, ZZ
        from sympy.polys.matrices import DomainMatrix

        dm = DomainMatrix([[ZZ(x) for x in row] for row in m.entries], (m.rows, m.cols), ZZ)
        assert em.rank_q(m) == dm.rank()
        for p in RANK_LAW_PRIMES:
            assert em.rank_mod_p(m, p) == dm.convert_to(GF(p)).rank()

    @settings(max_examples=120, deadline=None)
    @given(small_matrices())
    def test_diagonal_matches_invariant_factors(self, m):
        # the entries need not divide one another as Smith's do, but their
        # count, their product and the primes dividing them must agree
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import invariant_factors

        diag = em.diagonal(m)
        factors = [abs(int(f)) for f in invariant_factors(Matrix(m.entries), domain=ZZ) if f]
        assert all(d > 0 for d in diag)
        assert len(diag) == len(factors)
        assert prod(diag) == prod(factors)
        for p in RANK_LAW_PRIMES:
            assert sum(1 for d in diag if d % p) == sum(1 for f in factors if f % p)

    @pytest.mark.parametrize(
        "m",
        [IntMatrix(0, 3, ()), IntMatrix(3, 0, ((), (), ())), IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])],
        ids=["0x3", "3x0", "zero 2x3"],
    )
    def test_diagonal_of_an_empty_or_zero_matrix_is_empty(self, m):
        assert em.diagonal(m) == ()
        assert em.rank_mod_p(m, 2) == em.rank_q(m) == 0

    def test_determinant_matches_sympy(self):
        # up to 14 x 14, the simplex size of (6,3,2)
        from sympy import Matrix

        rng = random.Random(88)
        singular = 0
        for n in range(1, 15):
            for _ in range(6):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.3:  # a singular one now and then
                    rows[-1] = [a - b for a, b in zip(rows[0], rows[n // 2])]
                elif n > 2 and rng.random() < 0.2:  # rank n - 2, no zero row
                    left = [[rng.randint(-3, 3) for _ in range(n - 2)] for _ in range(n)]
                    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 2)]
                    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
                expected = int(Matrix(rows).det())
                singular += expected == 0
                assert em.determinant(IntMatrix.from_rows(rows)) == expected
        assert singular >= 10


def combination(basis, coeffs):
    """The integer combination of the basis vectors with these coefficients."""
    return tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(len(basis[0])))


class TestLatticeMember:
    def test_zero_vector(self):
        kb = em.kernel_basis(build_matrix(6, 3, 2).matrix)
        assert em.lattice_member(kb, (0,) * 20) == (0,) * 5

    def test_constructed_combination(self):
        basis = ((1, 0, 2), (0, 1, -1), (0, 0, 3))
        v = combination(basis, (1, 2, 0))
        assert v == (1, 2, 0)
        assert em.lattice_member(basis, v) == (1, 2, 0)

    def test_triangle_generator_membership(self):
        inc = build_matrix(5, 3, 2)
        cols = em.lattice_from_generators(
            10, [inc.matrix.column(j) for j in range(inc.matrix.cols)]
        )
        c123 = inc.matrix.column(0)
        assert em.lattice_member(cols, c123) is not None

    def test_dimension_mismatch(self):
        basis = ((1, 0, 0),)
        with pytest.raises(DimensionMismatch):
            em.lattice_member(basis, (1, 0))

    def test_non_member(self):
        basis = ((2, 0),)
        assert em.lattice_member(basis, (1, 0)) is None
        assert em.lattice_member(basis, (0, 1)) is None


def full_column_rank_systems():
    """(m, v): a full-column-rank matrix of at most 6 x 4 with entries in
    [-5, 5], and a target that is either m x for an integer x or arbitrary."""

    def with_target(m):
        combos = st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols).map(m.mat_vec)
        free = st.lists(st.integers(-12, 12), min_size=m.rows, max_size=m.rows).map(tuple)
        return st.tuples(st.just(m), st.one_of(combos, free))

    matrices = st.integers(1, 6).flatmap(
        lambda r: st.integers(1, min(r, 4)).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-5, 5), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ).map(IntMatrix.from_rows)
    return matrices.filter(lambda m: em.rank_q(m) == m.cols).flatmap(with_target)


class TestHnfSolver:
    @settings(max_examples=300, deadline=None)
    @given(full_column_rank_systems())
    def test_agrees_with_fraction_elimination(self, system):
        m, v = system
        solver = em.HnfSolver(m)
        x = solver.solve(v)
        assert solver.contains(v) == (x is not None)
        sol = em.solve_rational(m.entries, v)
        if sol is not None and all(q.denominator == 1 for q in sol):
            assert x == tuple(int(q) for q in sol)
        else:
            assert x is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            em.HnfSolver(IntMatrix.identity(2)).solve((1, 2, 3))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3))
    def test_pivot_product_is_the_index(self, rows):
        # for a nonsingular square matrix the index of its column lattice
        # is |det|; sympy's determinant, as em.determinant reads the same
        # echelon's pivots
        from sympy import Matrix

        res = em.hnf(IntMatrix.from_rows(rows))
        if len(res.pivots) == 3:
            assert prod(res.h[j][i] for i, j in res.pivots) == abs(Matrix(rows).det())

    def test_pivot_product_of_a_lattice_of_index_six(self):
        res = em.hnf(IntMatrix.from_rows([[2, 0, 4], [0, 3, 3]]))
        assert prod(res.h[j][i] for i, j in res.pivots) == 6

    def test_bad_transform_fails_recombination(self):
        # a transform forged after the construction certificate still
        # fails the re-check of each solution
        solver = em.HnfSolver(IntMatrix.from_rows([[1, 1], [0, 1]]))
        solver._staircase = tuple(
            (i, pivot, below, tuple(2 * a for a in u)) for i, pivot, below, u in solver._staircase
        )
        with pytest.raises(CertificateError):
            solver.solve((3, 1))


class TestMinors:
    def test_632_divisibility_iff_rank_drop(self):
        # independent oracle: determinants mod p of every maximal column
        # subset, against the rank computation
        inc = build_matrix(6, 3, 2)
        m = inc.matrix
        from itertools import combinations

        def det_mod(rows, p):
            a = [row[:] for row in rows]
            n = len(a)
            det = 1
            for c in range(n):
                piv = next((i for i in range(c, n) if a[i][c] % p), None)
                if piv is None:
                    return 0
                if piv != c:
                    a[c], a[piv] = a[piv], a[c]
                    det = -det
                det = (det * a[c][c]) % p
                inv = pow(a[c][c], p - 2, p)
                for i in range(c + 1, n):
                    f = (a[i][c] * inv) % p
                    if f:
                        a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
            return det % p

        for p in (2, 3):
            assert em.rank_mod_p(m, p) < 15
            for cols in combinations(range(20), 15):
                rows = [[row[j] for j in cols] for row in m.entries]
                assert det_mod(rows, p) == 0
        # for p = 5 the rank is full, and some maximal minor is a unit mod 5
        assert em.rank_mod_p(m, 5) == 15
        assert any(
            det_mod([[row[j] for j in cols] for row in m.entries], 5)
            for cols in combinations(range(20), 15)
        )
