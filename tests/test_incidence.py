"""Incidence matrices and rank laws."""

from math import comb

import pytest

from incitoric import exactmath as em
from incitoric.errors import BadParameters
from incitoric.incidence import PrimeRank, build_matrix, check_rank_laws, full_rank_prime_threshold


class TestBuildMatrix:
    def test_432_displayed_matrix(self):
        inc = build_matrix(4, 3, 2)
        assert inc.row_labels == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
        assert inc.col_labels == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        assert inc.matrix.entries == (
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
        )

    def test_whole_set_column(self):
        inc = build_matrix(3, 3, 2)
        assert inc.matrix.cols == 1
        assert inc.matrix.column(0) == (1, 1, 1)

    def test_632_shape_and_column_sums(self):
        inc = build_matrix(6, 3, 2)
        assert (inc.matrix.rows, inc.matrix.cols) == (15, 20)
        for j in range(20):
            assert sum(inc.matrix.column(j)) == comb(3, 2)
        for i in range(15):
            assert sum(inc.matrix.entries[i]) == comb(6 - 2, 3 - 2)

    def test_rejects_t_at_least_k(self):
        with pytest.raises(BadParameters):
            build_matrix(5, 3, 3)
        with pytest.raises(BadParameters):
            build_matrix(5, 3, 4)

    def test_nontrivial_kernel_iff_fewer_rows(self):
        for n in range(2, 9):
            for k in range(2, n + 1):
                for t in range(1, k):
                    inc = build_matrix(n, k, t)
                    nontrivial = comb(n, t) < comb(n, k)
                    assert (len(em.kernel_basis(inc.matrix)) > 0) == nontrivial


class TestRankLaws:
    def test_small_range_all_ok(self):
        report = check_rank_laws(6)
        assert report.all_ok
        assert all(e.rank_law_ok for e in report.entries)

    @pytest.mark.parametrize("n_max", [1, 0, -4])
    def test_no_triple_is_rejected(self, n_max):
        # below n = 2 no triple is checked, so no report can say all_ok
        with pytest.raises(BadParameters):
            check_rank_laws(n_max)

    def test_smallest_range_checks_one_triple(self):
        report = check_rank_laws(2)
        assert [(e.n, e.k, e.t) for e in report.entries] == [(2, 2, 1)]
        assert report.all_ok

    def test_632_entries(self):
        report = check_rank_laws(6)
        entry = next(e for e in report.entries if (e.n, e.k, e.t) == (6, 3, 2))
        assert entry.rank_q == entry.expected == 15
        by_p = {r.p: (r.matrix_rank, r.map_full, r.predicted_full) for r in entry.mod_p}
        assert by_p[2][0] < 15 and by_p[2][1] is False and by_p[2][2] is False
        assert by_p[7] == (15, True, True)

    def test_431_factorial_case(self):
        # the bare matrix keeps full rank mod 2 while the multiplication
        # map (a factor of (k-t)! = 2) drops to zero rank
        inc = build_matrix(4, 3, 1)
        assert em.rank_mod_p(inc.matrix, 2) == 4
        assert full_rank_prime_threshold(4, 3, 1) == 3
        report = check_rank_laws(4)
        entry = next(e for e in report.entries if (e.n, e.k, e.t) == (4, 3, 1))
        by_p = {r.p: r for r in entry.mod_p}
        assert by_p[2] == PrimeRank(2, 4, False, False, True)
