"""Incidence matrices and rank laws."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import incitoric
from incitoric import exactmath as em
from incitoric.errors import BadParameters, CertificateError
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

    def test_every_prime_rank_is_an_elimination_mod_p(self):
        # the ranks read off the index are the ranks an elimination gives
        for entry in check_rank_laws(7).entries:
            m = build_matrix(entry.n, entry.k, entry.t).matrix
            for r in entry.mod_p:
                assert r.matrix_rank == em.rank_mod_p(m, r.p), (entry.n, entry.k, entry.t, r.p)

    def test_only_primes_dividing_the_index_are_eliminated(self, monkeypatch):
        calls = []
        rank_mod_p = em.rank_mod_p
        monkeypatch.setattr(em, "rank_mod_p", lambda m, p: calls.append(p) or rank_mod_p(m, p))
        report = check_rank_laws(8)
        assert report.all_ok
        assert len(report.entries) * len(report.primes) == 504
        assert len(calls) == 80

    def test_forged_staircase_raises(self, monkeypatch):
        # a staircase one pivot short of the rank over Q
        monkeypatch.setattr(em, "staircase", lambda basis: ((), 1))
        with pytest.raises(CertificateError, match=r"column lattice of \(2,2,1\) has 0 pivots, not the rank 1"):
            check_rank_laws(2)

    def test_forged_staircase_raises_under_python_O(self):
        code = (
            "from incitoric import exactmath\n"
            "from incitoric.errors import CertificateError\n"
            "from incitoric.incidence import check_rank_laws\n"
            "exactmath.staircase = lambda basis: ((), 1)\n"
            "try:\n"
            "    check_rank_laws(2)\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "the column lattice of (2,2,1) has 0 pivots, not the rank 1"
