"""Subset ranking, derangements, tableaux."""

from math import comb

import pytest

from incitoric import combinat as cb
from incitoric.errors import BadParameters, RankOutOfRange


class TestColex:
    def test_pairs_of_four(self):
        order = [cb.colex_unrank(4, 2, r) for r in range(6)]
        assert order == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_triples_of_four(self):
        assert cb.colex_unrank(4, 3, 3) == (2, 3, 4)
        assert cb.colex_unrank(4, 3, 0) == (1, 2, 3)

    def test_round_trip_all_small(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                for r in range(comb(n, k)):
                    assert cb.colex_rank(cb.colex_unrank(n, k, r)) == r
                subsets = list(cb.subsets_colex(n, k))
                assert [cb.colex_rank(s) for s in subsets] == list(range(comb(n, k)))

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            cb.colex_unrank(4, 2, 6)

    def test_labels(self):
        assert cb.subset_label((1, 3, 6), 6) == "136"
        assert cb.subset_label((1, 3, 12), 12) == "1,3,12"
        assert cb.parse_subset_label("136", 6) == (1, 3, 6)
        assert cb.parse_subset_label("1,3,12", 12) == (1, 3, 12)


class TestDerangements:
    def test_n2(self):
        ds = list(cb.derangements(2))
        assert len(ds) == 1
        assert ds[0].images == (2, 1)
        assert ds[0].cycles == ((1, 2),)

    def test_counts_by_brute_force(self):
        from itertools import permutations

        for n in (3, 4, 5, 6):
            expected = sum(
                1
                for p in permutations(range(1, n + 1))
                if all(p[i - 1] != i for i in range(1, n + 1))
            )
            ds = list(cb.derangements(n))
            assert len(ds) == expected
            assert len({d.images for d in ds}) == expected
            assert [d.images for d in ds] == sorted(d.images for d in ds)

    def test_recurrence(self):
        for n in range(4, 10):
            assert cb.derangement_count(n) == (n - 1) * (
                cb.derangement_count(n - 1) + cb.derangement_count(n - 2)
            )
        assert cb.derangement_count(4) == 9
        assert cb.derangement_count(6) == 265

    def test_no_fixed_points_and_partition(self):
        for d in cb.derangements(5):
            assert all(d.images[i - 1] != i for i in range(1, 6))
            flat = sorted(x for c in d.cycles for x in c)
            assert flat == list(range(1, 6))

    def test_cycle_stats(self):
        d = cb.derangement_from_images((2, 1, 4, 5, 3))
        assert (d.t_count, d.s_count) == (2, 1)
        six_cycle = cb.derangement_from_images((2, 3, 4, 5, 6, 1))
        assert (six_cycle.t_count, six_cycle.s_count) == (1, 0)
        triple_transposition = cb.derangement_from_images((2, 1, 4, 3, 6, 5))
        assert (triple_transposition.t_count, triple_transposition.s_count) == (3, 3)

    def test_sign(self):
        assert cb.derangement_from_images((2, 1)).sign == -1
        assert cb.derangement_from_images((2, 3, 1)).sign == 1

    def test_rejects_fixed_points(self):
        with pytest.raises(BadParameters):
            cb.derangement_from_images((1, 2))
