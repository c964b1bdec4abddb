"""Subset ranking, the S_n action on subsets, derangements, tableaux."""

from collections import Counter
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incitoric import combinat as cb
from incitoric.errors import BadParameters, DimensionMismatch


class TestColex:
    def test_pairs_of_four(self):
        order = list(cb.subsets_colex(4, 2))
        assert order == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_triples_of_four(self):
        order = list(cb.subsets_colex(4, 3))
        assert order[3] == (2, 3, 4)
        assert order[0] == (1, 2, 3)
        assert cb.colex_rank((2, 3, 4)) == 3

    def test_round_trip_all_small(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                subsets = list(cb.subsets_colex(n, k))
                assert len(set(subsets)) == comb(n, k)
                assert [cb.colex_rank(s) for s in subsets] == list(range(comb(n, k)))

    @pytest.mark.parametrize("subset", [(0, 1, 2), (-2, 3), (0,)])
    def test_member_below_one_rejected(self, subset):
        # math.comb raised a bare ValueError for a member of 0 or less
        with pytest.raises(BadParameters, match=r"has a member below 1"):
            cb.colex_rank(subset)

    @pytest.mark.parametrize("n, k", [(4, -1), (-1, 2), (-3, -3)])
    def test_negative_size_rejected(self, n, k):
        # a negative size used to recurse until RecursionError
        with pytest.raises(BadParameters, match="must be non-negative"):
            cb.subsets_colex(n, k)

    def test_pair_rank_is_colex_rank(self):
        for b in range(2, 16):
            for a in range(1, b):
                assert cb.pair_rank(a, b) == cb.colex_rank((a, b))

    def test_labels(self):
        assert cb.subset_label((1, 3, 6), 6) == "136"
        assert cb.subset_label((1, 3, 12), 12) == "1,3,12"


def orbit_sizes(members, image, tables):
    """Sizes of the orbits of ``members`` under the group the tables
    generate, by union-find over the image of each member under each
    table; an image outside ``members`` raises KeyError."""
    parent = {m: m for m in members}

    def find(m):
        while parent[m] != m:
            parent[m] = m = parent[parent[m]]  # path halving
        return m

    for m in members:
        for table in tables:
            parent[find(m)] = find(image(m, table))
    return sorted(Counter(find(m) for m in members).values())


def subset_image(s, table):
    return tuple(sorted(table[c] for c in s))


def vector_image(u, table):
    """u read through the table, with its first nonzero entry made positive."""
    v = tuple(u[r] for r in table)
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


class TestGeneratorTables:
    def test_tables_permute_the_ranks(self):
        for n in range(9):
            for k in range(n + 1):
                tables = cb.generator_tables(n, k)
                assert len(tables) == 2
                assert all(sorted(table) == list(range(comb(n, k))) for table in tables)

    def test_tables_move_the_members(self):
        # (1 2) swaps 1 and 2, and the n-cycle adds 1 to every member mod n
        subsets = list(cb.subsets_colex(5, 3))
        swap, cycle = cb.generator_tables(5, 3)
        assert subsets[swap[cb.colex_rank((1, 3, 4))]] == (2, 3, 4)
        assert subsets[swap[cb.colex_rank((1, 2, 5))]] == (1, 2, 5)
        assert subsets[cycle[cb.colex_rank((1, 3, 5))]] == (1, 2, 4)

    @pytest.mark.parametrize("n, counts", [(6, [1, 3, 7, 21]), (7, [1, 3, 10, 38])])
    def test_orbits_of_column_subsets(self, n, counts):
        # S_n-orbits of the sets of 1-4 columns of (n,3,2), as Burnside's
        # lemma counts them; one orbit of single columns: S_n is transitive
        tables = cb.generator_tables(n, 3)
        for size, count in enumerate(counts, 1):
            members = list(combinations(range(comb(n, 3)), size))
            assert len(orbit_sizes(members, subset_image, tables)) == count

    def test_markov_632_is_two_orbits(self):
        from incitoric import toric
        from incitoric.incidence import build_matrix

        markov = toric.minimal_markov(build_matrix(6, 3, 2)).elements
        vectors = [vector_image(b.vector, range(20)) for b in markov]
        sizes = orbit_sizes(vectors, vector_image, cb.generator_tables(6, 3))
        assert sizes == [15, 15]
        assert Counter(b.degree for b in markov) == {4: 15, 6: 15}


class TestDerangements:
    def test_n2(self):
        ds = list(cb.derangements(2))
        assert len(ds) == 1
        assert ds[0].images == (2, 1)
        assert ds[0].cycles == ((1, 2),)

    def test_counts_by_brute_force(self):
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
        counts = {n: sum(1 for _ in cb.derangements(n)) for n in range(2, 8)}
        for n in range(4, 8):
            assert counts[n] == (n - 1) * (counts[n - 1] + counts[n - 2])
        assert counts[4] == 9
        assert counts[6] == 265

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


def edge_counts(images):
    """The multiplicity of each colex pair among the edges {i, sigma(i)}."""
    n = len(images)
    counts = [0] * comb(n, 2)
    for i, w in enumerate(images, 1):
        counts[cb.colex_rank(sorted((i, w)))] += 1
    return counts


def derangements_within(n, edges):
    """Oracle for the pruned search: the permutations of [1..n], in
    lexicographic order, without a fixed point and with every edge count
    within ``edges``, where a negative multiplicity counts as zero."""
    return [
        p for p in permutations(range(1, n + 1))
        if all(p[i - 1] != i for i in range(1, n + 1))
        and all(c <= max(e, 0) for c, e in zip(edge_counts(p), edges))
    ]


class TestPrunedDerangements:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(-2, 2), min_size=comb(n, 2), max_size=comb(n, 2)))
    ))
    def test_agrees_with_filtered_permutations(self, case):
        n, edges = case
        assert [d.images for d in cb.derangements(n, edges)] == derangements_within(n, edges)

    def test_uniform_budgets(self):
        for n in range(2, 8):
            everything = list(cb.derangements(n))
            # no derangement uses an edge more than twice, and only a transposition twice
            assert list(cb.derangements(n, [2] * comb(n, 2))) == everything
            assert list(cb.derangements(n, [1] * comb(n, 2))) == [d for d in everything if d.s_count == 0]
            assert list(cb.derangements(n, [0] * comb(n, 2))) == []

    @pytest.mark.parametrize("size", [0, 5, 7])
    def test_wrong_ground_set_raises(self, size):
        with pytest.raises(DimensionMismatch):
            list(cb.derangements(4, [2] * size))


class TestDerivedCycleData:
    def test_against_sympy(self):
        # sympy, test-only: its permutations act on 0..n-1, and cyclic_form
        # lists each cycle from its smallest element, cycles by that element
        from sympy.combinatorics import Permutation

        for n in range(2, 8):
            for d in cb.derangements(n):
                p = Permutation([w - 1 for w in d.images])
                assert d.cycles == tuple(tuple(x + 1 for x in c) for c in p.cyclic_form)
                assert d.t_count == p.cycles
                assert d.s_count == p.cycle_structure.get(2, 0)
                assert d.sign == p.signature()
