"""Null designs, pods, support bounds."""

from math import comb

import pytest

from incitoric import designs
from incitoric.config import RunConfig
from incitoric.errors import BadParameters, BudgetExceeded, IndexOutOfRange
from incitoric.incidence import build_matrix


def octa_pod():
    return designs.Pod(((1, 2), (3, 4), (5, 6)), ())


class TestPodExpand:
    def test_octahedral_quartic_support(self):
        d = designs.pod_expand(octa_pod(), 6)
        assert len(d.values) == 8
        assert all(abs(v) == 1 for _, v in d.values)
        assert set(d.positive_support) == {
            (1, 3, 5),
            (2, 4, 5),
            (2, 3, 6),
            (1, 4, 6),
        }
        assert len(d.positive_support) == 4 == 2**2

    def test_degree_one_pod(self):
        d = designs.pod_expand(designs.Pod(((1, 2),), (3,)), 4)
        assert dict(d.values) == {(1, 3): 1, (2, 3): -1}

    def test_pair_swap_negates(self):
        d1 = designs.pod_expand(designs.Pod(((1, 2), (3, 4), (5, 6)), ()), 6)
        d2 = designs.pod_expand(designs.Pod(((2, 1), (3, 4), (5, 6)), ()), 6)
        assert d2.values == d1.negate().values

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            designs.pod_expand(octa_pod(), 5)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(BadParameters):
            designs.Pod(((1, 2), (2, 3)), ())


class TestIsNullDesign:
    def test_zero_design(self):
        zero = designs.NullDesign.from_dict(6, 3, {})
        for t in (1, 2):
            ok, witness = designs.is_null_design(zero, t)
            assert ok and witness is None

    def test_pod_balanced_at_its_strength(self):
        d = designs.pod_expand(octa_pod(), 6)
        ok, _ = designs.is_null_design(d, 2)
        assert ok
        ok1, _ = designs.is_null_design(d, 1)
        assert ok1

    def test_pod_fails_higher_strength(self):
        d = designs.pod_expand(octa_pod(), 6)
        # k = 3 forbids t = 3; check strength semantics on the direct sums
        with pytest.raises(BadParameters):
            designs.is_null_design(d, 3)
        # the corresponding t = 3 sum over a contained triple is nonzero
        assert d.value((1, 3, 5)) != 0

    def test_first_violation_reported(self):
        skew = designs.NullDesign.from_dict(6, 3, {(1, 3, 5): 1})
        ok, witness = designs.is_null_design(skew, 2)
        assert not ok
        assert witness == (1, 3)  # colex-first pair inside the support


class TestKernelIso:
    def test_round_trip_zero(self):
        zero = designs.NullDesign.from_dict(6, 3, {})
        v = designs.design_kernel_iso(zero)
        assert v == (0,) * comb(6, 3)
        assert designs.vector_to_design(v, 6, 3).values == ()

    def test_quartic_in_kernel(self):
        inc = build_matrix(6, 3, 2)
        d = designs.pod_expand(octa_pod(), 6)
        v = designs.design_kernel_iso(d)
        assert not any(inc.matrix.mat_vec(v))
        assert designs.vector_to_design(v, 6, 3).values == d.values

    def test_design_iff_kernel(self):
        inc = build_matrix(6, 3, 2)
        good = designs.pod_expand(octa_pod(), 6)
        assert not any(inc.matrix.mat_vec(designs.design_kernel_iso(good)))
        bad = designs.NullDesign.from_dict(6, 3, {(1, 2, 3): 1})
        assert any(inc.matrix.mat_vec(designs.design_kernel_iso(bad)))
        ok, _ = designs.is_null_design(bad, 2)
        assert not ok


class TestPodSpan:
    def test_counts(self):
        assert len(list(designs.pods(6, 3, 2))) == 15
        assert len(list(designs.pods(7, 3, 2))) == 105
        assert len(list(designs.pods(4, 2, 1))) == 3

    def test_span_equals_kernel_samples(self):
        for (n, k, t) in ((4, 2, 1), (5, 2, 1), (5, 3, 1), (6, 3, 2), (7, 3, 2)):
            assert designs.pods_span_kernel(n, k, t)

    def test_632_rank_five(self):
        lattice = designs.pod_lattice(6, 3, 2)
        assert lattice.rank == 5


class TestSupportScan:
    def test_632_minimum_four_with_pod_witness(self):
        scan = designs.min_support_scan(6, 3, 2)
        assert scan.min_positive_support == 4
        pods_norm = {
            designs.pod_expand(p, 6).sign_normalized().values
            for p in designs.pods(6, 3, 2)
        }
        assert scan.witness.sign_normalized().values in pods_norm

    def test_trivial_kernel_is_empty(self):
        scan = designs.min_support_scan(5, 3, 2)
        assert scan.min_positive_support is None
        assert scan.witness is None

    def test_732_minimum_four(self):
        scan = designs.min_support_scan(7, 3, 2)
        assert scan.min_positive_support == 4

    def test_budget(self):
        tiny = RunConfig(box_budget=10)
        with pytest.raises(BudgetExceeded):
            designs.min_support_scan(7, 3, 2, config=tiny)
