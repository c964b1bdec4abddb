"""Null designs as kernel vectors, pods, support bounds."""

from math import comb

import pytest

from incitoric import designs, exactmath
from incitoric.combinat import subsets_colex
from incitoric.config import RunConfig
from incitoric.errors import BadParameters, BudgetExceeded
from incitoric.incidence import build_matrix


def is_null_design(vec, n, k, t):
    """Oracle: the strength-t balance condition on every t-subset, read
    off the colex k-subsets the vector is indexed by rather than the
    incidence matrix.

    Returns (True, None) or (False, the first violated t-subset in colex
    order).
    """
    if t >= k:
        raise BadParameters("strength t must be smaller than k")
    if len(vec) != comb(n, k):
        raise BadParameters("one entry per k-subset required")
    weights = list(zip(subsets_colex(n, k), vec))
    for x in subsets_colex(n, t):
        total = sum(v for s, v in weights if set(x) <= set(s))
        if total != 0:
            return False, x
    return True, None


def vector(n, k, values):
    """The vector over the colex k-subsets with the given subset values."""
    return tuple(values.get(s, 0) for s in subsets_colex(n, k))


def nonzero(vec, n, k):
    """The nonzero entries of a vector, keyed by their k-subsets."""
    return {s: v for s, v in zip(subsets_colex(n, k), vec) if v}


def octa_pod():
    """The expansion of (x1 - x2)(x3 - x4)(x5 - x6), the first pod of (6, 3, 2)."""
    return next(designs.pods(6, 3, 2))


def pod_vectors(n, k, t):
    return list(designs.pods(n, k, t))


class TestPodExpand:
    def test_octahedral_quartic_support(self):
        d = nonzero(octa_pod(), 6, 3)
        assert len(d) == 8
        assert all(abs(v) == 1 for v in d.values())
        positive = {s for s, v in d.items() if v > 0}
        assert positive == {
            (1, 3, 5),
            (2, 4, 5),
            (2, 3, 6),
            (1, 4, 6),
        }
        assert len(positive) == 4 == 2**2


class TestIsNullDesign:
    def test_zero_design(self):
        zero = vector(6, 3, {})
        for t in (1, 2):
            ok, witness = is_null_design(zero, 6, 3, t)
            assert ok and witness is None

    def test_pod_balanced_at_its_strength(self):
        d = octa_pod()
        ok, _ = is_null_design(d, 6, 3, 2)
        assert ok
        ok1, _ = is_null_design(d, 6, 3, 1)
        assert ok1

    def test_pod_fails_higher_strength(self):
        d = octa_pod()
        # k = 3 forbids t = 3; check strength semantics on the direct sums
        with pytest.raises(BadParameters):
            is_null_design(d, 6, 3, 3)
        # the corresponding t = 3 sum over a contained triple is nonzero
        assert nonzero(d, 6, 3)[(1, 3, 5)] != 0

    def test_first_violation_reported(self):
        skew = vector(6, 3, {(1, 3, 5): 1})
        ok, witness = is_null_design(skew, 6, 3, 2)
        assert not ok
        assert witness == (1, 3)  # colex-first pair inside the support


class TestKernelIso:
    def test_round_trip_zero(self):
        zero = vector(6, 3, {})
        assert zero == (0,) * comb(6, 3)
        assert nonzero(zero, 6, 3) == {}
        assert not any(build_matrix(6, 3, 2).matrix.mat_vec(zero))

    def test_quartic_in_kernel(self):
        inc = build_matrix(6, 3, 2)
        v = octa_pod()
        assert not any(inc.matrix.mat_vec(v))
        assert vector(6, 3, nonzero(v, 6, 3)) == v

    def test_design_iff_kernel(self):
        inc = build_matrix(6, 3, 2)
        good = octa_pod()
        assert not any(inc.matrix.mat_vec(good))
        assert is_null_design(good, 6, 3, 2)[0]
        bad = vector(6, 3, {(1, 2, 3): 1})
        assert any(inc.matrix.mat_vec(bad))
        ok, _ = is_null_design(bad, 6, 3, 2)
        assert not ok


class TestPodSpan:
    def test_counts(self):
        assert len(list(designs.pods(6, 3, 2))) == 15
        assert len(list(designs.pods(7, 3, 2))) == 105
        assert len(list(designs.pods(4, 2, 1))) == 3

    def test_span_equals_kernel_samples(self):
        for (n, k, t) in ((4, 2, 1), (5, 2, 1), (5, 3, 1), (6, 3, 2), (7, 3, 2)):
            assert designs.pods_span_kernel(n, k, t, pod_vectors(n, k, t))

    def test_632_rank_five(self):
        lattice = exactmath.lattice_from_generators(20, pod_vectors(6, 3, 2))
        assert len(lattice) == 5

    def test_vector_outside_kernel_refuted(self):
        off = vector(6, 3, {(1, 2, 3): 1})
        assert not designs.pods_span_kernel(6, 3, 2, pod_vectors(6, 3, 2) + [off])

    def test_proper_sublattice_refuted(self):
        doubled = [tuple(2 * x for x in v) for v in pod_vectors(6, 3, 2)]
        assert not designs.pods_span_kernel(6, 3, 2, doubled)


class TestSupportScan:
    def test_sign_normalized(self):
        assert designs.sign_normalized((0, -1, 2)) == (0, 1, -2)
        assert designs.sign_normalized((0, 1, -2)) == (0, 1, -2)
        assert designs.sign_normalized([0, 0]) == (0, 0)

    def test_632_minimum_four_with_pod_witness(self):
        scan = designs.min_support_scan(6, 3, 2)
        assert scan.min_positive_support == 4
        assert scan.witness == designs.sign_normalized(scan.witness)
        pods_norm = {designs.sign_normalized(p) for p in designs.pods(6, 3, 2)}
        assert scan.witness in pods_norm

    def test_trivial_kernel_is_empty(self):
        scan = designs.min_support_scan(5, 3, 2)
        assert scan.min_positive_support is None
        assert scan.witness is None

    def test_732_minimum_four(self):
        scan = designs.min_support_scan(7, 3, 2)
        assert scan.min_positive_support == 4
        assert is_null_design(scan.witness, 7, 3, 2)[0]

    def test_budget(self):
        tiny = RunConfig(box_budget=10)
        with pytest.raises(BudgetExceeded):
            designs.min_support_scan(7, 3, 2, config=tiny)
