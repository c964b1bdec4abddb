"""Null designs on k-subsets, pods, and the kernel isomorphism.

A k-uniform null design of strength t is an integer weighting of the
k-subsets of [1..n] whose sums over all supersets of every t-subset
vanish; under the colex coordinate order these are exactly the integer
kernel vectors of the (n, k, t) incidence matrix.  Pods are the products
of t+1 variable differences and k-t-1 extra variables; their expansions
are the minimal-support generators of that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, Iterator, Optional, Sequence

from . import exactmath
from .combinat import colex_rank, subset_label, subsets_colex
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BadParameters,
    BudgetExceeded,
    CertificateError,
    DimensionMismatch,
    IndexOutOfRange,
)
from .incidence import build_matrix


@dataclass(frozen=True)
class NullDesign:
    """Sparse integer map on k-subsets of [1..n]; zero values are absent."""

    n: int
    k: int
    values: tuple  # sorted ((subset tuple, value), ...) in colex order

    def __post_init__(self):
        for subset, value in self.values:
            if len(subset) != self.k or not all(1 <= x <= self.n for x in subset):
                raise BadParameters(f"bad subset {subset} for (n,k)=({self.n},{self.k})")
            if value == 0:
                raise BadParameters("zero value stored in a sparse design")

    @classmethod
    def from_dict(cls, n: int, k: int, data: Dict[tuple, int]) -> "NullDesign":
        items = tuple(
            sorted(
                ((tuple(sorted(s)), v) for s, v in data.items() if v != 0),
                key=lambda kv: colex_rank(kv[0]),
            )
        )
        return cls(n, k, items)

    @property
    def positive_support(self) -> tuple:
        return tuple(s for s, v in self.values if v > 0)

    def negate(self) -> "NullDesign":
        return NullDesign(self.n, self.k, tuple((s, -v) for s, v in self.values))

    def sign_normalized(self) -> "NullDesign":
        """Flip the global sign so the colex-first nonzero value is positive."""
        if self.values and self.values[0][1] < 0:
            return self.negate()
        return self

    def to_json_dict(self) -> dict:
        return {subset_label(s, self.n): v for s, v in self.values}


@dataclass(frozen=True)
class Pod:
    """t+1 difference pairs and k-t-1 extra singleton indices, all distinct."""

    diff_pairs: tuple
    singletons: tuple

    def __post_init__(self):
        flat = [x for p in self.diff_pairs for x in p] + list(self.singletons)
        if len(set(flat)) != len(flat):
            raise BadParameters("pod indices must be distinct")
        if not self.diff_pairs:
            raise BadParameters("a pod needs at least one difference pair")

    @property
    def k(self) -> int:
        return len(self.diff_pairs) + len(self.singletons)

    @property
    def indices(self) -> tuple:
        return tuple(x for p in self.diff_pairs for x in p) + self.singletons


def pod_expand(pod: Pod, n: int) -> NullDesign:
    """Expand the pod product into a +-1 design on k-subsets.

    The result has exactly 2^(t+1) nonzero values and positive support of
    size 2^t (before any sign normalization the first entry of each pair
    carries +).
    """
    if any(x < 1 or x > n for x in pod.indices):
        raise IndexOutOfRange("pod index outside [1..n]")
    k = pod.k
    terms: Dict[tuple, int] = {}
    npairs = len(pod.diff_pairs)
    for mask in range(1 << npairs):
        chosen = []
        sign = 1
        for idx, (a, b) in enumerate(pod.diff_pairs):
            if mask & (1 << idx):
                chosen.append(b)
                sign = -sign
            else:
                chosen.append(a)
        subset = tuple(sorted(chosen + list(pod.singletons)))
        terms[subset] = terms.get(subset, 0) + sign
    design = NullDesign.from_dict(n, k, terms)
    if len(design.values) != 1 << npairs:
        raise CertificateError("pod expansion does not have 2^(t+1) distinct terms")
    return design


def pods(n: int, k: int, t: int) -> Iterator[Pod]:
    """All pods for the (n, k, t) kernel, canonically enumerated.

    Index set in colex order, then the 2(t+1) paired indices, then the
    perfect matching; pairs are written (smaller, larger) and sorted, so
    each pod appears once with a deterministic sign.
    """
    if not (1 <= t < k):
        raise BadParameters("need 1 <= t < k")
    size = k + t + 1
    if size > n:
        return
    for index_set in subsets_colex(n, size):
        for paired in combinations(index_set, 2 * (t + 1)):
            singles = tuple(x for x in index_set if x not in paired)
            for matching in _perfect_matchings(paired):
                yield Pod(matching, singles)


def _perfect_matchings(items: Sequence[int]) -> Iterator[tuple]:
    items = tuple(items)
    if not items:
        yield ()
        return
    first = items[0]
    for j in range(1, len(items)):
        rest = items[1:j] + items[j + 1 :]
        for sub in _perfect_matchings(rest):
            yield ((first, items[j]),) + sub


def design_kernel_iso(d: NullDesign) -> tuple:
    """Design -> integer vector over k-subsets in colex order."""
    vec = [0] * comb(d.n, d.k)
    for s, v in d.values:
        vec[colex_rank(s)] = v
    return tuple(vec)


def vector_to_design(v: Sequence[int], n: int, k: int) -> NullDesign:
    if len(v) != comb(n, k):
        raise DimensionMismatch("vector length is not C(n, k)")
    data = {}
    for subset, value in zip(subsets_colex(n, k), v):
        if value:
            data[subset] = int(value)
    return NullDesign.from_dict(n, k, data)


def pod_lattice(n: int, k: int, t: int) -> exactmath.LatticeBasis:
    """HNF basis of the Z-span of all pod vectors."""
    vecs = [design_kernel_iso(pod_expand(p, n)) for p in pods(n, k, t)]
    return exactmath.lattice_from_generators(comb(n, k), vecs)


def pods_span_kernel(n: int, k: int, t: int) -> bool:
    """Mutual HNF inclusion of the pod span and the incidence kernel."""
    inc = build_matrix(n, k, t)
    kernel = exactmath.kernel_basis(inc.matrix)
    span = pod_lattice(n, k, t)
    return exactmath.lattices_equal(kernel, span)


@dataclass(frozen=True)
class SupportScan:
    min_positive_support: Optional[int]
    witness: Optional[NullDesign]
    subsets_enumerated: int


def min_support_scan(
    n: int, k: int, t: int, config: RunConfig = DEFAULT_CONFIG
) -> SupportScan:
    """Minimum positive-support size over nonzero {-1,0,1} kernel vectors
    with positive support at most 2^t.

    A +-1 kernel vector with |supp+| = s is exactly a pair of distinct
    s-subsets of columns with equal column sums, so the scan hashes
    column-subset sums per size and reports the first collision.
    """
    a = build_matrix(n, k, t).matrix
    enumerated = 0
    for s in range(1, (1 << t) + 1):
        sums: Dict[tuple, tuple] = {}
        for cset in combinations(range(a.cols), s):
            enumerated += 1
            if enumerated > config.box_budget:
                raise BudgetExceeded("support scan budget exhausted")
            total = [0] * a.rows
            for j in cset:
                for i, x in enumerate(a.column(j)):
                    total[i] += x
            key = tuple(total)
            if key in sums:
                vec = [0] * a.cols
                for j in cset:
                    vec[j] += 1
                for j in sums[key]:
                    vec[j] -= 1
                if any(a.mat_vec(vec)):
                    raise CertificateError("support-scan witness outside the kernel")
                witness = vector_to_design(vec, n, k).sign_normalized()
                return SupportScan(len(witness.positive_support), witness, enumerated)
            sums[key] = cset
    return SupportScan(None, None, enumerated)
