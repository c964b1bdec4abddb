"""Null designs on k-subsets and pods.

A k-uniform null design of strength t is an integer weighting of the
k-subsets of [1..n] whose sums over all supersets of every t-subset
vanish.  Indexed by the colex order of the k-subsets, a design is an
integer kernel vector of the (n, k, t) incidence matrix, and that vector
is the only representation kept here.  Pods are the products of t+1
variable differences and k-t-1 extra variables; their expansions are the
minimal-support generators of that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, Iterator, Optional, Sequence

from . import exactmath
from .combinat import colex_rank, subsets_colex
from .config import DEFAULT_CONFIG, RunConfig
from .errors import BadParameters, BudgetExceeded, CertificateError
from .incidence import build_matrix


def sign_normalized(v: Sequence[int]) -> tuple:
    """Flip the global sign so the first nonzero entry is positive."""
    first = next((x for x in v if x), 0)
    return tuple(-x for x in v) if first < 0 else tuple(v)


def pods(n: int, k: int, t: int) -> Iterator[tuple]:
    """The pods of the (n, k, t) kernel, each expanded into its +-1 vector
    over the colex k-subsets, canonically enumerated.

    A pod is the product of t+1 variable differences and k-t-1 extra
    variables.  Index set in colex order, then the 2(t+1) paired indices,
    then the perfect matching; pairs are written (smaller, larger) and
    sorted, so each pod appears once, the first index of every pair
    carrying +.  Each vector has exactly 2^(t+1) nonzero entries.
    """
    if not (1 <= t < k):
        raise BadParameters("need 1 <= t < k")
    size = k + t + 1
    if size > n:
        return
    for index_set in subsets_colex(n, size):
        for paired in combinations(index_set, 2 * (t + 1)):
            singles = [x for x in index_set if x not in paired]
            for matching in _perfect_matchings(paired):
                vec = [0] * comb(n, k)
                for mask in range(1 << (t + 1)):
                    chosen = [pair[mask >> i & 1] for i, pair in enumerate(matching)]
                    vec[colex_rank(sorted(chosen + singles))] += -1 if mask.bit_count() % 2 else 1
                if sum(x != 0 for x in vec) != 2 << t:
                    raise CertificateError("pod expansion does not have 2^(t+1) distinct terms")
                yield tuple(vec)


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


def pods_span_kernel(n: int, k: int, t: int, vectors: Sequence[tuple]) -> bool:
    """Whether the pod expansions ``vectors`` span the integer kernel of
    the (n, k, t) incidence matrix.  Span inside kernel: the matrix
    annihilates every vector, which suffices as the kernel is saturated.
    Then the two lattices are equal exactly when their column HNF bases,
    which are unique, are."""
    a = build_matrix(n, k, t).matrix
    if any(any(a.mat_vec(v)) for v in vectors):
        return False
    span = exactmath.lattice_from_generators(a.cols, vectors)
    return span == exactmath.lattice_from_generators(a.cols, exactmath.kernel_basis(a))


@dataclass(frozen=True)
class SupportScan:
    min_positive_support: Optional[int]
    witness: Optional[tuple]  # sign-normalized kernel vector
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
    columns = list(zip(*a.entries))
    enumerated = 0
    for s in range(1, (1 << t) + 1):
        sums: Dict[tuple, tuple] = {}
        for cset in combinations(range(a.cols), s):
            enumerated += 1
            if enumerated > config.box_budget:
                raise BudgetExceeded(f"support scan budget exhausted: over box_budget "
                                     f"{config.box_budget} column subsets, at size {s}")
            key = tuple(map(sum, zip(*(columns[j] for j in cset))))
            if key in sums:
                vec = [0] * a.cols
                for j in cset:
                    vec[j] += 1
                for j in sums[key]:
                    vec[j] -= 1
                if any(a.mat_vec(vec)):
                    raise CertificateError("support-scan witness outside the kernel")
                witness = sign_normalized(vec)
                return SupportScan(sum(x > 0 for x in witness), witness, enumerated)
            sums[key] = cset
    return SupportScan(None, None, enumerated)
