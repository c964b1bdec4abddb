"""Subset-incidence matrices and their rank laws.

The matrix for parameters (n, k, t) has one row per t-subset and one
column per k-subset of [1..n], both in colex order, with a 1 exactly when
the row subset is contained in the column subset.  Its columns span the
cone whose toric ideal the rest of the package studies.  Its rank over Q
and its HNF basis come from the one column echelon of ``exactmath``; the
basis's index decides the rank mod every prime that does not divide it,
and only the primes that do take an elimination mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import exactmath
from .combinat import subsets_colex
from .errors import BadParameters, CertificateError
from .exactmath import IntMatrix


@dataclass(frozen=True)
class IncidenceMatrix:
    n: int
    k: int
    t: int
    matrix: IntMatrix
    row_labels: tuple  # t-subsets, colex order
    col_labels: tuple  # k-subsets, colex order


def build_matrix(n: int, k: int, t: int) -> IncidenceMatrix:
    """Containment matrix of t-subsets inside k-subsets of [1..n]."""
    if not (1 <= t < k <= n):
        raise BadParameters(f"need 1 <= t < k <= n, got (n,k,t)=({n},{k},{t})")
    row_labels = tuple(subsets_colex(n, t))
    col_labels = tuple(subsets_colex(n, k))
    col_sets = [frozenset(c) for c in col_labels]
    rows = []
    for r in row_labels:
        rset = frozenset(r)
        rows.append(tuple(1 if rset <= cs else 0 for cs in col_sets))
    m = IntMatrix(len(row_labels), len(col_labels), tuple(rows))
    return IncidenceMatrix(n, k, t, m, row_labels, col_labels)


# slotted: a report holds one per (triple, prime), 504 of them for n <= 8
@dataclass(frozen=True, slots=True)
class PrimeRank:
    p: int
    matrix_rank: int
    map_full: bool
    predicted_full: bool
    ok: bool


@dataclass(frozen=True)
class RankLawEntry:
    n: int
    k: int
    t: int
    rank_q: int
    expected: int
    rank_law_ok: bool
    mod_p: tuple  # one PrimeRank per prime


@dataclass(frozen=True)
class RankLawReport:
    entries: tuple
    all_ok: bool
    primes: tuple


def full_rank_prime_threshold(n: int, k: int, t: int) -> int:
    """Primes above this threshold keep the multiplication map full rank."""
    return min(k, n - t)


# the primes each rank law is checked over
RANK_LAW_PRIMES = (2, 3, 5, 7, 11, 13)


def check_rank_laws(n_max: int = 8) -> RankLawReport:
    """Verify the rank laws for all 1 <= t < k <= n <= n_max.

    Over Q the matrix rank must equal min(C(n,t), C(n,k)).  Over a prime
    field the object governed by the law is the multiplication map
    x -> x * (x_1+...+x_n)^(k-t) on the squarefree quotient, whose matrix
    is (k-t)! times the incidence matrix; it has full rank iff
    p > min(k, n-t).  For p <= k-t the factorial kills the map even when
    the bare 0/1 matrix keeps full rank mod p (e.g. (n,k,t)=(4,3,1),
    p=2), so both ranks are reported.

    The rank mod p is read off the HNF basis of the column lattice where
    it can be.  That basis is the matrix times a unimodular transform, and
    its pivot minor is triangular with the pivots on the diagonal, so the
    rank mod p equals the rank over Q whenever p does not divide the
    basis's index, the product of its pivots.  Only the other primes
    take an elimination mod p.
    """
    if n_max < 2:
        raise BadParameters(f"n_max must be at least 2, the least n with a triple, not {n_max}")
    entries = []
    ok_all = True
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            for t in range(1, k):
                inc = build_matrix(n, k, t)
                full = min(comb(n, t), comb(n, k))
                rq = exactmath.rank_q(inc.matrix)
                law_q = rq == full
                basis = exactmath.lattice_from_generators(inc.matrix.rows, zip(*inc.matrix.entries))
                rows, index = exactmath.staircase(basis)
                if len(rows) != rq:
                    raise CertificateError(
                        f"the column lattice of ({n},{k},{t}) has {len(rows)} pivots, not the rank {rq}"
                    )
                per_p = []
                for p in RANK_LAW_PRIMES:
                    rp = rq if index % p else exactmath.rank_mod_p(inc.matrix, p)
                    factorial_vanishes = p <= k - t
                    map_full = (not factorial_vanishes) and rp == full
                    predicted = p > full_rank_prime_threshold(n, k, t)
                    ok = map_full == predicted
                    per_p.append(PrimeRank(p, rp, map_full, predicted, ok))
                    ok_all = ok_all and ok
                ok_all = ok_all and law_q
                entries.append(
                    RankLawEntry(n, k, t, rq, full, law_q, tuple(per_p))
                )
    return RankLawReport(tuple(entries), ok_all, RANK_LAW_PRIMES)
