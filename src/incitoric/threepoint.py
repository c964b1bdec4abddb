"""Derangement and coset calculus for simplified three-point functions.

The free abelian group on the edge variables of the complete graph is
written additively: an element is a plain tuple of integer exponents over
the colex-ordered 2-subsets, built by ``edge_vector`` from signed edges
and triangles.  The triangle subgroup L is generated by the vectors
e_ij + e_jk + e_ik, which are exactly the columns of the (n, 3, 2)
incidence matrix.  Coset membership is decided for every n by reducing
the vector down the certified HNF staircase of that matrix, through
``exactmath.HnfSolver.contains``.  A derangement maps to the sum of the
edges {m, sigma(m)}; the Leibniz expansion of the determinant of the
hollow symmetric matrix of edge variables runs over exactly these
monomials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from . import exactmath, toric
from .combinat import Derangement, derangements, pair_rank
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BadParameters,
    BudgetExceeded,
    CertificateError,
    PreconditionFailed,
)
from .incidence import IncidenceMatrix, build_matrix


def edge_vector(n: int, terms: Iterable[tuple]) -> tuple:
    """Exponent vector over the 2-subsets of [1..n], colex order, of a
    signed sum of edges and triangles.

    Each term is ``(coeff, vertices)``: two vertices add ``coeff`` to their
    edge, three add ``coeff`` to each edge of their triangle.
    """
    exps = [0] * comb(n, 2)
    for c, vertices in terms:
        s = sorted(vertices)
        if len(s) == 2 and 1 <= s[0] < s[1] <= n:
            exps[pair_rank(s[0], s[1])] += c
        elif len(s) == 3 and 1 <= s[0] < s[1] < s[2] <= n:
            a, b, d = s
            exps[pair_rank(a, b)] += c
            exps[pair_rank(a, d)] += c
            exps[pair_rank(b, d)] += c
        else:
            raise BadParameters(f"bad edge or triangle {tuple(vertices)} over [1..{n}]")
    return tuple(exps)


def phi(d: Derangement) -> tuple:
    """Product of the edges {m, sigma(m)}, written additively; degree n."""
    v = edge_vector(d.n, ((1, (i, w)) for i, w in enumerate(d.images, 1)))
    if sum(v) != d.n:
        raise CertificateError(f"derangement image has degree {sum(v)}, not {d.n}")
    return v


def _derangements_within_cap(n: int, config: RunConfig) -> None:
    if n > config.derangement_max_n:
        raise BudgetExceeded(f"derangement enumeration capped at n = {config.derangement_max_n}")


def fiber(v: tuple, n: int, config: RunConfig = DEFAULT_CONFIG) -> List[Derangement]:
    """All derangements with edge image v, lexicographic in the image tuple.

    ``derangements`` prunes its search by the edge multiplicities of v,
    and checks n and the ground set of v.  The pruned search is complete,
    since the edges of every prefix of a derangement in the fiber lie
    within v, and each leaf is re-checked against phi.
    """
    _derangements_within_cap(n, config)
    return [d for d in derangements(n, v) if phi(d) == v]


def fiber_size_formula(d: Derangement) -> int:
    return 1 << (d.t_count - d.s_count)


def transposition_relations_check(n: int) -> bool:
    """Both exchange identities as exact edge-vector equalities, for every
    ordered choice of five distinct indices: each identity, written as
    left side minus right side, must have the zero edge vector."""
    if n < 5:
        raise BadParameters("need n >= 5 for five distinct indices")
    for (k, i, j, s, t) in permutations(range(1, n + 1), 5):
        # p_ki p_js = p_kj p_is c_kit c_jst / (c_kjt c_ist)
        first = ((1, (k, i)), (1, (j, s)), (-1, (k, j)), (-1, (i, s)),
                 (-1, (k, i, t)), (-1, (j, s, t)), (1, (k, j, t)), (1, (i, s, t)))
        # p_ij^2 = p_ks^2 c_ijk c_ijs / (c_iks c_jks)
        second = ((2, (i, j)), (-2, (k, s)),
                  (-1, (i, j, k)), (-1, (i, j, s)), (1, (i, k, s)), (1, (j, k, s)))
        if any(edge_vector(n, first)) or any(edge_vector(n, second)):
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over edge / triangle monomials: {exponent tuple: coefficient},
# no zero coefficients


def _nonzero(poly: Dict[tuple, int]) -> Dict[tuple, int]:
    return {k: v for k, v in poly.items() if v}


def _shifted(poly: Dict[tuple, int], exps: Sequence[int]) -> Dict[tuple, int]:
    """The polynomial times the monomial with exponents ``exps``."""
    return {tuple(a + b for a, b in zip(k, exps)): v for k, v in poly.items()}


def det_leibniz(n: int, config: RunConfig = DEFAULT_CONFIG) -> Dict[tuple, int]:
    """Determinant of the hollow symmetric edge matrix, summed over
    derangements with their signs."""
    _derangements_within_cap(n, config)
    data: Dict[tuple, int] = {}
    for d in derangements(n):
        key = phi(d)
        data[key] = data.get(key, 0) + d.sign
    return _nonzero(data)


# ---------------------------------------------------------------------------
# section-5 claim verification


@dataclass(frozen=True)
class ClaimResult:
    name: str
    applicable: bool
    passed: Optional[bool]
    detail: str


@dataclass(frozen=True)
class Section5Report:
    n: int
    claims: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims if c.applicable)


def check_section5(n: int, config: RunConfig = DEFAULT_CONFIG) -> Section5Report:
    """Evaluate every coset-membership claim that applies to this n.

    Memberships quantified over all derangements are checked exhaustively;
    triple products use the single-coset reduction (exhaustive pairwise
    transitivity plus one canonical triple), which the transitivity claim
    itself justifies.  Claims that state the same membership share one
    check, and each check runs at most once, when a claim that applies
    needs it.  Each vector is decided down the HNF staircase of the
    (n, 3, 2) matrix.
    """
    if n < 2:
        raise BadParameters("need n >= 2")
    _derangements_within_cap(n, config)
    # the triangle group is the column lattice of (n, 3, 2); no claim applies at n = 2
    member = exactmath.HnfSolver(build_matrix(n, 3, 2).matrix).contains if n >= 3 else None
    images = [phi(d) for d in derangements(n)]
    first, count = images[0], len(images)

    def members(vectors) -> bool:
        return all(member(v) for v in vectors)

    checks: Dict[str, Callable[[], bool]] = {
        "transitive": lambda: members(tuple(a - b for a, b in zip(img, first)) for img in images[1:]),
        "images": lambda: members(images),
        "images_full": lambda: members(tuple(a + 1 for a in img) for img in images),
        "first_cubed": lambda: passed("transitive") and members([tuple(3 * a for a in first)]),
        "cubes": lambda: members(tuple(3 * a for a in img) for img in images),
        "four_cycle": lambda: members([tuple(1 + a for a in edge_vector(
            n, ((-1, (1, 3)), (-1, (2, 3)), (-1, (2, 4)), (-1, (1, 4)))))]),
        "exchange": lambda: transposition_relations_check(n),
    }

    @functools.cache
    def passed(key: str) -> bool:
        return checks[key]()

    divisible = n % 3 == 0
    odd_two = n % 6 == 5  # odd and n = 2 mod 3
    table = (
        # (name, applies, check, detail, reason when it does not apply)
        ("single_coset_transitivity", n >= 5, "transitive",
         f"{count} derangements against the lexicographic first", "needs n >= 5"),
        ("images_in_triangle_group", divisible, "images",
         f"all {count} derangement images", "needs 3 | n"),
        ("image_times_all_edges", odd_two, "images_full",
         f"all {count} products with the full edge monomial", "needs odd n = 2 mod 3"),
        ("all_edges_vs_four_cycle", odd_two, "four_cycle",
         "full edge monomial against p13 p23 p24 p14", "needs odd n = 2 mod 3"),
        ("triple_products", divisible or n >= 5, "images" if divisible else "first_cubed",
         "implied by single images" if divisible
         else "canonical triple plus single-coset reduction", "needs n >= 5"),
        ("det_in_triangle_monomials", divisible, "images",
         "every Leibniz monomial lies in the triangle group", "needs 3 | n"),
        ("det_cube_in_triangle_monomials", n >= 5, "cubes" if divisible else "first_cubed",
         "monomials of the cubed determinant", "stated for n >= 5"),
        ("det_times_all_edges", odd_two, "images_full",
         "every Leibniz monomial shifted by the full edge monomial", "needs n = 5 mod 6"),
        ("transposition_relations", n >= 5, "exchange",
         "both exchange identities over all ordered 5-tuples", "needs n >= 5"),
    )
    return Section5Report(n, tuple(
        ClaimResult(name, True, passed(key), detail) if applies
        else ClaimResult(name, False, None, reason)
        for name, applies, key, detail, reason in table
    ))


# ---------------------------------------------------------------------------
# determinant as a rational expression in triangle monomials


@dataclass(frozen=True)
class DetExpression:
    n: int
    f: Dict[tuple, int]  # polynomial in the C(n,3) triangle variables
    g_exps: tuple  # denominator monomial exponents over triangle variables
    det: Dict[tuple, int]  # the Leibniz expansion the identity was verified against
    inc: IncidenceMatrix  # the (n, 3, 2) incidence matrix it was solved against


def det_as_c_expression(n: int, config: RunConfig = DEFAULT_CONFIG) -> DetExpression:
    """Express the determinant as f / g with f polynomial in triangle
    variables and g a triangle monomial, then verify the identity
    symbolically against the Leibniz expansion."""
    if n % 3 != 0:
        raise PreconditionFailed("determinant lies in the triangle group only for 3 | n")
    inc = build_matrix(n, 3, 2)
    solver = exactmath.HnfSolver(inc.matrix)
    det = det_leibniz(n, config)
    gammas = []
    for exps in det:
        gamma = solver.solve(exps)
        if gamma is None:
            raise PreconditionFailed(f"Leibniz monomial {exps} outside the triangle group")
        gammas.append(gamma)
    g_exps = tuple(max(0, max(-g[i] for g in gammas)) for i in range(comb(n, 3)))
    f_terms: Dict[tuple, int] = {}
    for coeff, gamma in zip(det.values(), gammas):
        key = tuple(a + b for a, b in zip(gamma, g_exps))
        if any(x < 0 for x in key):
            raise CertificateError("numerator term with a negative triangle exponent")
        f_terms[key] = f_terms.get(key, 0) + coeff
    f = _nonzero(f_terms)
    # f and g must be coprime: each denominator variable hits exponent 0
    for i, e in enumerate(g_exps):
        if e > 0 and all(k[i] for k in f):
            raise CertificateError(f"numerator and denominator share triangle variable {i}")
    # full symbolic verification: expanding f through the triangle map
    # equals det times the expansion of g
    if expand_triangle_poly(solver.m, f) != _shifted(det, solver.m.mat_vec(g_exps)):
        raise CertificateError("determinant identity failed")
    return DetExpression(n, f, g_exps, det, inc)


def expand_triangle_poly(a: exactmath.IntMatrix, f: Dict[tuple, int]) -> Dict[tuple, int]:
    """Substitute each triangle variable by its edge monomial, read off the
    (n, 3, 2) incidence matrix ``a``."""
    data: Dict[tuple, int] = {}
    for c_exps, coeff in f.items():
        key = a.mat_vec(c_exps)
        data[key] = data.get(key, 0) + coeff
    return _nonzero(data)


@dataclass(frozen=True)
class TildeIdealResult:
    n: int
    markov_count: int
    extra_generator: Dict[tuple, int]  # saturated principal generator in triangle vars
    containment_verified: bool
    quotient_monomial: Optional[tuple]  # edge exponents q with phi(extra) = scalar * det * p^q
    scalar: Optional[Fraction]


def tilde_ideal_generators(n: int, config: RunConfig = DEFAULT_CONFIG) -> TildeIdealResult:
    """Generators for the first non-toric relation ideal, forward direction.

    Emits the toric generators (which map to zero) together with the
    saturation h of the principal determinant numerator f: the monomial
    content of f is divided out as long as the quotient stays a genuine
    polynomial, and so is the gcd of its coefficients.  The identity
    ``det_as_c_expression`` verified says that f expands to det times the
    edge monomial A g, so h expands to det p^q / gcd with q = A (g -
    content).  ``containment_verified`` reports whether q >= 0 and gcd
    times the expansion of h is det shifted by q, one exact equality;
    when it fails, the quotient monomial and the scalar are None.
    """
    if n % 3 != 0:
        raise PreconditionFailed("implemented for 3 | n")
    expr = det_as_c_expression(n, config)
    a = expr.inc.matrix
    markov = toric.minimal_markov(expr.inc, config)

    f = expr.f
    # a monomial saturates to a unit; keep the primitive monomial itself,
    # which is the honest generator of the relation ideal here, so its
    # content stays
    content = [min(k[i] for k in f) for i in range(comb(n, 3))] if len(f) > 1 else [0] * comb(n, 3)
    coeff_gcd = gcd(*f.values())
    h = {k: v // coeff_gcd for k, v in _shifted(f, [-c for c in content]).items()}
    q = a.mat_vec([g - c for g, c in zip(expr.g_exps, content)])
    image = {k: coeff_gcd * v for k, v in expand_triangle_poly(a, h).items()}
    verified = min(q) >= 0 and image == _shifted(expr.det, q)
    q, scalar = (q, Fraction(1, coeff_gcd)) if verified else (None, None)
    return TildeIdealResult(n, len(markov.elements), h, verified, q, scalar)
