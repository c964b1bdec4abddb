"""Derangement and coset calculus for simplified three-point functions.

The free abelian group on the edge variables of the complete graph is
written additively as integer vectors over colex-ordered 2-subsets.  The
triangle subgroup is generated by the vectors e_ij + e_jk + e_ik, which
are exactly the columns of the (n, 3, 2) incidence matrix, so coset
membership is lattice membership with certificates in terms of triangle
generators.  A derangement maps to the sum of the edges {m, sigma(m)};
the Leibniz expansion of the determinant of the hollow symmetric matrix
of edge variables runs over exactly these monomials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, gcd
from typing import Callable, Dict, List, Optional, Sequence

from . import exactmath
from .combinat import Derangement, colex_rank, derangement_from_images, derangements
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BadParameters,
    BudgetExceeded,
    CertificateError,
    DimensionMismatch,
    PreconditionFailed,
)
from .incidence import build_matrix


@dataclass(frozen=True)
class EdgeVector:
    """Integer exponent vector over the 2-subsets of [1..n], colex order."""

    n: int
    exps: tuple

    def __post_init__(self):
        if len(self.exps) != comb(self.n, 2):
            raise DimensionMismatch("edge vector has wrong length")

    @classmethod
    def from_pairs(cls, n: int, pairs: Dict[tuple, int]) -> "EdgeVector":
        exps = [0] * comb(n, 2)
        for (a, b), e in pairs.items():
            if a == b or not (1 <= a <= n and 1 <= b <= n):
                raise BadParameters(f"bad edge ({a},{b})")
            exps[colex_rank(tuple(sorted((a, b))))] += e
        return cls(n, tuple(exps))

    def __add__(self, other: "EdgeVector") -> "EdgeVector":
        if self.n != other.n:
            raise DimensionMismatch("edge vectors over different ground sets")
        return EdgeVector(self.n, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __sub__(self, other: "EdgeVector") -> "EdgeVector":
        return self + (-other)

    def __neg__(self) -> "EdgeVector":
        return EdgeVector(self.n, tuple(-a for a in self.exps))

    def scale(self, c: int) -> "EdgeVector":
        return EdgeVector(self.n, tuple(c * a for a in self.exps))

    @property
    def degree(self) -> int:
        return sum(self.exps)


def edge(n: int, a: int, b: int) -> EdgeVector:
    return EdgeVector.from_pairs(n, {(a, b): 1})


def triangle(n: int, i: int, j: int, k: int) -> EdgeVector:
    if len({i, j, k}) != 3:
        raise BadParameters("triangle needs three distinct indices")
    return EdgeVector.from_pairs(n, {(i, j): 1, (j, k): 1, (i, k): 1})


def all_edges(n: int) -> EdgeVector:
    return EdgeVector(n, (1,) * comb(n, 2))


def phi(d: Derangement) -> EdgeVector:
    """Product of the edges {m, sigma(m)}, written additively; degree n."""
    pairs: Dict[tuple, int] = {}
    for i in range(1, d.n + 1):
        key = tuple(sorted((i, d.apply(i))))
        pairs[key] = pairs.get(key, 0) + 1
    v = EdgeVector.from_pairs(d.n, pairs)
    if v.degree != d.n:
        raise CertificateError(f"derangement image has degree {v.degree}, not {d.n}")
    return v


class TriangleLattice:
    """Subgroup generated by the triangle vectors, with certificates in
    terms of the C(n,3) triangle generators."""

    def __init__(self, n: int):
        if n < 3:
            raise BadParameters("triangle lattice needs n >= 3")
        self.n = n
        self.inc = build_matrix(n, 3, 2)
        self._solver = exactmath.HnfSolver(self.inc.matrix)
        self.rank = self._solver.rank

    def member(self, v: EdgeVector) -> Optional[tuple]:
        """Integer coefficients on triangle generators summing to v."""
        if v.n != self.n:
            raise DimensionMismatch("edge vector over the wrong ground set")
        return self._solver.solve(v.exps)


def _derangements_within_cap(n: int, config: RunConfig) -> None:
    if n > config.derangement_max_n:
        raise BudgetExceeded(f"derangement enumeration capped at n = {config.derangement_max_n}")


def fiber(v: EdgeVector, n: int, config: RunConfig = DEFAULT_CONFIG) -> List[Derangement]:
    """All derangements with edge image v, lexicographic in the image tuple.

    A backtracking search picks sigma(1), sigma(2), ... in turn and tries
    sigma(i) = w only while the edge {i, w} has multiplicity left in v.
    The search is complete, since the edges of every prefix of a derangement
    in the fiber lie within v, and each leaf is re-checked against phi.
    """
    if v.n != n:
        raise DimensionMismatch("edge vector over the wrong ground set")
    if n < 2:
        raise BadParameters("derangements need n >= 2")
    _derangements_within_cap(n, config)
    rank = {(i, w): colex_rank(sorted((i, w))) for i, w in permutations(range(1, n + 1), 2)}
    left = list(v.exps)  # edge multiplicities still unused
    used = [False] * (n + 1)
    images: List[int] = []
    found: List[Derangement] = []

    def extend(i: int) -> None:
        if i > n:
            d = derangement_from_images(images)
            if phi(d).exps == v.exps:
                found.append(d)
            return
        for w in range(1, n + 1):
            if w == i or used[w]:
                continue
            e = rank[i, w]
            if left[e] <= 0:
                continue
            used[w] = True
            left[e] -= 1
            images.append(w)
            extend(i + 1)
            images.pop()
            left[e] += 1
            used[w] = False

    extend(1)
    return found


def fiber_size_formula(d: Derangement) -> int:
    return 1 << (d.t_count - d.s_count)


def transposition_relations_check(n: int) -> bool:
    """Both exchange identities as exact edge-vector equalities, for every
    ordered choice of five distinct indices."""
    if n < 5:
        raise BadParameters("need n >= 5 for five distinct indices")
    for (k, i, j, s, t) in permutations(range(1, n + 1), 5):
        lhs = edge(n, k, i) + edge(n, j, s)
        rhs = (
            edge(n, k, j)
            + edge(n, i, s)
            + triangle(n, k, i, t)
            + triangle(n, j, s, t)
            - triangle(n, k, j, t)
            - triangle(n, i, s, t)
        )
        if lhs.exps != rhs.exps:
            return False
        lhs2 = edge(n, i, j).scale(2)
        rhs2 = (
            edge(n, k, s).scale(2)
            + triangle(n, i, j, k)
            + triangle(n, i, j, s)
            - triangle(n, i, k, s)
            - triangle(n, j, k, s)
        )
        if lhs2.exps != rhs2.exps:
            return False
    return True


# ---------------------------------------------------------------------------
# symbolic polynomials over edge / triangle monomials


@dataclass(frozen=True)
class SymbolicPoly:
    """Integer-coefficient polynomial with dense exponent-tuple keys."""

    arity: int
    terms: tuple  # sorted ((exponent tuple, coeff), ...), no zero coeffs

    @classmethod
    def from_dict(cls, arity: int, data: Dict[tuple, int]) -> "SymbolicPoly":
        items = tuple(sorted((k, v) for k, v in data.items() if v != 0))
        for k, _ in items:
            if len(k) != arity:
                raise DimensionMismatch("term arity mismatch")
        return cls(arity, items)

    @classmethod
    def monomial(cls, arity: int, exps: Sequence[int], coeff: int = 1) -> "SymbolicPoly":
        return cls.from_dict(arity, {tuple(exps): coeff})

    def __add__(self, other: "SymbolicPoly") -> "SymbolicPoly":
        data = dict(self.terms)
        for k, v in other.terms:
            data[k] = data.get(k, 0) + v
        return SymbolicPoly.from_dict(self.arity, data)

    def __sub__(self, other: "SymbolicPoly") -> "SymbolicPoly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "SymbolicPoly":
        return SymbolicPoly.from_dict(self.arity, {k: c * v for k, v in self.terms})

    def __mul__(self, other: "SymbolicPoly") -> "SymbolicPoly":
        data: Dict[tuple, int] = {}
        for k1, v1 in self.terms:
            for k2, v2 in other.terms:
                k = tuple(a + b for a, b in zip(k1, k2))
                data[k] = data.get(k, 0) + v1 * v2
        return SymbolicPoly.from_dict(self.arity, data)

    def shift(self, exps: Sequence[int]) -> "SymbolicPoly":
        return SymbolicPoly.from_dict(
            self.arity,
            {tuple(a + b for a, b in zip(k, exps)): v for k, v in self.terms},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)


def det_leibniz(n: int, config: RunConfig = DEFAULT_CONFIG) -> SymbolicPoly:
    """Determinant of the hollow symmetric edge matrix, summed over
    derangements with their signs."""
    _derangements_within_cap(n, config)
    arity = comb(n, 2)
    data: Dict[tuple, int] = {}
    for d in derangements(n):
        key = phi(d).exps
        data[key] = data.get(key, 0) + d.sign
    return SymbolicPoly.from_dict(arity, data)


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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "claims": [
                {
                    "name": c.name,
                    "applicable": c.applicable,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.claims
            ],
            "all_passed": self.all_passed,
        }


def check_section5(n: int, config: RunConfig = DEFAULT_CONFIG) -> Section5Report:
    """Evaluate every coset-membership claim that applies to this n.

    Memberships quantified over all derangements are checked exhaustively;
    triple products use the single-coset reduction (exhaustive pairwise
    transitivity plus one canonical triple), which the transitivity claim
    itself justifies.  Claims that state the same membership share one
    check, and each check runs at most once, when a claim that applies
    needs it.
    """
    if n < 2:
        raise BadParameters("need n >= 2")
    _derangements_within_cap(n, config)
    lattice = TriangleLattice(n) if n >= 3 else None  # no claim applies at n = 2
    images = [phi(d) for d in derangements(n)]
    first, full, count = images[0], all_edges(n), len(images)

    def members(vectors) -> bool:
        return all(lattice.member(v) is not None for v in vectors)

    checks: Dict[str, Callable[[], bool]] = {
        "transitive": lambda: members(img - first for img in images[1:]),
        "images": lambda: members(images),
        "images_full": lambda: members(img + full for img in images),
        "first_cubed": lambda: passed("transitive") and members([first.scale(3)]),
        "cubes": lambda: members(img.scale(3) for img in images),
        "four_cycle": lambda: members(
            [full - (edge(n, 1, 3) + edge(n, 2, 3) + edge(n, 2, 4) + edge(n, 1, 4))]
        ),
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
    f: SymbolicPoly  # polynomial in the C(n,3) triangle variables
    g_exps: tuple  # denominator monomial exponents over triangle variables
    certificates: tuple  # (leibniz monomial exps, coefficient, gamma) per term


def det_as_c_expression(n: int, config: RunConfig = DEFAULT_CONFIG) -> DetExpression:
    """Express the determinant as f / g with f polynomial in triangle
    variables and g a triangle monomial, then verify the identity
    symbolically against the Leibniz expansion."""
    if n % 3 != 0:
        raise PreconditionFailed("determinant lies in the triangle group only for 3 | n")
    lattice = TriangleLattice(n)
    det = det_leibniz(n, config)
    certs = []
    gammas = []
    for exps, coeff in det.terms:
        gamma = lattice.member(EdgeVector(n, exps))
        if gamma is None:
            raise PreconditionFailed(f"Leibniz monomial {exps} outside the triangle group")
        certs.append((exps, coeff, gamma))
        gammas.append(gamma)
    ntris = comb(n, 3)
    g_exps = tuple(max(0, max(-g[i] for g in gammas)) for i in range(ntris))
    f_terms: Dict[tuple, int] = {}
    for (_, coeff, gamma) in certs:
        key = tuple(a + b for a, b in zip(gamma, g_exps))
        if any(x < 0 for x in key):
            raise CertificateError("numerator term with a negative triangle exponent")
        f_terms[key] = f_terms.get(key, 0) + coeff
    f = SymbolicPoly.from_dict(ntris, f_terms)
    # f and g must be coprime: each denominator variable hits exponent 0
    for i, e in enumerate(g_exps):
        if e > 0 and all(k[i] for k, _ in f.terms):
            raise CertificateError(f"numerator and denominator share triangle variable {i}")
    # full symbolic verification: expanding f through the triangle map
    # equals det times the expansion of g
    expanded = expand_triangle_poly(n, f)
    shift = _triangle_image_exps(n, g_exps)
    if expanded.terms != det.shift(shift).terms:
        raise CertificateError("determinant identity failed")
    return DetExpression(n, f, g_exps, tuple(certs))


def _triangle_image_exps(n: int, c_exps: Sequence[int]) -> tuple:
    inc = build_matrix(n, 3, 2)
    return inc.matrix.mat_vec(tuple(c_exps))


def expand_triangle_poly(n: int, f: SymbolicPoly) -> SymbolicPoly:
    """Substitute each triangle variable by its edge monomial."""
    arity = comb(n, 2)
    a = build_matrix(n, 3, 2).matrix
    data: Dict[tuple, int] = {}
    for c_exps, coeff in f.terms:
        key = a.mat_vec(tuple(c_exps))
        data[key] = data.get(key, 0) + coeff
    return SymbolicPoly.from_dict(arity, data)


@dataclass(frozen=True)
class TildeIdealResult:
    n: int
    markov_count: int
    markov_map_to_zero: bool
    extra_generator: SymbolicPoly  # saturated principal generator in triangle vars
    containment_verified: bool
    quotient_monomial: Optional[tuple]  # edge exponents q with phi(extra) = scalar * det * p^q
    scalar: Optional[Fraction]


def tilde_ideal_generators(n: int, config: RunConfig = DEFAULT_CONFIG) -> TildeIdealResult:
    """Generators for the first non-toric relation ideal, forward direction.

    Emits the toric generators (which map to zero) together with the
    saturation of the principal determinant numerator: the monomial
    content of f is divided out as long as the quotient stays a genuine
    polynomial.  ``containment_verified`` reports whether its image lies in
    the principal determinant ideal by exact proportionality; when it does
    not, the quotient monomial and the scalar are None.
    """
    from . import toric

    if n % 3 != 0:
        raise PreconditionFailed("implemented for 3 | n")
    expr = det_as_c_expression(n, config)
    inc = build_matrix(n, 3, 2)
    markov = toric.minimal_markov(inc, config)
    markov_zero = all(not any(inc.matrix.mat_vec(b.vector)) for b in markov.elements)

    f = expr.f
    ntris = comb(n, 3)
    content = tuple(min(k[i] for k, _ in f.terms) for i in range(ntris))
    if len(f.terms) == 1:
        # a monomial saturates to a unit; keep the primitive monomial itself,
        # which is the honest generator of the relation ideal here
        exps = f.terms[0][0]
        h = SymbolicPoly.monomial(ntris, exps)
    else:
        h = SymbolicPoly.from_dict(
            ntris,
            {
                tuple(a - b for a, b in zip(k, content)): v
                for k, v in f.terms
            },
        )
        coeff_gcd = 0
        for _, v in h.terms:
            coeff_gcd = gcd(coeff_gcd, v)
        if coeff_gcd > 1:
            h = SymbolicPoly.from_dict(ntris, {k: v // coeff_gcd for k, v in h.terms})

    det = det_leibniz(n, config)
    image = expand_triangle_poly(n, h)
    prop = _proportional_up_to_monomial(image, det)
    q, scalar = prop if prop is not None else (None, None)
    return TildeIdealResult(n, len(markov.elements), markov_zero, h, prop is not None, q, scalar)


def _proportional_up_to_monomial(poly: SymbolicPoly, det: SymbolicPoly):
    """Find (q, scalar) with poly == scalar * det * p^q, else None."""
    if poly.is_zero() or det.is_zero():
        return None
    if poly.term_count() != det.term_count():
        return None
    arity = poly.arity
    pmin = [min(k[i] for k, _ in poly.terms) for i in range(arity)]
    dmin = [min(k[i] for k, _ in det.terms) for i in range(arity)]
    q = tuple(a - b for a, b in zip(pmin, dmin))
    if any(x < 0 for x in q):
        return None
    shifted = det.shift(q)
    scalar = None
    dterms = dict(shifted.terms)
    for k, v in poly.terms:
        if k not in dterms:
            return None
        s = Fraction(v, dterms[k])
        if scalar is None:
            scalar = s
        elif scalar != s:
            return None
    return q, scalar
