"""Binomial ideal engine for lattice ideals of incidence matrices.

Everything here works on pure-difference binomials x^a - x^b, closed under
S-pairs and reduction, so no coefficient arithmetic beyond signs is ever
needed.  The saturated lattice ideal is computed by the standard loop:
start from the binomials of an integer kernel basis and saturate one
variable at a time, each round re-running Buchberger in a degree-reverse-
lexicographic order that makes the active variable cheapest and then
stripping its common power from every basis element.

Monomials are exponent tuples indexed by colex subset rank.  In the
default order the colex-first variable is the most expensive and ties are
broken reverse-lexicographically from the cheapest end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import prod
from operator import le, sub
from typing import Iterable, Optional, Sequence

from . import exactmath
from .config import DEFAULT_CONFIG, RunConfig
from .errors import BadParameters, BudgetExceeded, CertificateError
from .incidence import IncidenceMatrix


# ---------------------------------------------------------------------------
# monomial orders


class DegrevlexOrder:
    """Degree-reverse-lexicographic order with a configurable cheapest end.

    ``scan`` lists variable indices from cheapest to most expensive; on a
    degree tie the first scanned variable where two monomials differ
    decides, the monomial with the smaller exponent there being larger.
    """

    def __init__(self, nvars: int, cheapest: Optional[int] = None):
        self.nvars = nvars
        self.cheapest = cheapest
        if cheapest is None:
            self.scan = tuple(range(nvars - 1, -1, -1))
        else:
            if not 0 <= cheapest < nvars:
                raise BadParameters("cheapest variable out of range")
            self.scan = (cheapest,) + tuple(
                v for v in range(nvars - 1, -1, -1) if v != cheapest
            )

    def compare(self, a: Sequence[int], b: Sequence[int]) -> int:
        da, db = sum(a), sum(b)
        if da != db:
            return 1 if da > db else -1
        for v in self.scan:
            if a[v] != b[v]:
                return 1 if a[v] < b[v] else -1
        return 0

    def sort_key(self, m: Sequence[int]) -> tuple:
        # larger monomial sorts later
        return (sum(m), tuple(-m[v] for v in self.scan))

    def binomial_key(self, b: "Binomial") -> tuple:
        return (b.degree, self.sort_key(b.plus), self.sort_key(b.minus))

    @property
    def name(self) -> str:
        if self.cheapest is None:
            return "degrevlex"
        return f"degrevlex(cheapest=x{self.cheapest})"


# ---------------------------------------------------------------------------
# public binomial containers


@dataclass(frozen=True)
class Binomial:
    """x^plus - x^minus with disjoint non-negative supports."""

    var_count: int
    plus: tuple
    minus: tuple

    def __post_init__(self):
        if len(self.plus) != self.var_count or len(self.minus) != self.var_count:
            raise BadParameters("exponent vector length mismatch")
        if any(x < 0 for x in self.plus) or any(x < 0 for x in self.minus):
            raise BadParameters("negative exponent")
        if all(x == 0 for x in self.plus) and all(x == 0 for x in self.minus):
            raise BadParameters("zero binomial")
        if any(p and m for p, m in zip(self.plus, self.minus)):
            raise BadParameters("plus and minus supports overlap")

    @property
    def vector(self) -> tuple:
        return tuple(p - m for p, m in zip(self.plus, self.minus))

    @property
    def degree(self) -> int:
        return max(sum(self.plus), sum(self.minus))

    def is_homogeneous(self) -> bool:
        return sum(self.plus) == sum(self.minus)

    def is_squarefree(self) -> bool:
        return all(x <= 1 for x in self.plus) and all(x <= 1 for x in self.minus)

    @classmethod
    def from_vector(cls, u: Sequence[int]) -> "Binomial":
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        return cls(len(u), plus, minus)

    def oriented(self, order: "DegrevlexOrder") -> "Binomial":
        """The same binomial up to sign, with the larger monomial first."""
        if order.compare(self.plus, self.minus) > 0:
            return self
        return Binomial(self.var_count, self.minus, self.plus)


@dataclass(frozen=True)
class BinomialBasis:
    kind: str  # markov | graver | groebner | octahedral
    elements: tuple
    matrix: IncidenceMatrix
    order_name: str = "degrevlex"

    def __post_init__(self):
        a = self.matrix.matrix
        for b in self.elements:
            if any(a.mat_vec(b.vector)):
                raise BadParameters("basis element outside the kernel")

    def degree_multiset(self) -> dict:
        out: dict = {}
        for b in self.elements:
            out[b.degree] = out.get(b.degree, 0) + 1
        return out

    def to_json_list(self, labels: Sequence[str]) -> list:
        out = []
        for b in self.elements:
            out.append(
                {
                    "plus": {labels[i]: e for i, e in enumerate(b.plus) if e},
                    "minus": {labels[i]: e for i, e in enumerate(b.minus) if e},
                }
            )
        return out


# ---------------------------------------------------------------------------
# raw engine on monomial pairs


def _orient(a: tuple, b: tuple, order: DegrevlexOrder):
    c = order.compare(a, b)
    if c == 0:
        return None
    return (a, b) if c > 0 else (b, a)


def _divides(d: tuple, m: tuple) -> bool:
    return all(map(le, d, m))


def _sub_add(m: tuple, sub: tuple, add: tuple) -> tuple:
    return tuple(x - y + z for x, y, z in zip(m, sub, add))


def _normal_form(a: tuple, b: tuple, basis: list, order: DegrevlexOrder):
    """Full normal form of x^a - x^b against leads of ``basis``; None if 0."""
    pair = _orient(a, b, order)
    if pair is None:
        return None
    lead, tail = pair
    changed = True
    while changed:
        changed = False
        for glead, gtail in basis:
            if _divides(glead, lead):
                lead = _sub_add(lead, glead, gtail)
                pair = _orient(lead, tail, order)
                if pair is None:
                    return None
                lead, tail = pair
                changed = True
                break
    # tail reduction for canonical output
    changed = True
    while changed:
        changed = False
        for glead, gtail in basis:
            if _divides(glead, tail):
                tail = _sub_add(tail, glead, gtail)
                if tail == lead:
                    return None
                changed = True
                break
    return lead, tail


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(x if x > y else y for x, y in zip(a, b))


def buchberger(
    generators: Iterable[tuple],
    order: DegrevlexOrder,
    pair_budget: int = DEFAULT_CONFIG.pair_queue_budget,
) -> list:
    """Reduced Groebner basis of the binomial ideal the generators span.

    Generators and result are (lead, tail) monomial pairs; zero input
    binomials are dropped.  Pairs are processed by increasing lcm degree
    (deterministic tie-break), with the coprime-lead and chain criteria.
    Raises BudgetExceeded when more than ``pair_budget`` pairs are popped.
    """
    basis: list = []
    for a, b in generators:
        pair = _orient(tuple(a), tuple(b), order)
        if pair is not None and pair not in basis:
            basis.append(pair)

    heap: list = []
    counter = 0
    processed = set()

    def push_pair(i, j):
        nonlocal counter
        li, lj = basis[i][0], basis[j][0]
        l = _lcm(li, lj)
        if l == tuple(x + y for x, y in zip(li, lj)):
            processed.add((i, j))  # coprime leads: S-pair reduces to zero
            return
        heapq.heappush(heap, (sum(l), order.sort_key(l), counter, i, j))
        counter += 1

    for i in range(len(basis)):
        for j in range(i):
            push_pair(j, i)

    popped = 0
    while heap:
        _, _, _, i, j = heapq.heappop(heap)
        if (i, j) in processed:
            continue
        processed.add((i, j))
        popped += 1
        if popped > pair_budget:
            raise BudgetExceeded("pair queue budget exhausted")
        li, lj = basis[i][0], basis[j][0]
        l = _lcm(li, lj)
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(basis[k][0], l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in processed and pjk in processed:
                    skip = True
                    break
        if skip:
            continue
        (ai, bi), (aj, bj) = basis[i], basis[j]
        s1 = _sub_add(l, ai, bi)
        s2 = _sub_add(l, aj, bj)
        nf = _normal_form(s1, s2, basis, order)
        if nf is None:
            continue
        basis.append(nf)
        t = len(basis) - 1
        for idx in range(t):
            push_pair(idx, t)

    return _interreduce(basis, order)


def _interreduce(basis: list, order: DegrevlexOrder) -> list:
    by_lead = sorted(basis, key=lambda g: order.sort_key(g[0]))
    kept: list = []
    for g in by_lead:
        if not any(_divides(h[0], g[0]) for h in kept):
            kept.append(g)
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        nf = _normal_form(g[0], g[1], others, order)
        if nf is not None:
            reduced.append(nf)
    reduced.sort(key=lambda g: (order.sort_key(g[0]), order.sort_key(g[1])))
    return reduced


def strip_variable(pair: tuple, v: int) -> tuple:
    a, b = pair
    m = min(a[v], b[v])
    if m == 0:
        return pair
    a = a[:v] + (a[v] - m,) + a[v + 1 :]
    b = b[:v] + (b[v] - m,) + b[v + 1 :]
    return a, b


def saturate_binomials(
    generators: Iterable[tuple],
    nvars: int,
    pair_budget: int = DEFAULT_CONFIG.pair_queue_budget,
) -> list:
    """Saturate the binomial ideal w.r.t. the product of all variables.

    One round per variable in ascending colex order: Groebner basis in the
    order making that variable cheapest, then strip its common power from
    every element.  Sound for homogeneous binomial ideals.
    """
    gens = [(tuple(a), tuple(b)) for a, b in generators]
    for v in range(nvars):
        order = DegrevlexOrder(nvars, cheapest=v)
        gb = buchberger(gens, order, pair_budget)
        gens = [strip_variable(g, v) for g in gb]
    return gens


# ---------------------------------------------------------------------------
# lattice ideals for incidence matrices

def _binomial_pairs(vectors: Iterable[Sequence[int]]) -> list:
    return [(b.plus, b.minus) for b in map(Binomial.from_vector, vectors)]


def _saturated_groebner(pairs: list, nvars: int, config: RunConfig) -> list:
    """Reduced degrevlex Groebner basis of the saturation of the ideal the
    binomial pairs span; empty for no pairs."""
    sat = saturate_binomials(pairs, nvars, config.pair_queue_budget)
    return buchberger(sat, DegrevlexOrder(nvars), config.pair_queue_budget)


def lattice_ideal_groebner(
    inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG
) -> BinomialBasis:
    """Reduced degrevlex Groebner basis of the saturated lattice ideal."""
    a = inc.matrix
    pairs = _binomial_pairs(exactmath.kernel_basis(a).vectors)
    gb = _saturated_groebner(pairs, a.cols, config)
    elements = tuple(Binomial(a.cols, lead, tail) for lead, tail in gb)
    for b in elements:
        if not b.is_homogeneous():
            raise BadParameters("inhomogeneous element in a lattice ideal basis")
    return BinomialBasis("groebner", elements, inc, DegrevlexOrder(a.cols).name)


def reduce_to_zero(b: Binomial, basis: BinomialBasis) -> bool:
    """Ideal membership by normal-form reduction against a Groebner basis."""
    order = DegrevlexOrder(b.var_count)
    pairs = [(g.plus, g.minus) for g in basis.elements]
    return _normal_form(b.plus, b.minus, pairs, order) is None


# ---------------------------------------------------------------------------
# fibers and Markov bases


@dataclass(frozen=True)
class Fiber:
    matrix: IncidenceMatrix
    target: tuple
    points: tuple


def fiber_enumerate(
    inc: IncidenceMatrix, target: Sequence[int], config: RunConfig = DEFAULT_CONFIG
) -> Fiber:
    """All non-negative integer points u with A u = target (A is 0/1)."""
    a = inc.matrix
    b = tuple(int(x) for x in target)
    if len(b) != a.rows:
        raise BadParameters("target length does not match row count")
    cols = [a.column(j) for j in range(a.cols)]
    last_touch = [-1] * a.rows
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            if x:
                last_touch[i] = j
    points = []
    visited = 0

    def dfs(j, residual, acc):
        nonlocal visited
        visited += 1
        if visited > config.fiber_budget:
            raise BudgetExceeded("fiber enumeration budget exhausted")
        if all(x == 0 for x in residual):
            points.append(tuple(acc + [0] * (a.cols - j)))
            return
        if j == a.cols:
            return
        for i, r in enumerate(residual):
            if r > 0 and last_touch[i] < j:
                return
        col = cols[j]
        cap = min((r for r, x in zip(residual, col) if x), default=None)
        if cap is None:
            dfs(j + 1, residual, acc + [0])
            return
        for mult in range(0, cap + 1):
            new_res = [r - mult * x for r, x in zip(residual, col)]
            dfs(j + 1, new_res, acc + [mult])

    dfs(0, list(b), [])
    return Fiber(inc, b, tuple(sorted(set(points))))


def is_markov_on_fiber(basis: BinomialBasis, fiber: Fiber) -> bool:
    """Connectivity of the fiber graph under the basis moves."""
    points = list(fiber.points)
    if len(points) <= 1:
        return True
    index = {p: i for i, p in enumerate(points)}
    moves = [b.vector for b in basis.elements]
    seen = {points[0]}
    stack = [points[0]]
    while stack:
        u = stack.pop()
        for mv in moves:
            for sgn in (1, -1):
                w = tuple(x + sgn * d for x, d in zip(u, mv))
                if all(x >= 0 for x in w) and w in index and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == len(points)


def _component(start: tuple, moves: list, budget: int) -> set:
    """Monomials reachable from ``start`` by applying moves non-negatively."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for plus, minus in moves:
            if _divides(plus, u):
                w = _sub_add(u, plus, minus)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
            if _divides(minus, u):
                w = _sub_add(u, minus, plus)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) > budget:
            raise BudgetExceeded("fiber component budget exhausted")
    return seen


def markov_from_groebner(gb: BinomialBasis, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Inclusion-minimal Markov basis extracted from a Groebner basis.

    Candidates are processed by increasing degree; one is kept exactly
    when its two monomials are not yet connected in their fiber by the
    moves accepted so far, which is ideal membership in the graded piece.
    """
    order = DegrevlexOrder(gb.matrix.matrix.cols)
    accepted: list = []
    moves: list = []
    for cand in sorted(gb.elements, key=order.binomial_key):
        comp = _component(cand.plus, moves, config.fiber_budget)
        if cand.minus not in comp:
            accepted.append(cand)
            moves.append((cand.plus, cand.minus))
    return BinomialBasis("markov", tuple(accepted), gb.matrix, gb.order_name)


def minimal_markov(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Inclusion-minimal Markov basis of the lattice ideal."""
    return markov_from_groebner(lattice_ideal_groebner(inc, config), config)


# ---------------------------------------------------------------------------
# Graver bases by completion


def _sum_pair(f: tuple, g: tuple) -> tuple:
    """(plus, minus) of the vector sum of two (plus, minus) moves."""
    u = [fp - fm + gp - gm for fp, fm, gp, gm in zip(f[0], f[1], g[0], g[1])]
    return tuple(x if x > 0 else 0 for x in u), tuple(-x if x < 0 else 0 for x in u)


def _signs_conflict(f: tuple, g: tuple) -> bool:
    """Some coordinate is positive in one move and negative in the other."""
    return any(
        (fp and gm) or (fm and gp) for fp, fm, gp, gm in zip(f[0], f[1], g[0], g[1])
    )


def _conformal_sign(g: tuple, s: tuple) -> Optional[tuple]:
    """The move g or its negative, whichever fits conformally inside s
    (both halves divide); None if neither does."""
    gp, gm = g
    if _divides(gp, s[0]) and _divides(gm, s[1]):
        return g
    if _divides(gm, s[0]) and _divides(gp, s[1]):
        return gm, gp
    return None


def _conformal_remainder(s: tuple, moves: list) -> Optional[tuple]:
    """Subtract moves that fit conformally inside ``s`` until none fits;
    None if nothing is left."""
    changed = True
    while changed:
        changed = False
        for g in moves:
            h = _conformal_sign(g, s)
            if h is not None:
                s = tuple(map(sub, s[0], h[0])), tuple(map(sub, s[1], h[1]))
                changed = True
    if any(s[0]) or any(s[1]):
        return s
    return None


def graver_basis(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Graver basis of the lattice ideal by completion on kernel vectors.

    A move (plus, minus) stands for itself and its negative.  Starting
    from a kernel basis, the sum of every two moves whose signs conflict
    somewhere is reduced by the moves that fit conformally inside it, and
    a nonzero remainder becomes a new move (Hemmecke, "On the positive sum
    property and the computation of Graver test sets", 2003).  The moves
    then have the positive sum property, so the conformally minimal ones
    are the primitive vectors.  Each pair reduced counts against
    ``pair_queue_budget``.
    """
    a = inc.matrix
    moves = _binomial_pairs(exactmath.kernel_basis(a).vectors)
    pairs = 0
    for i, f in enumerate(moves):  # grows while iterated
        for g in moves[:i]:
            for h in (g, g[::-1]):
                if not _signs_conflict(f, h):
                    continue
                pairs += 1
                if pairs > config.pair_queue_budget:
                    raise BudgetExceeded("pair queue budget exhausted")
                r = _conformal_remainder(_sum_pair(f, h), moves)
                if r is not None:
                    moves.append(r)
    order = DegrevlexOrder(a.cols)
    minimal = [
        Binomial(a.cols, *g).oriented(order)
        for g in moves
        if not any(h is not g and _conformal_sign(h, g) for h in moves)
    ]
    minimal.sort(key=order.binomial_key)
    return BinomialBasis("graver", tuple(minimal), inc, order.name)


def is_primitive(b: Binomial, inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> bool:
    """No other kernel vector fits componentwise inside (plus, minus).

    Decided by meet-in-the-middle over the box 0 <= v+ <= plus,
    0 <= v- <= minus: the support of u is cut in two, each half lists the
    sums A·v over its half-box, and a left and a right half-vector whose
    sums cancel make a kernel vector in the box.  ``box_budget`` bounds the
    entries of the larger half-box, checked before anything is listed.  A
    vector other than 0 and u is re-checked against A (CertificateError
    otherwise) before it is returned as a witness.
    """
    a = inc.matrix
    u = b.vector
    if any(a.mat_vec(u)):
        raise BadParameters("binomial vector is not in the kernel")
    support = [i for i in range(len(u)) if u[i] != 0]
    left, right = _halve(support, u)
    size = max(prod(abs(u[c]) + 1 for c in half) for half in (left, right))
    if size > config.box_budget:
        raise BudgetExceeded(
            f"primitivity needs a half-box of {size} entries, over the box budget "
            f"of {config.box_budget}"
        )
    keys = _column_keys(a, u, support)
    witnesses: dict = {}  # sum key -> up to two left half-box indices
    for j, key in enumerate(_half_sums(left, u, keys)):
        found = witnesses.setdefault(key, [])
        if len(found) < 2:
            found.append(j)
    # a right half-vector rules out at most one partner (0 when it is 0,
    # u's left half when it is u's right half), so two per key suffice
    for j, key in enumerate(_half_sums(right, u, keys)):
        for i in witnesses.get(-key, ()):
            v = [0] * len(u)
            for half, index in ((left, i), (right, j)):
                for c, x in zip(half, _box_point(half, u, index)):
                    v[c] = x
            v = tuple(v)
            if any(v) and v != u:
                if any(a.mat_vec(v)):
                    raise CertificateError("primitivity witness is not a kernel vector")
                return False
    return True


def _halve(support: Sequence[int], u: Sequence[int]) -> tuple:
    """Cut ``support`` where the larger of the two half-boxes is smallest."""
    sides = [abs(u[c]) + 1 for c in support]
    cut = min(range(len(sides) + 1), key=lambda i: max(prod(sides[:i]), prod(sides[i:])))
    return support[:cut], support[cut:]


def _column_keys(a, u: Sequence[int], support: Sequence[int]) -> dict:
    """Each support column of A packed into one int, a field of W bits per
    row.  Every sum over the box has rows within +-bound < 2^(W-1), where
    bound = sum |u_c| * max |a|, so the packing is linear and injective on
    those sums: a sum packs to 0 only if it is 0."""
    columns = {c: a.column(c) for c in support}
    bound = sum(abs(u[c]) for c in support) * max(
        (abs(x) for col in columns.values() for x in col), default=0
    )
    width = (2 * bound + 1).bit_length()
    return {c: sum(x << (r * width) for r, x in enumerate(col)) for c, col in columns.items()}


def _half_sums(coords: Sequence[int], u: Sequence[int], keys: dict) -> list:
    """Packed sums A·v over the half-box of ``coords``, the last coordinate
    varying fastest."""
    sums = [0]
    for c in coords:
        step = range(min(u[c], 0), max(u[c], 0) + 1)
        col = keys[c]
        sums = [s + x * col for s in sums for x in step]
    return sums


def _box_point(coords: Sequence[int], u: Sequence[int], index: int) -> list:
    """The half-box point at position ``index`` of ``_half_sums``."""
    point = []
    for c in reversed(coords):
        index, digit = divmod(index, abs(u[c]) + 1)
        point.append(min(u[c], 0) + digit)
    point.reverse()
    return point


# ---------------------------------------------------------------------------
# octahedral generators and saturation identity


def octahedral_generators(n: int, k: int, t: int) -> BinomialBasis:
    """One squarefree binomial per pod, plus part the positive support."""
    from . import designs
    from .incidence import build_matrix

    inc = build_matrix(n, k, t)
    order = DegrevlexOrder(inc.matrix.cols)
    elements = []
    for pod in designs.pods(n, k, t):
        design = designs.pod_expand(pod, n)
        u = designs.design_kernel_iso(design)
        elements.append(Binomial.from_vector(u).oriented(order))
    return BinomialBasis("octahedral", tuple(elements), inc, order.name)


def saturation_equals(
    basis: BinomialBasis, inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG
) -> bool:
    """Does saturating the span of ``basis`` by all variables give the
    full lattice ideal I?

    Call the saturation J.  J lies in I when every element of its Groebner
    basis is a kernel binomial, which is re-checked (CertificateError
    otherwise).  I lies in J when the binomials of a kernel lattice basis
    reduce to zero against that basis: I is the saturation of their
    ideal, and J is saturated.
    """
    a = inc.matrix
    for b in basis.elements:
        if any(a.mat_vec(b.vector)):
            raise BadParameters("generator outside the kernel")
    gb_j = _saturated_groebner([(b.plus, b.minus) for b in basis.elements], a.cols, config)
    for lead, tail in gb_j:
        if any(a.mat_vec([x - y for x, y in zip(lead, tail)])):
            raise CertificateError("saturation produced a binomial outside the kernel")
    order = DegrevlexOrder(a.cols)
    return all(
        _normal_form(plus, minus, gb_j, order) is None
        for plus, minus in _binomial_pairs(exactmath.kernel_basis(a).vectors)
    )
