"""Binomial ideal engine for lattice ideals of incidence matrices.

Everything here works on pure-difference binomials x^a - x^b, closed under
S-pairs and reduction, so no coefficient arithmetic beyond signs is ever
needed.  The saturated lattice ideal is computed by the standard loop:
start from the binomials of an integer kernel basis and saturate one
variable at a time, each round re-running Buchberger in a degree-reverse-
lexicographic order that makes the active variable cheapest and then
stripping its common power from every basis element.  Buchberger queues
S-pairs by criteria M and F of the Gebauer-Moeller update, so no pair is
remembered once it is popped.  Graver bases come from a completion on
kernel vectors, Markov bases from fiber connectivity and primitivity from
a meet-in-the-middle search of a box.

Monomials are exponent tuples indexed by colex subset rank.  In the
default order the colex-first variable is the most expensive and ties are
broken reverse-lexicographically from the cheapest end.  A monomial's
support mask, the int with bit v set where its exponent of x_v is
positive, is tested before any divisibility check: a monomial divides
another only if its mask lies inside the other's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import le, sub
from typing import Iterable, Optional, Sequence

from . import exactmath
from .combinat import colex_rank
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
    def from_subsets(
        cls, nvars: int, plus: Iterable[Iterable[int]], minus: Iterable[Iterable[int]]
    ) -> "Binomial":
        """One variable per k-subset in colex order; each subset listed in
        ``plus`` or ``minus`` adds 1 to the exponent of its variable there."""
        exps = []
        for subsets in (plus, minus):
            e = [0] * nvars
            for s in subsets:
                e[colex_rank(tuple(sorted(s)))] += 1
            exps.append(tuple(e))
        return cls(nvars, *exps)

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

    def __post_init__(self):
        a = self.matrix.matrix
        for b in self.elements:
            if any(a.mat_vec(b.vector)):
                raise BadParameters("basis element outside the kernel")

    @cached_property
    def reducers(self) -> tuple:
        """The elements as reducer records, for normal forms against this
        basis."""
        return tuple(_reducer(b.plus, b.minus) for b in self.elements)

    def degree_multiset(self) -> dict:
        out: dict = {}
        for b in self.elements:
            out[b.degree] = out.get(b.degree, 0) + 1
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


def _support(m: tuple) -> int:
    """Bit v set exactly where m[v] > 0.  A monomial divides another only
    if its support mask lies inside the other's, so one integer operation
    rules out most divisibility tests."""
    mask = 0
    for v, x in enumerate(m):
        if x:
            mask |= 1 << v
    return mask


def _sub_add(m: tuple, sub: tuple, add: tuple) -> tuple:
    return tuple(x - y + z for x, y, z in zip(m, sub, add))


def _reducer(lead: tuple, tail: tuple) -> tuple:
    """The reducer record (lead mask, lead, tail) of x^lead - x^tail."""
    return _support(lead), lead, tail


def _first_divisor(m: tuple, reducers: Sequence[tuple]) -> Optional[tuple]:
    """The first reducer record whose lead divides m."""
    support = _support(m)
    for r in reducers:
        mask = r[0]
        if mask & support == mask and _divides(r[1], m):
            return r
    return None


def _normal_form(a: tuple, b: tuple, reducers: Sequence[tuple], order: DegrevlexOrder):
    """Full normal form of x^a - x^b against the reducer records; None if 0."""
    pair = _orient(a, b, order)
    if pair is None:
        return None
    lead, tail = pair
    while (r := _first_divisor(lead, reducers)) is not None:
        pair = _orient(_sub_add(lead, r[1], r[2]), tail, order)
        if pair is None:
            return None
        lead, tail = pair
    # tail reduction for canonical output
    while (r := _first_divisor(tail, reducers)) is not None:
        tail = _sub_add(tail, r[1], r[2])
        if tail == lead:
            return None
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
    binomials are dropped.  Pairs are popped by increasing lcm in the
    order, ties in the order the pairs were made.  Each time an element h
    joins the basis, criteria M and F of Gebauer and Moeller ("On an
    installation of Buchberger's algorithm", 1988) keep, of the new pairs
    of h, one per lcm that no other new lcm strictly divides, and none of
    those whose lcm some new pair with coprime leads has.  Every element
    stays a reducer and a pair partner; the final interreduction leaves
    the reduced basis.

    Every element is a reducer record and every lcm carries a support
    mask, tested before any divisibility check.  Raises BudgetExceeded,
    naming the pairs popped and the elements kept, when more than
    ``pair_budget`` pairs are popped.
    """
    elements: list = []  # every element so far, by index, as a reducer record
    heap: list = []  # (order key of the lcm, newer member, older member, lcm)

    def add(h: tuple) -> None:
        hmask, lead, _ = h
        t = len(elements)
        # criteria M and F: per lcm, its first partner and whether any is coprime
        new: dict = {}
        for k, (gmask, glead, _) in enumerate(elements):
            lcm = _lcm(glead, lead)
            if lcm in new:
                new[lcm][2] |= not gmask & hmask
            else:
                new[lcm] = [gmask | hmask, k, not gmask & hmask]
        # a strict divisor has a lower degree, and distinct lcms of one
        # degree never divide each other: by increasing degree, each lcm
        # need only be tested against the minimal ones found before it
        minimal: list = []
        for lcm, (lmask, k, coprime) in sorted(new.items(), key=lambda item: sum(item[0])):
            if any(m & lmask == m and _divides(low, lcm) for m, low in minimal):
                continue
            minimal.append((lmask, lcm))
            if not coprime:
                heapq.heappush(heap, (order.sort_key(lcm), t, k, lcm))
        elements.append(h)

    for a, b in generators:
        pair = _orient(tuple(a), tuple(b), order)
        if pair is not None and (h := _reducer(*pair)) not in elements:
            add(h)

    popped = 0
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        popped += 1
        if popped > pair_budget:
            raise BudgetExceeded(
                f"pair queue budget of {pair_budget} exhausted: {popped} pairs "
                f"popped, basis of {len(elements)} elements"
            )
        (_, ai, bi), (_, aj, bj) = elements[i], elements[j]
        nf = _normal_form(_sub_add(lcm, ai, bi), _sub_add(lcm, aj, bj), elements, order)
        if nf is not None:
            add(_reducer(*nf))

    return _interreduce(elements, order)


def _interreduce(reducers: Sequence[tuple], order: DegrevlexOrder) -> list:
    """Reduced basis, as (lead, tail) pairs, of the reducer records."""
    kept: list = []
    for r in sorted(reducers, key=lambda r: order.sort_key(r[1])):
        if _first_divisor(r[1], kept) is None:
            kept.append(r)
    reduced = []
    for idx, (_, lead, tail) in enumerate(kept):
        nf = _normal_form(lead, tail, kept[:idx] + kept[idx + 1 :], order)
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
    every element.  Sound for homogeneous binomial ideals.  A
    BudgetExceeded also names the round it stopped in.
    """
    gens = [(tuple(a), tuple(b)) for a, b in generators]
    for v in range(nvars):
        order = DegrevlexOrder(nvars, cheapest=v)
        try:
            gb = buchberger(gens, order, pair_budget)
        except BudgetExceeded as e:
            raise BudgetExceeded(f"saturation round for variable {v} of {nvars}: {e}") from e
        gens = [strip_variable(g, v) for g in gb]
    return gens


# ---------------------------------------------------------------------------
# lattice ideals for incidence matrices

def _binomial_pairs(vectors: Iterable[Sequence[int]]) -> list:
    return [(b.plus, b.minus) for b in map(Binomial.from_vector, vectors)]


def _saturated_groebner(pairs: list, nvars: int, config: RunConfig) -> list:
    """Reduced degrevlex Groebner basis of the saturation of the ideal the
    binomial pairs span; empty for no pairs.

    The last saturation round runs in the default order, whose cheapest
    variable is x_(nvars-1).  For a homogeneous ideal, stripping that
    variable from a reduced degrevlex basis leaves a Groebner basis of the
    saturation (Sturmfels, *Groebner bases and convex polytopes*, 1996,
    ch. 12), so interreducing it finishes the job without another
    Buchberger run.
    """
    sat = saturate_binomials(pairs, nvars, config.pair_queue_budget)
    return _interreduce([_reducer(*g) for g in sat], DegrevlexOrder(nvars))


def lattice_ideal_groebner(
    inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG
) -> BinomialBasis:
    """Reduced degrevlex Groebner basis of the saturated lattice ideal."""
    a = inc.matrix
    pairs = _binomial_pairs(exactmath.kernel_basis(a))
    gb = _saturated_groebner(pairs, a.cols, config)
    elements = tuple(Binomial(a.cols, lead, tail) for lead, tail in gb)
    for b in elements:
        if not b.is_homogeneous():
            raise BadParameters("inhomogeneous element in a lattice ideal basis")
    return BinomialBasis("groebner", elements, inc)


def reduce_to_zero(b: Binomial, basis: BinomialBasis) -> bool:
    """Ideal membership by normal-form reduction against a Groebner basis."""
    return _normal_form(b.plus, b.minus, basis.reducers, DegrevlexOrder(b.var_count)) is None


# ---------------------------------------------------------------------------
# Markov bases


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
    return BinomialBasis("markov", tuple(accepted), gb.matrix)


def minimal_markov(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Inclusion-minimal Markov basis of the lattice ideal."""
    return markov_from_groebner(lattice_ideal_groebner(inc, config), config)


# ---------------------------------------------------------------------------
# Graver bases by completion


def _move(plus: tuple, minus: tuple) -> tuple:
    """The move record (plus, minus, plus mask, minus mask)."""
    return plus, minus, _support(plus), _support(minus)


def _negated(g: tuple) -> tuple:
    """The move record of -g: halves and masks swapped."""
    return g[1], g[0], g[3], g[2]


def _sum_pair(f: tuple, g: tuple) -> tuple:
    """The move record of the vector sum of two moves."""
    u = [fp - fm + gp - gm for fp, fm, gp, gm in zip(f[0], f[1], g[0], g[1])]
    return _move(tuple(x if x > 0 else 0 for x in u), tuple(-x if x < 0 else 0 for x in u))


def _conformal_sign(g: tuple, s: tuple) -> Optional[tuple]:
    """The move g or its negative, whichever fits conformally inside s
    (both halves divide); None if neither does."""
    gp, gm, p, m = g
    sp, sm, s0, s1 = s
    if p & s0 == p and m & s1 == m and _divides(gp, sp) and _divides(gm, sm):
        return g
    if m & s0 == m and p & s1 == p and _divides(gm, sp) and _divides(gp, sm):
        return _negated(g)
    return None


def _conformal_remainder(s: tuple, moves: Sequence[tuple]) -> Optional[tuple]:
    """Subtract moves that fit conformally inside the move ``s`` until none
    fits; None if nothing is left."""
    changed = True
    while changed:
        changed = False
        s0, s1 = s[2], s[3]
        for g in moves:
            p, m = g[2], g[3]
            # most moves fail on their masks alone: test those inline, before a call
            if (p & s0 != p or m & s1 != m) and (m & s0 != m or p & s1 != p):
                continue
            h = _conformal_sign(g, s)
            if h is not None:
                s = _move(tuple(map(sub, s[0], h[0])), tuple(map(sub, s[1], h[1])))
                s0, s1 = s[2], s[3]
                changed = True
    if any(s[0]) or any(s[1]):
        return s
    return None


def graver_basis(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Graver basis of the lattice ideal by completion on kernel vectors.

    A move record (plus, minus, plus mask, minus mask) stands for itself
    and its negative.  Starting from a kernel basis, the sum of every two
    moves whose signs conflict somewhere is reduced by the moves that fit
    conformally inside it, and a nonzero remainder becomes a new move
    (Hemmecke, "On the positive sum property and the computation of Graver
    test sets", 2003).  The moves then have the positive sum property, so
    the conformally minimal ones are the primitive vectors.  Signs
    conflict exactly where the support masks of opposite halves meet, and
    the masks rule out most conformal fits before any exponent is
    compared.  Each pair reduced counts against ``pair_queue_budget``.
    """
    a = inc.matrix
    moves = [_move(*g) for g in _binomial_pairs(exactmath.kernel_basis(a))]
    pairs = 0
    for i, f in enumerate(moves):  # grows while iterated
        fp, fm = f[2], f[3]
        for g in moves[:i]:
            for h in (g, _negated(g)):
                if not (fp & h[3] or fm & h[2]):
                    continue
                pairs += 1
                if pairs > config.pair_queue_budget:
                    raise BudgetExceeded(
                        f"pair queue budget of {config.pair_queue_budget} exhausted: "
                        f"{pairs} sums reduced, {len(moves)} moves"
                    )
                r = _conformal_remainder(_sum_pair(f, h), moves)
                if r is not None:
                    moves.append(r)
    order = DegrevlexOrder(a.cols)
    minimal = [
        Binomial(a.cols, g[0], g[1]).oriented(order)
        for g in moves
        if not any(h is not g and _conformal_sign(h, g) for h in moves)
    ]
    minimal.sort(key=order.binomial_key)
    return BinomialBasis("graver", tuple(minimal), inc)


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
    elements = tuple(Binomial.from_vector(pod).oriented(order) for pod in designs.pods(n, k, t))
    return BinomialBasis("octahedral", elements, inc)


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
    reducers = [_reducer(*g) for g in gb_j]
    return all(
        _normal_form(plus, minus, reducers, order) is None
        for plus, minus in _binomial_pairs(exactmath.kernel_basis(a))
    )
