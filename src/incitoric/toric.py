"""Binomial ideal engine for lattice ideals of incidence matrices.

Everything here works on pure-difference binomials x^a - x^b, closed under
S-pairs and reduction, so no coefficient arithmetic beyond signs is ever
needed.  The saturated lattice ideal is computed by the standard loop:
start from the binomials of the kernel's HNF basis and of the pods (the
octahedra) and saturate one variable at a time, each round re-running
Buchberger in a degree-reverse-lexicographic order that makes the active
variable cheapest and then stripping its common power from every basis
element.  The rounds of the basis's unit variables, each +-1 in one basis
vector and 0 in the others, are skipped: once the other variables are
inverted, the basis binomials make every unit variable a unit, so the
ideal of the basis already agrees with the lattice ideal there (Hosten and
Sturmfels, "GRIN", IPCO 1995).  The last round runs in the default order,
so interreduction alone finishes the reduced basis.  Buchberger queues
S-pairs by criteria M and F of the Gebauer-Moeller update, so no pair is
remembered once it is popped.  Graver bases come from a completion on
kernel vectors, Markov bases from fiber connectivity and primitivity from
a meet-in-the-middle search of a box.

At the boundary a monomial is an exponent tuple indexed by colex subset
rank.  In the default order the colex-first variable is the most expensive
and ties are broken reverse-lexicographically from the cheapest end.

Inside the engine a monomial is one int, packed by its order (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Each variable v gets a field of W bits
holding K - m_v, with K = 2^(W-1) - 1; the cheapest variable has the most
significant field and the degree sits above all fields.  Degrevlex order
is then int order, m - lead + tail is the same sum of packed ints, d
divides m exactly when ((d | G) - m) & G == G for the mask G of the top
bit of every field, the lcm is the field-wise minimum of the complements,
and two monomials are coprime exactly when their lcm packs to
a + b - (the packed 1).  The top bit of each field is a guard bit: clear
in every packed monomial, set by any sum that takes a field out of range.
Every sum that can overflow is checked, and on an overflow the whole call
reruns in the same order with W doubled, from 8 bits up to 64; beyond 64
it raises CertificateError.  Nothing wraps silently.  Orienting a
binomial, its larger monomial first, is one int comparison of its packed
monomials, for Buchberger, the octahedral generators and the Markov
candidates alike.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import prod
from operator import lshift
from typing import Callable, Iterable, Optional, Sequence

from . import designs, exactmath
from .combinat import colex_rank
from .config import DEFAULT_CONFIG, RunConfig
from .errors import BadParameters, BudgetExceeded, CertificateError
from .incidence import IncidenceMatrix


# ---------------------------------------------------------------------------
# monomial orders and their packing


class _Overflow(Exception):
    """A packed field left its range; the call reruns at twice the width."""


class DegrevlexOrder:
    """Degree-reverse-lexicographic order with a configurable cheapest end,
    and the packing of monomials, ``width`` bits a field, that makes it int
    order.

    ``scan`` lists variable indices from cheapest to most expensive; on a
    degree tie the first scanned variable where two monomials differ
    decides, the monomial with the smaller exponent there being larger.
    The i-th scanned variable v has the field at bit ``offsets[v] =
    (nvars - 1 - i) * width``, holding ``top - m_v``; the degree sits at
    bit ``shift = nvars * width``.
    """

    def __init__(self, nvars: int, cheapest: Optional[int] = None, width: int = 8):
        if cheapest is not None and not 0 <= cheapest < nvars:
            raise BadParameters("cheapest variable out of range")
        rest = tuple(v for v in range(nvars - 1, -1, -1) if v != cheapest)
        self.scan = rest if cheapest is None else (cheapest,) + rest
        self.nvars, self.width = nvars, width
        self.top = (1 << width - 1) - 1
        self.offsets = [(nvars - 1 - self.scan.index(v)) * width for v in range(nvars)]
        self.shift = nvars * width
        self.fields = (1 << self.shift) - 1
        self.units = self.fields // ((1 << width) - 1)  # a 1 in every field
        self.guard = self.units << width - 1
        self.one = self.units * self.top  # the monomial 1

    @cached_property
    def wider(self) -> "DegrevlexOrder":
        """The same order at twice the width."""
        if self.width == 64:
            raise CertificateError("an exponent outgrew the widest packing, 64 bits a field")
        return DegrevlexOrder(self.nvars, self.scan[0] if self.scan else None, 2 * self.width)

    def pack(self, m: Sequence[int]) -> int:
        """The packed monomial x^m; _Overflow if an exponent exceeds top."""
        if len(m) != self.nvars or min(m, default=0) < 0:
            raise BadParameters(f"not an exponent vector in {self.nvars} variables: {m}")
        if max(m, default=0) > self.top:
            raise _Overflow
        return (sum(m) << self.shift) + self.one - sum(map(lshift, m, self.offsets))

    def unpack(self, q: int) -> tuple:
        return tuple(self.top - (q >> o & (1 << self.width) - 1) for o in self.offsets)

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of packed a and b: at each field the smaller
        complement, and above the fields the degree, nvars * top minus
        their sum."""
        ge = ((a | self.guard) - b) & self.guard  # where a's complement is at least b's
        low = (a ^ (a ^ b) & (ge - (ge >> self.width - 1))) & self.fields
        raw = low.to_bytes(self.shift // 8, sys.byteorder)
        if self.width > 8:
            raw = memoryview(raw).cast("HIQ"[(self.width // 16).bit_length() - 1])
        return (self.nvars * self.top - sum(raw)) << self.shift | low


def _widening(run: Callable, order: DegrevlexOrder):
    """run(order), rerun in the same order at twice the width as long as a
    packed field overflows."""
    while True:
        try:
            return run(order)
        except _Overflow:
            order = order.wider


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


@dataclass(frozen=True)
class BinomialBasis:
    kind: str  # markov | graver | groebner | octahedral
    elements: tuple
    matrix: IncidenceMatrix
    # reducers by order, filled by ``reducers``
    _packed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(any(self.matrix.matrix.mat_vec(b.vector)) for b in self.elements):
            raise BadParameters("basis element outside the kernel")

    @cached_property
    def order(self) -> DegrevlexOrder:
        """The default order of the basis's variables."""
        return DegrevlexOrder(self.matrix.matrix.cols)

    def reducers(self, order: DegrevlexOrder) -> list:
        """The elements packed in ``order`` as (lead, tail) pairs, made once
        per order and kept on the basis."""
        if order not in self._packed:
            self._packed[order] = [
                _orient(order.pack(b.plus), order.pack(b.minus)) for b in self.elements
            ]
        return self._packed[order]

    def degree_multiset(self) -> dict:
        return dict(Counter(b.degree for b in self.elements))


# ---------------------------------------------------------------------------
# raw engine on packed monomial pairs


def _orient(a: int, b: int) -> Optional[tuple]:
    """(larger, smaller) of two packed monomials; None if they are equal."""
    if a == b:
        return None
    return (a, b) if a > b else (b, a)


def _first_divisor(m: int, reducers: Sequence[tuple], order: DegrevlexOrder) -> Optional[tuple]:
    """The first reducer whose lead divides the packed m: its complement is
    at least m's at every field, so no field borrows its guard bit."""
    guard = order.guard
    x = guard - (m & order.fields)  # kept positive: ints are slower below 0
    for r in reducers:
        if (r[0] + x) & guard == guard:
            return r
    return None


def _checked(q: int, order: DegrevlexOrder) -> int:
    """q, a packed sum, unless a field overflowed and set its guard bit."""
    if q & order.guard:
        raise _Overflow
    return q


def _normal_form(a: int, b: int, reducers: Sequence[tuple], order: DegrevlexOrder):
    """Full normal form of x^a - x^b against the reducers, all packed in
    ``order``; None if 0."""
    pair = _orient(a, b)
    while pair is not None and (r := _first_divisor(pair[0], reducers, order)) is not None:
        pair = _orient(_checked(pair[0] - r[0] + r[1], order), pair[1])
    if pair is None:
        return None
    lead, tail = pair
    # tail reduction for canonical output
    while (r := _first_divisor(tail, reducers, order)) is not None:
        tail = _checked(tail - r[0] + r[1], order)
        if tail == lead:
            return None
    return lead, tail


def _on_pairs(engine: Callable, pairs: Iterable[tuple], order: DegrevlexOrder) -> list:
    """engine(packed pairs, order) on monomial pairs, packed in ``order``
    at the least width that holds every exponent met, and unpacked."""
    pairs = [(tuple(a), tuple(b)) for a, b in pairs]

    def run(order: DegrevlexOrder) -> list:
        out = engine([(order.pack(a), order.pack(b)) for a, b in pairs], order)
        return [(order.unpack(lead), order.unpack(tail)) for lead, tail in out]

    return _widening(run, order)


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

    The engine runs on monomials packed in ``order``, each lcm being its
    own heap key.  Raises BudgetExceeded, naming the pairs popped and the
    elements kept, when more than ``pair_budget`` pairs are popped.
    """
    return _on_pairs(lambda gens, order: _groebner(gens, order, pair_budget), generators, order)


def _groebner(generators: list, order: DegrevlexOrder, pair_budget: int) -> list:
    guard, one, fields = order.guard, order.one, order.fields
    elements: list = []  # every element so far, by index, as a packed (lead, tail)
    heap: list = []  # (lcm, newer member, older member)

    def add(h: tuple) -> None:
        lead = h[0]
        t = len(elements)
        # criteria M and F: per lcm, its first partner and whether any is coprime
        new: dict = {}
        for k, (glead, _) in enumerate(elements):
            lcm = order.lcm(glead, lead)
            new.setdefault(lcm, [k, False])[1] |= lcm == glead + lead - one
        # a strict divisor has a lower degree, and distinct lcms of one
        # degree never divide each other: by increasing degree, each lcm
        # need only be tested against the minimal ones found before it
        minimal: list = []
        for lcm in sorted(new):
            x = guard - (lcm & fields)
            for low in minimal:
                if (low + x) & guard == guard:
                    break
            else:
                minimal.append(lcm)
                k, coprime = new[lcm]
                if not coprime:
                    heapq.heappush(heap, (lcm, t, k))
        elements.append(h)

    for a, b in generators:
        pair = _orient(a, b)
        if pair is not None and pair not in elements:
            add(pair)

    popped = 0
    while heap:
        lcm, i, j = heapq.heappop(heap)
        popped += 1
        if popped > pair_budget:
            raise BudgetExceeded(f"pair queue budget of {pair_budget} exhausted: {popped} pairs "
                                 f"popped, basis of {len(elements)} elements")
        (ai, bi), (aj, bj) = elements[i], elements[j]
        s1, s2 = _checked(lcm - ai + bi, order), _checked(lcm - aj + bj, order)
        nf = _normal_form(s1, s2, elements, order)
        if nf is not None:
            add(nf)

    return _interreduce(elements, order)


def _interreduce(pairs: Sequence[tuple], order: DegrevlexOrder) -> list:
    """Reduced basis, as packed (lead, tail) pairs, of the packed pairs."""
    kept: list = []
    for r in sorted(pairs, key=lambda r: r[0]):
        if _first_divisor(r[0], kept, order) is None:
            kept.append(r)
    reduced = (_normal_form(lead, tail, kept[:i] + kept[i + 1 :], order)
               for i, (lead, tail) in enumerate(kept))
    return sorted(nf for nf in reduced if nf is not None)


def strip_variable(pair: tuple, v: int) -> tuple:
    m = min(pair[0][v], pair[1][v])
    return tuple(e[:v] + (e[v] - m,) + e[v + 1 :] for e in pair)


def saturate_binomials(
    generators: Iterable[tuple], nvars: int, config: RunConfig = DEFAULT_CONFIG, skip: Iterable[int] = ()
) -> list:
    """Reduced degrevlex Groebner basis, as (lead, tail) monomial pairs, of
    the saturation of the binomial ideal the generators span by the product
    of all variables but those in ``skip``; empty for no generators.

    One round per variable in ascending colex order: Groebner basis in the
    order making that variable cheapest, then strip its common power from
    every element.  Each round packs its generators afresh, since the
    cheapest variable, and with it the packing, moves.  Sound for
    homogeneous binomial ideals.  A BudgetExceeded also names the round it
    stopped in by its variable.

    The last round, that of x_(nvars-1), runs in the default order and is
    never skipped.  For a homogeneous ideal, stripping that variable from a
    reduced degrevlex basis leaves a Groebner basis of the saturation
    (Sturmfels, *Groebner bases and convex polytopes*, 1996, ch. 12), so
    interreducing it finishes the job without another Buchberger run.

    Skipping loses nothing when the generators contain the binomials of a
    lattice basis B and every skipped variable is a unit variable of B
    (``_unit_variables``): the saturation by the other variables is then
    already the lattice ideal, by the lemma in ``lattice_ideal_groebner``.
    """
    gens = [(tuple(a), tuple(b)) for a, b in generators]
    skip = frozenset(skip) - {nvars - 1}  # the finish needs the default order's round
    for v in sorted(set(range(nvars)) - skip):
        order = DegrevlexOrder(nvars, cheapest=v)
        try:
            gb = buchberger(gens, order, config.pair_queue_budget)
        except BudgetExceeded as e:
            raise BudgetExceeded(f"saturation round for variable {v} of {nvars}: {e}") from e
        gens = [strip_variable(g, v) for g in gb]
    return _on_pairs(_interreduce, gens, DegrevlexOrder(nvars))


# ---------------------------------------------------------------------------
# lattice ideals for incidence matrices

def _binomial_pairs(vectors: Iterable[Sequence[int]]) -> list:
    return [(b.plus, b.minus) for b in map(Binomial.from_vector, vectors)]


def _unit_variables(vectors: Sequence[Sequence[int]]) -> frozenset:
    """The unit variables of a lattice basis, at most one per vector: for
    each vector, the first coordinate where it is +-1 and every other
    vector is 0.  For a column HNF basis these are its pivots equal to 1."""
    support = Counter(c for v in vectors for c, x in enumerate(v) if x)
    units = (next((c for c, x in enumerate(v) if x in (1, -1) and support[c] == 1), None)
             for v in vectors)
    return frozenset(c for c in units if c is not None)


def lattice_ideal_groebner(
    inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG
) -> BinomialBasis:
    """Reduced degrevlex Groebner basis of the saturated lattice ideal I_L.

    The saturation starts from the binomials of the kernel's HNF basis B
    and of the triple's pods, all in I_L, and skips the rounds of the unit
    variables of B: coordinates where exactly one vector b of B is nonzero,
    with entry +-1.  Lemma (Hosten and Sturmfels, "GRIN", IPCO 1995;
    Sturmfels 1996, ch. 12): if J lies between I_B and I_L, then
    J : (product of the other variables)^inf = I_L.  Sketch: invert the
    other variables.  The binomial of b then makes its unit variable a
    Laurent monomial in them, so every variable is a unit modulo I_B, and
    the quotient by I_B is the Laurent ring modulo the lattice L, which is
    the quotient by I_L.  Contracting back gives I_L, as I_L is saturated.
    Pods exist exactly when the kernel is nonzero, k + t + 1 <= n.
    """
    a = inc.matrix
    basis = exactmath.lattice_from_generators(a.cols, exactmath.kernel_basis(a))
    seeds = _binomial_pairs(chain(basis, designs.pods(inc.n, inc.k, inc.t)))
    gb = saturate_binomials(seeds, a.cols, config, _unit_variables(basis))
    elements = tuple(Binomial(a.cols, lead, tail) for lead, tail in gb)
    if not all(b.is_homogeneous() for b in elements):
        raise BadParameters("inhomogeneous element in a lattice ideal basis")
    return BinomialBasis("groebner", elements, inc)


def reduce_to_zero(b: Binomial, basis: BinomialBasis) -> bool:
    """Ideal membership by normal-form reduction against a Groebner basis.

    Only a Groebner basis makes a zero normal form a certificate, and the
    binomial must live in the basis's variables: BadParameters otherwise.
    """
    cols = basis.matrix.matrix.cols
    if basis.kind != "groebner" or b.var_count != cols:
        raise BadParameters(f"membership of a binomial in {b.var_count} variables needs a "
                            f"groebner basis in as many, not a {basis.kind} basis in {cols}")
    return _reduces_to_zero(b, basis)


def _reduces_to_zero(b: Binomial, basis: BinomialBasis) -> bool:
    """The normal form of b against the reducers of ``basis`` is 0: the one
    reduction of ``reduce_to_zero`` and ``saturation_equals``.  The second
    builds its basis itself, so it needs no checks, and the benchmark's
    tracer counts the calls of the first as membership queries."""
    return _widening(lambda order: _normal_form(
        order.pack(b.plus), order.pack(b.minus), basis.reducers(order), order) is None, basis.order)


# ---------------------------------------------------------------------------
# Markov bases


def _component(start: int, moves: list, budget: int, order: DegrevlexOrder) -> set:
    """Packed monomials reachable from ``start`` by applying the packed
    moves non-negatively."""
    guard = order.guard
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        x = guard - (u & order.fields)
        for plus, minus in moves:
            for sub, add in ((plus, minus), (minus, plus)):
                if (sub + x) & guard == guard and (w := _checked(u - sub + add, order)) not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) > budget:
            raise BudgetExceeded("fiber component budget exhausted")
    return seen


def markov_from_groebner(gb: BinomialBasis, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Inclusion-minimal Markov basis extracted from a Groebner basis.

    Candidates are processed in the order of their packed (lead, tail)
    pairs: the degree sits above every packed field, so for homogeneous
    elements this is by increasing degree.  One is kept exactly when its
    two monomials are not yet connected in their fiber by the moves
    accepted so far, which is ideal membership in the graded piece.
    """

    def run(order: DegrevlexOrder) -> list:
        accepted, moves = [], []
        for (lead, tail), cand in sorted(zip(gb.reducers(order), gb.elements), key=lambda r: r[0]):
            if tail not in _component(lead, moves, config.fiber_budget, order):
                accepted.append(cand)
                moves.append((lead, tail))
        return accepted

    return BinomialBasis("markov", tuple(_widening(run, gb.order)), gb.matrix)


def minimal_markov(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Inclusion-minimal Markov basis of the lattice ideal."""
    return markov_from_groebner(lattice_ideal_groebner(inc, config), config)


# ---------------------------------------------------------------------------
# Graver bases by completion


def _conformal_remainder(s: tuple, moves: Sequence[tuple], order: DegrevlexOrder) -> Optional[tuple]:
    """Subtract packed moves that fit conformally inside the packed move
    ``s``, cycling through the moves from the one after the last move
    subtracted, until a whole cycle subtracts none; None if nothing is
    left.  These are the subtractions of whole passes over the moves,
    without the tail of the last pass, which can subtract nothing."""
    guard, one, fields = order.guard, order.one, order.fields
    sp, sm = s
    n = len(moves)
    j = n - 1  # the last move subtracted
    while True:
        x0, x1, x = guard - (sp & fields), guard - (sm & fields), guard - (sp + sm - one & fields)
        for idx in chain(range(j + 1, n), range(j + 1)):
            hp, hm = moves[idx]
            if (hp + x) & guard != guard:  # not even inside plus * minus
                continue
            if (hp + x0) & (hm + x1) & guard != guard:
                if (hm + x0) & (hp + x1) & guard != guard:
                    continue
                hp, hm = hm, hp
            sp, sm, j = sp - hp + one, sm - hm + one, idx
            break
        else:
            return None if sp == sm == one else (sp, sm)


def graver_basis(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Graver basis of the lattice ideal by completion on kernel vectors.

    A move, a pair (plus, minus) of packed monomials, stands for itself
    and its negative.  Starting from a kernel basis, the sum of every two
    moves whose signs conflict somewhere is reduced by the moves that fit
    conformally inside it, and a nonzero remainder becomes a new move
    (Hemmecke, "On the positive sum property and the computation of Graver
    test sets", 2003).  The moves then have the positive sum property, so
    the conformally minimal ones are the primitive vectors.  Signs
    conflict exactly where opposite halves share a variable, and a move
    fits when both its halves divide, each one packed test.  Each pair
    reduced counts against ``pair_queue_budget``.
    """
    a = inc.matrix
    kernel = _binomial_pairs(exactmath.kernel_basis(a))

    def run(order: DegrevlexOrder) -> list:
        guard, one, units = order.guard, order.one, order.units
        moves = [(order.pack(p), order.pack(m)) for p, m in kernel]
        pairs = 0
        for i, (fp, fm) in enumerate(moves):  # grows while iterated
            # adding a 1 to every field sets the guard bits of the zero exponents
            zp, zm = fp + units, fm + units
            for gp, gm in moves[:i]:
                for hp, hm in ((gp, gm), (gm, gp)):
                    if (zp | hm + units) & (zm | hp + units) & guard == guard:
                        continue
                    pairs += 1
                    if pairs > config.pair_queue_budget:
                        raise BudgetExceeded(f"pair queue budget of {config.pair_queue_budget} "
                                             f"exhausted: {pairs} sums reduced, {len(moves)} moves")
                    plus, minus = _checked(fp + hp - one, order), _checked(fm + hm - one, order)
                    # dividing both by their gcd, (plus + minus) / lcm, leaves the halves
                    lcm = order.lcm(plus, minus)
                    r = _conformal_remainder((lcm - minus + one, lcm - plus + one), moves, order)
                    if r is not None:
                        moves.append(r)
        # h fits conformally inside g exactly when subtracting it changes g
        minimal = sorted(_orient(*g) for g in moves if not any(
            h is not g and _conformal_remainder(g, [h], order) != g for h in moves))
        return [Binomial(a.cols, order.unpack(lead), order.unpack(tail)) for lead, tail in minimal]

    return BinomialBasis("graver", tuple(_widening(run, DegrevlexOrder(a.cols))), inc)


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
    from .incidence import build_matrix

    inc = build_matrix(n, k, t)
    cols = inc.matrix.cols
    pairs = _on_pairs(lambda packed, _: [_orient(a, b) for a, b in packed],
                      _binomial_pairs(designs.pods(n, k, t)), DegrevlexOrder(cols))
    return BinomialBasis("octahedral", tuple(Binomial(cols, *pair) for pair in pairs), inc)


def saturation_equals(
    basis: BinomialBasis, inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG
) -> bool:
    """Does saturating the span of ``basis`` by all variables give the
    full lattice ideal I?

    Call the saturation J.  J lies in I when every element of its Groebner
    basis is a kernel binomial, which is re-checked (CertificateError
    otherwise).  I lies in J when the binomials of a kernel lattice basis
    reduce to zero against that basis, as ``reduce_to_zero`` reduces: I is
    the saturation of their ideal, and J is saturated.
    """
    a = inc.matrix
    if any(any(a.mat_vec(b.vector)) for b in basis.elements):
        raise BadParameters("generator outside the kernel")
    gb_j = saturate_binomials([(b.plus, b.minus) for b in basis.elements], a.cols, config)
    if any(any(a.mat_vec([x - y for x, y in zip(lead, tail)])) for lead, tail in gb_j):
        raise CertificateError("saturation produced a binomial outside the kernel")
    j = BinomialBasis("groebner", tuple(Binomial(a.cols, *pair) for pair in gb_j), inc)
    return all(_reduces_to_zero(b, j) for b in map(Binomial.from_vector, exactmath.kernel_basis(a)))
