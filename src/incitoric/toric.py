"""Binomial ideal engine for lattice ideals of incidence matrices.

Everything here works on pure-difference binomials x^a - x^b, closed under
S-pairs and reduction, so no coefficient arithmetic beyond signs is ever
needed.  The saturated lattice ideal is computed by one Buchberger
completion in the default degree-reverse-lexicographic order, whose
cheapest variable is the last, from the binomials of the kernel's HNF
basis and of the pods (the octahedra): each binomial that joins the basis
drops the gcd of its two monomials, and its images under two generators
of S_n are queued and reduced like the seeds.  An ideal saturated by one
variable and closed under S_n, which is transitive on the variables, is
saturated by all of them (``saturate_binomials``).  Buchberger queues
S-pairs by criteria M and F of the Gebauer-Moeller update, so no pair is
remembered once it is popped.  Graver bases come from the same
saturating completion, run on the Lawrence lifting, Markov bases from
fiber connectivity and primitivity from a meet-in-the-middle search of a
box.

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
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, product
from math import prod
from operator import lshift
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import designs, exactmath
from .combinat import colex_rank, generator_tables
from .config import DEFAULT_CONFIG, RunConfig
from .errors import BadParameters, BudgetExceeded, CertificateError
from .incidence import IncidenceMatrix, build_matrix


# ---------------------------------------------------------------------------
# monomial orders and their packing


class _Overflow(Exception):
    """A packed field left its range; the call reruns at twice the width."""


class DegrevlexOrder:
    """Degree-reverse-lexicographic order on ``nvars`` variables, x_(nvars-1)
    the cheapest, and the packing of monomials, ``width`` bits a field,
    that makes it int order.

    On a degree tie the last variable where two monomials differ decides,
    the monomial with the smaller exponent there being larger.  Variable v
    has the field at bit ``offsets[v] = v * width``, holding ``top - m_v``;
    the degree sits at bit ``shift = nvars * width``.
    """

    def __init__(self, nvars: int, width: int = 8):
        self.nvars, self.width = nvars, width
        self.top = (1 << width - 1) - 1
        self.offsets = range(0, nvars * width, width)
        self.shift = nvars * width
        self.fields = (1 << self.shift) - 1
        units = self.fields // ((1 << width) - 1)  # a 1 in every field
        self.guard = units << width - 1
        self.one = units * self.top  # the monomial 1

    @cached_property
    def wider(self) -> "DegrevlexOrder":
        """The same order at twice the width."""
        if self.width == 64:
            raise CertificateError("an exponent outgrew the widest packing, 64 bits a field")
        return DegrevlexOrder(self.nvars, 2 * self.width)

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

    plus: tuple
    minus: tuple

    def __post_init__(self):
        if len(self.plus) != len(self.minus):
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

    def is_squarefree(self) -> bool:
        return all(x <= 1 for x in self.plus) and all(x <= 1 for x in self.minus)

    @classmethod
    def from_subsets(
        cls, nvars: int, plus: Iterable[Iterable[int]], minus: Iterable[Iterable[int]]
    ) -> "Binomial":
        """One variable per k-subset in colex order; each subset listed in
        ``plus`` or ``minus`` adds 1 to the exponent of its variable there.
        A subset whose colex rank is nvars or more raises BadParameters."""
        exps = []
        for subsets in (plus, minus):
            e = [0] * nvars
            for s in subsets:
                rank = colex_rank(tuple(sorted(s)))
                if rank >= nvars:
                    raise BadParameters(f"subset {tuple(s)} has colex rank {rank}, "
                                        f"outside the {nvars} variables")
                e[rank] += 1
            exps.append(tuple(e))
        return cls(*exps)

    @classmethod
    def from_vector(cls, u: Sequence[int]) -> "Binomial":
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        return cls(plus, minus)


@dataclass(frozen=True)
class BinomialBasis:
    """Binomials the library computed in the variables of ``matrix``.

    The kernel check here is the one certificate of every computed basis,
    whichever engine made it: an element outside the kernel of the matrix
    raises CertificateError.
    """

    kind: str  # markov | graver | groebner | octahedral
    elements: tuple
    matrix: IncidenceMatrix
    # reducers by order, filled by ``reducers``
    _packed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(any(self.matrix.matrix.mat_vec(b.vector)) for b in self.elements):
            raise CertificateError("basis element outside the kernel")

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
    ``order``; None if 0.

    Every reducer is oriented, lead above tail, and packed order is
    multiplicative, ``pack(a * b) = pack(a) + pack(b) - one``; so each
    tail step lowers the tail, which stays below the lead, and only the
    lead steps can cancel the binomial."""
    pair = _orient(a, b)
    while pair is not None and (r := _first_divisor(pair[0], reducers, order)) is not None:
        pair = _orient(_checked(pair[0] - r[0] + r[1], order), pair[1])
    if pair is None:
        return None
    lead, tail = pair
    # tail reduction for canonical output
    while (r := _first_divisor(tail, reducers, order)) is not None:
        tail = _checked(tail - r[0] + r[1], order)
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
    tables: Sequence[Sequence[int]] = (),
) -> list:
    """Reduced Groebner basis of the binomial ideal the generators span;
    given ``tables``, permutations of the variables generating a group
    transitive on them, that of the saturation of the ideal that
    homogeneous generators and their images span (``saturate_binomials``).

    Generators and result are (lead, tail) monomial pairs; zero input
    binomials are dropped.  The generators, and each S-pair when none is
    left, go through one FIFO queue: each is reduced to normal form against
    every element so far and, if nonzero, joins the basis.  With
    ``tables`` an element first drops the gcd of its two monomials, and
    its images under every table join the queue.  Pairs are popped by
    increasing lcm in the order, ties in the order the pairs were made.
    Each time an element h joins the basis, criteria M and F of Gebauer and
    Moeller ("On an installation of Buchberger's algorithm", 1988) keep,
    of the new pairs of h, one per lcm that no other new lcm strictly
    divides, and none of those whose lcm some new pair with coprime leads
    has.  Every element stays a reducer and a pair partner; the final
    interreduction leaves the reduced basis.

    The engine runs on monomials packed in ``order``, each lcm being its
    own heap key.  Raises BudgetExceeded, naming the pairs popped and the
    elements kept, when more than ``pair_budget`` pairs are popped.
    """
    return _on_pairs(lambda gens, order: _groebner(gens, order, pair_budget, tables), generators, order)


def _divide_gcd(a: int, b: int, order: DegrevlexOrder) -> tuple:
    """x^a and x^b, packed, divided by their gcd: lcm / x^b and lcm / x^a."""
    lcm = order.lcm(a, b)
    return lcm - b + order.one, lcm - a + order.one


def _groebner(generators: list, order: DegrevlexOrder, pair_budget: int, tables: Sequence = ()) -> list:
    guard, one, fields = order.guard, order.one, order.fields
    elements: list = []  # every element so far, by index, as a packed (lead, tail)
    heap: list = []  # (lcm, newer member, older member)
    queue = deque(generators)  # first in, first out: seeds are reduced before their images

    def add(h: tuple) -> None:
        if tables:
            h = _divide_gcd(*h, order)
            ms = [order.unpack(m) for m in h]
            queue.extend(tuple(order.pack(tuple(map(m.__getitem__, table))) for m in ms) for table in tables)
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

    popped = 0
    while queue or heap:
        if not queue:
            lcm, i, j = heapq.heappop(heap)
            popped += 1
            if popped > pair_budget:
                raise BudgetExceeded(f"pair queue budget of {pair_budget} exhausted: {popped} pairs "
                                     f"popped, basis of {len(elements)} elements")
            (ai, bi), (aj, bj) = elements[i], elements[j]
            queue.append((_checked(lcm - ai + bi, order), _checked(lcm - aj + bj, order)))
        nf = _normal_form(*queue.popleft(), elements, order)
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


def saturate_binomials(
    generators: Iterable[tuple], tables: Sequence[Sequence[int]], config: RunConfig = DEFAULT_CONFIG
) -> list:
    """Reduced degrevlex Groebner basis, as (lead, tail) monomial pairs, of
    Sat(J), the saturation by the product of all variables of the ideal J
    spanned by the homogeneous binomials ``generators`` and by their images
    under the group G that the permutation ``tables`` of the variables
    generate; empty for no generators.  There are ``len(tables[0])``
    variables, and a monomial m read through a table, (m[table[0]],
    m[table[1]], ...), is its image; for the lattice ideal of an incidence
    matrix the tables are the two of ``combinat.generator_tables``.

    The orbit of x_(N-1) under G must be every variable, or BadParameters
    is raised before any completion.  Then one ``buchberger`` completion
    in the default order, where x_(N-1) is the cheapest variable, given
    the tables: each element that joins the basis drops the gcd of its
    monomials, and its images under every table are reduced like the
    generators.  Before returning, the basis is re-checked: every element
    has coprime monomials, and every image of it under every table reduces
    to zero against it; CertificateError otherwise.

    Soundness.  G permutes the variables and keeps J, so it keeps Sat(J),
    and Sat(J) is saturated by every variable; so each element, stripped
    of its gcd or imaged, stays in Sat(J), and the final basis spans an
    ideal K between J and Sat(J).  That basis is a Groebner basis of K, as
    every S-pair reduced to zero.  Its elements are homogeneous with
    coprime monomials, so in degrevlex no lead term is divisible by
    x_(N-1), and K is saturated by x_(N-1) (Bayer and Stillman, Invent.
    Math. 87, 1987; Sturmfels, *Groebner bases and convex polytopes*, 1996,
    ch. 12).  The images of its basis under every table reduce to zero,
    so K is G-invariant.  G is transitive on the variables, so
    K : x_v^inf = sigma(K : x_(N-1)^inf) = K for every variable x_v and a
    sigma in G taking x_(N-1) to x_v.  So K is saturated and contains J,
    hence Sat(J): K = Sat(J).  (Compare Bigatti, La Scala and Robbiano,
    "Computing toric ideals", 1999, and Aschenbrenner and Hillar, "An
    algorithm for finding symmetric Groebner bases in infinite dimensional
    rings", ISSAC 2008.)
    """
    nvars = len(tables[0])
    orbit, new = set(), {nvars - 1}
    while new:
        orbit |= new
        new = {table[v] for table in tables for v in new} - orbit
    if len(orbit) < nvars:
        raise BadParameters(f"the orbit of x_{nvars - 1} under the tables holds {len(orbit)} of the "
                            f"{nvars} variables, not every one")
    order = DegrevlexOrder(nvars)
    basis = buchberger(generators, order, config.pair_queue_budget, tables)
    if any(x and y for lead, tail in basis for x, y in zip(lead, tail)):
        raise CertificateError("a saturated basis element has monomials with a common factor")
    images = [tuple(tuple(map(m.__getitem__, table)) for m in g) for table in tables for g in basis]
    if _on_pairs(lambda packed, order: [(a, b) for a, b in packed[len(basis):] if _normal_form(
            a, b, packed[:len(basis)], order) is not None], basis + images, order):
        raise CertificateError("an image of the saturated basis under a table does not reduce to zero")
    return basis


# ---------------------------------------------------------------------------
# lattice ideals for incidence matrices

def _binomial_pairs(vectors: Iterable[Sequence[int]]) -> list:
    return [(b.plus, b.minus) for b in map(Binomial.from_vector, vectors)]


def lattice_ideal_groebner(
    inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG
) -> BinomialBasis:
    """Reduced degrevlex Groebner basis of the saturated lattice ideal I_L.

    The saturation starts from the binomials of the kernel's HNF basis B
    and of the triple's pods.  Every one of them lies in I_L, and so do
    their images under S_n, which permutes the columns of ``inc`` and keeps
    L.  As their exponent vectors span L, the saturation of the ideal they
    span is I_L (Sturmfels 1996, ch. 12); ``saturate_binomials`` computes
    it.  Pods exist exactly when the kernel is nonzero, k + t + 1 <= n.

    Every binomial met is homogeneous, as the saturation needs: each
    column of an incidence matrix sums to C(k, t), so every kernel vector
    sums to 0 (Sturmfels 1996, ch. 4).  The kernel check of
    ``BinomialBasis`` therefore certifies homogeneity too.
    """
    a = inc.matrix
    basis = exactmath.lattice_from_generators(a.cols, exactmath.kernel_basis(a))
    seeds = _binomial_pairs(chain(basis, designs.pods(inc.n, inc.k, inc.t)))
    pairs = saturate_binomials(seeds, generator_tables(inc.n, inc.k), config)
    return BinomialBasis("groebner", tuple(Binomial(*pair) for pair in pairs), inc)


def reduce_to_zero(b: Binomial, basis: BinomialBasis) -> bool:
    """Ideal membership by normal-form reduction against a Groebner basis.

    Only a Groebner basis makes a zero normal form a certificate, and the
    binomial must live in the basis's variables: BadParameters otherwise.
    """
    cols = basis.matrix.matrix.cols
    if basis.kind != "groebner" or len(b.plus) != cols:
        raise BadParameters(f"membership of a binomial in {len(b.plus)} variables needs a "
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


def _component(start: int, moves: list, budget: int, order: DegrevlexOrder, candidate: int) -> set:
    """Packed monomials reachable from ``start``, the lead of the Groebner
    basis element with index ``candidate``, by applying the packed moves
    non-negatively."""
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
            raise BudgetExceeded(f"fiber component budget exhausted: over fiber_budget {budget}, "
                                 f"{len(seen)} monomials reached at candidate index {candidate}")
    return seen


def markov_from_groebner(gb: BinomialBasis, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Inclusion-minimal Markov basis extracted from a Groebner basis.

    Candidates are processed in the order of their packed (lead, tail)
    pairs, ties in basis order: the degree sits above every packed field,
    so for homogeneous elements this is by increasing degree.  One is kept
    exactly when its two monomials are not yet connected in their fiber by
    the moves accepted so far, which is ideal membership in the graded
    piece.

    Only a generating set of the lattice ideal makes the kept moves a
    Markov basis, so any other kind of basis raises BadParameters.
    """
    if gb.kind != "groebner":
        raise BadParameters(f"a Markov basis is extracted from a groebner basis, not {gb.kind} binomials")

    def run(order: DegrevlexOrder) -> list:
        accepted, moves = [], []
        for (lead, tail), i, cand in sorted(zip(gb.reducers(order), count(), gb.elements)):
            if tail not in _component(lead, moves, config.fiber_budget, order, i):
                accepted.append(cand)
                moves.append((lead, tail))
        return accepted

    return BinomialBasis("markov", tuple(_widening(run, gb.order)), gb.matrix)


def minimal_markov(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Inclusion-minimal Markov basis of the lattice ideal."""
    return markov_from_groebner(lattice_ideal_groebner(inc, config), config)


# ---------------------------------------------------------------------------
# Graver bases and primitivity


def graver_basis(inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> BinomialBasis:
    """Graver basis of the lattice ideal, read off the reduced Groebner
    basis of its Lawrence lifting.

    Each kernel basis vector u is lifted to x^(u+) y^(u-) - x^(u-) y^(u+)
    in 2N variables, x_0 .. x_(N-1) then y_0 .. y_(N-1), and one
    ``saturate_binomials`` call saturates them, with the two tables of
    ``combinat.generator_tables`` acting on both halves alike and the swap
    x_i <-> y_i as a third table.  Every element returned must have the
    form x^a y^b - x^b y^a (CertificateError otherwise); it projects to
    x^a - x^b, and the projections, oriented and sorted in the default
    order of the N variables, form the basis.  The pairs the saturation
    pops count against ``pair_queue_budget``.

    Soundness.  The lifted vectors (u, -u) span the Lawrence lattice
    {(u, -u) : u in L}, which is saturated because L, a kernel, is; so the
    saturation of their ideal is the toric ideal of the Lawrence lifting
    [A 0; I I] (Sturmfels, *Groebner bases and convex polytopes*, 1996,
    ch. 12).  S_n on both halves and the swap keep that lattice, and with
    the swap the group they generate is transitive on the 2N variables, as
    ``saturate_binomials`` needs.  For a Lawrence lifting every reduced
    Groebner basis is its Graver basis (Sturmfels 1996, Thm 7.1), whose
    elements are the lifts of the primitive vectors of L, since (v, -v)
    fits conformally inside (u, -u) exactly when v fits inside u.  So the
    projection is the Graver basis of L, and the kernel check of
    ``BinomialBasis`` certifies that each element lies in L.
    """
    cols = inc.matrix.cols
    tables = [table + tuple(cols + v for v in table) for table in generator_tables(inc.n, inc.k)]
    tables.append(tuple(range(cols, 2 * cols)) + tuple(range(cols)))
    lifted = [(p + m, m + p) for p, m in _binomial_pairs(exactmath.kernel_basis(inc.matrix))]
    pairs = saturate_binomials(lifted, tables, config)
    if any(tail != lead[cols:] + lead[:cols] for lead, tail in pairs):
        raise CertificateError("a Lawrence basis element is not of the form x^a y^b - x^b y^a")
    pairs = _on_pairs(lambda packed, _: sorted(_orient(a, b) for a, b in packed),
                      [(lead[:cols], lead[cols:]) for lead, _ in pairs], DegrevlexOrder(cols))
    return BinomialBasis("graver", tuple(Binomial(*pair) for pair in pairs), inc)


def is_primitive(b: Binomial, inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG) -> bool:
    """No other kernel vector fits componentwise inside (plus, minus).

    Decided by meet-in-the-middle over the box 0 <= v+ <= plus,
    0 <= v- <= minus: the support of u is cut in two, each half walks the
    points v of its half-box with their sums A·v, and a left and a right
    point whose sums cancel make a kernel vector in the box.  The left
    half keeps at most two points per sum.  ``box_budget`` bounds the
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
    witnesses: dict = {}  # sum key -> up to two left half-box points
    for key, point in _half_box(left, u, keys):
        found = witnesses.setdefault(key, [])
        if len(found) < 2:
            found.append(point)
    # a right point rules out at most one partner (0 when it is 0, u's
    # left half when it is u's right half), so two per key suffice
    for key, point in _half_box(right, u, keys):
        for partner in witnesses.get(-key, ()):
            v = [0] * len(u)
            for c, x in zip(support, partner + point):
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


def _half_box(coords: Sequence[int], u: Sequence[int], keys: dict) -> Iterator[tuple]:
    """(packed sum A·v, v) for each point v of the half-box of ``coords``,
    v_c between 0 and u_c, the last coordinate varying fastest: the sum is
    that of the terms v_c * A_c, walked by the same product as v."""
    steps = [range(min(u[c], 0), max(u[c], 0) + 1) for c in coords]
    terms = product(*([x * keys[c] for x in step] for c, step in zip(coords, steps)))
    return zip(map(sum, terms), product(*steps))


# ---------------------------------------------------------------------------
# octahedral generators and saturation identity


def octahedral_generators(n: int, k: int, t: int) -> BinomialBasis:
    """One squarefree binomial per pod, plus part the positive support."""
    inc = build_matrix(n, k, t)
    pairs = _on_pairs(lambda packed, _: [_orient(a, b) for a, b in packed],
                      _binomial_pairs(designs.pods(n, k, t)), DegrevlexOrder(inc.matrix.cols))
    return BinomialBasis("octahedral", tuple(Binomial(*pair) for pair in pairs), inc)


def saturation_equals(
    basis: BinomialBasis, inc: IncidenceMatrix, config: RunConfig = DEFAULT_CONFIG
) -> bool:
    """Does saturating the span of ``basis`` by all variables give the
    full lattice ideal I?

    Call the saturation J.  J lies in I when every element of its Groebner
    basis is a kernel binomial, which the kernel check of ``BinomialBasis``
    certifies (CertificateError otherwise).  I lies in J when the binomials
    of a kernel lattice basis reduce to zero against that basis, as
    ``reduce_to_zero`` reduces: I is the saturation of their ideal, and J
    is saturated.  ``basis`` is checked against ``inc`` first
    (BadParameters otherwise), as ``inc`` need not be its matrix, and so is
    its S_n-invariance: ``saturate_binomials`` saturates the span of the
    generators and their images, which is J only when the generators are
    closed, up to sign, under the generators of S_n.
    """
    a = inc.matrix
    vectors = {b.vector for b in basis.elements}
    if any(any(a.mat_vec(u)) for u in vectors):
        raise BadParameters("generator outside the kernel")
    signed, tables = vectors | {tuple(-x for x in u) for u in vectors}, generator_tables(inc.n, inc.k)
    if any(tuple(map(u.__getitem__, table)) not in signed for table in tables for u in vectors):
        raise BadParameters("generators not closed under S_n, up to sign")
    pairs = saturate_binomials([(b.plus, b.minus) for b in basis.elements], tables, config)
    j = BinomialBasis("groebner", tuple(Binomial(*pair) for pair in pairs), inc)
    return all(_reduces_to_zero(b, j) for b in map(Binomial.from_vector, exactmath.kernel_basis(a)))
