"""Binomial ideal engine: Groebner, Markov, Graver, primitivity, fibers."""

import os
import subprocess
import sys
from itertools import combinations, product
from math import prod
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incitoric
from incitoric import designs, exactmath as em, toric
from incitoric.combinat import colex_rank, generator_tables, subsets_colex
from incitoric.config import RunConfig
from incitoric.errors import BadParameters, BudgetExceeded, CertificateError
from incitoric.exactmath import IntMatrix
from incitoric.incidence import build_matrix


binom = toric.Binomial.from_subsets


QUARTIC = (
    [(1, 3, 6), (2, 4, 6), (1, 4, 5), (2, 3, 5)],
    [(1, 4, 6), (2, 3, 6), (2, 4, 5), (1, 3, 5)],
)
SEXTIC = (
    [(1, 4, 6), (1, 5, 6), (2, 3, 6), (1, 2, 3), (3, 4, 5), (2, 4, 5)],
    [(1, 3, 6), (1, 2, 6), (4, 5, 6), (1, 4, 5), (2, 3, 4), (2, 3, 5)],
)


@pytest.fixture(scope="module")
def inc632():
    return build_matrix(6, 3, 2)


@pytest.fixture(scope="module")
def gb632(inc632):
    return toric.lattice_ideal_groebner(inc632)


@pytest.fixture(scope="module")
def markov632(gb632):
    return toric.markov_from_groebner(gb632)


@pytest.fixture(scope="module")
def graver632(inc632):
    return toric.graver_basis(inc632)


@pytest.fixture(scope="module")
def graver621():
    return toric.graver_basis(build_matrix(6, 2, 1))


class TestOrders:
    def test_degrevlex_basics(self):
        order = toric.DegrevlexOrder(3)
        assert plain_compare(order, (2, 0, 0), (1, 1, 0)) > 0  # on a degree tie, less of x1 wins
        assert plain_compare(order, (1, 0, 0), (0, 0, 2)) < 0  # lower degree is smaller
        assert plain_compare(order, (1, 1, 0), (1, 0, 1)) > 0  # less of the cheapest var wins

    def test_cheapest_variable_moves(self):
        # relabelled as the last variable, x0 is the cheapest, and x0^2 the
        # smallest degree-2 monomial
        order = toric.DegrevlexOrder(3)
        assert plain_compare(order, to_last((2, 0, 0), 0), to_last((0, 1, 1), 0)) < 0
        assert all(from_last(to_last(m, v), v) == m for m in ((1, 2, 3), (0, 0, 4)) for v in range(3))


def to_last(m, v):
    """The exponent vector m with x_v relabelled as the last variable, the
    cheapest of the default order, the others keeping their order."""
    return m[:v] + m[v + 1 :] + m[v : v + 1]


def from_last(m, v):
    """The inverse relabelling of ``to_last``."""
    return m[:v] + m[-1:] + m[v:-1]


class TestEngineSmall:
    def test_twisted_cubic(self):
        a = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
        kb = em.kernel_basis(a)
        assert len(kb) == 1
        pairs = [((1, 0, 1), (0, 2, 0))]
        gb = toric.buchberger(pairs, toric.DegrevlexOrder(3))
        # the squared middle variable is the degrevlex lead
        assert gb == [((0, 2, 0), (1, 0, 1))]

    def test_equal_columns_binomial_reduces_consistently(self, inc632, gb632):
        # x - y with equal matrix columns is in the ideal
        a = IntMatrix.from_rows([[1, 1], [2, 2]])
        pairs = [((1, 0), (0, 1))]
        order = toric.DegrevlexOrder(2)
        gb = toric.buchberger(pairs, order)
        reducers = [(order.pack(lead), order.pack(tail)) for lead, tail in gb]
        assert toric._normal_form(order.pack((1, 0)), order.pack((0, 1)), reducers, order) is None

    def test_trivial_kernel_empty_basis(self):
        inc = build_matrix(4, 3, 2)
        gb = toric.lattice_ideal_groebner(inc)
        assert gb.elements == ()
        assert toric.minimal_markov(inc).elements == ()


def plain_normal_form(a, b, basis, order):
    """Oracle for _normal_form: the same reduction, always by the first
    element whose lead divides, with divisibility decided on the exponents
    alone."""

    def first_divisor(m):
        return next((g for g in basis if all(x <= y for x, y in zip(g[0], m))), None)

    if plain_compare(order, a, b) == 0:
        return None
    lead, tail = (a, b) if plain_compare(order, a, b) > 0 else (b, a)
    while (g := first_divisor(lead)) is not None:
        lead = tuple(x - y + z for x, y, z in zip(lead, *g))
        if plain_compare(order, lead, tail) == 0:
            return None
        if plain_compare(order, lead, tail) < 0:
            lead, tail = tail, lead
    while (g := first_divisor(tail)) is not None:
        tail = tuple(x - y + z for x, y, z in zip(tail, *g))
        if tail == lead:
            return None
    return lead, tail


@st.composite
def binomial_generators(draw):
    """Pure-difference binomials in 3-6 variables."""
    nvars = draw(st.integers(3, 6))
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    return nvars, draw(st.lists(st.tuples(monomial, monomial), min_size=1, max_size=5))


@st.composite
def homogeneous_generators(draw, max_vars=6):
    """Homogeneous pure-difference binomials in 3 to ``max_vars`` variables."""
    nvars = draw(st.integers(3, max_vars))

    def monomial(degree):
        e = [0] * nvars
        for v in draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
            e[v] += 1
        return tuple(e)

    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return nvars, [(monomial(d), monomial(d)) for d in degrees]


def assert_matches_sympy(gens, nvars):
    """buchberger's reduced basis of the generators in the default order is
    the one sympy's grevlex Groebner basis gives."""
    import sympy

    ours = toric.buchberger(gens, toric.DegrevlexOrder(nvars))
    # sympy's grevlex breaks degree ties at its last generator first, the
    # default order's cheapest variable
    xs = sympy.symbols(f"x0:{nvars}")

    def monomial(exps):
        return sympy.Mul(*(x**e for x, e in zip(xs, exps)))

    polys = [monomial(a) - monomial(b) for a, b in gens if a != b]
    theirs = set()
    if polys:
        for poly in sympy.groebner(polys, *xs, order="grevlex").exprs:
            terms = sympy.Poly(poly, *xs).terms()
            assert sorted(c for _, c in terms) == [-1, 1]
            theirs.add(frozenset(m for m, _ in terms))
    assert len(ours) == len(theirs)
    assert {frozenset(g) for g in ours} == theirs


class TestEngineOracles:
    @settings(max_examples=40, deadline=None)
    @given(binomial_generators())
    def test_buchberger_matches_sympy(self, case):
        assert_matches_sympy(case[1], case[0])

    @pytest.mark.parametrize("gens, cheapest", [
        # exponents above 127 from the start: no 8-bit field holds them
        ([((130, 0, 1), (0, 131, 0)), ((0, 2, 0), (1, 0, 1))], 2),
        # exponents of at most 100 whose reductions pass 127 on the way
        # once x0 is relabelled as the cheapest variable
        ([((0, 90, 0), (0, 0, 60)), ((0, 100, 0), (0, 60, 0))], 0),
    ])
    def test_widening_matches_sympy(self, gens, cheapest):
        gens = [(to_last(a, cheapest), to_last(b, cheapest)) for a, b in gens]
        order = toric.DegrevlexOrder(3)
        with pytest.raises(toric._Overflow):  # 8-bit fields cannot hold the run
            toric._groebner([(order.pack(a), order.pack(b)) for a, b in gens], order, 10**6)
        assert_matches_sympy(gens, 3)

    def test_widening_stops_at_64_bits(self):
        with pytest.raises(CertificateError, match="widest packing"):
            toric.buchberger([((2**63, 0), (0, 1))], toric.DegrevlexOrder(2))

    def test_reduce_to_zero_matches_plain_reduction(self, inc632, gb632, markov632):
        rng = Random(632)
        a = inc632.matrix
        order = toric.DegrevlexOrder(20)
        pairs = [(b.plus, b.minus) for b in gb632.elements]
        moves = [b.vector for b in markov632.elements]
        queries = []
        while len(queries) < 60:
            u = [0] * 20
            for _ in range(rng.randint(1, 12)):
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                u = [x + c * y for x, y in zip(u, rng.choice(moves))]
            if any(u):
                queries.append((u, True))
        while len(queries) < 120:
            u = [rng.randint(-4, 4) for _ in range(20)]
            if any(a.mat_vec(u)):
                queries.append((u, False))
        for u, member in queries:
            b = toric.Binomial.from_vector(u)
            nf = plain_normal_form(b.plus, b.minus, pairs, order)
            packed = toric._normal_form(
                order.pack(b.plus), order.pack(b.minus), gb632.reducers(order), order
            )
            assert (packed if packed is None else tuple(map(order.unpack, packed))) == nf
            assert toric.reduce_to_zero(b, gb632) is (nf is None) is member


def plain_compare(order, a, b):
    """Oracle for the packed order: degree first, then the last variable
    where a and b differ, the smaller exponent there winning."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for v in reversed(range(order.nvars)):
        if a[v] != b[v]:
            return 1 if a[v] < b[v] else -1
    return 0


@st.composite
def packing_cases(draw):
    """An order of 1-6 variables at a width of 8, 16, 32 or 64 bits and
    three monomials whose exponents lie near 0 or at and beyond the top
    of a field."""
    nvars = draw(st.integers(1, 6))
    width = draw(st.sampled_from([8, 16, 32, 64]))
    order = toric.DegrevlexOrder(nvars, width)
    exponent = st.one_of(st.integers(0, 3), st.integers(order.top - 3, order.top + 2))
    return order, *(draw(st.tuples(*[exponent] * nvars)) for _ in range(3))


@settings(max_examples=400, deadline=None)
@given(packing_cases())
def test_packed_operations_match_tuples(case):
    order, a, b, t = case
    for m in (a, b, t):
        if max(m) > order.top:
            with pytest.raises(toric._Overflow):
                order.pack(m)
    if max(a + b + t) > order.top:
        a, b, t = (tuple(min(x, order.top) for x in m) for m in (a, b, t))
    qa, qb, qt = map(order.pack, (a, b, t))
    assert [order.unpack(q) for q in (qa, qb, qt)] == [a, b, t]
    assert (qa > qb) - (qa < qb) == plain_compare(order, a, b)
    divides = all(x <= y for x, y in zip(a, b))
    assert (toric._first_divisor(qb, [(qa, qt)], order) is not None) is divides
    lcm = tuple(max(x, y) for x, y in zip(a, b))
    assert order.lcm(qa, qb) == order.pack(lcm)
    coprime = not any(x and y for x, y in zip(a, b))
    assert (order.lcm(qa, qb) == qa + qb - order.one) is coprime
    gcd = tuple(map(min, a, b))
    divided = tuple(tuple(x - g for x, g in zip(m, gcd)) for m in (a, b))
    assert tuple(map(order.unpack, toric._divide_gcd(qa, qb, order))) == divided
    # lcm - a + t: a divides the lcm, and t may push a field past the top
    q = order.pack(lcm) - qa + qt
    s = tuple(m - x + y for m, x, y in zip(lcm, a, t))
    if max(s) > order.top:
        assert q & order.guard
        with pytest.raises(toric._Overflow):
            toric._checked(q, order)
    else:
        assert toric._checked(q, order) == order.pack(s)


class TestBinomialChecks:
    @pytest.mark.parametrize("plus, minus, message", [
        ((1, 0), (0, 1, 0), "length mismatch"),
        ((1, -1), (0, 0), "negative exponent"),
        ((0, 0), (0, 0), "zero binomial"),
        ((1, 1), (0, 1), "supports overlap"),
    ])
    def test_each_check_raises(self, plus, minus, message):
        with pytest.raises(BadParameters, match=message):
            toric.Binomial(plus, minus)

    def test_subset_outside_the_variables(self):
        # (1, 2, 7) has colex rank 20, one past the 3-subsets of [1..6]
        with pytest.raises(BadParameters, match=r"subset \(1, 2, 7\) has colex rank 20"):
            binom(20, [(1, 2, 7)], [(1, 2, 3)])
        assert binom(35, [(1, 2, 7)], [(1, 2, 3)]).degree == 1

    def test_subset_member_below_one(self):
        with pytest.raises(BadParameters, match=r"subset \(0, 1, 2\) has a member below 1"):
            toric.Binomial.from_subsets(20, [(0, 1, 2)], [(1, 2, 3)])


class TestReduceToZeroInputs:
    def test_too_few_variables(self, gb632):
        with pytest.raises(BadParameters, match="binomial in 3 variables"):
            toric.reduce_to_zero(toric.Binomial((1, 0, 0), (0, 1, 0)), gb632)

    def test_too_many_variables(self, gb632):
        with pytest.raises(BadParameters, match="binomial in 22 variables"):
            toric.reduce_to_zero(toric.Binomial.from_vector([1, -1] + [0] * 20), gb632)

    def test_not_a_groebner_basis(self, markov632):
        with pytest.raises(BadParameters, match="not a markov basis"):
            toric.reduce_to_zero(binom(20, *QUARTIC), markov632)

    def test_reducers_packed_once_per_width(self, gb632):
        basis = toric.BinomialBasis("groebner", gb632.elements, gb632.matrix)
        q = binom(20, *QUARTIC)
        assert toric.reduce_to_zero(q, basis) and toric.reduce_to_zero(q, basis)
        packed = basis.reducers(basis.order)
        # x^(200a) - x^(200b) lies in the ideal too, but needs 16-bit fields
        big = toric.Binomial(*(tuple(200 * x for x in m) for m in (q.plus, q.minus)))
        assert toric.reduce_to_zero(big, basis)
        assert toric.reduce_to_zero(q, basis)
        assert [order.width for order in basis._packed] == [8, 16]
        assert basis.reducers(basis.order) is packed


class TestStructure632:
    def test_groebner_contains_displayed_binomials(self, gb632):
        quartic = binom(20, *QUARTIC)
        sextic = binom(20, *SEXTIC)
        assert toric.reduce_to_zero(quartic, gb632)
        assert toric.reduce_to_zero(sextic, gb632)

    def test_markov_count_and_degrees(self, markov632):
        assert len(markov632.elements) == 30
        assert markov632.degree_multiset() == {4: 15, 6: 15}

    def test_negated_candidates(self, inc632, gb632, markov632):
        # an element and its negative pack to the same (lead, tail) pair, so
        # they tie in the candidate order; the first is kept and its move
        # connects the second
        negated = tuple(toric.Binomial(b.minus, b.plus) for b in gb632.elements)
        doubled = toric.BinomialBasis("groebner", gb632.elements + negated, inc632)
        assert toric.markov_from_groebner(doubled).elements == markov632.elements

    def test_markov_refuses_octahedral_input(self):
        # the 15 octahedral quartics generate a smaller ideal than the
        # lattice ideal, whose minimal Markov basis has 30 elements
        with pytest.raises(BadParameters, match="not octahedral binomials"):
            toric.markov_from_groebner(toric.octahedral_generators(6, 3, 2))

    def test_markov_quartics_match_octahedral_relabelings(self, markov632):
        quartics = {
            frozenset((b.plus, b.minus))
            for b in markov632.elements
            if b.degree == 4
        }
        octas = {
            frozenset((b.plus, b.minus))
            for b in toric.octahedral_generators(6, 3, 2).elements
        }
        assert quartics == octas
        assert len(octas) == 15

    def test_markov_generates_same_ideal(self, markov632, gb632):
        regenerated = toric.buchberger(
            [(b.plus, b.minus) for b in markov632.elements],
            toric.DegrevlexOrder(20),
        )
        assert regenerated == [(g.plus, g.minus) for g in gb632.elements]

    def test_groebner_property_by_definition(self, gb632):
        # every S-pair reduces to zero, checked without any pair criteria;
        # lcms and S-pair monomials are plain tuple arithmetic
        order = toric.DegrevlexOrder(20)
        pairs = [(b.plus, b.minus) for b in gb632.elements]
        reducers = gb632.reducers(order)
        for i in range(len(pairs)):
            for j in range(i):
                (ai, bi), (aj, bj) = pairs[i], pairs[j]
                lcm = tuple(max(x, y) for x, y in zip(ai, aj))
                s1 = tuple(m - x + y for m, x, y in zip(lcm, ai, bi))
                s2 = tuple(m - x + y for m, x, y in zip(lcm, aj, bj))
                assert toric._normal_form(order.pack(s1), order.pack(s2), reducers, order) is None

    def test_homogeneous_and_sound(self, gb632, markov632, inc632):
        for basis in (gb632, markov632):
            for b in basis.elements:
                assert sum(b.plus) == sum(b.minus)
                assert not any(inc632.matrix.mat_vec(b.vector))

    def test_soundness_enforced(self, inc632):
        junk = binom(20, [(1, 2, 3)], [(1, 2, 4)])
        with pytest.raises(CertificateError, match="basis element outside the kernel"):
            toric.BinomialBasis("markov", (junk,), inc632)

    def test_minimal_markov_builds_on_groebner(self, inc632, markov632):
        assert toric.minimal_markov(inc632).elements == markov632.elements


def test_no_module_level_cache():
    state = [
        name
        for name, value in vars(toric).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert state == []


class TestGraver:
    def test_graver_contains_displayed(self, graver632):
        vecs = {b.vector for b in graver632.elements}
        vecs |= {tuple(-x for x in v) for v in vecs}
        assert binom(20, *QUARTIC).vector in vecs
        assert binom(20, *SEXTIC).vector in vecs

    def test_graver_632_is_markov(self, graver632, markov632):
        # frozen structural fact: for these parameters the two coincide
        g = {frozenset((b.plus, b.minus)) for b in graver632.elements}
        m = {frozenset((b.plus, b.minus)) for b in markov632.elements}
        assert g == m

    def test_graver_matches_primitive_oracle_421(self):
        inc = build_matrix(4, 2, 1)
        a = inc.matrix
        box = [
            v
            for v in product(range(-3, 4), repeat=6)
            if any(v) and not any(a.mat_vec(v))
        ]

        def inside(v, u):
            return all(
                (0 <= x <= y) if y >= 0 else (y <= x <= 0) for x, y in zip(v, u)
            )

        primitive = set()
        for u in box:
            others = [
                v
                for v in box
                if v != u and v != tuple(-x for x in u) and inside(v, u)
            ]
            if not others:
                primitive.add(u)
        per_sign = {u for u in primitive if tuple(-x for x in u) not in primitive or u > tuple(-x for x in u)}
        gv = toric.graver_basis(inc)
        gvecs = {b.vector for b in gv.elements}
        assert len(gvecs) == len(per_sign)
        assert all(u in gvecs or tuple(-x for x in u) in gvecs for u in per_sign)

    def test_graver_sound(self, graver632, inc632):
        for b in graver632.elements:
            assert not any(inc632.matrix.mat_vec(b.vector))
            assert sum(b.plus) == sum(b.minus)

    @pytest.mark.parametrize("nkt", [(5, 2, 1), (5, 3, 1)])
    def test_thirty_primitive_elements(self, nkt):
        inc = build_matrix(*nkt)
        graver = toric.graver_basis(inc)
        assert len(graver.elements) == 30
        assert all(toric.is_primitive(b, inc) for b in graver.elements)

    @pytest.mark.parametrize("nkt", [(4, 2, 1), (5, 2, 1), (5, 3, 1), (6, 3, 2)])
    def test_sympy_groebner_of_graver_is_lattice_groebner(self, nkt):
        # a third Buchberger, sympy's, ties the completion to the saturation
        import sympy

        inc = build_matrix(*nkt)
        gens = sympy.symbols(f"x0:{inc.matrix.cols}")

        def monomial(exps):
            return sympy.Mul(*(x**e for x, e in zip(gens, exps)))

        graver = toric.graver_basis(inc)
        gb = sympy.groebner(
            [monomial(b.plus) - monomial(b.minus) for b in graver.elements],
            *gens,
            order="grevlex",
        )
        theirs = set()
        for poly in gb.exprs:
            terms = sympy.Poly(poly, *gens).terms()
            assert sorted(c for _, c in terms) == [-1, 1]
            theirs.add(frozenset(m for m, _ in terms))
        ours = toric.lattice_ideal_groebner(inc).elements
        assert len(gb.exprs) == len(ours)
        assert theirs == {frozenset((b.plus, b.minus)) for b in ours}

    def test_budget(self, inc632):
        with pytest.raises(BudgetExceeded):
            toric.graver_basis(inc632, RunConfig(pair_queue_budget=3))

    def test_621_moves_are_primitive_and_closed_under_s_6(self, graver621):
        # 285 moves, each primitive by the box search, which shares no code
        # with the completion, and the set closed up to sign under S_6
        inc = build_matrix(6, 2, 1)
        assert len(graver621.elements) == 285
        assert all(toric.is_primitive(b, inc) for b in graver621.elements)
        vectors = {b.vector for b in graver621.elements}
        signed = vectors | {tuple(-x for x in u) for u in vectors}
        for table in generator_tables(6, 2):
            assert {tuple(map(u.__getitem__, table)) for u in vectors} <= signed

    def test_641_is_the_complement_image_of_621(self, graver621):
        # S -> [6] \ S keeps the kernel, as every kernel vector sums to 0
        complement = [colex_rank(sorted(set(range(1, 7)) - set(s))) for s in subsets_colex(6, 2)]
        image = set()
        for b in graver621.elements:
            v = [0] * 15
            for rank, x in zip(complement, b.vector):
                v[rank] = x
            image |= {tuple(v), tuple(-x for x in v)}
        graver641 = toric.graver_basis(build_matrix(6, 4, 1))
        assert len(graver641.elements) == 285
        assert {b.vector for b in graver641.elements} <= image

    def test_refuses_a_non_lawrence_element(self, monkeypatch):
        # a forged engine returns x^1 y^1 - 1 in the 20 variables of the
        # lifted (5,3,1): coprime and fixed by every table, so it passes
        # the saturation's checks and only the Lawrence form check is left
        monkeypatch.setattr(toric, "buchberger", lambda *args: [((1,) * 20, (0,) * 20)])
        with pytest.raises(CertificateError, match="not of the form x\\^a y\\^b - x\\^b y\\^a"):
            toric.graver_basis(build_matrix(5, 3, 1))
        forged, call = "lambda *args: [((1,) * 20, (0,) * 20)]", "toric.graver_basis(build_matrix(5, 3, 1))"
        assert under_python_O(forged, call, "CertificateError") == (
            "a Lawrence basis element is not of the form x^a y^b - x^b y^a")


def under_python_O(forged, call, error):
    """The message of the ``error`` that ``call`` raises under python -O,
    in a fresh interpreter where ``toric.buchberger`` is replaced by the
    expression ``forged``; the asserts of the library, had it any, are
    gone there, so only its explicit checks can raise."""
    code = (
        "from incitoric import toric\n"
        "from incitoric.combinat import generator_tables\n"
        f"from incitoric.errors import {error}\n"
        "from incitoric.incidence import build_matrix\n"
        f"toric.buchberger = {forged}\n"
        "try:\n"
        f"    {call}\n"
        f"except {error} as e:\n"
        "    print(e)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def box_scan_primitive(u, a):
    """Oracle for is_primitive: scan the whole box 0 <= v+ <= u+,
    0 <= v- <= u- for a kernel vector other than 0 and u."""
    support = [i for i in range(len(u)) if u[i]]
    for vals in product(*(range(min(u[i], 0), max(u[i], 0) + 1) for i in support)):
        v = [0] * len(u)
        for i, x in zip(support, vals):
            v[i] = x
        if any(v) and tuple(v) != u and not any(a.mat_vec(v)):
            return False
    return True


def box_size(u):
    return prod(abs(x) + 1 for x in u)


@pytest.fixture(scope="module")
def pair_combinations(inc632, markov632):
    """Sums and differences of two (6,3,2) Markov or two (5,3,1) Graver
    elements whose box has at most 2^12 entries, with their matrix."""
    inc531 = build_matrix(5, 3, 1)
    out = []
    for inc, basis in ((inc632, markov632), (inc531, toric.graver_basis(inc531))):
        for f, g in combinations([b.vector for b in basis.elements], 2):
            for sign in (1, -1):
                u = tuple(x + sign * y for x, y in zip(f, g))
                if any(u) and box_size(u) <= 2**12:
                    out.append((u, inc))
    return out


class TestPrimitivity:
    def test_pair_combinations_mixed(self, pair_combinations):
        verdicts = [toric.is_primitive(toric.Binomial.from_vector(u), inc) for u, inc in pair_combinations]
        assert len(verdicts) == 1155
        assert verdicts.count(False) == 585

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_box_scan(self, pair_combinations, data):
        u, inc = data.draw(st.sampled_from(pair_combinations))
        b = toric.Binomial.from_vector(u)
        assert toric.is_primitive(b, inc) == box_scan_primitive(u, inc.matrix)

    def test_budget_counts_the_larger_half_box(self, inc632):
        q = binom(20, *QUARTIC)  # 8 support entries of 1: half-boxes of 2^4
        assert toric.is_primitive(q, inc632, RunConfig(box_budget=16))
        with pytest.raises(BudgetExceeded, match="half-box of 16 entries"):
            toric.is_primitive(q, inc632, RunConfig(box_budget=15))

    def test_bad_packing_raises(self, inc632, monkeypatch):
        # with every column packed to 0 each half-sum "cancels"; the
        # re-check against A must catch the first bogus witness
        monkeypatch.setattr(toric, "_column_keys", lambda a, u, support: dict.fromkeys(support, 0))
        with pytest.raises(CertificateError, match="not a kernel vector"):
            toric.is_primitive(binom(20, *QUARTIC), inc632)

    def test_bad_packing_raises_under_python_O(self):
        # the re-check is an explicit raise, not an assert, so -O keeps it
        code = (
            "from incitoric import toric\n"
            "from incitoric.errors import CertificateError\n"
            "from incitoric.incidence import build_matrix\n"
            "toric._column_keys = lambda a, u, support: dict.fromkeys(support, 0)\n"
            "u = [0] * 20\n"
            "for i in (6, 7, 11, 14):\n"
            "    u[i] = 1\n"
            "for i in (5, 8, 12, 13):\n"
            "    u[i] = -1\n"
            "try:\n"
            "    toric.is_primitive(toric.Binomial.from_vector(u), build_matrix(6, 3, 2))\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "primitivity witness is not a kernel vector"

    def test_quartic_primitive(self, inc632):
        assert toric.is_primitive(binom(20, *QUARTIC), inc632)

    def test_doubled_not_primitive(self, inc632):
        q = binom(20, *QUARTIC)
        doubled = toric.Binomial(tuple(2 * x for x in q.plus), tuple(2 * x for x in q.minus))
        assert not toric.is_primitive(doubled, inc632)

    def test_crossflip_binomial_primitive(self):
        inc = build_matrix(9, 3, 2)
        plus = [(1, 4, 6), (2, 3, 6), (1, 3, 5), (2, 4, 5), (6, 7, 8), (1, 7, 9), (3, 8, 9)]
        minus = [(7, 8, 9), (1, 6, 7), (3, 6, 8), (1, 3, 9), (2, 4, 6), (1, 4, 5), (2, 3, 5)]
        b = binom(84, plus, minus)
        assert toric.is_primitive(b, inc)

    def test_agreement_with_graver(self, graver632, inc632):
        for b in graver632.elements:
            assert toric.is_primitive(b, inc632)

    def test_requires_kernel_vector(self, inc632):
        junk = binom(20, [(1, 2, 3)], [(1, 2, 4)])
        with pytest.raises(BadParameters):
            toric.is_primitive(junk, inc632)


KERNEL_TRIPLES = [(n, k, t) for n in range(4, 7) for k in range(2, n) for t in range(1, k)
                  if k + t + 1 <= n]


class TestOctahedral:
    def test_counts(self):
        assert len(toric.octahedral_generators(6, 3, 2).elements) == 15
        assert len(toric.octahedral_generators(7, 3, 2).elements) == 105

    def test_contains_displayed_quartic(self):
        octas = toric.octahedral_generators(6, 3, 2)
        target = binom(20, *QUARTIC)
        assert any(
            {b.plus, b.minus} == {target.plus, target.minus} for b in octas.elements
        )

    def test_span_equals_kernel_small(self):
        for (n, k, t) in ((6, 3, 2), (5, 2, 1), (6, 4, 1)):
            basis = toric.octahedral_generators(n, k, t)
            inc = basis.matrix
            assert designs.pods_span_kernel(n, k, t, [b.vector for b in basis.elements])

    @pytest.mark.parametrize("nkt", KERNEL_TRIPLES)
    def test_oriented_pods(self, nkt):
        # each pod up to sign, in the order of the pods, with the larger
        # monomial of the default order first
        basis = toric.octahedral_generators(*nkt)
        order = toric.DegrevlexOrder(basis.matrix.matrix.cols)
        assert all(plain_compare(order, b.plus, b.minus) > 0 for b in basis.elements)
        pods = list(designs.pods(*nkt))
        assert len(basis.elements) == len(pods)
        for b, pod in zip(basis.elements, pods):
            assert b.vector in (pod, tuple(-x for x in pod))


def strip_variable(pair, v):
    """The monomial pair with the common power of x_v divided out."""
    m = min(pair[0][v], pair[1][v])
    return tuple(e[:v] + (e[v] - m,) + e[v + 1 :] for e in pair)


def full_saturation(pairs, nvars):
    """Oracle for saturate_binomials: the reduced basis of the saturation
    by every variable, one Buchberger run and strip per variable, with that
    variable relabelled as the last, cheapest one of the default order,
    then one more Buchberger run in the default order."""
    order = toric.DegrevlexOrder(nvars)
    for v in range(nvars):
        gb = toric.buchberger([tuple(to_last(m, v) for m in g) for g in pairs], order)
        pairs = [tuple(from_last(m, v) for m in strip_variable(g, nvars - 1)) for g in gb]
    return toric.buchberger(pairs, order)


class TestSaturation:
    def test_octahedral_saturates(self, inc632):
        assert toric.saturation_equals(
            toric.octahedral_generators(6, 3, 2), inc632
        )

    def test_markov_saturates(self, inc632, markov632):
        assert toric.saturation_equals(markov632, inc632)

    def test_single_quartic_does_not(self, inc632):
        # the saturation loop closes its generators under S_n, so a set
        # that is not closed is refused rather than answered for its orbit
        octas = toric.octahedral_generators(6, 3, 2)
        single = toric.BinomialBasis("octahedral", octas.elements[:1], inc632)
        with pytest.raises(BadParameters, match="not closed under S_n"):
            toric.saturation_equals(single, inc632)

    def test_squared_quartics_do_not(self, inc632):
        # closed under S_n, but their lattice is 2L: the saturation is the
        # lattice ideal of 2L, which misses the quartics themselves
        octas = toric.octahedral_generators(6, 3, 2).elements
        squares = tuple(toric.Binomial.from_vector([2 * x for x in b.vector]) for b in octas)
        assert not toric.saturation_equals(toric.BinomialBasis("octahedral", squares, inc632), inc632)

    def test_generator_outside_the_kernel_raises(self, inc632):
        # the (6,3,1) quartics have 20 variables too, but (6,3,2) does not kill them
        with pytest.raises(BadParameters, match="generator outside the kernel"):
            toric.saturation_equals(toric.octahedral_generators(6, 3, 1), inc632)

    def test_without_lattice_groebner(self, inc632, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("saturation_equals must not need the lattice basis")

        monkeypatch.setattr(toric, "lattice_ideal_groebner", forbidden)
        assert toric.saturation_equals(toric.octahedral_generators(6, 3, 2), inc632)

    def test_groebner_runs_of_the_closure(self, inc632, monkeypatch):
        # the saturation is one completion, from the lattice basis and the
        # pods as from the octahedra alone
        calls = []
        buchberger = toric.buchberger

        def counted(*args):
            calls.append(args)
            return buchberger(*args)

        monkeypatch.setattr(toric, "buchberger", counted)
        assert len(toric.lattice_ideal_groebner(inc632).elements) == 30
        assert len(calls) == 1
        calls.clear()
        assert toric.saturation_equals(toric.octahedral_generators(6, 3, 2), inc632)
        assert len(calls) == 1

    @pytest.mark.parametrize("nkt", [(7, 3, 1), (7, 4, 1)])
    def test_octahedral_saturates_at_n_7(self, nkt):
        # criterion 9's claim on the two hypersimplices of n = 7
        inc = build_matrix(*nkt)
        assert toric.saturation_equals(toric.octahedral_generators(*nkt), inc)

    def test_widened_saturation_matches_full_saturation(self, inc632):
        # 128 times the octahedral quartics: no 8-bit field holds their
        # exponents, so the whole completion, the gcd division and the S_6
        # images run at 16 bits; the saturation is the lattice ideal of 128L
        octas = toric.octahedral_generators(6, 3, 2).elements
        pairs = [(tuple(128 * x for x in b.plus), tuple(128 * x for x in b.minus)) for b in octas]
        with pytest.raises(toric._Overflow):
            toric.DegrevlexOrder(20).pack(pairs[0][0])
        ours = toric.saturate_binomials(pairs, generator_tables(6, 3))
        assert ours == full_saturation(pairs, 20)
        assert len(ours) == 30 and {x for g in ours for m in g for x in m} == {0, 128}

    @settings(max_examples=40, deadline=None)
    @given(homogeneous_generators(max_vars=4))
    def test_symmetric_completion_matches_full_saturation(self, case):
        # with the tables of the transposition (0 1) and the cycle
        # (0 1 ... N-1) acting on the variables themselves, one completion
        # saturates the ideal of the generators' whole S_N orbit
        nvars, gens = case
        tables = [(1, 0) + tuple(range(2, nvars)), tuple(range(1, nvars)) + (0,)]
        orbit, todo = set(), list(gens)
        while todo:
            g = todo.pop()
            if g not in orbit:
                orbit.add(g)
                todo.extend(tuple(tuple(m[i] for i in table) for m in g) for table in tables)
        order = toric.DegrevlexOrder(nvars)
        ours = toric.buchberger(gens, order, tables=tables)
        assert ours == full_saturation(sorted(orbit), nvars)

    def test_certificate_refuses_a_common_factor(self, inc632, gb632, monkeypatch):
        # a forged engine returns the lattice basis with one element times x_0
        (lead, tail), *rest = [(b.plus, b.minus) for b in gb632.elements]
        bumped = [((lead[0] + 1,) + lead[1:], (tail[0] + 1,) + tail[1:])]
        monkeypatch.setattr(toric, "buchberger", lambda *args: bumped + rest)
        with pytest.raises(CertificateError, match="common factor"):
            toric.saturate_binomials([], generator_tables(6, 3))

    def test_certificate_refuses_a_basis_not_closed_under_s_n(self, inc632, monkeypatch):
        # a forged engine returns one octahedral quartic: coprime, but its
        # images reduce to nonzero normal forms against it
        quartic = toric.octahedral_generators(6, 3, 2).elements[0]
        monkeypatch.setattr(toric, "buchberger", lambda *args: [(quartic.plus, quartic.minus)])
        with pytest.raises(CertificateError, match="image of the saturated basis under a table"):
            toric.saturate_binomials([], generator_tables(6, 3))

    @pytest.mark.parametrize("forged, message", [
        ("[((1,) + (0,) * 18 + (1,), (0, 1) + (0,) * 17 + (1,))]",
         "a saturated basis element has monomials with a common factor"),
        ("[((1,) + (0,) * 19, (0, 1) + (0,) * 18)]",
         "an image of the saturated basis under a table does not reduce to zero"),
    ])
    def test_certificate_under_python_O(self, forged, message):
        call = "toric.saturate_binomials([], generator_tables(6, 3))"
        assert under_python_O(f"lambda *args: {forged}", call, "CertificateError") == message

    def test_refuses_non_transitive_tables(self, monkeypatch):
        # the orbit of x_19 = {4, 5, 6} under (1 2) alone is x_19 itself
        def forbidden(*args, **kwargs):
            raise AssertionError("no completion may start")

        monkeypatch.setattr(toric, "buchberger", forbidden)
        pairs = [(b.plus, b.minus) for b in toric.octahedral_generators(6, 3, 2).elements]
        with pytest.raises(BadParameters, match="orbit of x_19 under the tables"):
            toric.saturate_binomials(pairs, generator_tables(6, 3)[:1])
        call = ("toric.saturate_binomials([(b.plus, b.minus) for b in "
                "toric.octahedral_generators(6, 3, 2).elements], generator_tables(6, 3)[:1])")
        assert under_python_O("None", call, "BadParameters") == (
            "the orbit of x_19 under the tables holds 1 of the 20 variables, not every one")

    @pytest.mark.parametrize("nkt", KERNEL_TRIPLES)
    def test_lattice_ideal_groebner_matches_full_saturation(self, nkt):
        # the oracle saturates the bare kernel basis by every variable in
        # turn, with no S_n closure
        inc = build_matrix(*nkt)
        nvars = inc.matrix.cols
        expected = full_saturation(toric._binomial_pairs(em.kernel_basis(inc.matrix)), nvars)
        gb = toric.lattice_ideal_groebner(inc)
        assert [(b.plus, b.minus) for b in gb.elements] == expected

    def test_non_kernel_saturation_raises(self, inc632, monkeypatch):
        junk = binom(20, [(1, 2, 3)], [(1, 2, 4)])
        monkeypatch.setattr(
            toric, "saturate_binomials", lambda pairs, inc, config: [(junk.plus, junk.minus)]
        )
        with pytest.raises(CertificateError):
            toric.saturation_equals(toric.octahedral_generators(6, 3, 2), inc632)

    def test_non_kernel_lattice_groebner_raises(self, inc632, monkeypatch):
        # the kernel check of BinomialBasis certifies the computed basis
        junk = binom(20, [(1, 2, 3)], [(1, 2, 4)])
        monkeypatch.setattr(toric, "saturate_binomials", lambda *args: [(junk.plus, junk.minus)])
        with pytest.raises(CertificateError, match="basis element outside the kernel"):
            toric.lattice_ideal_groebner(inc632)


def fiber_enumerate(inc, target):
    """Oracle: all non-negative integer points u with A u = target (A is
    0/1), sorted, by a depth-first search over the columns."""
    a = inc.matrix
    cols = [a.column(j) for j in range(a.cols)]
    last_touch = [-1] * a.rows
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            if x:
                last_touch[i] = j
    points = []

    def dfs(j, residual, acc):
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
            dfs(j + 1, [r - mult * x for r, x in zip(residual, col)], acc + [mult])

    dfs(0, list(target), [])
    return tuple(sorted(set(points)))


def is_markov_on_fiber(basis, points):
    """Oracle: the moves of ``basis`` connect the fiber ``points``."""
    if len(points) <= 1:
        return True
    members = set(points)
    moves = [b.vector for b in basis.elements]
    seen = {points[0]}
    stack = [points[0]]
    while stack:
        u = stack.pop()
        for mv in moves:
            for sgn in (1, -1):
                w = tuple(x + sgn * d for x, d in zip(u, mv))
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == len(points)


class TestFibers:
    def test_column_fiber_is_unit(self, inc632):
        b = inc632.matrix.column(0)
        fiber = fiber_enumerate(inc632, b)
        unit = tuple(1 if j == 0 else 0 for j in range(20))
        assert fiber == (unit,)
        assert is_markov_on_fiber(toric.minimal_markov(inc632), fiber)

    def test_quartic_fiber_connected(self, inc632, markov632):
        q = binom(20, *QUARTIC)
        b = inc632.matrix.mat_vec(q.plus)
        fiber = fiber_enumerate(inc632, b)
        assert q.plus in fiber and q.minus in fiber
        assert is_markov_on_fiber(markov632, fiber)

    def test_sextic_fiber_needs_a_sextic(self, inc632, markov632):
        s = binom(20, *SEXTIC)
        fiber = fiber_enumerate(inc632, inc632.matrix.mat_vec(s.plus))
        quartics = toric.BinomialBasis(
            "markov", tuple(b for b in markov632.elements if b.degree == 4), inc632
        )
        assert not is_markov_on_fiber(quartics, fiber)
        assert is_markov_on_fiber(markov632, fiber)

    def test_all_degree_four_fibers_connected(self, inc632, markov632):
        from itertools import combinations_with_replacement

        seen = set()
        for combo in combinations_with_replacement(range(20), 4):
            u = [0] * 20
            for j in combo:
                u[j] += 1
            b = inc632.matrix.mat_vec(u)
            if b in seen:
                continue
            seen.add(b)
            fiber = fiber_enumerate(inc632, b)
            assert is_markov_on_fiber(markov632, fiber)

    def test_budget_guard(self):
        # (5,2,1) has Groebner elements whose fiber components exceed 3
        gb = toric.lattice_ideal_groebner(build_matrix(5, 2, 1))
        assert len(toric.markov_from_groebner(gb).elements) > 0
        with pytest.raises(BudgetExceeded, match="fiber component budget"):
            toric.markov_from_groebner(gb, RunConfig(fiber_budget=3))
