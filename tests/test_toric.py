"""Binomial ideal engine: Groebner, Markov, Graver, primitivity, fibers."""

import os
import subprocess
import sys
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incitoric
from incitoric import exactmath as em, toric
from incitoric.combinat import colex_rank
from incitoric.config import RunConfig
from incitoric.errors import BadParameters, BudgetExceeded, CertificateError
from incitoric.exactmath import IntMatrix
from incitoric.incidence import build_matrix


def binom(nvars, plus, minus):
    p = [0] * nvars
    m = [0] * nvars
    for s in plus:
        p[colex_rank(s)] += 1
    for s in minus:
        m[colex_rank(s)] += 1
    return toric.Binomial(nvars, tuple(p), tuple(m))


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


class TestOrders:
    def test_degrevlex_basics(self):
        order = toric.DegrevlexOrder(3)
        assert order.compare((2, 0, 0), (1, 1, 0)) > 0  # on a degree tie, less of x1 wins
        assert order.compare((1, 0, 0), (0, 0, 2)) < 0  # lower degree is smaller
        assert order.compare((1, 1, 0), (1, 0, 1)) > 0  # less of the cheapest var wins

    def test_cheapest_variable_moves(self):
        order = toric.DegrevlexOrder(3, cheapest=0)
        # with x0 cheapest, x0^2 is the smallest degree-2 monomial
        assert order.compare((2, 0, 0), (0, 1, 1)) < 0


class TestEngineSmall:
    def test_twisted_cubic(self):
        a = IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]])
        kb = em.kernel_basis(a)
        assert kb.rank == 1
        pairs = [((1, 0, 1), (0, 2, 0))]
        gb = toric.buchberger(pairs, toric.DegrevlexOrder(3))
        # the squared middle variable is the degrevlex lead
        assert gb == [((0, 2, 0), (1, 0, 1))]

    def test_equal_columns_binomial_reduces_consistently(self, inc632, gb632):
        # x - y with equal matrix columns is in the ideal
        a = IntMatrix.from_rows([[1, 1], [2, 2]])
        pairs = [((1, 0), (0, 1))]
        gb = toric.buchberger(pairs, toric.DegrevlexOrder(2))
        assert toric._normal_form((1, 0), (0, 1), gb, toric.DegrevlexOrder(2)) is None

    def test_trivial_kernel_empty_basis(self):
        inc = build_matrix(4, 3, 2)
        gb = toric.lattice_ideal_groebner(inc)
        assert gb.elements == ()
        assert toric.minimal_markov(inc).elements == ()


class TestStructure632:
    def test_groebner_contains_displayed_binomials(self, gb632):
        quartic = binom(20, *QUARTIC)
        sextic = binom(20, *SEXTIC)
        assert toric.reduce_to_zero(quartic, gb632)
        assert toric.reduce_to_zero(sextic, gb632)

    def test_markov_count_and_degrees(self, markov632):
        assert len(markov632.elements) == 30
        assert markov632.degree_multiset() == {4: 15, 6: 15}

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
        # every S-pair reduces to zero, checked without any pair criteria
        order = toric.DegrevlexOrder(20)
        basis = [(g.plus, g.minus) for g in gb632.elements]
        for i in range(len(basis)):
            for j in range(i):
                (ai, bi), (aj, bj) = basis[i], basis[j]
                lcm = toric._lcm(ai, aj)
                s1 = toric._sub_add(lcm, ai, bi)
                s2 = toric._sub_add(lcm, aj, bj)
                assert toric._normal_form(s1, s2, basis, order) is None

    def test_homogeneous_and_sound(self, gb632, markov632, inc632):
        for basis in (gb632, markov632):
            for b in basis.elements:
                assert b.is_homogeneous()
                assert not any(inc632.matrix.mat_vec(b.vector))

    def test_soundness_enforced(self, inc632):
        junk = binom(20, [(1, 2, 3)], [(1, 2, 4)])
        with pytest.raises(BadParameters):
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
            assert b.is_homogeneous()

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

    def test_no_groebner_route(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("graver_basis must not run Buchberger")

        monkeypatch.setattr(toric, "buchberger", forbidden)
        monkeypatch.setattr(toric, "saturate_binomials", forbidden)
        assert len(toric.graver_basis(build_matrix(5, 3, 1)).elements) == 30


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
        doubled = toric.Binomial(
            20, tuple(2 * x for x in q.plus), tuple(2 * x for x in q.minus)
        )
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
            span = em.lattice_from_generators(
                inc.matrix.cols, [b.vector for b in basis.elements]
            )
            assert em.lattices_equal(span, em.kernel_basis(inc.matrix))


class TestSaturation:
    def test_octahedral_saturates(self, inc632):
        assert toric.saturation_equals(
            toric.octahedral_generators(6, 3, 2), inc632
        )

    def test_markov_saturates(self, inc632, markov632):
        assert toric.saturation_equals(markov632, inc632)

    def test_single_quartic_does_not(self, inc632):
        octas = toric.octahedral_generators(6, 3, 2)
        single = toric.BinomialBasis("octahedral", octas.elements[:1], inc632)
        assert not toric.saturation_equals(single, inc632)

    def test_without_lattice_groebner(self, inc632, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("saturation_equals must not need the lattice basis")

        monkeypatch.setattr(toric, "lattice_ideal_groebner", forbidden)
        assert toric.saturation_equals(toric.octahedral_generators(6, 3, 2), inc632)

    def test_non_kernel_saturation_raises(self, inc632, monkeypatch):
        junk = binom(20, [(1, 2, 3)], [(1, 2, 4)])
        monkeypatch.setattr(
            toric, "_saturated_groebner", lambda pairs, nvars, config: [(junk.plus, junk.minus)]
        )
        with pytest.raises(CertificateError):
            toric.saturation_equals(toric.octahedral_generators(6, 3, 2), inc632)


class TestFibers:
    def test_column_fiber_is_unit(self, inc632):
        b = inc632.matrix.column(0)
        fiber = toric.fiber_enumerate(inc632, b)
        unit = tuple(1 if j == 0 else 0 for j in range(20))
        assert fiber.points == (unit,)
        assert toric.is_markov_on_fiber(
            toric.minimal_markov(inc632), fiber
        )

    def test_quartic_fiber_connected(self, inc632, markov632):
        q = binom(20, *QUARTIC)
        b = inc632.matrix.mat_vec(q.plus)
        fiber = toric.fiber_enumerate(inc632, b)
        assert q.plus in fiber.points and q.minus in fiber.points
        assert toric.is_markov_on_fiber(markov632, fiber)

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
            fiber = toric.fiber_enumerate(inc632, b)
            assert toric.is_markov_on_fiber(markov632, fiber)

    def test_budget_guard(self, inc632):
        tiny = RunConfig(fiber_budget=3)
        q = binom(20, *QUARTIC)
        b = inc632.matrix.mat_vec([4 * x for x in q.plus])
        with pytest.raises(BudgetExceeded):
            toric.fiber_enumerate(inc632, b, tiny)
