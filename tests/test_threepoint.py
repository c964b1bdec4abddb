"""Derangement map, coset calculus, determinant expressions."""

import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incitoric
from incitoric import threepoint as tp
from incitoric.combinat import colex_rank, derangement_from_images, derangements
from incitoric.errors import (
    BadParameters,
    CertificateError,
    DimensionMismatch,
    PreconditionFailed,
)


def det_cofactor(n):
    """Oracle for det_leibniz: first-row cofactor expansion of the symbolic
    hollow matrix.  Exponential; intended for n <= 5."""
    arity = comb(n, 2)

    def entry(i, j):
        if i == j:
            return tp.SymbolicPoly(arity, ())
        exps = [0] * arity
        exps[colex_rank(tuple(sorted((i, j))))] = 1
        return tp.SymbolicPoly.monomial(arity, exps)

    def det(rows, cols):
        if not rows:
            return tp.SymbolicPoly.monomial(arity, (0,) * arity)
        total = tp.SymbolicPoly(arity, ())
        i = rows[0]
        rest = rows[1:]
        for pos, j in enumerate(cols):
            e = entry(i, j)
            if e.is_zero():
                continue
            minor = det(rest, cols[:pos] + cols[pos + 1 :])
            term = e * minor
            if pos % 2:
                term = term.scale(-1)
            total = total + term
        return total

    idx = tuple(range(1, n + 1))
    return det(idx, idx)


def fiber_by_filter(v, n):
    """Oracle for fiber: every derangement of n whose edge image is v."""
    return [d for d in derangements(n) if tp.phi(d).exps == v.exps]


class TestPhi:
    def test_transposition_squares(self):
        d = derangement_from_images((2, 1))
        v = tp.phi(d)
        assert v.exps == (2,)  # the one edge {1, 2}, squared

    def test_three_cycle_is_triangle(self):
        d = derangement_from_images((2, 3, 1))
        assert tp.phi(d).exps == tp.triangle(3, 1, 2, 3).exps

    def test_cycle_and_inverse_agree(self):
        for n in (4, 5, 6):
            cycle = derangement_from_images(tuple(list(range(2, n + 1)) + [1]))
            inverse = derangement_from_images((n,) + tuple(range(1, n)))
            assert tp.phi(cycle).exps == tp.phi(inverse).exps

    def test_degree_is_n(self):
        for d in derangements(5):
            assert tp.phi(d).degree == 5


class TestFibers:
    def test_mixed_cycle_type(self):
        d = derangement_from_images((2, 1, 4, 5, 3))
        assert tp.fiber_size_formula(d) == 2
        assert len(tp.fiber(tp.phi(d), 5)) == 2

    def test_double_transposition_singleton(self):
        d = derangement_from_images((2, 1, 4, 3))
        assert tp.fiber_size_formula(d) == 1
        assert len(tp.fiber(tp.phi(d), 4)) == 1

    def test_six_cycle(self):
        d = derangement_from_images((2, 3, 4, 5, 6, 1))
        assert tp.fiber_size_formula(d) == 2
        assert len(tp.fiber(tp.phi(d), 6)) == 2

    def test_exhaustive_up_to_five(self):
        for n in (2, 3, 4, 5):
            for d in derangements(n):
                assert len(tp.fiber(tp.phi(d), n)) == tp.fiber_size_formula(d)

    def test_agrees_with_filter_up_to_six(self):
        for n in range(2, 7):
            # the filter, run once per n: derangements grouped by image
            by_image = {}
            for d in derangements(n):
                by_image.setdefault(tp.phi(d).exps, []).append(d)
            for d in derangements(n):
                assert tp.fiber(tp.phi(d), n) == by_image[tp.phi(d).exps]

    def test_outside_the_image_is_empty(self):
        # vertex 1 meets four edges, so no derangement maps here
        v = tp.EdgeVector.from_pairs(4, {(1, 2): 2, (1, 3): 1, (1, 4): 1})
        assert fiber_by_filter(v, 4) == []
        assert tp.fiber(v, 4) == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(-1, 2), min_size=comb(n, 2), max_size=comb(n, 2)))
    ))
    def test_agrees_with_filter_on_any_edge_vector(self, case):
        n, exps = case
        v = tp.EdgeVector(n, tuple(exps))
        assert tp.fiber(v, n) == fiber_by_filter(v, n)

    def test_ground_set_mismatch_raises(self):
        d = derangement_from_images((2, 1, 4, 3))
        with pytest.raises(DimensionMismatch):
            tp.fiber(tp.phi(d), 5)


class TestCosets:
    def test_triangle_generator_present(self):
        cert = tp.TriangleLattice(5).member(tp.triangle(5, 1, 2, 3))
        assert cert is not None

    def test_single_edge_absent(self):
        assert tp.TriangleLattice(5).member(tp.edge(5, 1, 2)) is None

    def test_all_derangement_images_for_six(self):
        lattice = tp.TriangleLattice(6)
        count = 0
        for d in derangements(6):
            assert lattice.member(tp.phi(d)) is not None
            count += 1
        assert count == 265

    def test_certificate_recomputes(self):
        lattice = tp.TriangleLattice(6)
        v = tp.phi(next(iter(derangements(6))))
        coeffs = lattice.member(v)
        assert lattice.inc.matrix.mat_vec(coeffs) == v.exps


class TestTranspositionRelations:
    def test_holds_for_five_and_six(self):
        assert tp.transposition_relations_check(5)
        assert tp.transposition_relations_check(6)

    def test_small_n_rejected(self):
        with pytest.raises(BadParameters):
            tp.transposition_relations_check(4)


class TestSection5:
    def test_n5(self):
        rep = tp.check_section5(5)
        assert rep.all_passed
        names = {c.name for c in rep.claims if c.applicable}
        assert "image_times_all_edges" in names
        assert "all_edges_vs_four_cycle" in names
        assert "det_times_all_edges" in names

    def test_n6(self):
        rep = tp.check_section5(6)
        assert rep.all_passed
        claims = {c.name: c for c in rep.claims}
        assert claims["images_in_triangle_group"].applicable
        assert claims["image_times_all_edges"].applicable is False

    def test_n7(self):
        rep = tp.check_section5(7)
        assert rep.all_passed
        claims = {c.name: c for c in rep.claims}
        assert claims["triple_products"].applicable

    def test_n4_claims_guarded(self):
        rep = tp.check_section5(4)
        claims = {c.name: c for c in rep.claims}
        assert not claims["single_coset_transitivity"].applicable
        assert not claims["det_cube_in_triangle_monomials"].applicable

    @pytest.mark.parametrize("n", range(2, 8))
    def test_report_pinned(self, n):
        expected = [
            {
                "name": name,
                "applicable": name in APPLIES[n],
                "passed": True if name in APPLIES[n] else None,
                "detail": APPLIES[n].get(name, reason),
            }
            for name, reason in NOT_APPLICABLE.items()
        ]
        assert tp.check_section5(n).as_dict() == {"n": n, "claims": expected, "all_passed": True}

    @pytest.mark.parametrize("n, solves", [(5, 89), (6, 794), (7, 1854)])
    def test_each_membership_set_solved_once(self, monkeypatch, n, solves):
        calls = []
        member = tp.TriangleLattice.member
        monkeypatch.setattr(tp.TriangleLattice, "member", lambda self, v: calls.append(v) or member(self, v))
        tp.check_section5(n)
        # one solve per vector of each membership set, however many claims state it
        assert len(calls) == solves


# every claim in report order, with the reason it gives when it does not apply
NOT_APPLICABLE = {
    "single_coset_transitivity": "needs n >= 5",
    "images_in_triangle_group": "needs 3 | n",
    "image_times_all_edges": "needs odd n = 2 mod 3",
    "all_edges_vs_four_cycle": "needs odd n = 2 mod 3",
    "triple_products": "needs n >= 5",
    "det_in_triangle_monomials": "needs 3 | n",
    "det_cube_in_triangle_monomials": "stated for n >= 5",
    "det_times_all_edges": "needs n = 5 mod 6",
    "transposition_relations": "needs n >= 5",
}

# the claims that apply to each n, with their details; all of them pass
APPLIES = {
    2: {},
    3: {
        "images_in_triangle_group": "all 2 derangement images",
        "triple_products": "implied by single images",
        "det_in_triangle_monomials": "every Leibniz monomial lies in the triangle group",
    },
    4: {},
    5: {
        "single_coset_transitivity": "44 derangements against the lexicographic first",
        "image_times_all_edges": "all 44 products with the full edge monomial",
        "all_edges_vs_four_cycle": "full edge monomial against p13 p23 p24 p14",
        "triple_products": "canonical triple plus single-coset reduction",
        "det_cube_in_triangle_monomials": "monomials of the cubed determinant",
        "det_times_all_edges": "every Leibniz monomial shifted by the full edge monomial",
        "transposition_relations": "both exchange identities over all ordered 5-tuples",
    },
    6: {
        "single_coset_transitivity": "265 derangements against the lexicographic first",
        "images_in_triangle_group": "all 265 derangement images",
        "triple_products": "implied by single images",
        "det_in_triangle_monomials": "every Leibniz monomial lies in the triangle group",
        "det_cube_in_triangle_monomials": "monomials of the cubed determinant",
        "transposition_relations": "both exchange identities over all ordered 5-tuples",
    },
    7: {
        "single_coset_transitivity": "1854 derangements against the lexicographic first",
        "triple_products": "canonical triple plus single-coset reduction",
        "det_cube_in_triangle_monomials": "monomials of the cubed determinant",
        "transposition_relations": "both exchange identities over all ordered 5-tuples",
    },
}


class TestDeterminant:
    def test_n2(self):
        det = tp.det_leibniz(2)
        assert det.terms == (((2,), -1),)

    def test_n3(self):
        det = tp.det_leibniz(3)
        assert det.terms == (((1, 1, 1), 2),)

    def test_cofactor_oracle(self):
        for n in (2, 3, 4, 5):
            assert (tp.det_leibniz(n) - det_cofactor(n)).is_zero()

    def test_sympy_symbolic_determinant(self):
        import sympy

        for n in (2, 3, 4, 5):
            gens = sympy.symbols(f"x0:{comb(n, 2)}")
            hollow = sympy.Matrix(
                n, n, lambda i, j: 0 if i == j else gens[colex_rank(tuple(sorted((i + 1, j + 1))))]
            )
            terms = sympy.Poly(hollow.det(), *gens).terms()
            assert tp.det_leibniz(n).terms == tuple(sorted((m, int(c)) for m, c in terms))

    def test_n4_term_structure(self):
        det = tp.det_leibniz(4)
        coeffs = sorted(c for _, c in det.terms)
        assert coeffs == [-2, -2, -2, 1, 1, 1]

    def test_leibniz_term_count_n6(self):
        det = tp.det_leibniz(6)
        assert det.term_count() == 130
        assert sum(abs(c) for _, c in det.terms) == 265


class TestDetExpression:
    def test_n3_exact(self):
        expr = tp.det_as_c_expression(3)
        assert expr.f.terms == (((1,), 2),)
        assert expr.g_exps == (0,)

    def test_wrong_residue_rejected(self):
        with pytest.raises(PreconditionFailed):
            tp.det_as_c_expression(5)

    def test_perturbed_expansion_raises(self, monkeypatch):
        monkeypatch.setattr(tp, "expand_triangle_poly", _perturbed(tp.expand_triangle_poly))
        with pytest.raises(CertificateError):
            tp.det_as_c_expression(6)

    def test_perturbed_expansion_raises_under_python_O(self):
        # the identity check is an explicit raise, not an assert, so -O keeps it
        code = (
            "from incitoric import threepoint as tp\n"
            "from incitoric.errors import CertificateError\n"
            "expand = tp.expand_triangle_poly\n"
            "def perturbed(n, f):\n"
            "    p = expand(n, f)\n"
            "    return p + tp.SymbolicPoly(p.arity, p.terms[:1])\n"
            "tp.expand_triangle_poly = perturbed\n"
            "try:\n"
            "    tp.det_as_c_expression(6)\n"
            "except CertificateError:\n"
            "    print('raised')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "raised"

    def test_n6_identity(self):
        expr = tp.det_as_c_expression(6)
        assert expr.f.term_count() == 130
        expanded = tp.expand_triangle_poly(6, expr.f)
        det = tp.det_leibniz(6)
        shift = tp._triangle_image_exps(6, expr.g_exps)
        assert expanded.terms == det.shift(shift).terms
        # coprimality: every denominator variable is missed by some term
        for i, e in enumerate(expr.g_exps):
            if e:
                assert any(k[i] == 0 for k, _ in expr.f.terms)


class TestTildeIdeal:
    def test_n3_reproduces_single_triangle(self):
        res = tp.tilde_ideal_generators(3)
        assert res.markov_count == 0
        assert res.extra_generator.terms == (((1,), 1),)
        assert res.containment_verified
        assert res.scalar == Fraction(1, 2)
        assert res.quotient_monomial == (0, 0, 0)

    def test_n6_full_assembly(self):
        res = tp.tilde_ideal_generators(6)
        assert res.markov_count == 30
        assert res.markov_map_to_zero
        assert res.containment_verified
        assert res.scalar == 1

    def test_wrong_residue(self):
        with pytest.raises(PreconditionFailed):
            tp.tilde_ideal_generators(5)

    def test_matrix_built_once_per_expansion(self, monkeypatch):
        calls = []
        build = tp.build_matrix

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(tp, "build_matrix", counted)
        tp.det_as_c_expression(6)
        # the triangle lattice, the expansion of f and the shift by g
        assert len(calls) == 3
        calls.clear()
        tp.tilde_ideal_generators(6)
        # the three above, the matrix of the Markov basis and the expansion of h
        assert len(calls) == 5

    def test_failed_containment_is_reported(self, monkeypatch):
        monkeypatch.setattr(tp, "_proportional_up_to_monomial", lambda poly, det: None)
        res = tp.tilde_ideal_generators(3)
        assert res.containment_verified is False
        assert res.quotient_monomial is None
        assert res.scalar is None


def _perturbed(expand):
    """expand_triangle_poly with the coefficient of its first term doubled."""

    def perturbed(n, f):
        p = expand(n, f)
        return p + tp.SymbolicPoly(p.arity, p.terms[:1])

    return perturbed
