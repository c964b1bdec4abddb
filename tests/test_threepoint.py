"""Derangement map, coset calculus, determinant expressions."""

import os
import subprocess
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incitoric
from incitoric import exactmath, threepoint as tp
from incitoric.combinat import colex_rank, derangement_from_images, derangements
from incitoric.errors import (
    BadParameters,
    CertificateError,
    DimensionMismatch,
    PreconditionFailed,
)
from incitoric.incidence import build_matrix


def det_cofactor(n):
    """Oracle for det_leibniz: first-row cofactor expansion of the symbolic
    hollow matrix.  Exponential; intended for n <= 5."""
    arity = comb(n, 2)

    def edge(i, j):
        exps = [0] * arity
        exps[colex_rank(tuple(sorted((i, j))))] = 1
        return exps

    def det(rows, cols):
        if not rows:
            return {(0,) * arity: 1}
        total = {}
        i = rows[0]
        rest = rows[1:]
        for pos, j in enumerate(cols):
            if i == j:
                continue
            minor = det(rest, cols[:pos] + cols[pos + 1 :])
            for k, v in minor.items():
                k = tuple(a + b for a, b in zip(k, edge(i, j)))
                total[k] = total.get(k, 0) + (-v if pos % 2 else v)
        return {k: v for k, v in total.items() if v}

    idx = tuple(range(1, n + 1))
    return det(idx, idx)


def fiber_by_filter(v, n):
    """Oracle for fiber: every derangement of n whose edge image is v."""
    return [d for d in derangements(n) if tp.phi(d) == v]


def triangle_solver(n):
    """Membership in the triangle group: solves against the (n, 3, 2) matrix."""
    return exactmath.HnfSolver(build_matrix(n, 3, 2).matrix)


class TestEdgeVector:
    def test_triangles_are_incidence_columns(self):
        for n in range(3, 8):
            inc = build_matrix(n, 3, 2)
            for j, tri in enumerate(inc.col_labels):
                assert tp.edge_vector(n, [(1, tri)]) == inc.matrix.column(j)

    def test_edges_are_unit_vectors(self):
        for n in range(2, 8):
            for b in range(2, n + 1):
                for a in range(1, b):
                    v = tp.edge_vector(n, [(1, (b, a))])
                    assert v == tuple(int(i == colex_rank((a, b))) for i in range(comb(n, 2)))

    def test_signed_terms_add(self):
        # p12^2 c123 / c124: the edge 12 twice, the triangles' edges once each
        v = tp.edge_vector(4, [(2, (1, 2)), (1, (1, 2, 3)), (-1, (1, 2, 4))])
        assert v == (2, 1, 1, -1, -1, 0)
        assert tp.edge_vector(4, []) == (0,) * 6

    @pytest.mark.parametrize("vertices", [(1, 1), (2, 3, 2), (0, 1), (1, 5), (1, 2, 5), (1,), (1, 2, 3, 4)])
    def test_bad_vertices_rejected(self, vertices):
        with pytest.raises(BadParameters):
            tp.edge_vector(4, [(1, (1, 2)), (1, vertices)])


class TestPhi:
    def test_transposition_squares(self):
        d = derangement_from_images((2, 1))
        v = tp.phi(d)
        assert v == (2,)  # the one edge {1, 2}, squared

    def test_three_cycle_is_triangle(self):
        d = derangement_from_images((2, 3, 1))
        assert tp.phi(d) == tp.edge_vector(3, [(1, (1, 2, 3))])

    def test_cycle_and_inverse_agree(self):
        for n in (4, 5, 6):
            cycle = derangement_from_images(tuple(list(range(2, n + 1)) + [1]))
            inverse = derangement_from_images((n,) + tuple(range(1, n)))
            assert tp.phi(cycle) == tp.phi(inverse)

    def test_degree_is_n(self):
        for d in derangements(5):
            assert sum(tp.phi(d)) == 5


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
                by_image.setdefault(tp.phi(d), []).append(d)
            for d in derangements(n):
                assert tp.fiber(tp.phi(d), n) == by_image[tp.phi(d)]

    def test_outside_the_image_is_empty(self):
        # vertex 1 meets four edges, so no derangement maps here
        v = tp.edge_vector(4, [(2, (1, 2)), (1, (1, 3)), (1, (1, 4))])
        assert fiber_by_filter(v, 4) == []
        assert tp.fiber(v, 4) == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(-1, 2), min_size=comb(n, 2), max_size=comb(n, 2)))
    ))
    def test_agrees_with_filter_on_any_edge_vector(self, case):
        n, exps = case
        v = tuple(exps)
        assert tp.fiber(v, n) == fiber_by_filter(v, n)

    def test_ground_set_mismatch_raises(self):
        d = derangement_from_images((2, 1, 4, 3))
        with pytest.raises(DimensionMismatch):
            tp.fiber(tp.phi(d), 5)


class TestCosets:
    def test_triangle_generator_present(self):
        cert = triangle_solver(5).solve(tp.edge_vector(5, [(1, (1, 2, 3))]))
        assert cert is not None

    def test_single_edge_absent(self):
        assert triangle_solver(5).solve(tp.edge_vector(5, [(1, (1, 2))])) is None

    def test_all_derangement_images_for_six(self):
        solver = triangle_solver(6)
        count = 0
        for d in derangements(6):
            assert solver.solve(tp.phi(d)) is not None
            count += 1
        assert count == 265

    def test_certificate_recomputes(self):
        solver = triangle_solver(6)
        v = tp.phi(next(iter(derangements(6))))
        coeffs = solver.solve(v)
        assert solver.m.mat_vec(coeffs) == v


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
        rep = tp.check_section5(n)
        assert rep.n == n and rep.all_passed
        assert [asdict(c) for c in rep.claims] == expected

    @pytest.mark.parametrize("n, solves", [(5, 89), (6, 794), (7, 1854)])
    def test_each_membership_set_solved_once(self, monkeypatch, n, solves):
        calls = []
        solve = exactmath.HnfSolver.solve
        monkeypatch.setattr(exactmath.HnfSolver, "solve", lambda self, v: calls.append(v) or solve(self, v))
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
        assert det == {(2,): -1}

    def test_n3(self):
        det = tp.det_leibniz(3)
        assert det == {(1, 1, 1): 2}

    def test_cofactor_oracle(self):
        for n in (2, 3, 4, 5):
            assert tp.det_leibniz(n) == det_cofactor(n)

    def test_sympy_symbolic_determinant(self):
        import sympy

        for n in (2, 3, 4, 5):
            gens = sympy.symbols(f"x0:{comb(n, 2)}")
            hollow = sympy.Matrix(
                n, n, lambda i, j: 0 if i == j else gens[colex_rank(tuple(sorted((i + 1, j + 1))))]
            )
            terms = sympy.Poly(hollow.det(), *gens).terms()
            assert tp.det_leibniz(n) == {m: int(c) for m, c in terms}

    def test_n4_term_structure(self):
        det = tp.det_leibniz(4)
        coeffs = sorted(det.values())
        assert coeffs == [-2, -2, -2, 1, 1, 1]

    def test_leibniz_term_count_n6(self):
        det = tp.det_leibniz(6)
        assert len(det) == 130
        assert sum(abs(c) for c in det.values()) == 265


class TestDetExpression:
    def test_n3_exact(self):
        expr = tp.det_as_c_expression(3)
        assert expr.f == {(1,): 2}
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
            "def perturbed(a, f):\n"
            "    p = expand(a, f)\n"
            "    k = next(iter(p))\n"
            "    return {**p, k: 2 * p[k]}\n"
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
        assert len(expr.f) == 130
        a = build_matrix(6, 3, 2).matrix
        expanded = tp.expand_triangle_poly(a, expr.f)
        g = a.mat_vec(expr.g_exps)
        det = tp.det_leibniz(6)
        assert expanded == {tuple(x + y for x, y in zip(k, g)): v for k, v in det.items()}
        # coprimality: every denominator variable is missed by some term
        for i, e in enumerate(expr.g_exps):
            if e:
                assert any(k[i] == 0 for k in expr.f)


class TestTildeIdeal:
    def test_n3_reproduces_single_triangle(self):
        res = tp.tilde_ideal_generators(3)
        assert res.markov_count == 0
        assert res.extra_generator == {(1,): 1}
        assert res.containment_verified
        assert res.scalar == Fraction(1, 2)
        assert res.quotient_monomial == (0, 0, 0)

    def test_n6_full_assembly(self):
        res = tp.tilde_ideal_generators(6)
        assert res.markov_count == 30
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
        # one matrix for the solves, the expansion of f and the shift by g
        assert len(calls) == 1
        calls.clear()
        tp.tilde_ideal_generators(6)
        # the one above also serves the Markov basis and the expansion of h
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [3, 6])
    def test_leibniz_expanded_once(self, monkeypatch, n):
        # the proportionality check reuses the expansion det_as_c_expression verified
        calls = []
        leibniz = tp.det_leibniz

        def counted(*args):
            calls.append(args)
            return leibniz(*args)

        monkeypatch.setattr(tp, "det_leibniz", counted)
        res = tp.tilde_ideal_generators(n)
        assert len(calls) == 1
        assert res.containment_verified

    def test_failed_containment_is_reported(self, monkeypatch):
        # the real expression with one determinant coefficient doubled: the
        # shifted determinant no longer equals the expansion of h
        expression = tp.det_as_c_expression

        def forged(n, config):
            expr = expression(n, config)
            k = next(iter(expr.det))
            return replace(expr, det={**expr.det, k: 2 * expr.det[k]})

        monkeypatch.setattr(tp, "det_as_c_expression", forged)
        res = tp.tilde_ideal_generators(3)
        assert res.containment_verified is False
        assert res.quotient_monomial is None
        assert res.scalar is None


def _perturbed(expand):
    """expand_triangle_poly with the coefficient of its first term doubled."""

    def perturbed(a, f):
        p = expand(a, f)
        k = next(iter(p))
        return {**p, k: 2 * p[k]}

    return perturbed
