"""Pseudomanifold certificates, boundary matrices, orientation binomials."""

from dataclasses import replace

import pytest

from incitoric import complexes as cx
from incitoric import toric
from incitoric.combinat import colex_rank
from incitoric.config import DEFAULT_CONFIG
from incitoric.errors import BadParameters, PreconditionFailed
from incitoric.incidence import build_matrix


def color_sorted_boundary(delta):
    """The top boundary matrix with each facet's vertices sorted by the
    verifier's balanced coloring, the order the orientation is read in."""
    coloring = cx.verify(delta).coloring
    return cx.boundary_matrix(delta, vertex_key=lambda v: (coloring.color(v), v))


def subsets_to_binomial_parts(b, n, k):
    from incitoric.combinat import subsets_colex

    labels = list(subsets_colex(n, k))
    plus = {labels[i] for i in range(len(labels)) if b.plus[i]}
    minus = {labels[i] for i in range(len(labels)) if b.minus[i]}
    return plus, minus


# the color-sorted boundary matrix of the octahedron, as displayed: rows
# 15,16,13,14,25,26,23,24,35,36,45,46 by columns 135,145,136,146,235,245,236,246
DISPLAYED_ROWS = {
    (1, 5): (-1, -1, 0, 0, 0, 0, 0, 0),
    (1, 6): (0, 0, -1, -1, 0, 0, 0, 0),
    (1, 3): (1, 0, 1, 0, 0, 0, 0, 0),
    (1, 4): (0, 1, 0, 1, 0, 0, 0, 0),
    (2, 5): (0, 0, 0, 0, -1, -1, 0, 0),
    (2, 6): (0, 0, 0, 0, 0, 0, -1, -1),
    (2, 3): (0, 0, 0, 0, 1, 0, 1, 0),
    (2, 4): (0, 0, 0, 0, 0, 1, 0, 1),
    (3, 5): (-1, 0, 0, 0, -1, 0, 0, 0),
    (3, 6): (0, 0, -1, 0, 0, 0, -1, 0),
    (4, 5): (0, -1, 0, 0, 0, -1, 0, 0),
    (4, 6): (0, 0, 0, -1, 0, 0, 0, -1),
}
DISPLAYED_COLS = [(1, 3, 5), (1, 4, 5), (1, 3, 6), (1, 4, 6), (2, 3, 5), (2, 4, 5), (2, 3, 6), (2, 4, 6)]


class TestCrosspolytope:
    def test_square(self):
        sq = cx.crosspolytope(2)
        assert sq.n == 4 and len(sq.facets) == 4
        assert sq.dimension == 1

    def test_octahedron(self):
        oc = cx.octahedron()
        assert len(oc.facets) == 8
        assert {tuple(sorted(f)) for f in oc.facets} == {
            (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6),
            (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6),
        }

    def test_four_dimensional(self):
        cp = cx.crosspolytope(4)
        assert len(cp.facets) == 16
        rep = cx.verify(cp)
        assert rep.balanced and rep.dimension == 3


class TestVerify:
    def test_octahedron_all_predicates(self):
        rep = cx.verify(cx.octahedron())
        assert rep.pure and rep.dimension == 2
        assert rep.pseudomanifold and rep.boundaryless
        assert rep.normal and rep.balanced
        assert rep.orientable and rep.facet_ridge_bipartite
        assert all(abs(e) == 1 for e in rep.orientation.epsilon)

    def test_pinched_torus(self):
        pt = cx.pinched_torus()
        rep = cx.verify(pt)
        assert rep.pseudomanifold and rep.boundaryless
        assert rep.orientable
        assert rep.normal is False
        link = sorted(tuple(sorted(f)) for f in pt.link(frozenset({1})))
        # two disjoint 4-cycles around the pinch point
        cycle_a = {(2, 3), (3, 4), (4, 5), (2, 5)}
        cycle_b = {(6, 7), (7, 8), (8, 9), (6, 9)}
        assert set(link) == cycle_a | cycle_b

    def test_single_triangle(self):
        tri = cx.SimplicialComplex.from_facets(3, [(1, 2, 3)])
        rep = cx.verify(tri)
        assert rep.pure and rep.pseudomanifold
        assert not rep.boundaryless
        assert rep.orientable

    def test_lemma_bipartite_iff_orientable_on_bundled(self):
        bundled = [
            cx.octahedron(),
            cx.crosspolytope(3),
            cx.crosspolytope(4),
            cx.crossflip_example(),
        ]
        for delta in bundled:
            rep = cx.verify(delta)
            assert rep.balanced and rep.normal and rep.boundaryless
            assert rep.dimension >= 2
            assert rep.orientable == rep.facet_ridge_bipartite

    def test_pinched_torus_outside_lemma_hypotheses(self):
        # orientable but with a non-bipartite facet-ridge graph: the
        # normality hypothesis is doing real work
        rep = cx.verify(cx.pinched_torus())
        assert rep.orientable and not rep.facet_ridge_bipartite
        assert rep.normal is False


class TestSignedBoundary:
    def test_octahedron_matches_display(self):
        oc = cx.octahedron()
        mat, ridges = color_sorted_boundary(oc)
        got = {}
        col_labels = [tuple(sorted(f)) for f in oc.facets]
        for label, row in zip(ridges, mat.entries):
            reordered = tuple(row[col_labels.index(c)] for c in DISPLAYED_COLS)
            got[label] = reordered
        assert set(got) == set(DISPLAYED_ROWS)
        for label, row in got.items():
            expected = DISPLAYED_ROWS[label]
            assert row == expected or row == tuple(-x for x in expected)

    def test_rows_sign_uniform_and_incidence_pattern(self):
        oc = cx.octahedron()
        mat, ridges = color_sorted_boundary(oc)
        inc = build_matrix(6, 3, 2)
        col_ranks = [colex_rank(tuple(sorted(f))) for f in oc.facets]
        for label, row in zip(ridges, mat.entries):
            signs = {x for x in row if x}
            assert signs in ({1}, {-1})
            pattern = tuple(abs(x) for x in row)
            expected = tuple(
                inc.matrix.entries[colex_rank(label)][j] for j in col_ranks
            )
            assert pattern == expected

    def test_square_boundary(self):
        sq = cx.crosspolytope(2)
        mat, _ = color_sorted_boundary(sq)
        assert mat.rows == 4 and mat.cols == 4
        for row in mat.entries:
            signs = {x for x in row if x}
            assert len(signs) == 1


class TestOrientationBinomial:
    def test_octahedron_quartic(self):
        oc = cx.octahedron()
        rep = cx.verify(oc)
        b = cx.orientation_binomial(oc, rep)
        plus, minus = subsets_to_binomial_parts(b, 6, 3)
        displayed_plus = {(1, 3, 6), (2, 4, 6), (1, 4, 5), (2, 3, 5)}
        displayed_minus = {(1, 4, 6), (2, 3, 6), (2, 4, 5), (1, 3, 5)}
        assert {frozenset(plus), frozenset(minus)} == {
            frozenset(displayed_plus),
            frozenset(displayed_minus),
        }

    def test_crosspolytope4_degree_eight(self):
        cp = cx.crosspolytope(4)
        rep = cx.verify(cp)
        b = cx.orientation_binomial(cp, rep)
        assert b.degree == 8
        inc = build_matrix(8, 4, 3)
        assert not any(inc.matrix.mat_vec(b.vector))
        assert toric.is_primitive(b, inc)

    def test_crosspolytope5_degree_sixteen(self):
        # its box has 2^32 entries; meet-in-the-middle lists two of 2^16
        cp = cx.crosspolytope(5)
        rep = cx.verify(cp)
        b = cx.orientation_binomial(cp, rep)
        assert b.degree == 16
        inc = build_matrix(10, 5, 4)
        assert not any(inc.matrix.mat_vec(b.vector))
        assert toric.is_primitive(b, inc, DEFAULT_CONFIG)

    def test_crossflip_exact_binomial(self):
        cf = cx.crossflip_example()
        assert len(cf.facets) == 14
        rep = cx.verify(cf)
        assert rep.balanced and rep.orientable and rep.normal and rep.boundaryless
        b = cx.orientation_binomial(cf, rep)
        plus, minus = subsets_to_binomial_parts(b, 9, 3)
        assert plus == {(1, 4, 6), (2, 3, 6), (1, 3, 5), (2, 4, 5), (6, 7, 8), (1, 7, 9), (3, 8, 9)}
        assert minus == {(7, 8, 9), (1, 6, 7), (3, 6, 8), (1, 3, 9), (2, 4, 6), (1, 4, 5), (2, 3, 5)}
        assert b.degree == 7

    def test_precondition_lists_failures(self):
        tri = cx.SimplicialComplex.from_facets(3, [(1, 2, 3)])
        rep = cx.verify(tri)
        with pytest.raises(PreconditionFailed) as err:
            cx.orientation_binomial(tri, rep)
        assert "without boundary" in str(err.value)

    def test_bad_epsilon_rejected(self):
        oc = cx.octahedron()
        rep = replace(cx.verify(oc), orientation=cx.Orientation((1,) * 8))
        with pytest.raises(PreconditionFailed, match="not a cycle"):
            cx.orientation_binomial(oc, rep)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        oc = cx.octahedron()
        text = "".join(" ".join(map(str, sorted(f))) + "\n" for f in oc.facets)
        again = cx.parse_complex_file(text)
        assert set(again.facets) == set(oc.facets)
        assert again.n == 6

    def test_comments_and_blanks(self):
        delta = cx.parse_complex_file("# cap\n1 2 3\n\n2 3 4  # other\n")
        assert set(delta.facets) == {frozenset({1, 2, 3}), frozenset({2, 3, 4})}

    def test_facet_containment_rejected(self):
        with pytest.raises(BadParameters):
            cx.SimplicialComplex.from_facets(3, [(1, 2, 3), (1, 2)])
