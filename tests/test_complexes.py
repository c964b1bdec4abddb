"""Pseudomanifold certificates, boundary matrices, orientation binomials."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incitoric import complexes as cx
from incitoric import exactmath, toric
from incitoric.combinat import colex_rank
from incitoric.config import DEFAULT_CONFIG
from incitoric.errors import BadParameters, PreconditionFailed
from incitoric.exactmath import IntMatrix
from incitoric.incidence import build_matrix

# the 6-vertex real projective plane (hemi-icosahedron): 10 triangles,
# Euler characteristic 1
RP2_6 = [
    (1, 2, 3), (1, 2, 6), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]
# a 3x3 grid of squares, each cut along its diagonal, with the top row
# glued to the bottom one reversed: a 9-vertex Klein bottle
KLEIN_9 = [
    (1, 2, 5), (1, 2, 9), (1, 3, 4), (1, 3, 7), (1, 4, 5), (1, 7, 9),
    (2, 3, 6), (2, 3, 8), (2, 5, 6), (2, 8, 9), (3, 4, 6), (3, 7, 8),
    (4, 5, 8), (4, 6, 7), (4, 7, 8), (5, 6, 9), (5, 8, 9), (6, 7, 9),
]
# the same grid glued straight: a 9-vertex torus, balanced by the colors
# i + j mod 3 of the grid point (i, j)
TORUS_9 = [
    (1, 2, 5), (1, 2, 7), (1, 3, 4), (1, 3, 9), (1, 4, 5), (1, 7, 9),
    (2, 3, 6), (2, 3, 8), (2, 5, 6), (2, 7, 8), (3, 4, 6), (3, 8, 9),
    (4, 5, 8), (4, 6, 7), (4, 7, 8), (5, 6, 9), (5, 8, 9), (6, 7, 9),
]


def surface(facets):
    return cx.SimplicialComplex.from_facets(max(map(max, facets)), facets)


def boundary_matrix(delta, vertex_key=None):
    """Oracle: the top signed boundary matrix with rows labeled by ridges.

    Facet columns follow the stored facet order; within a facet the
    vertices are sorted by ``vertex_key`` (default: numeric) and removing
    the j-th gives sign (-1)^j.  Ridge rows are sorted by colex rank.
    Returns (matrix, ridge_labels).
    """
    ridges = sorted(
        {f - {v} for f in delta.facets for v in f},
        key=lambda r: colex_rank(tuple(sorted(r))),
    )
    row_of = {r: i for i, r in enumerate(ridges)}
    rows = [[0] * len(delta.facets) for _ in ridges]
    for col, f in enumerate(delta.facets):
        ordered = sorted(f, key=vertex_key)
        for j, v in enumerate(ordered):
            rows[row_of[f - {v}]][col] = (-1) ** j
    return IntMatrix.from_rows(rows), tuple(tuple(sorted(r)) for r in ridges)


def kernel_orientation(delta, coloring):
    """Oracle for the orientation of a pure complex: the saturated integer
    kernel (by HNF) of its boundary matrix restricted to the ridges of
    two facets, in the color-sorted vertex order when ``coloring`` is
    given.  Orientable when that kernel is spanned by one +-1 vector,
    returned with +1 on the first facet."""
    key = (lambda v: (coloring[v - 1], v)) if coloring else None
    mat, _ = boundary_matrix(delta, vertex_key=key)
    rows = [row for row in mat.entries if sum(map(abs, row)) == 2]
    kernel = exactmath.kernel_basis(IntMatrix.from_rows(rows or [(0,) * len(delta.facets)]))
    if len(kernel) != 1 or any(abs(x) != 1 for x in kernel[0]):
        return False, None
    gen = kernel[0]
    return True, tuple(-x for x in gen) if gen[0] < 0 else gen


def color_sorted_boundary(delta):
    """The top boundary matrix with each facet's vertices sorted by the
    verifier's balanced coloring, the order the orientation is read in."""
    coloring = cx.verify(delta).coloring
    return boundary_matrix(delta, vertex_key=lambda v: (coloring[v - 1], v))


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
        assert all(abs(e) == 1 for e in rep.orientation)

    def test_pinched_torus(self):
        pt = cx.pinched_torus()
        rep = cx.verify(pt)
        assert rep.pseudomanifold and rep.boundaryless
        assert rep.orientable
        assert rep.normal is False
        link = [tuple(sorted(f - {1})) for f in pt.facets if 1 in f]
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


class TestClosedSurfaces:
    def test_projective_plane(self):
        rp2 = surface(RP2_6)
        assert (rp2.n, len(rp2.facets)) == (6, 10)
        rep = cx.verify(rp2)
        assert rep.pseudomanifold and rep.boundaryless and rep.normal
        # the 1-skeleton is K6, so no 3-coloring; the dual graph is the
        # Petersen graph, which is not bipartite
        assert not rep.balanced and not rep.facet_ridge_bipartite
        assert rep.orientable is False and rep.orientation is None
        with pytest.raises(PreconditionFailed, match="orientable"):
            cx.orientation_binomial(rp2, rep)

    def test_klein_bottle(self):
        klein = surface(KLEIN_9)
        edges = {e for f in KLEIN_9 for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2]))}
        assert 9 - len(edges) + len(KLEIN_9) == 0
        rep = cx.verify(klein)
        assert rep.pseudomanifold and rep.boundaryless and rep.normal
        # bipartite but not orientable: without balancedness the two differ
        assert not rep.balanced and rep.facet_ridge_bipartite
        assert rep.orientable is False and rep.orientation is None
        with pytest.raises(PreconditionFailed, match="orientable"):
            cx.orientation_binomial(klein, rep)

    def test_torus_binomial(self):
        torus = surface(TORUS_9)
        rep = cx.verify(torus)
        assert rep.pseudomanifold and rep.boundaryless and rep.normal
        assert rep.balanced and rep.orientable and rep.facet_ridge_bipartite
        assert sorted(rep.orientation) == [-1] * 9 + [1] * 9
        b = cx.orientation_binomial(torus, rep)
        assert b.degree == 9 and b.is_squarefree()
        inc = build_matrix(9, 3, 2)
        assert not any(inc.matrix.mat_vec(b.vector))
        assert toric.is_primitive(b, inc)


ORACLE_COMPLEXES = [
    cx.octahedron(),
    cx.crosspolytope(4),
    cx.crossflip_example(),
    cx.pinched_torus(),
    surface(RP2_6),
    surface(KLEIN_9),
    surface(TORUS_9),
]


@st.composite
def relabelled_complexes(draw):
    """A complex of ``ORACLE_COMPLEXES`` with its vertices relabelled and
    its facets shuffled, and the original."""
    delta = draw(st.sampled_from(ORACLE_COMPLEXES))
    labels = draw(st.permutations(range(1, delta.n + 1)))
    order = draw(st.permutations(range(len(delta.facets))))
    facets = [[labels[v - 1] for v in delta.facets[i]] for i in order]
    return cx.SimplicialComplex.from_facets(delta.n, facets), delta


@settings(max_examples=100, deadline=None)
@given(relabelled_complexes())
def test_orientation_matches_the_kernel_oracle(pair):
    delta, original = pair
    rep = cx.verify(delta)
    orientable, epsilon = kernel_orientation(delta, rep.coloring)
    assert rep.orientable is orientable is cx.verify(original).orientable
    assert rep.orientation == epsilon


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
        rep = replace(cx.verify(oc), orientation=(1,) * 8)
        with pytest.raises(PreconditionFailed, match="not a cycle"):
            cx.orientation_binomial(oc, rep)

    def test_forged_report_fails_cycle_check(self):
        # the octahedron's report, handed in for a disk (its boundary
        # ridges lie on one facet) and for a complex whose ridge {1, 3}
        # lies on three facets
        oc = cx.octahedron()
        rep = cx.verify(oc)
        for delta, orientation in (
            (cx.SimplicialComplex(6, oc.facets[1:]), rep.orientation[1:]),
            (cx.SimplicialComplex(7, oc.facets + (frozenset({1, 3, 7}),)), rep.orientation + (1,)),
        ):
            with pytest.raises(PreconditionFailed, match="not a cycle"):
                cx.orientation_binomial(delta, replace(rep, orientation=orientation))


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

    def test_non_integer_label_rejected(self):
        with pytest.raises(BadParameters, match="line 3"):
            cx.parse_complex_file("1 2 3\n# note\n2 3 four\n")

    def test_repeated_vertex_rejected(self):
        with pytest.raises(BadParameters, match="line 2"):
            cx.parse_complex_file("1 2 3\n1 1 2\n")

    def test_facet_containment_rejected(self):
        with pytest.raises(BadParameters):
            cx.SimplicialComplex.from_facets(3, [(1, 2, 3), (1, 2)])
