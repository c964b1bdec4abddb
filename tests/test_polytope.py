"""Face tests, neighborliness, hyperplanes, triangulations, volumes."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incitoric
from incitoric import exactmath, polytope
from incitoric.combinat import colex_rank
from incitoric.errors import BadParameters, CertificateError, PreconditionFailed
from incitoric.exactmath import IntMatrix
from incitoric.incidence import build_matrix
from incitoric.polytope import (
    PointConfig,
    Triangulation,
    is_face,
    neighborliness,
    normalized_volume,
    placing_triangulation,
    supporting_hyperplane,
)


def points_config(pts):
    """A configuration of integer points labelled by their indices."""
    pts = tuple(tuple(p) for p in pts)
    return PointConfig(pts, tuple(range(len(pts))))


@pytest.fixture(scope="module")
def cfg632():
    return PointConfig.from_incidence(build_matrix(6, 3, 2))


@pytest.fixture(scope="module")
def tri632(cfg632):
    return placing_triangulation(cfg632)


class TestIsFace:
    def test_single_vertex(self, cfg632):
        cert = is_face(cfg632, [0])
        assert cert.is_face
        c, beta = cert.functional
        assert sum(a * b for a, b in zip(c, cfg632.points[0])) == beta
        for j in range(1, 20):
            assert sum(a * b for a, b in zip(c, cfg632.points[j])) < beta

    def test_full_set_improper_face(self, cfg632):
        cert = is_face(cfg632, range(20))
        assert cert.is_face

    def test_quartic_positive_support_not_a_face(self, cfg632):
        subset = [
            colex_rank(s) for s in [(1, 3, 6), (2, 4, 6), (1, 4, 5), (2, 3, 5)]
        ]
        cert = is_face(cfg632, subset)
        assert not cert.is_face
        w = cert.witness
        assert any(w)
        # positive support inside the queried subset
        assert all(w[j] <= 0 for j in range(20) if j not in subset)
        # and the witness is an affine dependence of the configuration
        assert sum(w) == 0
        for r in range(cfg632.ambient_dim):
            assert sum(w[i] * cfg632.points[i][r] for i in range(20)) == 0

    def test_certificates_reproducible(self, cfg632):
        a = is_face(cfg632, [3, 7])
        b = is_face(cfg632, [3, 7])
        assert a == b


class TestNeighborliness:
    def test_632_is_exactly_three(self, cfg632):
        rep = neighborliness(cfg632, 3)
        assert rep.neighborliness == 3
        assert rep.subsets_tested == 20 + 190 + 1140

    def test_square_diagonal_witness_found(self):
        # every vertex is a face; the first pair in colex order that is
        # not is the diagonal (1,0), (0,1), refuted by p1 + p2 = p0 + p3
        cfg = points_config([(0, 0), (1, 0), (0, 1), (1, 1)])
        rep = neighborliness(cfg, 3)
        assert rep.neighborliness == 1
        assert rep.subsets_tested == 4 + 3
        assert rep.non_face_witness == ((1, 2), (-1, 1, 1, -1))

    def test_simplex_everything_is_a_face(self):
        cfg = points_config([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        rep = neighborliness(cfg, 4)
        assert rep.neighborliness == 4
        assert rep.non_face_witness is None


class TestSupportingHyperplane:
    def test_single_vertex_123(self):
        inc = build_matrix(7, 3, 2)
        cfg = PointConfig.from_incidence(inc)
        sh = supporting_hyperplane(cfg, [colex_rank((1, 2, 3))])
        assert set(sh.tsets) == {(1, 2), (1, 3), (2, 3)}
        assert sh.bound == 3
        row_index = {t: i for i, t in enumerate(inc.row_labels)}
        v456 = cfg.points[colex_rank((4, 5, 6))]
        assert sum(v456[row_index[t]] for t in sh.tsets) == 0

    def test_three_vertices(self):
        inc = build_matrix(7, 3, 2)
        cfg = PointConfig.from_incidence(inc)
        subset = [colex_rank(s) for s in [(1, 2, 3), (1, 2, 4), (2, 3, 4)]]
        sh = supporting_hyperplane(cfg, subset)
        assert len(sh.tsets) <= 3 * 3
        assert set(sh.on_hyperplane) == set(subset)

    def test_preconditions(self):
        inc6 = build_matrix(6, 3, 2)
        cfg6 = PointConfig.from_incidence(inc6)
        with pytest.raises(PreconditionFailed):
            supporting_hyperplane(cfg6, [0])  # 2k = n fails
        inc7 = build_matrix(7, 3, 2)
        cfg7 = PointConfig.from_incidence(inc7)
        with pytest.raises(PreconditionFailed):
            supporting_hyperplane(cfg7, [0, 1, 2, 3])  # 4 = 2^t not allowed


class TestPlacing:
    def test_three_independent_points(self):
        cfg = points_config([(0, 0), (1, 0), (0, 1)])
        tri = placing_triangulation(cfg)
        assert tri.simplices == ((0, 1, 2),)

    def test_unit_square(self):
        cfg = points_config([(0, 0), (1, 0), (0, 1), (1, 1)])
        tri = placing_triangulation(cfg)
        assert len(tri.simplices) == 2
        assert normalized_volume(cfg, "euclidean", tri) == 2

    def test_segment_volume(self):
        cfg = points_config([(0, 0), (2, 0)])
        assert normalized_volume(cfg, "euclidean") == 2
        assert normalized_volume(cfg, "column_lattice") == 1

    def test_point_inside_current_hull_is_skipped(self):
        cfg = points_config([(0, 0), (2, 0), (1, 0), (0, 1)])
        tri = placing_triangulation(cfg)
        assert tri.skipped == (2,)
        assert tri.simplices == ((0, 1, 3),)
        assert normalized_volume(cfg, "euclidean", tri) == 2

    def test_632_simplex_count_frozen(self, tri632):
        assert tri632.dim == 14
        assert len(tri632.simplices) == 162
        assert tri632.skipped == ()

    def test_order_independent_volume(self, cfg632, tri632):
        reversed_tri = placing_triangulation(cfg632, order=list(reversed(range(20))))
        assert normalized_volume(cfg632, "euclidean", tri632) == normalized_volume(
            cfg632, "euclidean", reversed_tri
        )

    def test_interior_point_covered_once(self, cfg632, tri632):
        rng = random.Random(31)
        pts = cfg632.points
        # integer coordinates of p - p_0 in a basis of the affine hull's
        # lattice, behind a leading 1 so that barycentric weights are linear
        solver = cfg632.euclidean_solver
        coords = [(1,) + solver.solve([a - b for a, b in zip(p, pts[0])]) for p in pts]
        interior_hits = 0
        attempts = 0
        while interior_hits < 4 and attempts < 40:
            attempts += 1
            weights = [rng.randint(1, 97) for _ in pts]
            # the weighted mean scaled by the total weight, in integers
            target = [sum(w * c[r] for w, c in zip(weights, coords)) for r in range(len(coords[0]))]
            strict = 0
            on_boundary = False
            for simplex in tri632.simplices:
                where = _locate_in_simplex([coords[i] for i in simplex], target)
                if where == "interior":
                    strict += 1
                elif where == "boundary":
                    on_boundary = True
            if on_boundary:
                continue  # point sits on a shared face; draw again
            assert strict == 1
            interior_hits += 1
        assert interior_hits == 4


def _locate_in_simplex(verts, target):
    """Where ``target`` lies against the simplex on the homogeneous integer
    points ``verts``.  By Cramer's rule its j-th barycentric coordinate is
    det(V_j) / det(V), V having the vertices as rows and V_j the target in
    row j, so the signs come from Bareiss determinants."""
    orientation = exactmath.determinant(IntMatrix.from_rows(verts))
    on_face = False
    for j in range(len(verts)):
        replaced = IntMatrix.from_rows(verts[:j] + [target] + verts[j + 1 :])
        side = exactmath.determinant(replaced) * orientation
        if side < 0:
            return "outside"
        on_face = on_face or side == 0
    return "boundary" if on_face else "interior"


class TestVolumes:
    def test_632_column_lattice_degree(self, cfg632, tri632):
        assert normalized_volume(cfg632, "column_lattice", tri632) == 162

    def test_632_euclidean_frozen_and_divisible(self, cfg632, tri632):
        v = normalized_volume(cfg632, "euclidean", tri632)
        assert v == 5184
        assert v % 2 == 0 and v % 3 == 0

    def test_743_simplex_volume(self):
        cfg = PointConfig.from_incidence(build_matrix(7, 4, 3))
        tri = placing_triangulation(cfg)
        assert len(tri.simplices) == 1
        v = normalized_volume(cfg, "euclidean", tri)
        assert v == 11943936
        assert v % 2 == 0 and v % 3 == 0
        assert normalized_volume(cfg, "column_lattice", tri) == 1

    def test_bad_lattice_name(self, cfg632):
        with pytest.raises(BadParameters):
            normalized_volume(cfg632, "hexagonal")

    def test_degenerate_simplex_raises(self, monkeypatch):
        monkeypatch.setattr(exactmath, "determinant", lambda m: 0)
        with pytest.raises(CertificateError, match="degenerate simplex"):
            normalized_volume(points_config([(0, 0), (1, 0), (0, 1)]))

    def test_degenerate_simplex_raises_under_python_O(self):
        # the check is an explicit raise, not an assert, so -O keeps it
        code = (
            "from incitoric import exactmath\n"
            "from incitoric.errors import CertificateError\n"
            "from incitoric.polytope import PointConfig, normalized_volume\n"
            "exactmath.determinant = lambda m: 0\n"
            "try:\n"
            "    normalized_volume(PointConfig(((0, 0), (1, 0), (0, 1)), (0, 1, 2)))\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "degenerate simplex in triangulation"


def placing_by_kernels(cfg, order):
    """Oracle for placing_triangulation: the same placing rule, with the
    affine hull tested by rank and every new boundary facet's functional
    taken from an integer kernel of its own edge vectors."""
    pts = cfg.points
    cells, boundary, basis_rows, skipped = [], {}, [], []
    origin = interior = None
    weight = 0

    def in_affine_hull(idx):
        diff = tuple(a - b for a, b in zip(pts[idx], pts[origin]))
        return exactmath.rank_q(IntMatrix.from_rows(basis_rows + [diff])) == len(basis_rows)

    def facet_functional(facet):
        verts = sorted(facet)
        f0 = pts[verts[0]]
        rows = [tuple(a - b for a, b in zip(pts[v], f0)) for v in verts[1:]]
        rows_m = IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, len(f0))
        for cand in exactmath.kernel_basis(rows_m).vectors:
            val = sum(c * (x - weight * y) for c, x, y in zip(cand, interior, f0))
            if val != 0:
                g = cand if val < 0 else tuple(-x for x in cand)
                return g, sum(c * x for c, x in zip(g, f0))
        raise AssertionError("interior reference lies on a boundary facet")

    for idx in order:
        if origin is None:
            origin = idx
            cells = [(idx,)]
            boundary = {frozenset(): None}
            continue
        if not in_affine_hull(idx):
            boundary = {**{frozenset(c): None for c in cells}, **{f | {idx}: None for f in boundary}}
            cells = [c + (idx,) for c in cells]
            basis_rows.append(tuple(a - b for a, b in zip(pts[idx], pts[origin])))
            interior = tuple(sum(pts[v][r] for v in cells[0]) for r in range(cfg.ambient_dim))
            weight = len(cells[0])
            boundary = {f: facet_functional(f) for f in boundary}
            continue
        visible = [
            f for f, (g, beta) in boundary.items()
            if sum(c * x for c, x in zip(g, pts[idx])) > beta
        ]
        if not visible:
            skipped.append(idx)
            continue
        ridge_visible = {}
        for f in visible:
            cells.append(tuple(sorted(f)) + (idx,))
            for v in f:
                ridge_visible[f - {v}] = ridge_visible.get(f - {v}, 0) + 1
        for f in visible:
            del boundary[f]
        for r, count in ridge_visible.items():
            if count == 1:
                boundary[r | {idx}] = facet_functional(r | {idx})
    dim = len(basis_rows)
    full = tuple(sorted(c for c in cells if len(c) == dim + 1))
    return Triangulation(dim, full, tuple(skipped))


@pytest.fixture(scope="module")
def cfg532():
    return PointConfig.from_incidence(build_matrix(5, 3, 2))


@st.composite
def point_sets_with_order(draw):
    """Up to 7 distinct even points of a small box in dimension <= 4, some
    midpoints of their pairs (repeated directions, interior and boundary
    points), and an insertion order."""
    dim = draw(st.integers(1, 4))
    coord = st.integers(-2, 2).map(lambda x: 2 * x)
    base = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=7, unique=True))
    index = st.integers(0, len(base) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=4))
    mids = [tuple((a + b) // 2 for a, b in zip(base[i], base[j])) for i, j in pairs]
    pts = list(dict.fromkeys(base + mids))
    return points_config(pts), draw(st.permutations(range(len(pts))))


class TestPencilUpdates:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_agrees_with_kernel_oracle(self, cfg632, cfg532, data):
        cfg = data.draw(st.sampled_from([cfg632, cfg532]))
        order = data.draw(st.permutations(range(len(cfg.points))))
        assert placing_triangulation(cfg, order) == placing_by_kernels(cfg, order)

    def test_agrees_with_kernel_oracle_743(self):
        cfg = PointConfig.from_incidence(build_matrix(7, 4, 3))
        rng = random.Random(743)
        for _ in range(2):
            order = rng.sample(range(35), 35)
            assert placing_triangulation(cfg, order) == placing_by_kernels(cfg, order)

    @settings(max_examples=150, deadline=None)
    @given(point_sets_with_order())
    def test_agrees_with_kernel_oracle_on_small_sets(self, case):
        cfg, order = case
        assert placing_triangulation(cfg, order) == placing_by_kernels(cfg, order)

    def test_one_kernel_per_dimension_step(self, cfg632, monkeypatch):
        calls = []
        kernel_basis = exactmath.kernel_basis
        monkeypatch.setattr(exactmath, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m))
        assert placing_triangulation(cfg632).dim == len(calls) == 14

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda g, beta: (tuple(g), beta + 1), "misses a facet vertex"),
            (lambda g, beta: ((0,) * len(g), 0), "interior reference lies on a boundary facet"),
        ],
    )
    def test_corrupted_pencil_raises(self, monkeypatch, corrupt, message):
        monkeypatch.setattr(polytope, "_reduced", corrupt)
        with pytest.raises(CertificateError, match=message):
            placing_triangulation(points_config([(0, 0), (1, 0), (0, 1), (1, 1)]))

    def test_corrupted_pencil_raises_under_python_O(self):
        # the re-check is an explicit raise, not an assert, so -O keeps it
        code = (
            "from incitoric import polytope\n"
            "from incitoric.errors import CertificateError\n"
            "polytope._reduced = lambda g, beta: (tuple(g), beta + 1)\n"
            "try:\n"
            "    polytope.placing_triangulation(polytope.PointConfig(((0, 0), (1, 0), (0, 1)), (0, 1, 2)))\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "boundary functional misses a facet vertex"
