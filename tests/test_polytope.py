"""Face tests, neighborliness, triangulations, volumes."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incitoric
from incitoric import designs, exactmath, polytope
from incitoric.combinat import colex_rank, subsets_colex
from incitoric.config import RunConfig
from incitoric.errors import BadParameters, BudgetExceeded, CertificateError
from incitoric.exactmath import IntMatrix
from incitoric.incidence import build_matrix
from incitoric.lp import LinearConstraint, RationalLpProblem, lp_feasible
from incitoric.polytope import (
    FaceCertificate,
    PointConfig,
    Triangulation,
    is_face,
    neighborliness,
    normalized_volume,
    placing_triangulation,
)


def points_config(pts):
    """A configuration of integer points: the matrix with them as columns."""
    return PointConfig(IntMatrix.from_rows(zip(*pts)))


def columns(cfg):
    """The points of a configuration, as dense coordinate tuples."""
    return cfg.matrix.transpose().entries


@pytest.fixture(scope="module")
def cfg632():
    return PointConfig.from_incidence(build_matrix(6, 3, 2))


@pytest.fixture(scope="module")
def tri632(cfg632):
    return placing_triangulation(cfg632)


class TestPointConfig:
    def test_equal_points_raise(self):
        with pytest.raises(BadParameters, match="configuration points must be distinct"):
            points_config([(0, 0), (1, 0), (0, 1), (1, 0)])

    def test_incidence_column_off_the_degree_hyperplane_raises(self):
        inc = build_matrix(4, 2, 1)
        rows = [list(row) for row in inc.matrix.entries]
        rows[0][-1] += 1  # the last column, (0, 0, 1, 1), gets a third 1
        bad = dataclasses.replace(inc, matrix=IntMatrix.from_rows(rows))
        with pytest.raises(BadParameters, match="incidence columns left the degree hyperplane"):
            PointConfig.from_incidence(bad)

    def test_the_configuration_is_the_incidence_matrix(self):
        inc = build_matrix(6, 3, 2)
        assert PointConfig.from_incidence(inc).matrix is inc.matrix


class TestIsFace:
    def test_single_vertex(self, cfg632):
        cert = is_face(cfg632, [0])
        assert cert.is_face
        c, beta = cert.functional
        assert sum(a * b for a, b in zip(c, cfg632.matrix.column(0))) == beta
        for j in range(1, 20):
            assert sum(a * b for a, b in zip(c, cfg632.matrix.column(j))) < beta

    def test_full_set_improper_face(self, cfg632):
        cert = is_face(cfg632, range(20))
        assert cert.is_face

    def test_whole_set_gets_the_zero_functional_from_the_lp(self, cfg632, monkeypatch):
        # the LP of the whole set has no variables; it is still solved
        calls = []

        def counting_lp(problem):
            calls.append(problem)
            return lp_feasible(problem)

        monkeypatch.setattr(polytope, "lp_feasible", counting_lp)
        triangle = points_config([(0, 0), (1, 0), (0, 1)])
        for cfg in (cfg632, triangle):
            d, m = cfg.matrix.rows, cfg.matrix.cols
            assert is_face(cfg, range(m)) == FaceCertificate(True, ((0,) * d, 0), None)
        assert [p.nvars for p in calls] == [0, 0]

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
        for row in cfg632.matrix.entries:
            assert sum(w[i] * row[i] for i in range(20)) == 0

    def test_certificates_reproducible(self, cfg632):
        a = is_face(cfg632, [3, 7])
        b = is_face(cfg632, [3, 7])
        assert a == b


def primal_face_oracle(cfg, subset):
    """Oracle for is_face: the face test in primal coordinates.  One LP
    over the d + 2 rows sum_i v_i p_i = 0, sum_i v_i = 0 and total outside
    weight 1, with v >= 0 outside the subset: a solution refutes the face
    (its negative is the witness), and the Farkas multipliers of an
    insoluble system give the supporting functional."""
    m, nd = cfg.matrix.cols, cfg.matrix.rows
    inside = set(subset)
    rows = [LinearConstraint.of(row, 0) for row in cfg.matrix.entries]
    rows.append(LinearConstraint.of([1] * m, 0))
    rows.append(LinearConstraint.of([0 if i in inside else 1 for i in range(m)], 1))
    # the LP takes non-negative variables only: v_i = v_i+ - v_i- inside
    cols = [(i, s) for i in range(m) for s in ((1, -1) if i in inside else (1,))]
    split = [LinearConstraint.of([s * r.coeffs[i] for i, s in cols], r.rhs) for r in rows]
    res = lp_feasible(RationalLpProblem.of(split, len(cols)))
    if res.status == "optimal":
        v = [0] * m
        for (i, s), x in zip(cols, res.values):
            v[i] += s * x
        g = gcd(res.den, *v)
        return FaceCertificate(False, None, tuple(-x // g for x in v))
    # den times the multipliers w, w_aff and the outside weight's
    c, beta = [-x for x in res.values[:nd]], res.values[nd]
    return FaceCertificate(True, (tuple(c), beta), None)


def certificate_holds(cfg, subset, cert):
    """Plain integer re-check of a face certificate of either path."""
    inside = set(subset)
    outside = [j for j in range(cfg.matrix.cols) if j not in inside]
    if cert.is_face:
        c, beta = cert.functional
        dots = [sum(a * b for a, b in zip(c, p)) for p in columns(cfg)]
        return all(dots[i] == beta for i in inside) and all(dots[j] < beta for j in outside)
    w = cert.witness
    return (
        any(w) and sum(w) == 0
        and all(sum(a * b for a, b in zip(w, row)) == 0 for row in cfg.matrix.entries)
        and all(w[j] <= 0 for j in outside) and any(w[j] < 0 for j in outside)
    )


def pod_supports(n):
    return [[i for i, x in enumerate(pod) if x > 0] for pod in designs.pods(n, 3, 2)]


@pytest.fixture(scope="module")
def cfg732():
    return PointConfig.from_incidence(build_matrix(7, 3, 2))


class TestGaleFaceTestAgainstPrimalOracle:
    def assert_same_verdicts(self, cfg, subsets):
        verdicts = []
        for subset in subsets:
            gale, primal = is_face(cfg, subset), primal_face_oracle(cfg, subset)
            assert gale.is_face == primal.is_face, subset
            assert certificate_holds(cfg, subset, gale), subset
            assert certificate_holds(cfg, subset, primal), subset
            verdicts.append(gale.is_face)
        return verdicts

    def test_every_small_subset_of_632(self, cfg632):
        subsets = [s for size in (1, 2, 3) for s in subsets_colex(20, size, first=0)]
        assert len(subsets) == 1350
        assert all(self.assert_same_verdicts(cfg632, subsets))

    def test_pod_supports(self, cfg632, cfg732):
        supports632, supports732 = pod_supports(6), pod_supports(7)
        assert (len(supports632), len(supports732)) == (15, 105)
        assert not any(self.assert_same_verdicts(cfg632, supports632))
        assert not any(self.assert_same_verdicts(cfg732, supports732))

    def test_random_subsets_of_732(self, cfg732):
        rng = random.Random(11)
        subsets = [sorted(rng.sample(range(35), rng.randint(4, 8))) for _ in range(50)]
        verdicts = self.assert_same_verdicts(cfg732, subsets)
        assert 0 < sum(verdicts) < 50


def certificates_digest(certs):
    return hashlib.sha256("\n".join(map(repr, certs)).encode()).hexdigest()


class TestCertificateDigests:
    """The exact certificates, not only the verdicts: a change to the LP's
    pivoting or to the recombination of its result shows here first."""

    def test_full_632_scan(self, cfg632):
        subsets = [s for size in (1, 2, 3) for s in subsets_colex(20, size, first=0)]
        assert len(subsets) == 1350
        digest = certificates_digest([is_face(cfg632, s) for s in subsets])
        assert digest == "3bfadf7ba3db55ca131ddc99ca4440961f3c6c84fde2048653b6632ccbad7f1a"

    def test_seeded_732_subsets(self, cfg732):
        rng = random.Random(24)
        subsets = [sorted(rng.sample(range(35), rng.randint(1, 12))) for _ in range(200)]
        certs = [is_face(cfg732, s) for s in subsets]
        assert sum(c.is_face for c in certs) == 149
        digest = certificates_digest(certs)
        assert digest == "ec8d374f4cc1f320cdcc7350e2937b319514893df317e4a545c77b36a96bb31d"


class TestGaleDual:
    @pytest.mark.parametrize("n", [6, 7])
    def test_basis_spans_the_nullspace_by_sympy(self, n):
        import sympy  # test-only oracle

        cfg = PointConfig.from_incidence(build_matrix(n, 3, 2))
        m = cfg.matrix.cols
        a = sympy.Matrix([*map(list, cfg.matrix.entries), [1] * m])
        basis = sympy.Matrix(cfg.gale.rows.entries).T  # m x r
        r = m - a.rank()
        assert basis.shape == (m, r) and basis.rank() == r
        assert a * basis == sympy.zeros(a.rows, r)
        assert r == {6: 5, 7: 14}[n]

    def test_simplex_has_rank_zero_and_every_subset_is_a_face(self, monkeypatch):
        cfg = PointConfig.from_incidence(build_matrix(7, 4, 3))
        assert cfg.gale.rows == IntMatrix(0, 35, ())
        rows = []

        def counting_lp(problem):
            rows.append(len(problem.constraints))
            return lp_feasible(problem)

        monkeypatch.setattr(polytope, "lp_feasible", counting_lp)
        rng = random.Random(7)
        subsets = [[j] for j in range(35)] + [rng.sample(range(35), rng.randint(2, 34)) for _ in range(30)]
        for subset in subsets:
            cert = is_face(cfg, subset)
            assert cert.is_face and certificate_holds(cfg, subset, cert)
        assert rows == [0] * len(subsets)

    def test_face_tests_reuse_the_cached_sparse_columns(self, monkeypatch):
        # the Gale vectors and the points are the column nonzeros of two
        # matrices, built once: later face tests, non-faces included,
        # build no sparse vector
        cfg = PointConfig.from_incidence(build_matrix(6, 3, 2))
        quartic = [colex_rank(s) for s in [(1, 3, 6), (2, 4, 6), (1, 4, 5), (2, 3, 5)]]
        assert not is_face(cfg, quartic).is_face and is_face(cfg, [0]).is_face
        monkeypatch.setattr(exactmath, "nonzeros", lambda vectors: pytest.fail("nonzeros rebuilt"))
        for subset in (quartic, quartic[:3], [1], [2, 5]):
            assert certificate_holds(cfg, subset, is_face(cfg, subset))
        assert not is_face(cfg, quartic).is_face

    def test_square_has_rank_one_and_the_diagonal_witness(self):
        cfg = points_config([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert [len(g) for g in cfg.gale.rows.entries] == [4]
        assert is_face(cfg, (1, 2)).witness == (-1, 1, 1, -1)
        assert is_face(cfg, (0, 3)).witness == (1, -1, -1, 1)
        assert all(is_face(cfg, edge).is_face for edge in ((0, 1), (0, 2), (1, 3), (2, 3)))


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

    @pytest.mark.parametrize("s_max", [0, -3])
    def test_s_max_below_one_rejected(self, cfg632, s_max):
        with pytest.raises(BadParameters):
            neighborliness(cfg632, s_max)

    def test_face_tests_past_the_budget_raise(self, cfg632):
        # the 20 singletons fit a budget of 100; the 190 pairs do not
        with pytest.raises(BudgetExceeded, match=r"C\(20,2\) face tests exceed the budget"):
            neighborliness(cfg632, 2, RunConfig(box_budget=100))

    def test_s_max_past_the_point_count_rejected(self, cfg632):
        # sizes past the point count have no subset, so no non-face
        with pytest.raises(BadParameters, match="s_max 21 exceeds the 20 points"):
            neighborliness(cfg632, 21)
        simplex = points_config([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(BadParameters, match="s_max 5 exceeds the 4 points"):
            neighborliness(simplex, 5)


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

    def test_simplex_budget_is_a_hard_limit(self, cfg632):
        # the budget is checked as each cell is added, so 161 stops the
        # 162nd cell and 162 returns them all
        with pytest.raises(BudgetExceeded, match="simplex budget"):
            placing_triangulation(cfg632, config=RunConfig(volume_simplex_budget=161))
        tri = placing_triangulation(cfg632, config=RunConfig(volume_simplex_budget=162))
        assert len(tri.simplices) == 162

    def test_triangulations_pinned(self):
        # the whole Triangulation of 36 (configuration, order) pairs,
        # pinned by the sha256 of their joined reprs
        reprs = []
        for nkt in [(6, 3, 2), (5, 3, 2), (6, 3, 1), (6, 4, 2), (7, 4, 3), (6, 2, 1), (5, 2, 1), (7, 3, 1), (6, 4, 1)]:
            cfg = PointConfig.from_incidence(build_matrix(*nkt))
            m = cfg.matrix.cols
            orders = [list(range(m)), list(range(m))[::-1]] + [random.Random(s).sample(range(m), m) for s in (1, 23)]
            reprs += [repr(placing_triangulation(cfg, order)) for order in orders]
        digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        assert digest == "93bd0fcacc418f8f369c937ab9d70fee58b0d030b185f806aaa3fd73a3c33c31"

    def test_order_independent_volume(self, cfg632, tri632):
        reversed_tri = placing_triangulation(cfg632, order=list(reversed(range(20))))
        assert normalized_volume(cfg632, "euclidean", tri632) == normalized_volume(
            cfg632, "euclidean", reversed_tri
        )

    @pytest.mark.parametrize("seed", [1, 23, 4096])
    def test_seeded_632_orders(self, cfg632, seed):
        # the degree and the euclidean volume do not depend on the order
        order = list(range(20))
        random.Random(seed).shuffle(order)
        tri = placing_triangulation(cfg632, order)
        assert len(set(tri.simplices)) == len(tri.simplices) == 162
        assert all(len(set(c)) == 15 for c in tri.simplices)
        assert normalized_volume(cfg632, "column_lattice", tri) == 162
        assert normalized_volume(cfg632, "euclidean", tri) == 5184

    def test_interior_point_covered_once(self, cfg632, tri632):
        rng = random.Random(31)
        pts = columns(cfg632)
        # the points on the staircase rows, which map the affine hull
        # injectively, behind a leading 1 so that barycentric weights are
        # linear
        rows, _ = cfg632.volume_frame
        coords = [(1,) + tuple(p[r] for r in rows) for p in pts]
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
    row j, so the signs come from determinants, each the signed product of
    the pivots of one column echelon."""
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

    def test_one_point_has_volume_one(self):
        # the degree of a point; the 0-simplex is a 0 x 0 determinant
        for cfg in (points_config([(1, 2)]), PointConfig.from_incidence(build_matrix(3, 3, 2))):
            tri = placing_triangulation(cfg)
            assert (tri.dim, tri.simplices) == (0, ((0,),))
            assert normalized_volume(cfg, "euclidean", tri) == 1
            assert normalized_volume(cfg, "column_lattice", tri) == 1

    def test_no_solve_and_one_frame_per_config(self, tri632, monkeypatch):
        solves, frames, kernels = [], [], []
        monkeypatch.setattr(exactmath.HnfSolver, "solve", lambda self, v: solves.append(v))
        staircase = exactmath.staircase
        monkeypatch.setattr(exactmath, "staircase", lambda basis: frames.append(basis) or staircase(basis))
        monkeypatch.setattr(exactmath, "kernel_basis", lambda m: kernels.append(m))
        cfg = PointConfig.from_incidence(build_matrix(6, 3, 2))
        one = Triangulation(tri632.dim, tri632.simplices[:1], ())
        for lattice, volume in (("column_lattice", 162), ("euclidean", 5184)):
            assert normalized_volume(cfg, lattice, tri632) == volume
            assert normalized_volume(cfg, lattice, one) >= 1
        # one staircase, of the column lattice, read on the first call; the
        # saturation's index comes from the diagonal form, not a kernel
        assert len(frames) == 1
        assert solves == [] and kernels == []

    def test_point_outside_its_lattice_raises(self):
        # a forged index that does not divide the simplex determinant, 1
        cfg = points_config([(0, 0), (1, 0), (0, 1)])
        cfg.__dict__["volume_frame"] = ((0, 1), {"column_lattice": 1, "euclidean": 2})
        assert normalized_volume(cfg, "column_lattice") == 1
        with pytest.raises(CertificateError, match="not a multiple of the lattice index"):
            normalized_volume(cfg, "euclidean")

    def test_forged_index_raises_under_python_O(self):
        code = (
            "from incitoric.errors import CertificateError\n"
            "from incitoric.exactmath import IntMatrix\n"
            "from incitoric.polytope import PointConfig, normalized_volume\n"
            "cfg = PointConfig(IntMatrix.from_rows([(0, 2, 0), (0, 0, 1)]))\n"
            "cfg.__dict__['volume_frame'] = ((0, 1), {'column_lattice': 1, 'euclidean': 4})\n"
            "try:\n"
            "    normalized_volume(cfg, 'euclidean')\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "simplex determinant is not a multiple of the lattice index"

    def test_saturation_index_not_dividing_raises(self, monkeypatch):
        # [saturation : column lattice] divides the column lattice's index,
        # here 2; a forged diagonal form whose product is 3 is caught
        monkeypatch.setattr(exactmath, "diagonal", lambda m: (1, 3))
        cfg = points_config([(0, 0), (2, 0), (0, 1)])
        with pytest.raises(CertificateError, match="saturation index does not divide"):
            normalized_volume(cfg)

    def test_saturation_index_not_dividing_raises_under_python_O(self):
        code = (
            "from incitoric import exactmath\n"
            "from incitoric.errors import CertificateError\n"
            "from incitoric.polytope import PointConfig, normalized_volume\n"
            "exactmath.diagonal = lambda m: (1, 3)\n"
            "try:\n"
            "    normalized_volume(PointConfig(exactmath.IntMatrix.from_rows([(0, 2, 0), (0, 0, 1)])))\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "the saturation index does not divide the column lattice's index"

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
            "    normalized_volume(PointConfig(exactmath.IntMatrix.from_rows([(0, 1, 0), (0, 0, 1)])))\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "degenerate simplex in triangulation"


def volumes_by_solves(cfg, lattice, tri):
    """Oracle for normalized_volume: the integer coordinates of every
    ``p_j - p_0`` in a basis of the lattice, one ``HnfSolver`` solve per
    point, then one determinant of coordinate differences per simplex."""
    nd = cfg.matrix.rows
    pts = columns(cfg)
    diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts]
    basis = exactmath.lattice_from_generators(nd, diffs[1:])
    if lattice == "euclidean":
        normals = exactmath.kernel_basis(IntMatrix(len(basis), nd, basis))
        basis = exactmath.kernel_basis(IntMatrix(len(normals), nd, normals))
    solver = exactmath.HnfSolver(IntMatrix(len(basis), nd, basis).transpose())
    assert solver.rank == len(basis)
    coords = [solver.solve(d) for d in diffs]
    assert None not in coords
    return [
        abs(exactmath.determinant(IntMatrix.from_rows(
            [[a - b for a, b in zip(coords[v], coords[s[0]])] for v in s[1:]]
        )))
        for s in tri.simplices
    ]


ORACLE_TRIPLES = [
    (6, 3, 2), (7, 4, 3), (5, 3, 1), (5, 2, 1), (6, 2, 1), (6, 4, 2), (6, 3, 1), (7, 5, 2), (6, 4, 3)
]


class TestStaircaseVolumes:
    @pytest.mark.parametrize("nkt", ORACLE_TRIPLES)
    def test_per_simplex_volumes_match_the_solve_oracle(self, nkt):
        cfg = PointConfig.from_incidence(build_matrix(*nkt))
        _, index = cfg.volume_frame
        for seed in (None, 1, 23):
            order = list(range(cfg.matrix.cols))
            if seed is not None:
                random.Random(seed).shuffle(order)
            tri = placing_triangulation(cfg, order)
            per = {
                lattice: [normalized_volume(cfg, lattice, Triangulation(tri.dim, (s,), ()))
                          for s in tri.simplices]
                for lattice in ("column_lattice", "euclidean")
            }
            for lattice, volumes in per.items():
                assert volumes == volumes_by_solves(cfg, lattice, tri)
                assert normalized_volume(cfg, lattice, tri) == sum(volumes)
            # the euclidean volume is the column volume times the index
            # of the column lattice in the euclidean one
            ratio, rest = divmod(index["column_lattice"], index["euclidean"])
            assert rest == 0
            assert per["euclidean"] == [ratio * v for v in per["column_lattice"]]

    @pytest.mark.parametrize("nkt, column, ratio", [
        ((6, 3, 2), 162, 32), ((7, 4, 3), 1, 11943936), ((6, 4, 3), 1, 48), ((7, 3, 2), None, 64),
    ])
    def test_index_of_the_column_lattice(self, nkt, column, ratio):
        cfg = PointConfig.from_incidence(build_matrix(*nkt))
        _, index = cfg.volume_frame
        assert index["column_lattice"] == ratio * index["euclidean"]
        if column is not None:
            tri = placing_triangulation(cfg)
            assert normalized_volume(cfg, "column_lattice", tri) == column
            assert normalized_volume(cfg, "euclidean", tri) == ratio * column

    def test_staircase_rows_are_the_pivots_of_the_column_hnf(self, cfg632):
        rows, index = cfg632.volume_frame
        pts = columns(cfg632)
        diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        res = exactmath.hnf(IntMatrix.from_rows(diffs).transpose())
        assert rows == tuple(i for i, _ in res.pivots)
        assert index["column_lattice"] == prod(res.h[j][i] for i, j in res.pivots)


def placing_by_kernels(cfg, order):
    """Oracle for placing_triangulation: the same placing rule, with the
    affine hull tested by rank and every new boundary facet's functional
    taken from an integer kernel of its own edge vectors."""
    pts = columns(cfg)
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
        rows_m = IntMatrix.from_rows(rows) if rows else IntMatrix(0, len(f0), ())
        for cand in exactmath.kernel_basis(rows_m):
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
            interior = tuple(sum(pts[v][r] for v in cells[0]) for r in range(cfg.matrix.rows))
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
        order = data.draw(st.permutations(range(cfg.matrix.cols)))
        assert placing_triangulation(cfg, order) == placing_by_kernels(cfg, order)

    @pytest.mark.parametrize(
        "nkt, seed, draws",
        [((7, 4, 3), 743, 2)] + [(nkt, s, 1) for nkt in [(6, 2, 1), (6, 3, 1), (7, 3, 1)] for s in (1, 2)],
        ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_agrees_with_kernel_oracle_on_seeded_orders(self, nkt, seed, draws):
        # the hypersimplices make the most same-dimension steps, with many
        # points on facet hyperplanes
        cfg = PointConfig.from_incidence(build_matrix(*nkt))
        m = cfg.matrix.cols
        rng = random.Random(seed)
        for _ in range(draws):
            order = rng.sample(range(m), m)
            assert placing_triangulation(cfg, order) == placing_by_kernels(cfg, order)

    @settings(max_examples=150, deadline=None)
    @given(point_sets_with_order())
    def test_agrees_with_kernel_oracle_on_small_sets(self, case):
        cfg, order = case
        assert placing_triangulation(cfg, order) == placing_by_kernels(cfg, order)

    def test_no_hnf_call(self, cfg632, monkeypatch):
        # hull normals are kept by pencils, so no kernel is computed
        calls = []
        hnf = exactmath.hnf
        monkeypatch.setattr(exactmath, "hnf", lambda m: calls.append(m) or hnf(m))
        assert placing_triangulation(cfg632).dim == 14
        assert calls == []

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
            "from incitoric.exactmath import IntMatrix\n"
            "polytope._reduced = lambda g, beta: (tuple(g), beta + 1)\n"
            "try:\n"
            "    polytope.placing_triangulation(polytope.PointConfig(IntMatrix.from_rows([(0, 1, 0), (0, 0, 1)])))\n"
            "except CertificateError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "boundary functional misses a facet vertex"


def back_substitution_oracle(cfg):
    """Oracle for is_face: the Gale-dual LP with the right-hand side summed
    over the outside points, and each functional found by integer
    back-substitution through the staircase of the HNF of ``[P; 1]``, from
    the last pivot up, re-checked densely."""
    m = cfg.matrix.cols
    res = exactmath.hnf(IntMatrix.from_rows([*cfg.matrix.entries, (1,) * m]))
    h, u, rank = res.h, res.u, len(res.pivots)
    gale = [tuple(d[j] for d in u[rank:]) for j in range(m)]

    def oracle(subset):
        inside = set(subset)
        outside = [j for j in range(m) if j not in inside]
        cons = [
            LinearConstraint.of([gale[j][i] for j in outside], -sum(gale[j][i] for j in outside))
            for i in range(m - rank)
        ]
        lp = lp_feasible(RationalLpProblem.of(cons, len(outside)))
        if lp.status == "infeasible":
            v = [sum(y * g for y, g in zip(lp.values, gale[j])) for j in range(m)]
            g = gcd(*v)
            return FaceCertificate(False, None, tuple(-x // g for x in v))
        slacks = [0] * m
        for j, x in zip(outside, lp.values):
            slacks[j] = -(lp.den + x)
        # y . H = slacks . U on the pivot columns, y zero off the pivot rows
        y, den = [0] * len(h[0]), 1
        for pi, pk in reversed(res.pivots):
            rest = sum(y[i] * h[pk][i] for i in range(pi + 1, len(y)))
            num = den * sum(z * u[pk][i] for i, z in enumerate(slacks)) - rest
            scale = h[pk][pi] // gcd(num, h[pk][pi])
            den, num, y = den * scale, num * scale, [x * scale for x in y]
            y[pi] = num // h[pk][pi]
        c, beta = y[:-1], -y[-1]
        assert [sum(a * b for a, b in zip(c, p)) - beta for p in columns(cfg)] == [den * z for z in slacks]
        return FaceCertificate(True, polytope._reduced(c, beta), None)

    return oracle


FORGE_GALE_ROW = """
def forged_hnf(m, hnf=exactmath.hnf):
    # one entry of the first dependence column raised by one
    res = hnf(m)
    u, col = list(res.u), len(res.pivots)
    u[col] = (u[col][0] + 1,) + u[col][1:]
    return exactmath.HnfResult(res.h, tuple(u), res.pivots)
"""


def run_under_python_O(code):
    env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


class TestLeftInverse:
    @pytest.mark.parametrize("nkt, s_max", [((6, 3, 2), 3), ((6, 3, 1), 3), ((5, 2, 1), 3), ((7, 4, 3), 2)])
    def test_certificates_equal_the_back_substitution_oracle(self, nkt, s_max):
        # (7,4,3) is a simplex: Gale rank 0, an LP without rows
        cfg = PointConfig.from_incidence(build_matrix(*nkt))
        oracle = back_substitution_oracle(cfg)
        m = cfg.matrix.cols
        subsets = [s for size in range(1, s_max + 1) for s in subsets_colex(m, size, first=0)]
        assert [is_face(cfg, s) for s in subsets] == [oracle(s) for s in subsets]

    def test_certificates_equal_the_oracle_on_732_subsets(self, cfg732):
        oracle = back_substitution_oracle(cfg732)
        rng = random.Random(26)
        subsets = [sorted(rng.sample(range(35), rng.randint(1, 14))) for _ in range(400)]
        certs = [is_face(cfg732, s) for s in subsets]
        assert 0 < sum(c.is_face for c in certs) < 400
        assert certs == [oracle(s) for s in subsets]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_slacks_of_a_functional_recombine_to_it(self, cfg632, cfg732, data):
        cfg = data.draw(st.sampled_from([cfg632, cfg732, None]))
        if cfg is None:
            cfg = data.draw(point_sets_with_order())[0]
        nd = cfg.matrix.rows
        c = data.draw(st.lists(st.integers(-50, 50), min_size=nd, max_size=nd))
        beta = data.draw(st.integers(-50, 50))
        slacks = [sum(a * b for a, b in zip(c, p)) - beta for p in columns(cfg)]
        gale = cfg.gale
        m = cfg.matrix.cols
        rank = m - gale.rows.rows
        assert gale.den > 0 and len(gale.left) == nd + 1
        assert sorted(map(len, gale.left)) == [0] * (nd + 1 - rank) + [m] * rank
        # D y_R = sum_j s_j L[j] on the pivot rows R, y zero off them
        y = [sum(z * x for z, x in zip(slacks, col)) for col in gale.left]
        assert [sum(a * b for a, b in zip(y, (*p, 1))) for p in columns(cfg)] == [gale.den * z for z in slacks]
        assert gale.functional_with_slacks(slacks) == (y[:-1], -y[-1], gale.den)

    def test_forged_left_inverse_entry_raises(self):
        cfg = PointConfig.from_incidence(build_matrix(6, 3, 2))
        left = [list(col) for col in cfg.gale.left]
        left[0][1] += 1
        cfg.__dict__["gale"] = polytope.GaleDual(cfg.gale.rows, tuple(map(tuple, left)), cfg.gale.den)
        with pytest.raises(CertificateError, match="does not recombine to its slack vector"):
            is_face(cfg, [0])

    def test_forged_gale_row_sum_raises(self, monkeypatch):
        scope = {"exactmath": exactmath}
        exec(FORGE_GALE_ROW, scope)
        monkeypatch.setattr(exactmath, "hnf", scope["forged_hnf"])
        cfg = PointConfig.from_incidence(build_matrix(6, 3, 2))
        with pytest.raises(CertificateError, match="Gale row does not sum to zero"):
            is_face(cfg, [0])

    def test_forgeries_raise_under_python_O(self):
        # both checks are explicit raises, not asserts, so -O keeps them
        code = (
            "from incitoric import exactmath, polytope\n"
            "from incitoric.errors import CertificateError\n"
            "from incitoric.incidence import build_matrix\n"
            "cfg = polytope.PointConfig.from_incidence(build_matrix(6, 3, 2))\n"
            "g = cfg.gale\n"
            "left = [list(col) for col in g.left]\n"
            "left[0][1] += 1\n"
            "cfg.__dict__['gale'] = polytope.GaleDual(g.rows, tuple(map(tuple, left)), g.den)\n"
            + FORGE_GALE_ROW +
            "exactmath.hnf = forged_hnf\n"
            "for config in (cfg, polytope.PointConfig(cfg.matrix)):\n"
            "    try:\n"
            "        polytope.is_face(config, [0])\n"
            "    except CertificateError as e:\n"
            "        print(e)\n"
        )
        assert run_under_python_O(code).splitlines() == [
            "supporting functional does not recombine to its slack vector",
            "a Gale row does not sum to zero over the points",
        ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse_affine_dependence_agrees_with_dense(self, cfg632, data):
        cfg = data.draw(st.sampled_from([cfg632, None]))
        if cfg is None:
            cfg = data.draw(point_sets_with_order())[0]
        m = cfg.matrix.cols
        # an integer combination of the dependences, or any small vector
        r = cfg.gale.rows.rows
        weights = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        dependence = [sum(w * row[j] for w, row in zip(weights, cfg.gale.rows.entries)) for j in range(m)]
        other = data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        for v in (dependence, other):
            dense = any(v) and sum(v) == 0 and all(
                sum(a * b for a, b in zip(v, row)) == 0 for row in cfg.matrix.entries
            )
            assert polytope._is_affine_dependence(cfg, v) == dense
