"""The rational polytope spanned by the columns of an incidence matrix:
exact face tests with certificates, neighborliness, placing
triangulations and normalized volumes.

A subset of points is a face exactly when no affine dependence has its
negative part outside the subset; the face test solves that dependence
system as a single LP, so a yes comes with a supporting functional (from
the Farkas certificate) and a no with an integer kernel witness whose
positive support lies inside the queried subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from functools import cached_property, partial

from . import exactmath
from .combinat import subsets_colex
from .config import DEFAULT_CONFIG, RunConfig, parallel_map
from .errors import BadParameters, BudgetExceeded, CertificateError, PreconditionFailed
from .exactmath import IntMatrix, clear_denominators
from .incidence import IncidenceMatrix
from .lp import LinearConstraint, RationalLpProblem, lp_feasible


@dataclass(frozen=True)
class PointConfig:
    points: tuple  # integer coordinate tuples
    labels: tuple
    source: Optional[IncidenceMatrix] = None

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise BadParameters("configuration points must be distinct")
        if len(self.labels) != len(self.points):
            raise BadParameters("one label per point required")

    @classmethod
    def from_incidence(cls, inc: IncidenceMatrix) -> "PointConfig":
        pts = tuple(inc.matrix.column(j) for j in range(inc.matrix.cols))
        target = comb(inc.k, inc.t)
        for p in pts:
            if sum(p) != target:
                raise BadParameters("incidence columns left the degree hyperplane")
        return cls(pts, inc.col_labels, inc)

    @classmethod
    def from_points(cls, pts: Iterable[Sequence[int]]) -> "PointConfig":
        pts = tuple(tuple(int(x) for x in p) for p in pts)
        return cls(pts, tuple(range(len(pts))))

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    @cached_property
    def dependence_rows(self) -> tuple:
        """The rows sum_i v_i p_i = 0 (one per coordinate) and sum_i v_i = 0
        of every face LP over this configuration, built on first use."""
        rows = [LinearConstraint.of([p[r] for p in self.points], "=", 0) for r in range(self.ambient_dim)]
        rows.append(LinearConstraint.of([1] * len(self.points), "=", 0))
        return tuple(rows)


@dataclass(frozen=True)
class FaceCertificate:
    is_face: bool
    functional: Optional[tuple]  # (c, beta): c.p = beta on the face, c.p < beta off it
    witness: Optional[tuple]  # integer affine dependence, positive support inside subset


def is_face(cfg: PointConfig, subset: Iterable[int]) -> FaceCertificate:
    """Exact face test with a certificate either way.

    Solves for an affine dependence v with v >= 0 outside the subset and
    total outside weight 1: existence refutes the face (witness -v has
    positive support inside the subset), and the Farkas multipliers of
    the insoluble system assemble the supporting functional.  Both are
    re-checked in integers; a failed check raises CertificateError.
    """
    subset = sorted(set(subset))
    m = len(cfg.points)
    if not subset or subset[0] < 0 or subset[-1] >= m:
        raise BadParameters("subset must name existing points")
    inside = set(subset)
    outside = [j for j in range(m) if j not in inside]
    nd = cfg.ambient_dim

    if not outside:
        zero = tuple(Fraction(0) for _ in range(nd))
        return FaceCertificate(True, (zero, Fraction(0)), None)

    cons = [
        *cfg.dependence_rows,
        LinearConstraint.of([0 if i in inside else 1 for i in range(m)], "=", 1),
    ]
    nonneg = [i not in inside for i in range(m)]
    problem = RationalLpProblem.of([0] * m, cons, nonneg)
    res = lp_feasible(problem)

    # tuples from lists, not generators: see the note in the lp module
    if res.status == "optimal":
        witness = tuple([-x for x in clear_denominators(res.point)[0]])
        if not _is_affine_dependence(cfg, witness):
            raise CertificateError("face witness is not an affine dependence")
        if any(witness[j] > 0 for j in outside) or not any(witness[j] < 0 for j in outside):
            raise CertificateError("face witness has positive support outside the subset")
        return FaceCertificate(False, None, witness)

    if res.status != "infeasible":
        raise CertificateError(f"face LP came back {res.status}")
    lam = res.farkas
    if lam[nd + 1] >= 0:
        raise CertificateError("Farkas multiplier of the outside weight is not negative")
    # c = -w and beta = w_aff, where w, w_aff are the first nd + 1
    # multipliers; checked as integers (times the common denominator)
    ws, _ = clear_denominators(lam[: nd + 1])
    c_int, beta_int = [-x for x in ws[:nd]], ws[nd]
    if any(_dot(c_int, cfg.points[i]) != beta_int for i in inside):
        raise CertificateError("supporting functional misses a subset point")
    if any(_dot(c_int, cfg.points[j]) >= beta_int for j in outside):
        raise CertificateError("supporting functional does not separate an outside point")
    return FaceCertificate(True, (tuple([-x for x in lam[:nd]]), lam[nd]), None)


def _dot(c, p):
    return sum(a * b for a, b in zip(c, p))


def _is_affine_dependence(cfg: PointConfig, v: Sequence[int]) -> bool:
    if not any(v):
        return False
    if sum(v) != 0:
        return False
    nd = cfg.ambient_dim
    return all(
        sum(v[i] * cfg.points[i][r] for i in range(len(v))) == 0 for r in range(nd)
    )


@dataclass(frozen=True)
class NeighborlinessReport:
    neighborliness: int
    checked_up_to: int
    subsets_tested: int
    non_face_witness: Optional[tuple]  # (subset indices, kernel witness)


def neighborliness(
    cfg: PointConfig,
    s_max: int,
    config: RunConfig = DEFAULT_CONFIG,
    witness_hints: Optional[Iterable[Tuple[int, ...]]] = None,
) -> NeighborlinessReport:
    """Largest s <= s_max with every <= s-subset a face.

    Sizes are tested exhaustively in colex order; at the first failing
    size the witness is reported.  ``witness_hints`` are candidate
    subsets tried before the exhaustive scan of their size (pod supports
    make good hints).
    """
    m = len(cfg.points)
    hints: Dict[int, List[tuple]] = {}
    for h in witness_hints or ():
        hints.setdefault(len(h), []).append(tuple(sorted(h)))
    tested = 0
    for s in range(1, s_max + 1):
        if comb(m, s) > config.box_budget:
            raise BudgetExceeded(f"C({m},{s}) face tests exceed the budget")
        seen = set()
        for subset in hints.get(s, []):
            seen.add(subset)
            tested += 1
            cert = is_face(cfg, subset)
            if not cert.is_face:
                return NeighborlinessReport(s - 1, s_max, tested, (subset, cert.witness))
        subsets = [c for c in subsets_colex(m, s, first=0) if c not in seen]
        if config.workers > 1:
            flags = parallel_map(partial(_face_flag, cfg), subsets, config.workers)
            tested += len(subsets)
            for subset, flag in zip(subsets, flags):
                if not flag:
                    cert = is_face(cfg, subset)
                    return NeighborlinessReport(
                        s - 1, s_max, tested, (subset, cert.witness)
                    )
        else:
            for subset in subsets:
                tested += 1
                cert = is_face(cfg, subset)
                if not cert.is_face:
                    return NeighborlinessReport(
                        s - 1, s_max, tested, (subset, cert.witness)
                    )
    return NeighborlinessReport(s_max, s_max, tested, None)


def _face_flag(cfg: PointConfig, subset: tuple) -> bool:
    return is_face(cfg, subset).is_face


@dataclass(frozen=True)
class SupportingHyperplane:
    tsets: tuple  # the t-subsets whose coordinates sum to the bound on the face
    bound: int  # C(k, t)
    on_hyperplane: tuple  # queried point indices
    strictly_below: int  # witness point index off the hyperplane

    def value(self, point: Sequence[int], row_index: Dict[tuple, int]) -> int:
        return sum(point[row_index[t]] for t in self.tsets)


def supporting_hyperplane(
    cfg: PointConfig, subset: Iterable[int]
) -> SupportingHyperplane:
    """Explicit supporting hyperplane for fewer than 2^t vertices when
    2k < n: sum the coordinates of every t-subset lying inside one of the
    chosen k-subsets; the chosen vertices sit at the bound C(k, t), every
    vertex is at most that, and some vertex is strictly below.
    """
    inc = cfg.source
    if inc is None:
        raise BadParameters("supporting hyperplane needs an incidence configuration")
    subset = sorted(set(subset))
    if 2 * inc.k >= inc.n:
        raise PreconditionFailed(f"need 2k < n, got k={inc.k}, n={inc.n}")
    if len(subset) >= 1 << inc.t:
        raise PreconditionFailed(f"need fewer than 2^t = {1 << inc.t} vertices")
    chosen = [frozenset(inc.col_labels[i]) for i in subset]
    tsets = []
    for row, tset in enumerate(inc.row_labels):
        if any(frozenset(tset) <= kset for kset in chosen):
            tsets.append(tset)
    bound = comb(inc.k, inc.t)
    if len(tsets) > len(subset) * bound:
        raise CertificateError("more t-subsets than the chosen k-subsets contain")
    row_index = {t: i for i, t in enumerate(inc.row_labels)}
    values = [
        sum(cfg.points[j][row_index[t]] for t in tsets) for j in range(len(cfg.points))
    ]
    if any(values[i] != bound for i in subset):
        raise CertificateError("a chosen vertex is off the supporting hyperplane")
    if any(v > bound for v in values):
        raise CertificateError("a vertex lies above the supporting hyperplane")
    below = next((j for j, v in enumerate(values) if v < bound), None)
    if below is None:
        raise CertificateError("no vertex strictly below the hyperplane")
    return SupportingHyperplane(tuple(tsets), bound, tuple(subset), below)


# ---------------------------------------------------------------------------
# placing triangulation and volumes


@dataclass(frozen=True)
class Triangulation:
    dim: int
    simplices: tuple  # tuples of point indices, each of size dim+1
    skipped: tuple  # points inside earlier hulls (never happens for 0/1 configs)


def placing_triangulation(
    cfg: PointConfig,
    order: Optional[Sequence[int]] = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> Triangulation:
    """Incremental placing triangulation in the given insertion order.

    Points are placed one at a time: a point beyond some boundary facets
    cones over exactly the strictly visible ones, a point increasing the
    affine dimension cones over the whole triangulation, and interior or
    hyperplane-degenerate positions extend nothing new (pushing rule,
    decided by exact sign).  Deterministic for a fixed order.
    """
    pts = cfg.points
    m = len(pts)
    order = list(order) if order is not None else list(range(m))
    if sorted(order) != list(range(m)):
        raise BadParameters("order must be a permutation of the point indices")

    cells: List[tuple] = []
    boundary: Dict[frozenset, tuple] = {}  # facet -> (functional g, offset beta)
    basis_rows: List[tuple] = []  # direction vectors spanning the hull
    origin: Optional[int] = None
    # interior reference: the sum of the first cell's vertices, i.e. their
    # centroid scaled by ``weight``, the number of vertices
    interior: Optional[tuple] = None
    weight = 0

    def in_affine_hull(idx: int) -> bool:
        diff = tuple(a - b for a, b in zip(pts[idx], pts[origin]))
        return exactmath.rank_q(IntMatrix.from_rows(basis_rows + [diff])) == len(basis_rows)

    def facet_functional(facet: frozenset) -> tuple:
        """Primitive integer functional vanishing on the facet, negative at
        the interior reference."""
        verts = sorted(facet)
        f0 = pts[verts[0]]
        rows = [tuple(a - b for a, b in zip(pts[v], f0)) for v in verts[1:]]
        rows_m = IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, len(f0))
        kern = exactmath.kernel_basis(rows_m)
        g = None
        for cand in kern.vectors:
            val = sum(c * (x - weight * y) for c, x, y in zip(cand, interior, f0))
            if val != 0:
                g = cand if val < 0 else tuple(-x for x in cand)
                break
        if g is None:
            raise CertificateError("interior reference lies on a boundary facet")
        beta = sum(c * x for c, x in zip(g, f0))
        return g, beta

    skipped: List[int] = []
    for idx in order:
        if len(cells) > config.volume_simplex_budget:
            raise BudgetExceeded("triangulation grew past the simplex budget")
        if origin is None:
            origin = idx
            cells = [(idx,)]
            boundary = {frozenset(): None}
            continue
        if not in_affine_hull(idx):
            # dimension grows: cone over everything
            new_cells = [c + (idx,) for c in cells]
            new_boundary: Dict[frozenset, tuple] = {}
            for c in cells:
                new_boundary[frozenset(c)] = None
            for f in boundary:
                new_boundary[f | {idx}] = None
            cells = new_cells
            boundary = new_boundary
            basis_rows.append(tuple(a - b for a, b in zip(pts[idx], pts[origin])))
            first = cells[0]
            interior = tuple(sum(pts[v][r] for v in first) for r in range(cfg.ambient_dim))
            weight = len(first)
            for f in boundary:
                boundary[f] = facet_functional(f)
            continue
        # same dimension: find strictly visible boundary facets
        visible = []
        for f, (g, beta) in boundary.items():
            val = sum(c * x for c, x in zip(g, pts[idx]))
            if val > beta:
                visible.append(f)
        if not visible:
            skipped.append(idx)
            continue
        ridge_visible: Dict[frozenset, int] = {}
        for f in visible:
            cells.append(tuple(sorted(f)) + (idx,))
            for v in f:
                r = f - {v}
                ridge_visible[r] = ridge_visible.get(r, 0) + 1
        ridge_total: Dict[frozenset, int] = {}
        for f in boundary:
            for v in f:
                r = f - {v}
                if r in ridge_visible:
                    ridge_total[r] = ridge_total.get(r, 0) + 1
        for f in visible:
            del boundary[f]
        for r, vis_count in ridge_visible.items():
            if ridge_total[r] != 2:
                raise CertificateError("boundary complex is not closed")
            if vis_count == 1:
                nf = r | {idx}
                boundary[nf] = facet_functional(nf)

    dim = len(basis_rows)
    full = tuple(sorted(c for c in cells if len(c) == dim + 1))
    return Triangulation(dim, full, tuple(skipped))


def _direction_lattice(cfg: PointConfig, saturate: bool) -> exactmath.LatticeBasis:
    p0 = cfg.points[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in cfg.points[1:]]
    lattice = exactmath.lattice_from_generators(cfg.ambient_dim, diffs)
    if not saturate or not lattice.vectors:
        return lattice
    # saturation = (direction span over Q) intersect Z^N, via two kernel passes
    diff_m = IntMatrix.from_rows(list(lattice.vectors))
    normals = exactmath.kernel_basis(diff_m)
    if not normals.vectors:
        return exactmath.LatticeBasis(
            cfg.ambient_dim, tuple(IntMatrix.identity(cfg.ambient_dim).entries)
        )
    norm_m = IntMatrix.from_rows(list(normals.vectors))
    return exactmath.kernel_basis(norm_m)


def normalized_volume(
    cfg: PointConfig,
    lattice: str = "euclidean",
    triangulation: Optional[Triangulation] = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> int:
    """Sum of simplex determinants in a basis of the chosen lattice.

    'euclidean' normalizes w.r.t. the full integer lattice of the affine
    hull (direction space intersected with Z^N); 'column_lattice' uses
    the lattice generated by the point differences, which makes the
    volume the projective degree of the associated toric variety.
    """
    if lattice not in ("euclidean", "column_lattice"):
        raise BadParameters("lattice must be 'euclidean' or 'column_lattice'")
    if triangulation is None:
        triangulation = placing_triangulation(cfg, config=config)
    basis = _direction_lattice(cfg, saturate=(lattice == "euclidean"))
    if triangulation.dim == 0:
        return 0
    if basis.rank != triangulation.dim:
        raise BadParameters("lattice rank does not match triangulation dimension")
    solver = exactmath.HnfSolver(IntMatrix.from_rows(basis.vectors).transpose())
    total = 0
    for simplex in triangulation.simplices:
        p0 = cfg.points[simplex[0]]
        coeff_rows = []
        for v in simplex[1:]:
            coeffs = solver.solve([a - b for a, b in zip(cfg.points[v], p0)])
            if coeffs is None:
                raise BadParameters("simplex edge outside the lattice")
            coeff_rows.append(coeffs)
        det = exactmath.determinant(IntMatrix.from_rows(coeff_rows))
        if det == 0:
            raise CertificateError("degenerate simplex in triangulation")
        total += abs(det)
    return total
