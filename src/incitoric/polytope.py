"""The rational polytope spanned by the columns of an incidence matrix:
exact face tests with certificates, neighborliness, placing
triangulations and normalized volumes.

A subset S of points is a face exactly when the Gale vectors of the
points outside S have a strictly positive linear dependence (Ziegler,
*Lectures on Polytopes*, Lecture 6; De Loera, Rambau and Santos,
*Triangulations*, ch. 4).  The face test decides that as one LP in the
r = m - rank[P; 1] Gale coordinates, so a yes comes with a supporting
functional (the dependence is the functional's slack vector) and a no
with an integer affine dependence, from the Farkas certificate, whose
positive support lies inside S.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Dict, Iterable, List, Optional, Sequence

from functools import cached_property

from . import exactmath
from .combinat import subsets_colex
from .config import DEFAULT_CONFIG, RunConfig
from .errors import BadParameters, BudgetExceeded, CertificateError, PreconditionFailed
from .exactmath import IntMatrix
from .incidence import IncidenceMatrix
from .lp import LinearConstraint, RationalLpProblem, lp_feasible


@dataclass(frozen=True)
class PointConfig:
    points: tuple  # integer coordinate tuples
    source: Optional[IncidenceMatrix] = None

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise BadParameters("configuration points must be distinct")

    @classmethod
    def from_incidence(cls, inc: IncidenceMatrix) -> "PointConfig":
        pts = tuple(inc.matrix.column(j) for j in range(inc.matrix.cols))
        target = comb(inc.k, inc.t)
        for p in pts:
            if sum(p) != target:
                raise BadParameters("incidence columns left the degree hyperplane")
        return cls(pts, inc)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    @cached_property
    def gale(self) -> "GaleDual":
        """The Gale dual, from one column HNF of ``[P; 1]``, computed on the
        first face test of the configuration."""
        res = exactmath.hnf(IntMatrix.from_rows([*zip(*self.points), (1,) * len(self.points)]))
        dependences = res.u[len(res.pivots):]
        vectors = tuple([tuple([d[j] for d in dependences]) for j in range(len(self.points))])
        return GaleDual(vectors, res)

    @cached_property
    def column_lattice_coordinates(self) -> tuple:
        """Coordinates of each ``p_j - p_0`` in a basis of the lattice
        generated by the point differences."""
        return _lattice_coordinates(self, saturate=False)

    @cached_property
    def euclidean_coordinates(self) -> tuple:
        """Coordinates of each ``p_j - p_0`` in a basis of the integer
        points of the affine hull's directions."""
        return _lattice_coordinates(self, saturate=True)


@dataclass(frozen=True)
class FaceCertificate:
    is_face: bool
    functional: Optional[tuple]  # integer (c, beta): c.p = beta on the face, c.p < beta off it
    witness: Optional[tuple]  # integer affine dependence, positive support inside subset


@dataclass(frozen=True)
class GaleDual:
    """``[P; 1] U = H`` with ``U`` unimodular: the columns of ``U`` past
    the rank of ``H`` are a basis of the integer affine dependences, so
    entry j of those columns is the Gale vector of point j, and the
    staircase of ``H`` turns the slack vector of a functional back into
    the functional.  ``H`` and ``U`` are tuples of columns."""

    vectors: tuple  # one Gale vector of length r per point
    hnf: exactmath.HnfResult

    def functional_with_slacks(self, slacks: Sequence[int]) -> tuple:
        """Integers (c, beta, den), den > 0, with ``c . p_j - beta ==
        den * slacks[j]`` at every point when ``slacks`` is orthogonal to
        every Gale vector, by integer back-substitution through the
        staircase.  Otherwise no functional has these slacks and the
        equation fails somewhere; the caller re-checks it."""
        h, u = self.hnf.h, self.hnf.u
        nz = [(i, z) for i, z in enumerate(slacks) if z]
        # y . H = slacks . U on the pivot columns, y zero off the pivot
        # rows; column k of H is zero above its pivot row, so solve from
        # the last pivot up, scaling y by ``den`` to stay in the integers
        rows = len(h[0])
        y = [0] * rows
        den = 1
        for pi, pk in reversed(self.hnf.pivots):
            rest = sum([y[i] * h[pk][i] for i in range(pi + 1, rows) if y[i]])
            num = den * sum([z * u[pk][i] for i, z in nz]) - rest
            piv = h[pk][pi]
            scale = piv // gcd(num, piv)
            if scale > 1:
                den *= scale
                num *= scale
                y = [x * scale for x in y]
            y[pi] = num // piv
        return y[:-1], -y[-1], den


def is_face(cfg: PointConfig, subset: Iterable[int]) -> FaceCertificate:
    """Exact face test with a certificate either way.

    Solves for nu >= 0 with sum_{j not in S} (1 + nu_j) G_j = 0 over the
    Gale vectors G_j: a solution is a strictly positive dependence mu of
    the outside Gale vectors, hence the slack vector of a functional that
    is zero on the subset and -mu off it; the Farkas multipliers y of an
    insoluble system give the affine dependence v_j = y . G_j, which is
    non-negative outside and positive somewhere there, so -v refutes the
    face.  Both are re-checked in integers; a failed check raises
    CertificateError.
    """
    subset = sorted(set(subset))
    m = len(cfg.points)
    if not subset or subset[0] < 0 or subset[-1] >= m:
        raise BadParameters("subset must name existing points")
    inside = set(subset)
    outside = [j for j in range(m) if j not in inside]

    gale = cfg.gale.vectors
    # tuples from lists, not generators: see the note in the lp module
    cons = [
        LinearConstraint.of([gale[j][i] for j in outside], -sum([gale[j][i] for j in outside]))
        for i in range(len(gale[0]))
    ]
    res = lp_feasible(RationalLpProblem.of(cons, len(outside)))

    if res.status == "optimal":
        # den * mu = den + values off the subset; the slack vector is -mu
        slacks = [0] * m
        for j, x in zip(outside, res.values):
            slacks[j] = -(res.den + x)
        c, beta, den = cfg.gale.functional_with_slacks(slacks)
        values = [_dot(c, p) - beta for p in cfg.points]
        if values != [den * z for z in slacks]:
            raise CertificateError("supporting functional does not recombine to its slack vector")
        if any(values[i] for i in inside):
            raise CertificateError("supporting functional misses a subset point")
        if any(values[j] >= 0 for j in outside):
            raise CertificateError("supporting functional does not separate an outside point")
        return FaceCertificate(True, _reduced(c, beta), None)

    if res.status != "infeasible":
        raise CertificateError(f"face LP came back {res.status}")
    # den times the Farkas multipliers y; the dependence is v_j = y . G_j
    v = [_dot(res.values, g) for g in gale]
    g = gcd(*v)
    if not g:
        raise CertificateError("Farkas multipliers combine to the zero dependence")
    witness = tuple([-x // g for x in v])
    if not _is_affine_dependence(cfg, witness):
        raise CertificateError("face witness is not an affine dependence")
    if any(witness[j] > 0 for j in outside) or not any(witness[j] < 0 for j in outside):
        raise CertificateError("face witness has positive support outside the subset")
    return FaceCertificate(False, None, witness)


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
    subsets_tested: int
    non_face_witness: Optional[tuple]  # (subset indices, kernel witness)


def neighborliness(
    cfg: PointConfig, s_max: int, config: RunConfig = DEFAULT_CONFIG
) -> NeighborlinessReport:
    """Largest s <= s_max with every <= s-subset a face.

    Sizes are tested exhaustively in colex order; at the first failing
    size the witness is reported.
    """
    if s_max < 1:
        raise BadParameters(f"s_max must be at least 1, not {s_max}")
    m = len(cfg.points)
    tested = 0
    for s in range(1, s_max + 1):
        if comb(m, s) > config.box_budget:
            raise BudgetExceeded(f"C({m},{s}) face tests exceed the budget")
        for subset in subsets_colex(m, s, first=0):
            tested += 1
            cert = is_face(cfg, subset)
            if not cert.is_face:
                return NeighborlinessReport(s - 1, tested, (subset, cert.witness))
    return NeighborlinessReport(s_max, tested, None)


@dataclass(frozen=True)
class SupportingHyperplane:
    tsets: tuple  # the t-subsets whose coordinates sum to the bound on the face
    bound: int  # C(k, t)
    on_hyperplane: tuple  # queried point indices
    strictly_below: int  # witness point index off the hyperplane


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

    Functionals are kept by beneath-beyond pencil updates: a new facet
    through a ridge gets the member of the pencil of the ridge's two old
    functionals that vanishes at the new point, and a dimension step
    pencils every old functional, and every other hull normal, with the
    one hull normal that does not vanish on the new direction.  Visibility
    depends only on each functional restricted to the hull, so no integer
    kernel is needed.  Every new facet functional is re-checked in
    integers against its facet.
    """
    pts = cfg.points
    m = len(pts)
    nd = cfg.ambient_dim
    order = list(order) if order is not None else list(range(m))
    if sorted(order) != list(range(m)):
        raise BadParameters("order must be a permutation of the point indices")

    cells: List[tuple] = []
    # facet -> functional (g, beta) with g.x - beta negative inside the hull
    boundary: Dict[frozenset, tuple] = {}
    normals: tuple = ()  # independent functionals whose common zeros are the hull's directions
    origin: Optional[int] = None
    # interior reference: the sum of the first cell's vertices, i.e. their
    # centroid scaled by ``weight``, the number of vertices
    interior: Optional[tuple] = None
    weight = 0

    def oriented(facet: Iterable[int], functional: tuple) -> tuple:
        """The functional, checked to vanish on the facet and signed to be
        negative at the interior reference."""
        g, beta = functional
        if any(_dot(g, pts[v]) != beta for v in facet):
            raise CertificateError("boundary functional misses a facet vertex")
        side = _dot(g, interior) - weight * beta
        if side == 0:
            raise CertificateError("interior reference lies on a boundary facet")
        return functional if side < 0 else (tuple([-x for x in g]), -beta)

    skipped: List[int] = []
    for idx in order:
        if len(cells) > config.volume_simplex_budget:
            raise BudgetExceeded("triangulation grew past the simplex budget")
        p = pts[idx]
        if origin is None:
            origin = idx
            cells = [(idx,)]
            # the empty facet of a point: the constant functional -1
            boundary = {frozenset(): ((0,) * nd, 1)}
            normals = IntMatrix.identity(nd).entries
            continue
        diff = tuple([a - b for a, b in zip(p, pts[origin])])
        normal = next((v for v in normals if _dot(v, diff)), None)
        if normal is not None:
            # dimension grows: cone over everything; the normal vanishes
            # on the old hull and not at the new point
            off_hull = (normal, _dot(normal, pts[origin]))
            normals = tuple(_pencil((v, 0), (normal, 0), diff)[0] for v in normals if v != normal)
            cells = [c + (idx,) for c in cells]
            interior = tuple(sum(pts[v][r] for v in cells[0]) for r in range(nd))
            weight = len(cells[0])
            # every old cell, c[:-1] of a new one, is now a facet on the old hull
            new_boundary = {frozenset(c[:-1]): oriented(c[:-1], off_hull) for c in cells}
            for f, lf in boundary.items():
                nf = f | {idx}
                new_boundary[nf] = oriented(nf, _pencil(lf, off_hull, p))
            boundary = new_boundary
            continue
        # same dimension: find strictly visible boundary facets
        visible = {f: lf for f, lf in boundary.items() if _dot(lf[0], p) > lf[1]}
        if not visible:
            skipped.append(idx)
            continue
        on_ridge: Dict[frozenset, List[frozenset]] = {}  # ridge -> visible facets on it
        for f in visible:
            cells.append(tuple(sorted(f)) + (idx,))
            for v in f:
                on_ridge.setdefault(f - {v}, []).append(f)
        hidden: Dict[frozenset, List[frozenset]] = {}  # ridge -> non-visible facets on it
        for f in boundary:
            if f not in visible:
                for v in f:
                    if f - {v} in on_ridge:
                        hidden.setdefault(f - {v}, []).append(f)
        for f in visible:
            del boundary[f]
        for r, faces in on_ridge.items():
            # a closed boundary has exactly two facets on each ridge
            if len(faces) + len(hidden.get(r, ())) != 2:
                raise CertificateError("boundary complex is not closed")
            if len(faces) == 1:
                nf = r | {idx}
                boundary[nf] = oriented(nf, _pencil(visible[faces[0]], boundary[hidden[r][0]], p))

    dim = nd - len(normals)
    full = tuple(sorted(c for c in cells if len(c) == dim + 1))
    return Triangulation(dim, full, tuple(skipped))


def _pencil(la: tuple, lb: tuple, p: Sequence[int]) -> tuple:
    """lb(p) * la - la(p) * lb: the member of the pencil of la and lb that
    vanishes at p, reduced to coprime integers."""
    va, vb = _dot(la[0], p) - la[1], _dot(lb[0], p) - lb[1]
    g = [vb * x - va * y for x, y in zip(la[0], lb[0])]
    return _reduced(g, vb * la[1] - va * lb[1])


def _reduced(g: Sequence[int], beta: int) -> tuple:
    """(g, beta) divided by the gcd of all its entries."""
    d = gcd(*g, beta) or 1
    return tuple([x // d for x in g]), beta // d


def _lattice_coordinates(cfg: PointConfig, saturate: bool) -> tuple:
    """Integer coordinates of every ``p_j - p_0`` in a basis of the
    direction lattice: the lattice generated by the point differences or,
    saturated, (direction span over Q) intersect Z^N, via two kernel
    passes.  One HNF per lattice and one solve per point; by linearity an
    edge ``p_v - p_u`` has coordinates ``coords[v] - coords[u]``."""
    nd = cfg.ambient_dim
    p0 = cfg.points[0]
    diffs = [tuple([a - b for a, b in zip(p, p0)]) for p in cfg.points]
    basis = exactmath.lattice_from_generators(nd, diffs[1:])
    if saturate:
        normals = exactmath.kernel_basis(IntMatrix(len(basis), nd, basis))
        basis = exactmath.kernel_basis(IntMatrix(len(normals), nd, normals))
    solver = exactmath.basis_solver(nd, basis)
    coords = tuple(map(solver.solve, diffs))
    if None in coords:
        raise CertificateError("point difference outside its direction lattice")
    return coords


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
    volume the projective degree of the associated toric variety.  Each
    simplex costs one determinant of coordinate differences; a 0-simplex,
    a 0 x 0 determinant, has volume 1.
    """
    if lattice not in ("euclidean", "column_lattice"):
        raise BadParameters("lattice must be 'euclidean' or 'column_lattice'")
    if triangulation is None:
        triangulation = placing_triangulation(cfg, config=config)
    coords = cfg.euclidean_coordinates if lattice == "euclidean" else cfg.column_lattice_coordinates
    if len(coords[0]) != triangulation.dim:
        raise BadParameters("lattice rank does not match triangulation dimension")
    total = 0
    for simplex in triangulation.simplices:
        c0 = coords[simplex[0]]
        rows = [[a - b for a, b in zip(coords[v], c0)] for v in simplex[1:]]
        det = exactmath.determinant(IntMatrix.from_rows(rows))
        if det == 0:
            raise CertificateError("degenerate simplex in triangulation")
        total += abs(det)
    return total
