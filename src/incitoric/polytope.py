"""The rational polytope spanned by the columns of an incidence matrix:
exact face tests with certificates, neighborliness, placing
triangulations and normalized volumes.

A point configuration is the matrix whose columns are its points, and
its Gale dual the matrix whose rows are its affine dependences (De
Loera, Rambau and Santos, *Triangulations*, ch. 2 and 4); each is one
IntMatrix, kept once.

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
from math import comb, gcd, prod
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence

from functools import cached_property

from . import exactmath
from .combinat import subsets_colex
from .config import DEFAULT_CONFIG, RunConfig
from .errors import BadParameters, BudgetExceeded, CertificateError
from .exactmath import IntMatrix, sparse_dot
from .incidence import IncidenceMatrix
from .lp import LinearConstraint, RationalLpProblem, lp_feasible


@dataclass(frozen=True)
class PointConfig:
    """The matrix whose columns are the points.  Their nonzero ``(row,
    value)`` pairs, ``matrix.column_nonzeros``, are the sparse points
    every functional is evaluated on; ``from_incidence`` shares them with
    the incidence matrix, as it wraps that matrix itself."""

    matrix: IntMatrix

    def __post_init__(self):
        if len(set(self.matrix.transpose().entries)) != self.matrix.cols:
            raise BadParameters("configuration points must be distinct")

    @classmethod
    def from_incidence(cls, inc: IncidenceMatrix) -> "PointConfig":
        target = comb(inc.k, inc.t)
        for p in inc.matrix.transpose().entries:
            if sum(p) != target:
                raise BadParameters("incidence columns left the degree hyperplane")
        return cls(inc.matrix)

    @cached_property
    def gale(self) -> "GaleDual":
        """The Gale dual and the left inverse of the functionals, from one
        column HNF ``[P; 1] U = H``, computed on the first face test of the
        configuration.

        A functional y with slack vector s solves ``y H = s U`` and is zero
        off the pivot rows R, so on the pivot columns K it solves ``y_R T =
        s U_K`` with T the part of H on R and K: lower triangular with a
        positive diagonal.  So ``D y_R = s L`` with ``L = U_K X`` and ``X =
        D T^-1``, the adjugate of T when D is the product of the pivots,
        found by integer forward substitution."""
        res = exactmath.hnf(IntMatrix.from_rows([*self.matrix.entries, (1,) * self.matrix.cols]))
        rank = len(res.pivots)
        t = [[res.h[k][i] for k in range(rank)] for i, _ in res.pivots]
        den = prod([t[a][a] for a in range(rank)])
        x = [[0] * rank for _ in range(rank)]
        for b in range(rank):
            x[b][b] = den // t[b][b]
            for a in range(b + 1, rank):
                x[a][b] = -sum([t[a][c] * x[c][b] for c in range(b, a)]) // t[a][a]
        u_k = list(zip(*res.u[:rank]))
        cols = [[sum([u * xk[b] for u, xk in zip(uj, x) if u]) for uj in u_k] for b in range(rank)]
        g = gcd(den, *[v for col in cols for v in col])
        left = [()] * (self.matrix.rows + 1)
        for (i, _), col in zip(res.pivots, cols):
            left[i] = tuple([v // g for v in col])
        return GaleDual(IntMatrix(len(res.u) - rank, self.matrix.cols, res.u[rank:]), tuple(left), den // g)

    @cached_property
    def volume_frame(self) -> tuple:
        """The staircase rows and the two direction lattices' indices,
        ``(rows, {"column_lattice": i_col, "euclidean": i_euc})``.

        The column lattice L is generated by the point differences ``p_j -
        p_0``; the euclidean one, its saturation S, is (direction span over
        Q) intersect Z^N.  In the HNF basis of L each vector's first nonzero
        entry is its pivot, so projecting to these rows maps L onto a
        sublattice of Z^d of index the product of its pivots, and maps S,
        which spans the same space, one to one onto a lattice between them.
        [S : L] is the order of the torsion of Z^N / L, the product of the
        diagonal form of the basis, and divides the index of L."""
        # each row less its first entry; the columns are then p_j - p_0
        diffs = list(zip(*[[x - row[0] for x in row[1:]] for row in self.matrix.entries]))
        col = exactmath.lattice_from_generators(self.matrix.rows, diffs)
        rows, i_col = exactmath.staircase(col)
        i_euc, rest = divmod(i_col, prod(exactmath.diagonal(IntMatrix.from_rows(col))))
        if rest:
            raise CertificateError("the saturation index does not divide the column lattice's index")
        return rows, {"column_lattice": i_col, "euclidean": i_euc}


@dataclass(frozen=True)
class FaceCertificate:
    is_face: bool
    functional: Optional[tuple]  # integer (c, beta): c.p = beta on the face, c.p < beta off it
    witness: Optional[tuple]  # integer affine dependence, positive support inside subset


@dataclass(frozen=True)
class GaleDual:
    """The integer affine dependences of a configuration and the left
    inverse that turns a slack vector back into its functional.

    Row i of the matrix ``rows`` is dependence i over all the points, so
    column j is the Gale vector of point j, and the column nonzeros are
    the sparse Gale vectors; each row sums to zero, which the last row of
    ``[P; 1]`` makes exact.  ``left`` has one entry per row of ``[P; 1]``:
    on a pivot row, the column of L, one integer per point; elsewhere the
    empty tuple, as y is zero there."""

    rows: IntMatrix  # one row per dependence, one column per point
    left: tuple  # one column of L per pivot row of [P; 1], () off them
    den: int

    def __post_init__(self):
        if any(sum(row) for row in self.rows.entries):
            raise CertificateError("a Gale row does not sum to zero over the points")

    def functional_with_slacks(self, slacks: Sequence[int]) -> tuple:
        """Integers (c, beta, den), den > 0, with ``c . p_j - beta ==
        den * slacks[j]`` at every point when ``slacks`` is orthogonal to
        every Gale vector: ``(c, -beta)`` is ``sum_j slacks[j] L[j]`` on
        the pivot rows and zero off them.  Otherwise no functional has
        these slacks and the equation fails somewhere; the caller
        re-checks it."""
        y = [sum(map(mul, slacks, col)) for col in self.left]
        return y[:-1], -y[-1], self.den


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
    m = cfg.matrix.cols
    if not subset or subset[0] < 0 or subset[-1] >= m:
        raise BadParameters("subset must name existing points")
    inside = set(subset)
    outside = [j for j in range(m) if j not in inside]

    gale = cfg.gale
    # the rhs -sum_{j not in S} G_j is sum_{i in S} G_i, as each Gale row
    # sums to zero; tuples from lists, not generators: see the lp module
    cons = [
        LinearConstraint.of([g[j] for j in outside], sum([g[i] for i in subset])) for g in gale.rows.entries
    ]
    res = lp_feasible(RationalLpProblem.of(cons, len(outside)))

    if res.status == "optimal":
        # den * mu = den + values off the subset; the slack vector is -mu
        slacks = [0] * m
        for j, x in zip(outside, res.values):
            slacks[j] = -(res.den + x)
        c, beta, den = gale.functional_with_slacks(slacks)
        values = [sparse_dot(sup, c) - beta for sup in cfg.matrix.column_nonzeros]
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
    v = [sparse_dot(g, res.values) for g in gale.rows.column_nonzeros]
    g = gcd(*v)
    if not g:
        raise CertificateError("Farkas multipliers combine to the zero dependence")
    witness = tuple([-x // g for x in v])
    if not _is_affine_dependence(cfg, witness):
        raise CertificateError("face witness is not an affine dependence")
    if any(witness[j] > 0 for j in outside) or not any(witness[j] < 0 for j in outside):
        raise CertificateError("face witness has positive support outside the subset")
    return FaceCertificate(False, None, witness)


def _is_affine_dependence(cfg: PointConfig, v: Sequence[int]) -> bool:
    return any(v) and sum(v) == 0 and not any(cfg.matrix.mat_vec(v))


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
    m = cfg.matrix.cols
    if s_max < 1:
        raise BadParameters(f"s_max must be at least 1, not {s_max}")
    if s_max > m:
        raise BadParameters(f"s_max {s_max} exceeds the {m} points")
    tested = 0
    for s in range(1, s_max + 1):
        if comb(m, s) > config.box_budget:
            raise BudgetExceeded(f"C({m},{s}) face tests exceed the budget: over box_budget "
                                 f"{config.box_budget}, after {tested} face tests")
        for subset in subsets_colex(m, s, first=0):
            tested += 1
            cert = is_face(cfg, subset)
            if not cert.is_face:
                return NeighborlinessReport(s - 1, tested, (subset, cert.witness))
    return NeighborlinessReport(s_max, tested, None)


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
    first hull normal that does not vanish at the new point.  The hull
    normals are affine functionals vanishing on the hull's affine span,
    the unit functionals at the first point to begin with, so a point
    raises the dimension exactly when one of them is nonzero there, and
    that one is the new facet functional of the old hull.  Visibility
    depends only on each functional restricted to the hull, so no integer
    kernel is needed.  Every new facet functional is re-checked in
    integers against its facet.

    A boundary facet is an int bitmask of its point indices, so the ridge
    of facet f opposite vertex v is ``f ^ (1 << v)``; a cell is a tuple,
    the points of the facet it cones over in increasing order, then the
    point placed.  Every functional, facet functional or hull normal, is
    a dense pair (g, beta) and every point sparse: each evaluation
    ``g . p - beta`` runs over a point's nonzero coordinates, the column
    nonzeros of ``cfg.matrix``, which is all the triangulation reads of
    the configuration.

    Each placed point walks the boundary once, to find the visible
    facets.  The other boundary facet on a ridge r of a visible facet f
    is ``r | (1 << w)`` for a point w placed earlier and not in f, so it
    is looked up among those points; a closed boundary has exactly one
    such facet, and CertificateError is raised otherwise.  A dimension
    step only extends the cells, so cells are added only by coning a
    visible facet, and ``config.volume_simplex_budget`` is checked there:
    BudgetExceeded as soon as the cells outnumber it.
    """
    sup = cfg.matrix.column_nonzeros
    m = len(sup)
    nd = cfg.matrix.rows
    order = list(order) if order is not None else list(range(m))
    if sorted(order) != list(range(m)):
        raise BadParameters("order must be a permutation of the point indices")

    cells: List[tuple] = []
    # facet bitmask -> functional (g, beta) with g.x - beta negative inside the hull
    boundary: Dict[int, tuple] = {}
    # independent functionals (g, beta) whose common zeros are the hull's affine span
    normals: tuple = ()
    # interior reference: the nonzero entries of the sum of the first
    # cell's vertices, i.e. their centroid scaled by ``weight``, the
    # number of vertices
    interior: tuple = ()
    weight = 0

    def oriented(facet: int, functional: tuple) -> tuple:
        """The functional, checked to vanish on the facet and signed to be
        negative at the interior reference."""
        g, beta = functional
        if any(sparse_dot(sup[v], g) != beta for v in _members(facet)):
            raise CertificateError("boundary functional misses a facet vertex")
        side = sparse_dot(interior, g) - weight * beta
        if side == 0:
            raise CertificateError("interior reference lies on a boundary facet")
        return functional if side < 0 else (tuple([-x for x in g]), -beta)

    skipped: List[int] = []
    for pos, idx in enumerate(order):
        p = sup[idx]
        if not cells:
            cells = [(idx,)]
            # the empty facet of a point: the constant functional -1
            boundary = {0: ((0,) * nd, 1)}
            normals = tuple((e, sparse_dot(p, e)) for e in IntMatrix.identity(nd).entries)
            continue
        normal = next((v for v in normals if sparse_dot(p, v[0]) != v[1]), None)
        if normal is not None:
            # dimension grows: cone over everything; the normal vanishes
            # on the old hull and not at the new point
            normals = tuple(_pencil(v, normal, p) for v in normals if v != normal)
            cells = [c + (idx,) for c in cells]
            interior = exactmath.nonzeros([cfg.matrix.mat_vec([int(j in cells[0]) for j in range(m)])])[0]
            weight = len(cells[0])
            # every old cell, c[:-1] of a new one, is now a facet on the old hull
            new_boundary = {f: oriented(f, normal) for f in [sum([1 << v for v in c[:-1]]) for c in cells]}
            for f, lf in boundary.items():
                nf = f | (1 << idx)
                new_boundary[nf] = oriented(nf, _pencil(lf, normal, p))
            boundary = new_boundary
            continue
        # same dimension: find strictly visible boundary facets
        visible = {f: lf for f, lf in boundary.items() if sparse_dot(p, lf[0]) > lf[1]}
        if not visible:
            skipped.append(idx)
            continue
        new_facets: Dict[int, tuple] = {}
        for f, lf in visible.items():
            members = _members(f)
            cells.append(tuple(members) + (idx,))
            if len(cells) > config.volume_simplex_budget:
                raise BudgetExceeded("triangulation grew past the simplex budget")
            # the other facet on a ridge adds one placed point outside f
            others = [1 << w for w in order[:pos] if not f >> w & 1]
            for v in members:
                r = f ^ (1 << v)
                partner = [r | b for b in others if r | b in boundary]
                # a closed boundary has exactly two facets on each ridge
                if len(partner) != 1:
                    raise CertificateError("boundary complex is not closed")
                if partner[0] not in visible:
                    nf = r | (1 << idx)
                    new_facets[nf] = oriented(nf, _pencil(lf, boundary[partner[0]], p))
        for f in visible:
            del boundary[f]
        boundary.update(new_facets)

    dim = nd - len(normals)
    full = tuple(sorted(cells))
    return Triangulation(dim, full, tuple(skipped))


def _members(mask: int) -> list:
    """The point indices of a facet bitmask, in increasing order."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _pencil(la: tuple, lb: tuple, p: Sequence[tuple]) -> tuple:
    """lb(p) * la - la(p) * lb: the member of the pencil of la and lb that
    vanishes at the point p, given by its nonzero ``(coordinate, value)``
    pairs, reduced to coprime integers."""
    va, vb = sparse_dot(p, la[0]) - la[1], sparse_dot(p, lb[0]) - lb[1]
    g = [vb * x - va * y for x, y in zip(la[0], lb[0])]
    return _reduced(g, vb * la[1] - va * lb[1])


def _reduced(g: Sequence[int], beta: int) -> tuple:
    """(g, beta) divided by the gcd of all its entries."""
    d = gcd(*g, beta) or 1
    return tuple([x // d for x in g]), beta // d


def normalized_volume(
    cfg: PointConfig,
    lattice: str = "euclidean",
    triangulation: Optional[Triangulation] = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> int:
    """Sum of simplex volumes, each normalized to the chosen lattice.

    'euclidean' normalizes w.r.t. the full integer lattice of the affine
    hull (direction space intersected with Z^N); 'column_lattice' uses
    the lattice generated by the point differences, which makes the
    volume the projective degree of the associated toric variety.  Each
    simplex costs one determinant of its edge vectors on the staircase
    rows of ``cfg.volume_frame``, divided by the lattice's index there; a
    0-simplex, a 0 x 0 determinant, has volume 1.
    """
    if lattice not in ("euclidean", "column_lattice"):
        raise BadParameters("lattice must be 'euclidean' or 'column_lattice'")
    if triangulation is None:
        triangulation = placing_triangulation(cfg, config=config)
    rows, indices = cfg.volume_frame
    if len(rows) != triangulation.dim:
        raise BadParameters("lattice rank does not match triangulation dimension")
    ent = cfg.matrix.entries
    total = 0
    for simplex in triangulation.simplices:
        v0 = simplex[0]
        edges = [[ent[r][v] - ent[r][v0] for r in rows] for v in simplex[1:]]
        det = abs(exactmath.determinant(IntMatrix.from_rows(edges)))
        if det == 0:
            raise CertificateError("degenerate simplex in triangulation")
        volume, rest = divmod(det, indices[lattice])
        if rest:
            raise CertificateError("simplex determinant is not a multiple of the lattice index")
        total += volume
    return total
