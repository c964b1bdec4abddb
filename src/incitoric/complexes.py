"""Simplicial complexes: pseudomanifold certificates, balanced colorings,
orientations, and the binomials they induce.

A complex is stored by its facets.  The verifier computes each predicate
independently: strong connectivity from the facet-ridge graph, normality
from link connectivity, balancedness by exact backtracking coloring of
the 1-skeleton, orientability from the integer kernel of the top boundary
map restricted to interior ridges, and bipartiteness of the facet-ridge
graph by 2-coloring.  For a balanced orientable normal pseudomanifold
without boundary the +-1 orientation turns the facet list into a
squarefree binomial of the matching incidence toric ideal; the octahedral
quartics arise this way from the facet-ridge bipartition of the
crosspolytope boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Optional

from . import exactmath
from .combinat import colex_rank
from .errors import BadParameters, PreconditionFailed
from .exactmath import IntMatrix
from .incidence import build_matrix
from .toric import Binomial, is_primitive


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list over the vertex set [1..n]; no facet contains another."""

    n: int
    facets: tuple  # of frozensets

    def __post_init__(self):
        for f in self.facets:
            if not f or not all(1 <= v <= self.n for v in f):
                raise BadParameters("facet vertices must lie in [1..n]")
        for f in self.facets:
            for g in self.facets:
                if f != g and f <= g:
                    raise BadParameters("facet contained in another facet")
        if len(set(self.facets)) != len(self.facets):
            raise BadParameters("duplicate facet")

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return cls(n, tuple(frozenset(f) for f in facets))

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def all_faces(self) -> set:
        out = {frozenset()}
        for f in self.facets:
            for size in range(1, len(f) + 1):
                for c in combinations(sorted(f), size):
                    out.add(frozenset(c))
        return out

    def link(self, sigma: frozenset) -> tuple:
        """Facets of the link of sigma."""
        out = []
        for f in self.facets:
            if sigma <= f:
                out.append(f - sigma)
        return tuple(out)


def _ridge_map(delta: SimplicialComplex) -> Dict[frozenset, list]:
    """Each ridge, a facet of a pure complex minus one vertex, with the
    indices of the facets that hold it."""
    d = delta.dimension
    ridges: Dict[frozenset, list] = {}
    for i, f in enumerate(delta.facets):
        for c in combinations(sorted(f), d):
            ridges.setdefault(frozenset(c), []).append(i)
    return ridges


def facet_ridge_graph(ridges: Dict[frozenset, list], nfacets: int) -> Dict[int, set]:
    """Adjacency between facet indices sharing a ridge."""
    adj: Dict[int, set] = {i: set() for i in range(nfacets)}
    for members in ridges.values():
        for i in members:
            adj[i].update(j for j in members if j != i)
    return adj


def _skeleton(facets: Iterable[frozenset]) -> Dict[int, set]:
    """1-skeleton of the complex spanned by ``facets``: each vertex with
    its neighbours."""
    adj: Dict[int, set] = {}
    for f in facets:
        for v in f:
            adj.setdefault(v, set()).update(f - {v})
    return adj


def _connected(adj: Dict, nodes: Iterable) -> bool:
    nodes = list(nodes)
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def _bipartition(adj: Dict) -> Optional[Dict]:
    color: Dict = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return color


@dataclass(frozen=True)
class Coloring:
    classes: tuple  # classes[v-1] = color of vertex v, colors in [1..d]

    def color(self, v: int) -> int:
        return self.classes[v - 1]


def balanced_coloring(delta: SimplicialComplex) -> Optional[Coloring]:
    """Proper (dim+1)-coloring of the 1-skeleton, or None.

    Exact backtracking, vertices in decreasing-degree order; facets are
    cliques of size dim+1, so any proper coloring makes them rainbow.
    """
    ncolors = delta.dimension + 1
    adj = _skeleton(delta.facets)
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    assign: Dict[int, int] = {}

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for c in range(1, ncolors + 1):
            if all(assign.get(w) != c for w in adj[v]):
                assign[v] = c
                if backtrack(idx + 1):
                    return True
                del assign[v]
        return False

    if not backtrack(0):
        return None
    classes = tuple(assign.get(v, 1) for v in range(1, delta.n + 1))
    return Coloring(classes)


def boundary_matrix(delta: SimplicialComplex, vertex_key=None) -> tuple:
    """Top signed boundary matrix with rows labeled by ridges.

    Facet columns follow the stored facet order; within a facet the
    vertices are sorted by ``vertex_key`` (default: numeric) and removing
    the j-th gives sign (-1)^j.  Ridge rows are sorted by colex rank.
    Returns (matrix, ridge_labels).
    """
    if not delta.is_pure():
        raise BadParameters("boundary matrix needs a pure complex")
    if vertex_key is None:
        vertex_key = lambda v: v
    ridges = sorted(_ridge_map(delta), key=lambda r: colex_rank(tuple(sorted(r))))
    row_of = {r: i for i, r in enumerate(ridges)}
    rows = [[0] * len(delta.facets) for _ in ridges]
    for col, f in enumerate(delta.facets):
        ordered = sorted(f, key=vertex_key)
        for j, v in enumerate(ordered):
            r = frozenset(ordered) - {v}
            rows[row_of[r]][col] = (-1) ** j
    return IntMatrix.from_rows(rows), tuple(tuple(sorted(r)) for r in ridges)


@dataclass(frozen=True)
class Orientation:
    epsilon: tuple  # +-1 per facet, in stored facet order


@dataclass(frozen=True)
class VerifyReport:
    pure: bool
    dimension: int
    strongly_connected: bool
    pseudomanifold: bool
    boundaryless: bool
    normal: Optional[bool]
    balanced: bool
    coloring: Optional[Coloring]
    orientable: Optional[bool]
    orientation: Optional[Orientation]
    facet_ridge_bipartite: bool

    def as_dict(self) -> dict:
        return {
            "pure": self.pure,
            "dimension": self.dimension,
            "strongly_connected": self.strongly_connected,
            "pseudomanifold": self.pseudomanifold,
            "boundaryless": self.boundaryless,
            "normal": self.normal,
            "balanced": self.balanced,
            "coloring": list(self.coloring.classes) if self.coloring else None,
            "orientable": self.orientable,
            "orientation": list(self.orientation.epsilon) if self.orientation else None,
            "facet_ridge_bipartite": self.facet_ridge_bipartite,
        }


def verify(delta: SimplicialComplex) -> VerifyReport:
    """Compute every predicate of the report independently."""
    pure = delta.is_pure()
    dim = delta.dimension
    ridges = _ridge_map(delta)
    adj = facet_ridge_graph(ridges, len(delta.facets))
    strongly_connected = pure and _connected(adj, range(len(delta.facets)))

    counts = [len(members) for members in ridges.values()] if pure else []
    ridges_ok = pure and all(c <= 2 for c in counts)
    pseudomanifold = pure and strongly_connected and ridges_ok
    boundaryless = pure and bool(counts) and all(c == 2 for c in counts)

    normal: Optional[bool] = None
    if pseudomanifold:
        normal = True
        for sigma in sorted(delta.all_faces(), key=lambda s: (len(s), tuple(sorted(s)))):
            if len(sigma) - 1 > dim - 2:
                continue
            skeleton = _skeleton(delta.link(sigma))
            if not _connected(skeleton, skeleton):
                normal = False
                break

    coloring = balanced_coloring(delta) if pure else None
    balanced = coloring is not None

    orientable: Optional[bool] = None
    orientation: Optional[Orientation] = None
    if pseudomanifold:
        orientable, orientation = _orientation(delta, ridges, coloring)

    bipartite = _bipartition(adj) is not None
    return VerifyReport(
        pure,
        dim,
        strongly_connected,
        pseudomanifold,
        boundaryless,
        normal,
        balanced,
        coloring,
        orientable,
        orientation,
        bipartite,
    )


def _orientation(delta: SimplicialComplex, ridges: Dict, coloring: Optional[Coloring]) -> tuple:
    """Integer kernel of the boundary map restricted to interior ridges.

    Orientable iff that kernel has rank 1; the saturated generator then
    has all entries +-1 and is normalized to +1 on the first facet.  For
    balanced complexes the boundary map is taken in the color-sorted
    vertex order, so the returned signs are also the facet-ridge
    bipartition, which is what the orientation binomial needs.
    """
    key = None
    if coloring is not None:
        key = lambda v: (coloring.color(v), v)
    mat, ridge_labels = boundary_matrix(delta, vertex_key=key)
    interior = [
        i for i, r in enumerate(ridge_labels) if len(ridges[frozenset(r)]) == 2
    ]
    rows = [mat.entries[i] for i in interior]
    if not rows:
        rows = [(0,) * len(delta.facets)]
    sub = IntMatrix.from_rows(rows)
    kernel = exactmath.kernel_basis(sub)
    if kernel.rank != 1:
        return False, None
    gen = kernel.vectors[0]
    if not all(abs(x) == 1 for x in gen):
        return False, None
    if gen[0] < 0:
        gen = tuple(-x for x in gen)
    return True, Orientation(gen)


def orientation_binomial(delta: SimplicialComplex, report: VerifyReport) -> Binomial:
    """Binomial of the (n, k, k-1) lattice ideal induced by the orientation
    of ``report``, which is ``verify(delta)``.

    Requires a balanced orientable normal pseudomanifold without boundary
    of dimension k-1 >= 2; the signs, the cycle condition, kernel
    membership and primitivity are re-checked on the result.
    """
    failures = []
    if not report.pseudomanifold:
        failures.append("pseudomanifold")
    if not report.boundaryless:
        failures.append("without boundary")
    if report.normal is not True:
        failures.append("normal")
    if not report.balanced:
        failures.append("balanced")
    if report.orientable is not True:
        failures.append("orientable")
    k = report.dimension + 1
    if k < 3:
        failures.append("dimension >= 2")
    if failures:
        raise PreconditionFailed("hypotheses not satisfied: " + ", ".join(failures))
    orientation = report.orientation
    if len(orientation.epsilon) != len(delta.facets) or any(
        abs(e) != 1 for e in orientation.epsilon
    ):
        raise PreconditionFailed("orientation must assign +-1 to every facet")
    # cycle condition in the color-sorted convention: opposite signs across
    # every interior ridge
    for members in _ridge_map(delta).values():
        if len(members) == 2:
            i, j = members
            if orientation.epsilon[i] + orientation.epsilon[j] != 0:
                raise PreconditionFailed("epsilon is not a cycle of the top boundary map")

    inc = build_matrix(delta.n, k, k - 1)
    signed = list(zip(delta.facets, orientation.epsilon))
    b = Binomial.from_subsets(
        inc.matrix.cols, [f for f, e in signed if e == 1], [f for f, e in signed if e == -1]
    )
    if any(inc.matrix.mat_vec(b.vector)):
        raise PreconditionFailed("orientation binomial left the kernel")
    if not b.is_squarefree():
        raise PreconditionFailed("orientation binomial is not squarefree")
    if not is_primitive(b, inc):
        raise PreconditionFailed("orientation binomial is not primitive")
    return b


# ---------------------------------------------------------------------------
# bundled complexes


def crosspolytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional crosspolytope: vertices 2i-1, 2i are
    the antipodal pair of color i, facets pick one vertex per pair."""
    if d < 1:
        raise BadParameters("crosspolytope needs d >= 1")
    facets = []
    for mask in range(1 << d):
        facets.append([2 * i + 1 + ((mask >> i) & 1) for i in range(d)])
    facets.sort()
    return SimplicialComplex.from_facets(2 * d, facets)


def octahedron() -> SimplicialComplex:
    return crosspolytope(3)


def pinched_torus() -> SimplicialComplex:
    """Sphere pinched at a point: a 16-facet spindle sphere (two square
    pyramid caps on an antiprism band) with the two apexes identified.

    The apexes have disjoint links, so the identification is simplicial;
    the merged vertex 1 has a link made of two disjoint 4-cycles, which
    kills normality while the top homology stays Z.
    """
    a = [2, 3, 4, 5]
    b = [6, 7, 8, 9]
    facets = []
    for i in range(4):
        facets.append({1, a[i], a[(i + 1) % 4]})
        facets.append({1, b[i], b[(i + 1) % 4]})
        facets.append({a[i], a[(i + 1) % 4], b[i]})
        facets.append({a[(i + 1) % 4], b[i], b[(i + 1) % 4]})
    return SimplicialComplex.from_facets(9, facets)


def crossflip_example() -> SimplicialComplex:
    """Balanced 14-facet 2-sphere on 9 vertices obtained by replacing one
    octahedron facet with a 7-triangle patch; its orientation binomial is
    a primitive degree-7 element of the (9, 3, 2) lattice ideal.

    The facets are stored positively-oriented first, so the orientation
    found by the verifier reproduces the two monomials exactly.
    """
    plus = [(1, 4, 6), (2, 3, 6), (1, 3, 5), (2, 4, 5), (6, 7, 8), (1, 7, 9), (3, 8, 9)]
    minus = [(7, 8, 9), (1, 6, 7), (3, 6, 8), (1, 3, 9), (2, 4, 6), (1, 4, 5), (2, 3, 5)]
    return SimplicialComplex.from_facets(9, plus + minus)


def parse_complex_file(text: str) -> SimplicialComplex:
    """One facet per line, whitespace-separated vertex labels."""
    facets = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        facets.append([int(tok) for tok in line.split()])
    if not facets:
        raise BadParameters("no facets in complex file")
    n = max(max(f) for f in facets)
    return SimplicialComplex.from_facets(n, facets)

