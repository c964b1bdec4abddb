"""Simplicial complexes: pseudomanifold certificates, balanced colorings,
orientations, and the binomials they induce.

A complex is stored by its facets.  The verifier reads every predicate
off one ridge-to-facets map.  Strong connectivity and bipartiteness of
the facet-ridge graph, normality (connected links) and orientability
(+-1 cycles of the top boundary map on interior ridges) each come from
one propagation of signs along a graph; balancedness is an exact
backtracking coloring of the 1-skeleton.  For a balanced orientable
normal pseudomanifold without boundary the +-1 orientation turns the
facet list into a squarefree binomial of the matching incidence toric
ideal; the octahedral quartics arise this way from the facet-ridge
bipartition of the crosspolytope boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Optional

from .errors import BadParameters, PreconditionFailed
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


def _ridge_map(delta: SimplicialComplex) -> Dict[frozenset, list]:
    """Each ridge, a facet of a pure complex minus one vertex, with the
    indices of the facets that hold it."""
    d = delta.dimension
    ridges: Dict[frozenset, list] = {}
    for i, f in enumerate(delta.facets):
        for c in combinations(sorted(f), d):
            ridges.setdefault(frozenset(c), []).append(i)
    return ridges


def _skeleton(facets: Iterable[frozenset]) -> Dict[int, set]:
    """1-skeleton of the complex spanned by ``facets``: each vertex with
    its neighbours."""
    adj: Dict[int, set] = {}
    for f in facets:
        for v in f:
            adj.setdefault(v, set()).update(f - {v})
    return adj


def _propagate(nodes: Iterable, edges: Iterable[tuple]) -> tuple:
    """Signs along the edges ``(u, w, flip)``: +1 on the first node of each
    component, then ``sign[w] = flip * sign[u]`` across every edge.

    Returns the signs by node, or None if some edge conflicts with them,
    and the number of components.
    """
    adj: Dict = {u: [] for u in nodes}
    for u, w, flip in edges:
        adj[u].append((w, flip))
        adj[w].append((u, flip))
    sign: Dict = {}
    consistent = True
    components = 0
    for start in adj:
        if start in sign:
            continue
        components += 1
        sign[start] = 1
        stack = [start]
        while stack:
            u = stack.pop()
            for w, flip in adj[u]:
                if w not in sign:
                    sign[w] = flip * sign[u]
                    stack.append(w)
                elif sign[w] != flip * sign[u]:
                    consistent = False
    return (sign if consistent else None), components


def balanced_coloring(delta: SimplicialComplex) -> Optional[tuple]:
    """Proper (dim+1)-coloring of the 1-skeleton, the color of vertex v at
    index v-1, or None.

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
    return tuple(assign.get(v, 1) for v in range(1, delta.n + 1))


@dataclass(frozen=True)
class VerifyReport:
    pure: bool
    dimension: int
    strongly_connected: bool
    pseudomanifold: bool
    boundaryless: bool
    normal: Optional[bool]
    balanced: bool
    coloring: Optional[tuple]  # color of vertex v at index v-1
    orientable: Optional[bool]
    orientation: Optional[tuple]  # +-1 per facet, in stored facet order
    facet_ridge_bipartite: bool


def verify(delta: SimplicialComplex) -> VerifyReport:
    """Compute every predicate of the report from one ridge-to-facets map.

    Three kinds of sign propagation (``_propagate``) answer the graph
    questions: over facets sharing a ridge with every flip -1, one
    component means strongly connected and no conflict means bipartite;
    over the vertices and edges of each link with flips +1, one component
    means the link is connected; over the interior ridges of a
    pseudomanifold the signs are the orientation (``_orientation``).
    Balancedness is an exact coloring search of the 1-skeleton.
    """
    pure = delta.is_pure()
    dim = delta.dimension
    ridges = _ridge_map(delta)
    sides, components = _propagate(
        range(len(delta.facets)),
        [(i, j, -1) for members in ridges.values() for i, j in combinations(members, 2)],
    )
    strongly_connected = pure and components == 1

    counts = [len(members) for members in ridges.values()] if pure else []
    ridges_ok = pure and all(c <= 2 for c in counts)
    pseudomanifold = pure and strongly_connected and ridges_ok
    boundaryless = pure and bool(counts) and all(c == 2 for c in counts)

    normal: Optional[bool] = None
    if pseudomanifold:
        # the facets of the link of every face of dimension at most dim-2
        links: Dict[frozenset, list] = {}
        for f in delta.facets:
            for size in range(dim):
                for sigma in combinations(sorted(f), size):
                    links.setdefault(frozenset(sigma), []).append(f.difference(sigma))
        normal = all(
            _propagate({v for f in link for v in f},
                       [(u, w, 1) for f in link for u, w in combinations(f, 2)])[1] == 1
            for link in links.values()
        )

    coloring = balanced_coloring(delta) if pure else None
    balanced = coloring is not None

    orientable: Optional[bool] = None
    orientation: Optional[tuple] = None
    if pseudomanifold:
        orientation = _orientation(delta, ridges, coloring)
        orientable = orientation is not None

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
        sides is not None,
    )


def _orientation(
    delta: SimplicialComplex, ridges: Dict, coloring: Optional[tuple]
) -> Optional[tuple]:
    """Signs on the facets of a pseudomanifold that cancel across every
    interior ridge, +1 on the first facet, or None if there are none.

    The top boundary map gives facet f the sign s_f(r) = (-1)^j on the
    ridge r that drops its j-th vertex, the vertices sorted by color for
    balanced complexes and numerically otherwise; a cycle e has
    e_j = -s_i(r) s_j(r) e_i across the interior ridge r of facets i, j.
    The facets of a pseudomanifold are strongly connected through interior
    ridges, so the cycles are the multiples of the propagated signs, when
    these do not conflict.  In the color-sorted order the signs are also
    the facet-ridge bipartition, which is what the orientation binomial
    needs.
    """
    key = (lambda v: (coloring[v - 1], v)) if coloring else None
    ordered = [sorted(f, key=key) for f in delta.facets]

    def s(i: int, ridge: frozenset) -> int:
        (v,) = delta.facets[i] - ridge
        return (-1) ** ordered[i].index(v)

    interior = [(r, members) for r, members in ridges.items() if len(members) == 2]
    edges = [(i, j, -s(i, r) * s(j, r)) for r, (i, j) in interior]
    signs, _ = _propagate(range(len(delta.facets)), edges)
    if signs is None:
        return None
    return tuple(signs[i] for i in range(len(delta.facets)))


def orientation_binomial(delta: SimplicialComplex, report: VerifyReport) -> Binomial:
    """Binomial of the (n, k, k-1) lattice ideal induced by the orientation
    of ``report``, which is ``verify(delta)``.

    Requires a balanced orientable normal pseudomanifold without boundary
    of dimension k-1 >= 2; the signs, the cycle condition and primitivity
    are re-checked on the result.  The rows of the (n, k, k-1) matrix are
    the ridges, and entry r of A·u sums the signs of the facets on ridge
    r.  With two facets on every ridge, as the report claims, u lies in
    the kernel exactly when the signs cancel across every ridge, which is
    the cycle condition; a ridge on one or three facets fails the check.
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
    if len(orientation) != len(delta.facets) or any(abs(e) != 1 for e in orientation):
        raise PreconditionFailed("orientation must assign +-1 to every facet")
    inc = build_matrix(delta.n, k, k - 1)
    signed = list(zip(delta.facets, orientation))
    b = Binomial.from_subsets(
        inc.matrix.cols, [f for f, e in signed if e == 1], [f for f, e in signed if e == -1]
    )
    if any(inc.matrix.mat_vec(b.vector)):
        raise PreconditionFailed("epsilon is not a cycle of the top boundary map")
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
    """One facet per line, whitespace-separated integer vertex labels,
    none twice on a line; ``#`` starts a comment."""
    facets = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            facet = [int(tok) for tok in line.split()]
        except ValueError:
            raise BadParameters(f"line {number}: vertex labels must be integers") from None
        if len(set(facet)) != len(facet):
            raise BadParameters(f"line {number}: repeated vertex in a facet")
        facets.append(facet)
    if not facets:
        raise BadParameters("no facets in complex file")
    n = max(max(f) for f in facets)
    return SimplicialComplex.from_facets(n, facets)

