"""Acceptance suite: one callable check per headline claim.

Each criterion checks its claim and returns a pass flag with a short
detail string; the ``criterion`` decorator times it and wraps both in a
CriterionResult.  The Workspace memoizes what several criteria share
(the rank report, incidence matrices, point configurations and placing
triangulations), so the whole suite runs in seconds.  All comparisons
are exact.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import complexes, designs, exactmath, threepoint, toric
from .combinat import derangements
from .config import DEFAULT_CONFIG, RunConfig
from .incidence import IncidenceMatrix, build_matrix, check_rank_laws
from .polytope import (
    PointConfig,
    Triangulation,
    is_face,
    neighborliness,
    normalized_volume,
    placing_triangulation,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    detail: str

    def as_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "detail": self.detail,
        }


class Workspace:
    """Lazily computed state that the acceptance criteria share: the rank
    report, and incidence matrices, point configurations and placing
    triangulations by (n, k, t).  A toric basis is read by one criterion
    alone, which computes it itself."""

    def __init__(self, config: RunConfig = DEFAULT_CONFIG):
        self.config = config
        self._cache: Dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def inc(self, n, k, t) -> IncidenceMatrix:
        return self._get(("inc", n, k, t), lambda: build_matrix(n, k, t))

    def rank_report(self):
        return self._get("rank_report", check_rank_laws)

    def cfg(self, n, k, t) -> PointConfig:
        return self._get(("cfg", n, k, t), lambda: PointConfig.from_incidence(self.inc(n, k, t)))

    def triangulation(self, n, k, t) -> Triangulation:
        return self._get(
            ("tri", n, k, t),
            lambda: placing_triangulation(self.cfg(n, k, t), config=self.config),
        )


def criterion(number: int, name: str):
    """Turn a check returning (passed, detail) into a criterion returning
    a CriterionResult, timed on the monotonic clock."""

    def decorate(check: Callable[[Workspace], Tuple[bool, str]]):
        @functools.wraps(check)
        def timed(ws: Workspace) -> CriterionResult:
            start = time.perf_counter()
            passed, detail = check(ws)
            return CriterionResult(number, name, passed, time.perf_counter() - start, detail)

        return timed

    return decorate


def _displayed_quartic():
    plus = [(1, 3, 6), (2, 4, 6), (1, 4, 5), (2, 3, 5)]
    minus = [(1, 4, 6), (2, 3, 6), (2, 4, 5), (1, 3, 5)]
    return plus, minus


def _displayed_sextic():
    plus = [(1, 4, 6), (1, 5, 6), (2, 3, 6), (1, 2, 3), (3, 4, 5), (2, 4, 5)]
    minus = [(1, 3, 6), (1, 2, 6), (4, 5, 6), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
    return plus, minus


@criterion(1, "rational rank law")
def criterion_01(ws: Workspace) -> Tuple[bool, str]:
    report = ws.rank_report()
    bad = [e for e in report.entries if not e.rank_law_ok]
    detail = f"{len(report.entries)} parameter triples, rank over Q equals min(C(n,t), C(n,k))"
    if bad:
        detail = f"failures at {[(e.n, e.k, e.t) for e in bad]}"
    return not bad, detail


@criterion(2, "prime-field rank law")
def criterion_02(ws: Workspace) -> Tuple[bool, str]:
    report = ws.rank_report()
    bad = [(e.n, e.k, e.t, r.p) for e in report.entries for r in e.mod_p if not r.ok]
    checked = sum(len(e.mod_p) for e in report.entries)
    detail = (
        f"{checked} (triple, prime) pairs: multiplication map full rank iff p > min(k, n-t)"
    )
    if bad:
        detail = f"failures at {bad}"
    return not bad, detail


@criterion(3, "minimal Markov basis of (6,3,2)")
def criterion_03(ws: Workspace) -> Tuple[bool, str]:
    gb = toric.lattice_ideal_groebner(ws.inc(6, 3, 2), ws.config)
    markov = toric.markov_from_groebner(gb, ws.config)
    degrees = markov.degree_multiset()
    ok = len(markov.elements) == 30 and degrees == {4: 15, 6: 15}
    qp, qm = _displayed_quartic()
    sp, sm = _displayed_sextic()
    quartic = toric.Binomial.from_subsets(20, qp, qm)
    sextic = toric.Binomial.from_subsets(20, sp, sm)
    ok = ok and toric.reduce_to_zero(quartic, gb) and toric.reduce_to_zero(sextic, gb)
    kr = len(exactmath.kernel_basis(ws.inc(6, 3, 2).matrix))
    ok = ok and kr == comb(6, 3) - comb(6, 2)
    detail = f"markov size {len(markov.elements)}, degrees {degrees}, kernel rank {kr}"
    return ok, detail


@criterion(4, "projective degree via column-lattice volume")
def criterion_04(ws: Workspace) -> Tuple[bool, str]:
    vol = normalized_volume(
        ws.cfg(6, 3, 2), "column_lattice", ws.triangulation(6, 3, 2), ws.config
    )
    return vol == 162, f"normalized volume {vol} (expected 162)"


@criterion(5, "euclidean volume divisibility")
def criterion_05(ws: Workspace) -> Tuple[bool, str]:
    v632 = normalized_volume(
        ws.cfg(6, 3, 2), "euclidean", ws.triangulation(6, 3, 2), ws.config
    )
    v743 = normalized_volume(
        ws.cfg(7, 4, 3), "euclidean", ws.triangulation(7, 4, 3), ws.config
    )
    ok = v632 % 2 == 0 and v632 % 3 == 0 and v743 % 2 == 0 and v743 % 3 == 0
    return ok, f"(6,3,2): {v632}; (7,4,3): {v743}; both divisible by 2 and 3"


@criterion(6, "minimum positive support is 2^t")
def criterion_06(ws: Workspace) -> Tuple[bool, str]:
    ok = True
    details = []
    for n in (6, 7):
        scan = designs.min_support_scan(n, 3, 2, config=ws.config)
        pods_norm = {designs.sign_normalized(p) for p in designs.pods(n, 3, 2)}
        is_pod = scan.witness in pods_norm
        ok = ok and scan.min_positive_support == 4 and is_pod
        details.append(f"(n={n}): min positive support {scan.min_positive_support}, pod witness {is_pod}")
    return ok, "; ".join(details)


@criterion(7, "exact 3-neighborliness")
def criterion_07(ws: Workspace) -> Tuple[bool, str]:
    ok = True
    details = []
    for n in (6, 7):
        cfg = ws.cfg(n, 3, 2)
        rep = neighborliness(cfg, 3, ws.config)
        support4 = [i for i, x in enumerate(next(designs.pods(n, 3, 2))) if x > 0]
        cert = is_face(cfg, support4)
        ok = ok and rep.neighborliness == 3 and not cert.is_face
        details.append(
            f"(n={n}): {rep.subsets_tested} face LPs up to size 3, pod-support 4-set non-face {not cert.is_face}"
        )
    return ok, "; ".join(details)


@criterion(8, "pods span the kernel")
def criterion_08(ws: Workspace) -> Tuple[bool, str]:
    triples = []
    for n in range(3, 8):
        for k in range(2, n):
            for t in range(1, k):
                if comb(n, t) < comb(n, k):
                    triples.append((n, k, t))
    bad = []
    for n, k, t in triples:
        if not designs.pods_span_kernel(n, k, t, list(designs.pods(n, k, t))):
            bad.append((n, k, t))
    detail = f"{len(triples)} nontrivial parameter triples with n <= 7"
    return not bad, detail + (f"; failures {bad}" if bad else "")


@criterion(9, "octahedral generators saturate to the full ideal")
def criterion_09(ws: Workspace) -> Tuple[bool, str]:
    ok = toric.saturation_equals(toric.octahedral_generators(6, 3, 2), ws.inc(6, 3, 2), ws.config)
    return ok, "mutual containment by reduction in both directions"


@criterion(10, "pseudomanifold certificates")
def criterion_10(ws: Workspace) -> Tuple[bool, str]:
    # the bundled spheres, each verified once (the octahedron is crosspolytope(3))
    oct_rep, cp4_rep, cf_rep = (
        complexes.verify(delta)
        for delta in (complexes.octahedron(), complexes.crosspolytope(4), complexes.crossflip_example())
    )
    all_true = lambda r: (
        r.pure and r.pseudomanifold and r.boundaryless and r.normal
        and r.balanced and r.orientable and r.facet_ridge_bipartite
    )
    ok = all_true(oct_rep) and all_true(cp4_rep)
    for r in (oct_rep, cp4_rep, cf_rep):
        if r.balanced and r.normal and r.boundaryless and r.dimension >= 2:
            ok = ok and (r.orientable == r.facet_ridge_bipartite)
    pt = complexes.verify(complexes.pinched_torus())
    ok = ok and pt.orientable and pt.boundaryless and pt.normal is False
    return ok, (
        "octahedron and 4-crosspolytope fully verified; bipartite iff orientable on "
        "bundled balanced normal spheres; pinched torus orientable but not normal"
    )


@criterion(11, "orientation binomials")
def criterion_11(ws: Workspace) -> Tuple[bool, str]:
    oct_ = complexes.octahedron()
    rep = complexes.verify(oct_)
    b = complexes.orientation_binomial(oct_, rep)
    qp, qm = _displayed_quartic()
    quartic = toric.Binomial.from_subsets(20, qp, qm)
    ok = {b.plus, b.minus} == {quartic.plus, quartic.minus}
    cf = complexes.crossflip_example()
    repc = complexes.verify(cf)
    bc = complexes.orientation_binomial(cf, repc)
    plus = [(1, 4, 6), (2, 3, 6), (1, 3, 5), (2, 4, 5), (6, 7, 8), (1, 7, 9), (3, 8, 9)]
    minus = [(7, 8, 9), (1, 6, 7), (3, 6, 8), (1, 3, 9), (2, 4, 6), (1, 4, 5), (2, 3, 5)]
    displayed = toric.Binomial.from_subsets(comb(9, 3), plus, minus)
    ok = ok and bc.plus == displayed.plus and bc.minus == displayed.minus
    # orientation_binomial raises PreconditionFailed unless its binomial is primitive
    return ok, (
        "octahedron reproduces the quartic (up to the global orientation sign); "
        "the cross-flip sphere reproduces the degree-7 binomial exactly; both primitive"
    )


@criterion(12, "fiber sizes")
def criterion_12(ws: Workspace) -> Tuple[bool, str]:
    ok = True
    count = 0
    for n in range(2, 7):
        for d in derangements(n):
            count += 1
            if len(threepoint.fiber(threepoint.phi(d), n, ws.config)) != threepoint.fiber_size_formula(d):
                ok = False
    return ok, f"{count} derangements across n <= 6, the fiber search pruned by edge multiplicities finds 2^(t-s) each"


@criterion(13, "coset memberships")
def criterion_13(ws: Workspace) -> Tuple[bool, str]:
    # every claim of the section-5 report that applies at n = 5, 6 and 7
    details = [
        f"n={n}: {c.name} failed"
        for n in (5, 6, 7)
        for c in threepoint.check_section5(n, ws.config).claims
        if c.applicable and not c.passed
    ]
    ok = not details
    if ok:
        details.append("n=5 products and lemma instance, n=6 all 265 images, n=7 triples and exchange identities")
    return ok, "; ".join(details)


@criterion(14, "determinant expressions")
def criterion_14(ws: Workspace) -> Tuple[bool, str]:
    e3 = threepoint.det_as_c_expression(3, ws.config)
    ok = e3.f == {(1,): 2} and e3.g_exps == (0,)
    # raises CertificateError unless f / g expands to the 265-term determinant
    e6 = threepoint.det_as_c_expression(6, ws.config)
    t3 = threepoint.tilde_ideal_generators(3, ws.config)
    ok = ok and t3.markov_count == 0 and t3.extra_generator == {(1,): 1}
    ok = ok and t3.containment_verified
    return ok, (
        f"det(P3) = 2 c123 exactly; 265-term identity for n=6 with a {len(e6.f)}-term numerator; "
        "n=3 assembly reproduces (c123) with the forward containment"
    )


ALL_CRITERIA: tuple = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    criterion_14,
)


def run_acceptance(
    ws: Workspace,
    only: Optional[Sequence[int]] = None,
) -> List[CriterionResult]:
    results = []
    for i, crit in enumerate(ALL_CRITERIA, start=1):
        if only and i not in only:
            continue
        results.append(crit(ws))
    return results
