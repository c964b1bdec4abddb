"""Exact phase-one simplex: statuses, integer certificates, and an
independent basic-solution oracle on random instances."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incitoric
from incitoric import exactmath as em
from incitoric import lp, polytope
from incitoric.errors import BadParameters, CertificateError
from incitoric.incidence import build_matrix
from incitoric.lp import LinearConstraint, LpResult, RationalLpProblem, lp_feasible, verify_farkas


def problem(rows, nonneg):
    """The problem with the rows ``coeffs . x = rhs``, given as pairs, and
    x_j >= 0 where ``nonneg[j]``.  The LP takes non-negative variables
    only, so each free x_j becomes two adjacent columns x_j+ - x_j-."""

    def split(coeffs):
        return [s * a for a, flag in zip(coeffs, nonneg) for s in ((1,) if flag else (1, -1))]

    return RationalLpProblem.of(
        [LinearConstraint.of(split(c), b) for c, b in rows], sum(1 if f else 2 for f in nonneg)
    )


def unsplit(nonneg, values):
    """The original variables of ``problem(rows, nonneg)`` from its columns."""
    columns = iter(values)
    return [next(columns) if flag else next(columns) - next(columns) for flag in nonneg]


def holds_at(p, result):
    """Exact substitution of the point ``values / den`` into ``p``."""
    xs, d = result.values, result.den
    return d > 0 and len(xs) == p.nvars and all(x >= 0 for x in xs) and all(
        sum(a * x for a, x in zip(c.coeffs, xs)) == c.rhs * d for c in p.constraints
    )


def test_infeasible_interval():
    # x >= 1 and x <= 0, with slacks: x - s = 1, x + u = 0
    p = problem([([1, -1, 0], 1), ([1, 0, 1], 0)], [False, True, True])
    r = lp_feasible(p)
    assert r.status == "infeasible"
    assert r.den > 0
    assert verify_farkas(p, r.values)
    assert verify_farkas(p, [3 * l for l in r.values])  # any positive multiple
    assert not verify_farkas(p, [-l for l in r.values])


def test_fractional_optimum():
    # status "optimal" names a feasible point: x + y = 1, 3x - 3y = 1
    p = problem([([1, 1], 1), ([3, -3], 1)], [False, False])
    r = lp_feasible(p)
    assert r.status == "optimal"
    xs = unsplit([False, False], r.values)
    assert [Fraction(x, r.den) for x in xs] == [Fraction(2, 3), Fraction(1, 3)]
    assert holds_at(p, r)


def test_nonneg_flags_respected():
    free = lp_feasible(problem([([1], -1)], [False]))
    assert free.status == "optimal"
    assert Fraction(*unsplit([False], free.values), free.den) == -1
    flagged = problem([([1], -1)], [True])
    r = lp_feasible(flagged)
    assert r.status == "infeasible"
    assert verify_farkas(flagged, r.values)


def test_non_integer_constraint_data_rejected():
    with pytest.raises(BadParameters):
        LinearConstraint.of([Fraction(1, 2)], 0)
    with pytest.raises(BadParameters):
        LinearConstraint.of([1], 0.5)


def test_negative_variable_count_rejected():
    with pytest.raises(BadParameters):
        RationalLpProblem.of([], -1)


def test_deterministic_repeat():
    p = problem([([1, 2, 1, 0], 4), ([3, 1, 0, 1], 5)], [True, False, True, True])
    assert lp_feasible(p) == lp_feasible(p)


def test_primal_face_system_for_a_vertex_is_feasible():
    # the face test for one vertex, written the other way around: find a
    # functional equal to its value on the vertex and at least one below
    # it elsewhere (c . p_j - beta + s_j = -1 with slacks s_j >= 0);
    # feasible because vertices are faces
    inc = build_matrix(6, 3, 2)
    points = [inc.matrix.column(j) for j in range(20)]
    nd = len(points[0])
    rows = [(list(points[0]) + [-1] + [0] * 19, 0)]
    for j in range(1, 20):
        slack = [0] * 19
        slack[j - 1] = 1
        rows.append((list(points[j]) + [-1] + slack, -1))
    nonneg = [False] * (nd + 1) + [True] * 19
    p = problem(rows, nonneg)
    result = lp_feasible(p)
    assert result.status == "optimal"
    assert holds_at(p, result)
    xs, d = unsplit(nonneg, result.values), result.den
    c, beta = xs[:nd], xs[nd]
    assert sum(a * b for a, b in zip(c, points[0])) == beta
    assert all(sum(a * b for a, b in zip(c, points[j])) <= beta - d for j in range(1, 20))


def _feasible_by_basic_enumeration(p):
    """Independent oracle: A x = b with x >= 0 is feasible exactly when
    some linearly independent columns of A carry a non-negative solution,
    so try every column subset of size at most the row count."""
    columns = [[c.coeffs[j] for c in p.constraints] for j in range(p.nvars)]
    rhs = [c.rhs for c in p.constraints]
    for size in range(len(rhs) + 1):
        for subset in combinations(columns, size):
            a = [[col[i] for col in subset] for i in range(len(rhs))]
            y = em.solve_rational(a, rhs)
            if y is not None and all(v >= 0 for v in y):
                return True
    return False


def random_problems():
    """250 seeded problems of 1-3 rows over 1-3 variables, most of them
    non-negative."""
    rng = random.Random(2024)
    for _ in range(250):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [([rng.randint(-3, 3) for _ in range(n)], rng.randint(-4, 4)) for _ in range(m)]
        yield problem(rows, [rng.random() < 0.7 for _ in range(n)])


def test_random_instances_against_enumeration():
    verdicts = {"optimal": 0, "infeasible": 0}
    for p in random_problems():
        result = lp_feasible(p)
        verdicts[result.status] += 1
        assert (result.status == "optimal") == _feasible_by_basic_enumeration(p)
        if result.status == "infeasible":
            assert verify_farkas(p, result.values)
        else:
            assert holds_at(p, result)
    assert min(verdicts.values()) > 50


def test_blands_rule_gives_the_same_verdicts(monkeypatch):
    statuses = [lp_feasible(p).status for p in random_problems()]
    rules = []
    entering = lp._entering

    def recorded(cost, bland):
        rules.append(bland)
        return entering(cost, bland)

    # steepest descent hands over to Bland's rule after the first pivot
    monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
    monkeypatch.setattr(lp, "_entering", recorded)
    for p, status in zip(random_problems(), statuses):
        result = lp_feasible(p)
        assert result.status == status
        if status == "infeasible":
            assert verify_farkas(p, result.values)
        else:
            assert holds_at(p, result)
    assert rules.count(True) > 50


def test_results_digest_on_seeded_problems():
    # the exact points and multipliers, not only the verdicts, of 1,000
    # problems of 1-5 rows over 1-6 non-negative variables
    rng = random.Random(24)
    results = []
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 5)
        rows = [
            LinearConstraint.of([rng.randint(-5, 5) for _ in range(n)], rng.randint(-6, 6))
            for _ in range(m)
        ]
        results.append(lp_feasible(RationalLpProblem.of(rows, n)))
    assert sum(r.status == "optimal" for r in results) == 340
    digest = hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()
    assert digest == "ff98c190c51555e2705361311238b43d45f5938f2e3f79f8bab9b959423701fa"


def dense_lp_feasible(problem):
    """Test oracle: phase one with dense pivots, each touched row
    cross-multiplied with the whole pivot row and divided by the gcd of
    its entries.  It shares only the pivot choice with ``lp``.
    Returns the result and the counts of pivots other than 1 and of
    updated rows whose lead is not 1."""
    cons = problem.constraints
    m, art_base = len(cons), problem.nvars
    ncols = art_base + m
    sigma = [-1 if c.rhs < 0 else 1 for c in cons]
    rows = []
    for i, (c, s) in enumerate(zip(cons, sigma)):
        row = [s * a for a in c.coeffs] + [0] * (m + 1) + [s * c.rhs]
        row[art_base + i] = 1
        rows.append(row)
    cost = [-sum(col) for col in zip(*rows, [0] * (ncols + 2))]
    cost[art_base:ncols + 1] = [0] * m + [1]
    rows.append(cost)
    lead = list(range(art_base, ncols + 1))
    pivots = odd_pivots = odd_leads = 0
    while (col := lp._entering(rows[m], pivots > lp._BLAND_AFTER)) is not None:
        row = lp._leaving(rows, lead, col)
        pivots += 1
        prow = rows[row]
        piv = prow[col]
        odd_pivots += piv != 1
        for i, r in enumerate(rows):
            f = r[col]
            if f and i != row:
                new = [a * piv - f * b for a, b in zip(r, prow)]
                odd_leads += new[lead[i]] != 1
                g = gcd(*new)
                rows[i] = [x // g for x in new]
        lead[row] = col
    cost = rows[m]
    if cost[-1] < 0:
        farkas = tuple((cost[art_base + i] - cost[ncols]) * sigma[i] for i in range(m))
        return LpResult("infeasible", farkas, cost[ncols]), odd_pivots, odd_leads
    dens = [r[j] for r, j in zip(rows, lead[:m])]
    d = lcm(*dens)
    xs = [0] * art_base
    for r, j, den in zip(rows, lead, dens):
        if j < art_base:
            xs[j] = r[-1] * (d // den)
    return LpResult("optimal", tuple(xs), d), odd_pivots, odd_leads


@pytest.mark.parametrize("bland_after", [lp._BLAND_AFTER, 0])
def test_sparse_pivots_match_the_dense_oracle(monkeypatch, bland_after):
    # 400 seeded problems of 1-6 rows over 1-8 non-negative variables with
    # entries up to 9 in size: the same status, values and den, bit for bit
    monkeypatch.setattr(lp, "_BLAND_AFTER", bland_after)
    rng = random.Random(33)
    verdicts = {"optimal": 0, "infeasible": 0}
    odd_pivots = odd_leads = 0
    for _ in range(400):
        n, m = rng.randint(1, 8), rng.randint(1, 6)
        rows = [
            LinearConstraint.of([rng.randint(-9, 9) for _ in range(n)], rng.randint(-9, 9))
            for _ in range(m)
        ]
        p = RationalLpProblem.of(rows, n)
        expected, pivots, leads = dense_lp_feasible(p)
        assert lp_feasible(p) == expected
        verdicts[expected.status] += 1
        odd_pivots += pivots
        odd_leads += leads
    # the scaling and gcd branches run, which the face LPs rarely reach
    assert min(verdicts.values()) > 50
    assert odd_pivots > 100 and odd_leads > 100


@st.composite
def scaled_lp_pairs(draw):
    """A small integer problem and the same problem with every row
    multiplied by a positive integer."""
    n = draw(st.integers(1, 3))
    coeff = st.integers(-4, 4)
    rows = draw(st.lists(
        st.tuples(st.lists(coeff, min_size=n, max_size=n), coeff), min_size=1, max_size=4,
    ))
    scales = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    scaled = [([k * a for a in coeffs], k * b) for (coeffs, b), k in zip(rows, scales)]
    return problem(rows, nonneg), problem(scaled, nonneg)


@settings(max_examples=150, deadline=None)
@given(scaled_lp_pairs())
def test_positive_row_multiples_give_the_same_lp(pair):
    results = [lp_feasible(p) for p in pair]
    assert results[0].status == results[1].status
    for p, r in zip(pair, results):
        if r.status == "infeasible":
            assert verify_farkas(p, r.values)
        else:
            assert holds_at(p, r)


def test_rejected_farkas_certificate_raises(monkeypatch):
    monkeypatch.setattr(lp, "verify_farkas", lambda problem, lam: False)
    with pytest.raises(CertificateError):
        lp_feasible(problem([([1], -1)], [True]))


def test_rejected_farkas_certificate_raises_under_python_O():
    # the checks are explicit raises, not asserts, so -O keeps them
    code = (
        "from incitoric import lp\n"
        "from incitoric.errors import CertificateError\n"
        "lp.verify_farkas = lambda problem, lam: False\n"
        "try:\n"
        "    lp.lp_feasible(lp.RationalLpProblem.of([lp.LinearConstraint.of([1], -1)], 1))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "raised"


@pytest.mark.parametrize("bogus", [
    # a point whose slack vector is orthogonal to no Gale vector, so no
    # functional recombines to it
    LpResult("optimal", (1,) * 18, 1),
    # multipliers whose dependence has positive support outside the face
    LpResult("infeasible", (0,) * 4 + (-1,), 1),
    # multipliers that combine to the zero dependence
    LpResult("infeasible", (0,) * 5, 1),
])
def test_bogus_face_lp_result_raises(monkeypatch, bogus):
    # the face LP of {0, 1} in (6,3,2): 5 Gale rows, 18 outside variables
    cfg = polytope.PointConfig.from_incidence(build_matrix(6, 3, 2))
    shapes = []

    def fake_lp(problem):
        shapes.append((len(problem.constraints), problem.nvars))
        return bogus

    monkeypatch.setattr(polytope, "lp_feasible", fake_lp)
    with pytest.raises(CertificateError):
        polytope.is_face(cfg, (0, 1))
    assert shapes == [(5, 18)]
