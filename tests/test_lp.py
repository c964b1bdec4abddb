"""Exact phase-one simplex: statuses, integer certificates, and an
independent basic-solution oracle on random instances."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
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
    """The problem with the rows ``coeffs . x = rhs``, given as pairs."""
    return RationalLpProblem.of([LinearConstraint.of(c, b) for c, b in rows], nonneg)


def holds_at(p, result):
    """Exact substitution of the point ``values / den`` into ``p``."""
    xs, d = result.values, result.den
    return d > 0 and all(x >= 0 for x, flag in zip(xs, p.nonneg) if flag) and all(
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
    assert [Fraction(x, r.den) for x in r.values] == [Fraction(2, 3), Fraction(1, 3)]
    assert holds_at(p, r)


def test_nonneg_flags_respected():
    free = lp_feasible(problem([([1], -1)], [False]))
    assert free.status == "optimal"
    assert Fraction(free.values[0], free.den) == -1
    flagged = problem([([1], -1)], [True])
    r = lp_feasible(flagged)
    assert r.status == "infeasible"
    assert verify_farkas(flagged, r.values)


def test_non_integer_constraint_data_rejected():
    with pytest.raises(BadParameters):
        LinearConstraint.of([Fraction(1, 2)], 0)
    with pytest.raises(BadParameters):
        LinearConstraint.of([1], 0.5)


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
    p = problem(rows, [False] * (nd + 1) + [True] * 19)
    result = lp_feasible(p)
    assert result.status == "optimal"
    assert holds_at(p, result)
    c, beta, d = result.values[:nd], result.values[nd], result.den
    assert sum(a * b for a, b in zip(c, points[0])) == beta
    assert all(sum(a * b for a, b in zip(c, points[j])) <= beta - d for j in range(1, 20))


def _feasible_by_basic_enumeration(p):
    """Independent oracle: A x = b with x_j >= 0 on the flagged variables
    is feasible exactly when some linearly independent columns of the split
    matrix [A_N | A_F | -A_F] carry a non-negative solution, so try every
    column subset of size at most the row count."""
    columns = []
    for j, flag in enumerate(p.nonneg):
        columns.append([c.coeffs[j] for c in p.constraints])
        if not flag:
            columns.append([-c.coeffs[j] for c in p.constraints])
    rhs = [c.rhs for c in p.constraints]
    for size in range(len(rhs) + 1):
        for subset in combinations(columns, size):
            a = [[col[i] for col in subset] for i in range(len(rhs))]
            y = em.solve_rational(a, rhs)
            if y is not None and all(v >= 0 for v in y):
                return True
    return False


def test_random_instances_against_enumeration():
    rng = random.Random(2024)
    verdicts = {"optimal": 0, "infeasible": 0}
    for _ in range(250):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [([rng.randint(-3, 3) for _ in range(n)], rng.randint(-4, 4)) for _ in range(m)]
        p = problem(rows, [rng.random() < 0.7 for _ in range(n)])
        result = lp_feasible(p)
        verdicts[result.status] += 1
        assert (result.status == "optimal") == _feasible_by_basic_enumeration(p)
        if result.status == "infeasible":
            assert verify_farkas(p, result.values)
        else:
            assert holds_at(p, result)
    assert min(verdicts.values()) > 50


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
        "    lp.lp_feasible(lp.RationalLpProblem.of([lp.LinearConstraint.of([1], -1)], [True]))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(incitoric.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "raised"


@pytest.mark.parametrize("bogus", [
    # a point that is no affine dependence
    LpResult("optimal", (1,) * 20, 1),
    # multipliers whose functional (zero) does not separate the outside points
    LpResult("infeasible", (0,) * 16 + (-1,), 1),
])
def test_bogus_face_lp_result_raises(monkeypatch, bogus):
    cfg = polytope.PointConfig.from_incidence(build_matrix(6, 3, 2))
    monkeypatch.setattr(polytope, "lp_feasible", lambda problem: bogus)
    with pytest.raises(CertificateError):
        polytope.is_face(cfg, (0, 1))
