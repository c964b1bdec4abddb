"""Exact simplex: statuses, certificates, and an independent basic-solution
oracle on random instances."""

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
from incitoric.errors import CertificateError
from incitoric.incidence import build_matrix
from incitoric.lp import LpResult, RationalLpProblem, lp_feasible, verify_farkas


def test_infeasible_interval():
    p = RationalLpProblem.of([0], [([1], ">=", 1), ([1], "<=", 0)])
    r = lp_feasible(p)
    assert r.status == "infeasible"
    assert verify_farkas(p, r.farkas)


def test_bounded_maximum():
    p = RationalLpProblem.of([1], [([1], ">=", 0), ([1], "<=", 1)])
    r = lp_feasible(p)
    assert r.status == "optimal"
    assert r.point == (Fraction(1),)
    assert r.objective_value == 1


def test_unbounded_vs_infeasible_distinct():
    unb = lp_feasible(RationalLpProblem.of([1], [([1], ">=", 0)]))
    inf = lp_feasible(RationalLpProblem.of([1], [([1], "<=", -1)], [True]))
    assert unb.status == "unbounded"
    assert inf.status == "infeasible"


def test_fractional_optimum():
    p = RationalLpProblem.of(
        [2, 3],
        [([1, 1], "=", 1), ([1, -1], "<=", Fraction(1, 3)), ([0, 1], "<=", Fraction(9, 10))],
    )
    r = lp_feasible(p)
    assert r.status == "optimal"
    assert r.objective_value == Fraction(29, 10)


def test_nonneg_flags_respected():
    p = RationalLpProblem.of([-1], [([1], ">=", -5)], [True])
    r = lp_feasible(p)
    assert r.status == "optimal"
    assert r.point == (Fraction(0),)


def test_deterministic_repeat():
    p = RationalLpProblem.of(
        [1, 1], [([1, 2], "<=", 4), ([3, 1], "<=", 5), ([1, 0], ">=", 0)]
    )
    assert lp_feasible(p) == lp_feasible(p)


def test_primal_face_system_for_a_vertex_is_feasible():
    # the face test for one vertex, written the other way around: find a
    # functional equal to its value on the vertex and at least one below
    # it elsewhere; feasible because vertices are faces
    from incitoric.incidence import build_matrix

    inc = build_matrix(6, 3, 2)
    points = [inc.matrix.column(j) for j in range(20)]
    nd = len(points[0])
    cons = []
    row0 = list(points[0]) + [-1]
    cons.append((row0, "=", 0))
    for j in range(1, 20):
        cons.append((list(points[j]) + [-1], "<=", -1))
    problem = RationalLpProblem.of([0] * (nd + 1), cons)
    result = lp_feasible(problem)
    assert result.status == "optimal"
    c, beta = result.point[:nd], result.point[nd]
    assert sum(a * b for a, b in zip(c, points[0])) == beta
    assert all(
        sum(a * b for a, b in zip(c, points[j])) <= beta - 1 for j in range(1, 20)
    )


def satisfies(constraint, x):
    """Exact check of a constraint at the rational point ``x``."""
    gap = sum(a * v for a, v in zip(constraint.coeffs, x)) - constraint.rhs
    return {"<=": gap <= 0, "=": gap == 0, ">=": gap >= 0}[constraint.relation]


def _optimum_by_basic_enumeration(problem):
    """Independent oracle: evaluate every basic solution of the equality
    system obtained by making constraints tight; sound for bounded LPs
    whose optimum sits at such a point."""
    n = len(problem.objective)
    cons = problem.constraints
    rows = [list(c.coeffs) for c in cons]
    rhs = [c.rhs for c in cons]
    best = None
    # nonneg bounds participate as potential tight rows
    bound_rows = [
        ([Fraction(1) if j == i else Fraction(0) for j in range(n)], Fraction(0))
        for i in range(n)
        if problem.is_nonneg(i)
    ]
    all_rows = [(rows[i], rhs[i]) for i in range(len(cons))] + bound_rows
    for subset in combinations(range(len(all_rows)), n):
        a = [all_rows[i][0] for i in subset]
        b = [all_rows[i][1] for i in subset]
        x = em.solve_rational(a, b)
        if x is None:
            continue
        if all(satisfies(c, x) for c in cons) and all(
            not problem.is_nonneg(j) or x[j] >= 0 for j in range(n)
        ):
            val = sum(c * v for c, v in zip(problem.objective, x))
            if best is None or val > best:
                best = val
    return best


def test_random_instances_against_enumeration():
    rng = random.Random(2024)
    checked = 0
    for _ in range(250):
        n = rng.randint(1, 3)
        m = rng.randint(n, 5)
        cons = [
            (
                [Fraction(rng.randint(-3, 3)) for _ in range(n)],
                rng.choice(["<=", "=", ">="]),
                Fraction(rng.randint(-4, 4)),
            )
            for _ in range(m)
        ]
        # box the region so every instance is bounded
        for j in range(n):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            cons.append((list(e), "<=", Fraction(6)))
            cons.append((list(e), ">=", Fraction(-6)))
        obj = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        problem = RationalLpProblem.of(obj, cons)
        result = lp_feasible(problem)
        assert result.status in ("optimal", "infeasible")
        oracle = _optimum_by_basic_enumeration(problem)
        if result.status == "infeasible":
            assert oracle is None
            assert verify_farkas(problem, result.farkas)
        else:
            assert oracle is not None
            assert result.objective_value == oracle
            checked += 1
    assert checked > 50


def test_rational_constraints_are_stored_as_integer_rows():
    p = RationalLpProblem.of(
        [Fraction(1, 2)], [([Fraction(2, 3)], "<=", Fraction(1, 4)), ([3], ">=", -6)]
    )
    assert [(c.coeffs, c.rhs) for c in p.constraints] == [((8,), 3), ((3,), -6)]
    assert all(type(x) is int for c in p.constraints for x in (*c.coeffs, c.rhs))
    r = lp_feasible(p)
    assert r.point == (Fraction(3, 8),)
    assert r.objective_value == Fraction(3, 16)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def scaled_lp_pairs(draw):
    """A small LP with rational data and the same LP with every
    constraint multiplied by a positive integer."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(st.lists(rationals, min_size=n, max_size=n),
                  st.sampled_from(["<=", "=", ">="]), rationals),
        min_size=1, max_size=4,
    ))
    scales = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    objective = draw(st.lists(rationals, min_size=n, max_size=n))
    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    scaled = [([k * a for a in coeffs], rel, k * b) for (coeffs, rel, b), k in zip(rows, scales)]
    return (RationalLpProblem.of(objective, rows, nonneg),
            RationalLpProblem.of(objective, scaled, nonneg))


@settings(max_examples=150, deadline=None)
@given(scaled_lp_pairs())
def test_positive_row_multiples_give_the_same_lp(pair):
    results = [lp_feasible(p) for p in pair]
    assert results[0].status == results[1].status
    assert results[0].objective_value == results[1].objective_value
    for p, r in zip(pair, results):
        if r.status == "infeasible":
            assert verify_farkas(p, r.farkas)
        if r.status == "optimal":
            assert all(satisfies(c, r.point) for c in p.constraints)


def test_rejected_farkas_certificate_raises(monkeypatch):
    monkeypatch.setattr(lp, "verify_farkas", lambda problem, lam: False)
    with pytest.raises(CertificateError):
        lp_feasible(RationalLpProblem.of([0], [([1], ">=", 1), ([1], "<=", 0)]))


def test_rejected_farkas_certificate_raises_under_python_O():
    # the checks are explicit raises, not asserts, so -O keeps them
    code = (
        "from incitoric import lp\n"
        "from incitoric.errors import CertificateError\n"
        "lp.verify_farkas = lambda problem, lam: False\n"
        "try:\n"
        "    lp.lp_feasible(lp.RationalLpProblem.of([0], [([1], '>=', 1), ([1], '<=', 0)]))\n"
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
    LpResult("optimal", tuple(Fraction(1) for _ in range(20)), Fraction(0), None),
    # multipliers whose functional (zero) does not separate the outside points
    LpResult("infeasible", None, None, (Fraction(0),) * 16 + (Fraction(-1),)),
])
def test_bogus_face_lp_result_raises(monkeypatch, bogus):
    cfg = polytope.PointConfig.from_incidence(build_matrix(6, 3, 2))
    monkeypatch.setattr(polytope, "lp_feasible", lambda problem: bogus)
    with pytest.raises(CertificateError):
        polytope.is_face(cfg, (0, 1))
