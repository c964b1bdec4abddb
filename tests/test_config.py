"""Budgets of the run configuration."""

import pytest

from incitoric.config import DEFAULT_CONFIG, RunConfig
from incitoric.errors import BadParameters, BudgetExceeded
from incitoric.incidence import build_matrix


def test_budgets_must_be_positive():
    with pytest.raises(BadParameters):
        RunConfig(fiber_budget=0)


def test_only_one_worker_accepted():
    assert RunConfig(workers=1).workers == 1
    with pytest.raises(BadParameters):
        RunConfig(workers=2)


def test_buchberger_budget():
    from incitoric import toric

    inc = build_matrix(6, 3, 2)
    # a basis computed under the default budget must not let a later run
    # under a smaller one pass
    toric.lattice_ideal_groebner(inc, DEFAULT_CONFIG)
    with pytest.raises(BudgetExceeded):
        toric.lattice_ideal_groebner(inc, RunConfig(pair_queue_budget=3))


def test_budget_message_says_how_far_the_run_got():
    from incitoric import toric

    inc = build_matrix(6, 3, 2)
    with pytest.raises(BudgetExceeded) as saturation:
        toric.lattice_ideal_groebner(inc, RunConfig(pair_queue_budget=3))
    # the 5 basis binomials, the 15 pods and their S_6 images are all
    # reduced before the first pair is popped
    assert str(saturation.value) == "pair queue budget of 3 exhausted: 4 pairs popped, basis of 30 elements"
    with pytest.raises(BudgetExceeded) as completion:
        toric.graver_basis(inc, RunConfig(pair_queue_budget=3))
    assert str(completion.value) == "pair queue budget of 3 exhausted: 4 pairs popped, basis of 15 elements"


def test_fiber_and_box_budget_messages_name_their_budget():
    from incitoric import designs, polytope, toric

    gb = toric.lattice_ideal_groebner(build_matrix(5, 2, 1))
    with pytest.raises(BudgetExceeded) as fiber:
        toric.markov_from_groebner(gb, RunConfig(fiber_budget=3))
    assert str(fiber.value) == (
        "fiber component budget exhausted: over fiber_budget 3, 5 monomials reached at candidate index 10"
    )
    with pytest.raises(BudgetExceeded) as scan:
        designs.min_support_scan(7, 3, 2, config=RunConfig(box_budget=10))
    assert str(scan.value) == "support scan budget exhausted: over box_budget 10 column subsets, at size 1"
    cfg = polytope.PointConfig.from_incidence(build_matrix(6, 3, 2))
    with pytest.raises(BudgetExceeded) as faces:
        polytope.neighborliness(cfg, 2, RunConfig(box_budget=100))
    assert str(faces.value) == "C(20,2) face tests exceed the budget: over box_budget 100, after 20 face tests"


def test_primitivity_box_budget():
    from incitoric import toric
    from incitoric.combinat import colex_rank

    inc = build_matrix(6, 3, 2)
    plus = [(1, 3, 6), (2, 4, 6), (1, 4, 5), (2, 3, 5)]
    minus = [(1, 4, 6), (2, 3, 6), (2, 4, 5), (1, 3, 5)]
    p = [0] * 20
    m = [0] * 20
    for s in plus:
        p[colex_rank(s)] = 3
    for s in minus:
        m[colex_rank(s)] = 3
    big = toric.Binomial(tuple(p), tuple(m))
    with pytest.raises(BudgetExceeded):
        toric.is_primitive(big, inc, RunConfig(box_budget=100))
