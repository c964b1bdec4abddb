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
    # the first round starts from the 5 basis binomials and the 15 pods,
    # 4 of which are basis binomials
    assert str(saturation.value) == (
        "saturation round 1: pair queue budget of 3 exhausted: "
        "4 pairs popped, basis of 16 elements"
    )
    with pytest.raises(BudgetExceeded) as completion:
        toric.graver_basis(inc, RunConfig(pair_queue_budget=3))
    assert str(completion.value) == "pair queue budget of 3 exhausted: 4 sums reduced, 8 moves"


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
