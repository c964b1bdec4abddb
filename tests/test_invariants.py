"""Cross-module invariants and serialization round trips."""

import ast
import json
from math import comb
from pathlib import Path

import incitoric
from incitoric import designs, exactmath as em, toric
from incitoric.combinat import subset_label, subsets_colex
from incitoric.exactmath import IntMatrix
from incitoric.incidence import build_matrix


def test_matrix_json_round_trip():
    m = IntMatrix.from_rows([[10**30, -2], [0, 7]])
    blob = json.dumps(m.to_json_dict())
    again = IntMatrix.from_json_dict(json.loads(blob))
    assert again == m
    assert json.loads(blob)["entries"][0] == str(10**30)


def test_design_json_uses_digit_labels():
    d = designs.pod_expand(designs.Pod(((1, 2), (3, 4), (5, 6)), ()), 6)
    payload = d.to_json_dict()
    assert payload["135"] == 1
    assert payload["246"] == -1
    assert all(len(key) == 3 for key in payload)


def test_binomial_basis_json():
    inc = build_matrix(6, 3, 2)
    basis = toric.octahedral_generators(6, 3, 2)
    labels = [subset_label(s, 6) for s in subsets_colex(6, 3)]
    payload = basis.to_json_list(labels)
    assert len(payload) == 15
    for entry in payload:
        assert set(entry) == {"plus", "minus"}
        assert sum(entry["plus"].values()) == 4


def test_rank_nullity_both_sides():
    for (n, k, t) in ((4, 3, 2), (5, 3, 2), (6, 3, 2), (6, 4, 1)):
        m = build_matrix(n, k, t).matrix
        rank = em.rank_q(m)
        assert rank == m.cols - em.kernel_basis(m).rank
        assert rank == m.rows - em.kernel_basis(m.transpose()).rank


def test_height_equals_kernel_rank():
    for n in range(2, 9):
        for k in range(2, n + 1):
            for t in range(1, k):
                if comb(n, t) < comb(n, k):
                    m = build_matrix(n, k, t).matrix
                    assert em.kernel_basis(m).rank == comb(n, k) - comb(n, t)


def test_pod_designs_have_exact_support_sizes():
    for (n, k, t) in ((4, 2, 1), (6, 3, 2), (7, 3, 2), (7, 4, 2)):
        for pod in designs.pods(n, k, t):
            d = designs.pod_expand(pod, n)
            assert len(d.values) == 1 << (t + 1)
            assert len(d.positive_support) == 1 << t
            ok, _ = designs.is_null_design(d, t)
            assert ok


def test_markov_basis_elements_lie_in_graver():
    inc = build_matrix(6, 3, 2)
    markov = toric.minimal_markov(inc)
    graver = toric.graver_basis(inc)
    gset = {frozenset((b.plus, b.minus)) for b in graver.elements}
    for b in markov.elements:
        assert frozenset((b.plus, b.minus)) in gset


def test_no_assert_in_library():
    # certificates are re-checked by explicit raises, which python -O keeps
    package = Path(incitoric.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
