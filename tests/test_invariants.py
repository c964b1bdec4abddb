"""Cross-module invariants and serialization round trips."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from math import comb
from pathlib import Path

import incitoric
from incitoric import cli, designs, exactmath as em, toric
from incitoric.exactmath import IntMatrix
from incitoric.incidence import build_matrix
from test_designs import is_null_design


def test_matrix_json_round_trip(capsys, monkeypatch):
    # the incidence matrix command's layout: entries as strings, row by row
    m = IntMatrix.from_rows([[10**30, -2], [0, 7]])
    inc = build_matrix(3, 2, 1)
    monkeypatch.setattr(cli, "build_matrix", lambda n, k, t: replace(inc, matrix=m))
    assert cli.main(["--no-meta", "incidence", "matrix", "-n", "3", "-k", "2", "-t", "1"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)["matrix"]
    assert payload == {"rows": 2, "cols": 2, "entries": [str(10**30), "-2", "0", "7"]}


def test_design_json_uses_digit_labels():
    d = next(designs.pods(6, 3, 2))
    payload = json.loads(json.dumps(cli._labelled(d, cli._labels(6, 3))))
    assert payload["135"] == 1
    assert payload["246"] == -1
    assert all(len(key) == 3 for key in payload)


def test_binomial_basis_json(capsys):
    basis = toric.octahedral_generators(6, 3, 2)
    labels = cli._labels(6, 3)
    payload = [
        {"plus": cli._labelled(b.plus, labels), "minus": cli._labelled(b.minus, labels)}
        for b in basis.elements
    ]
    assert len(payload) == 15
    for entry in payload:
        assert sum(entry["plus"].values()) == 4
        assert sum(entry["minus"].values()) == 4
        assert set(entry["plus"]).isdisjoint(entry["minus"])
        assert all(len(key) == 3 for key in (*entry["plus"], *entry["minus"]))
    # the toric command prints the same mapping
    assert cli.main(["--no-meta", "toric", "octahedral", "-n", "6", "-k", "3", "-t", "2"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["elements"] == payload


def test_rank_nullity_both_sides():
    for (n, k, t) in ((4, 3, 2), (5, 3, 2), (6, 3, 2), (6, 4, 1)):
        m = build_matrix(n, k, t).matrix
        rank = em.rank_q(m)
        assert rank == m.cols - len(em.kernel_basis(m))
        assert rank == m.rows - len(em.kernel_basis(m.transpose()))


def test_height_equals_kernel_rank():
    for n in range(2, 9):
        for k in range(2, n + 1):
            for t in range(1, k):
                if comb(n, t) < comb(n, k):
                    m = build_matrix(n, k, t).matrix
                    assert len(em.kernel_basis(m)) == comb(n, k) - comb(n, t)


def test_pod_designs_have_exact_support_sizes():
    for (n, k, t) in ((4, 2, 1), (6, 3, 2), (7, 3, 2), (7, 4, 2)):
        for d in designs.pods(n, k, t):
            assert len(d) == comb(n, k)
            assert sum(x != 0 for x in d) == 1 << (t + 1)
            assert sum(x > 0 for x in d) == 1 << t
            ok, _ = is_null_design(d, n, k, t)
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


# the only names of the package (module-level, or methods) that no code of
# the package loads, each with the reason it stays
UNCALLED_ON_PURPOSE = {
    "solve_rational": "the benchmark's tracer wraps it by name",
    "lattice_member": "the benchmark's tracer wraps it by name",
}


BY_NAME = (ast.Name, ast.Attribute)
BY_ATTRIBUTE = (ast.Attribute,)


def _loads(root, kinds=BY_NAME):
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(root)
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)
    )


def _definitions(tree):
    """Module-level functions and classes, loaded by name or attribute,
    and the methods of those classes, loaded by attribute; dunders
    (``__post_init__`` and the other hooks Python calls) are skipped."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, BY_NAME
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item, BY_ATTRIBUTE


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps library functions by name: a renamed or
    # deleted one makes install raise; a fresh interpreter keeps the
    # wrappers out of this test session
    root = Path(__file__).resolve().parent.parent
    code = "import incitoric, tracing\ntracing.Tracer().install(incitoric)\n"
    path = os.pathsep.join([str(root / "perfbench"), str(Path(incitoric.__file__).parent.parent)])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


def test_every_library_name_has_a_library_caller():
    # a name is used when code of the package outside its own body loads
    # it (a method as an attribute of any object); imports do not count
    package = Path(incitoric.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    loads = {
        kinds: sum((_loads(tree, kinds) for tree in trees), Counter())
        for kinds in (BY_NAME, BY_ATTRIBUTE)
    }
    uncalled = {
        node.name
        for tree in trees
        for node, kinds in _definitions(tree)
        if loads[kinds][node.name] == _loads(node, kinds)[node.name]
    }
    assert uncalled == set(UNCALLED_ON_PURPOSE)
