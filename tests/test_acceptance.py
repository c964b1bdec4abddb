"""Acceptance suite: every headline claim at its stated tolerance.

All comparisons are exact (tolerance zero); each criterion prints its own
pass/fail line.  The Workspace is shared so expensive artifacts (bases,
triangulations, rank reports) are computed once.
"""

import pytest

from incitoric import acceptance


@pytest.fixture(scope="module")
def results():
    ws = acceptance.Workspace()
    out = acceptance.run_acceptance(ws)
    print()
    for r in out:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] criterion {r.number:2d} {r.name}  ({r.elapsed:.1f}s)  {r.detail}")
    return {r.number: r for r in out}


@pytest.mark.parametrize("number,name", [
    (1, "rational rank law"),
    (2, "prime-field rank law"),
    (3, "minimal Markov basis of (6,3,2)"),
    (4, "projective degree via column-lattice volume"),
    (5, "euclidean volume divisibility"),
    (6, "minimum positive support is 2^t"),
    (7, "exact 3-neighborliness"),
    (8, "pods span the kernel"),
    (9, "octahedral generators saturate to the full ideal"),
    (10, "pseudomanifold certificates"),
    (11, "orientation binomials"),
    (12, "fiber sizes"),
    (13, "coset memberships"),
    (14, "determinant expressions"),
])
def test_criterion(results, number, name):
    r = results[number]
    assert r.name == name
    assert r.passed, r.detail


def test_complex_criteria_verify_each_complex_once(monkeypatch):
    # criterion 10 verifies the octahedron, the 4-crosspolytope, the
    # cross-flip sphere and the pinched torus; criterion 11 the octahedron
    # and the cross-flip sphere
    from incitoric import complexes

    seen = []
    verify = complexes.verify

    def counted(delta):
        seen.append(delta)
        return verify(delta)

    monkeypatch.setattr(complexes, "verify", counted)
    results = acceptance.run_acceptance(acceptance.Workspace(), [10, 11])
    assert [r.passed for r in results] == [True, True]
    assert len(seen) == 6
    assert len(set(seen[:4])) == 4
