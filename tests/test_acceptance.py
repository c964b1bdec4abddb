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


def test_coset_criterion_reads_every_applicable_claim(monkeypatch):
    # the exchange identities apply from n = 5 on; failing them at n = 5
    # and 6 must fail the criterion, not only at n = 7
    from incitoric import threepoint

    monkeypatch.setattr(threepoint, "transposition_relations_check", lambda n: n == 7)
    (result,) = acceptance.run_acceptance(acceptance.Workspace(), [13])
    assert not result.passed
    assert result.detail == "n=5: transposition_relations failed; n=6: transposition_relations failed"


def test_orientation_criterion_decides_primitivity_once_per_binomial(monkeypatch):
    # orientation_binomial refuses a binomial that is not primitive, so
    # criterion 11 tests the octahedral quartic and the degree-7 binomial
    # once each, and never again itself
    from incitoric import complexes, toric

    seen = []
    is_primitive = toric.is_primitive

    def counted(b, inc, *rest):
        seen.append((inc.n, inc.k, inc.t))
        return is_primitive(b, inc, *rest)

    monkeypatch.setattr(toric, "is_primitive", counted)
    monkeypatch.setattr(complexes, "is_primitive", counted)
    (result,) = acceptance.run_acceptance(acceptance.Workspace(), [11])
    assert result.passed
    assert seen == [(6, 3, 2), (9, 3, 2)]
