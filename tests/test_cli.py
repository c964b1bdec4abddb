"""Command-line interface: outputs, determinism, exit codes."""

import json

from incitoric.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_incidence_matrix_csv(capsys):
    code, out = run_cli(capsys, "--no-meta", "incidence", "matrix", "-n", "4", "-k", "3", "-t", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ",123,124,134,234"
    assert lines[1] == "12,1,1,0,0"
    assert lines[-1] == "34,0,0,1,1"


def test_markov_command(capsys):
    code, out = run_cli(capsys, "--no-meta", "toric", "markov", "-n", "6", "-k", "3", "-t", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 30
    assert payload["degrees"] == {"4": 15, "6": 15}


def octahedron_file(tmp_path):
    from incitoric import complexes as cx

    path = tmp_path / "octahedron.cplx"
    path.write_text("".join(" ".join(map(str, sorted(f))) + "\n" for f in cx.octahedron().facets))
    return path


def test_complex_verify(tmp_path, capsys):
    path = octahedron_file(tmp_path)
    code, out = run_cli(capsys, "--no-meta", "complex", "verify", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    report = payload["report"]
    for key in ("pure", "pseudomanifold", "boundaryless", "normal", "balanced", "orientable", "facet_ridge_bipartite"):
        assert report[key] is True


def test_complex_binomial(tmp_path, capsys):
    path = octahedron_file(tmp_path)
    code, out = run_cli(capsys, "--no-meta", "complex", "binomial", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["degree"] == 4
    assert set(payload["plus"]) | set(payload["minus"]) == {
        "135", "136", "145", "146", "235", "236", "245", "246"
    }


def test_determinism_byte_identical(capsys):
    _, first = run_cli(capsys, "--no-meta", "designs", "pods", "-n", "6", "-k", "3", "-t", "2")
    _, second = run_cli(capsys, "--no-meta", "designs", "pods", "-n", "6", "-k", "3", "-t", "2")
    assert first == second


def test_meta_timestamp_present_by_default(capsys):
    code, out = run_cli(capsys, "threepoint", "check", "-n", "5")
    assert code == EXIT_OK
    assert "timestamp" in json.loads(out)["meta"]


def test_unknown_vertex_label_is_usage_error(capsys):
    code, _ = run_cli(
        capsys, "--no-meta", "polytope", "faces", "-n", "6", "-k", "3", "-t", "2",
        "--subset", "999",
    )
    assert code == EXIT_USAGE


def test_bad_parameters_usage_error(capsys):
    code, _ = run_cli(capsys, "--no-meta", "incidence", "matrix", "-n", "4", "-k", "3", "-t", "3")
    assert code == EXIT_USAGE


def test_face_command(capsys):
    code, out = run_cli(
        capsys, "--no-meta", "polytope", "faces", "-n", "6", "-k", "3", "-t", "2",
        "--subset", "136,246,145,235",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["is_face"] is False
    # the pod's quartic, +1 on the queried support and -1 on the other half
    assert payload["witness"] == {
        "136": 1, "246": 1, "145": 1, "235": 1, "146": -1, "236": -1, "245": -1, "135": -1,
    }

    code, out = run_cli(
        capsys, "--no-meta", "polytope", "faces", "-n", "6", "-k", "3", "-t", "2",
        "--subset", "123,456",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["is_face"] is True
    assert payload["functional"] == {
        "coeffs": ["1", "1", "-3", "0", "-3", "-4", "0", "-3", "-4", "-3", "-4", "0", "1", "1", "1"],
        "rhs": "-1",
    }


def test_threepoint_check_exit_code(capsys):
    code, out = run_cli(capsys, "--no-meta", "threepoint", "check", "-n", "6")
    assert code == EXIT_OK
    assert json.loads(out)["all_passed"] is True


def test_acceptance_subset(capsys):
    code, out = run_cli(capsys, "--no-meta", "acceptance", "--only", "12", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["criteria"][0]["number"] == 12


def test_acceptance_table_output(capsys):
    code, out = run_cli(capsys, "acceptance", "--only", "12")
    assert code == EXIT_OK
    assert out.startswith("[PASS] 12")
    assert "all passed" in out


def test_acceptance_no_meta_reproducible(capsys):
    # --no-meta drops the times, so two runs give the same bytes
    for extra in ((), ("--json",)):
        argv = ("--no-meta", "acceptance", "--only", "2", "12", *extra)
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second
    assert "elapsed_seconds" not in first
    _, timed = run_cli(capsys, "acceptance", "--only", "12", "--json")
    assert "elapsed_seconds" in json.loads(timed)["criteria"][0]


def test_volume_command(capsys):
    code, out = run_cli(
        capsys, "--no-meta", "polytope", "volume", "-n", "4", "-k", "3", "-t", "2",
        "--lattice", "column",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["simplices"] == 1
    assert payload["normalized_volume"] == 1


def test_neighborly_command(capsys):
    code, out = run_cli(
        capsys, "--no-meta", "polytope", "neighborly", "-n", "4", "-k", "2", "-t", "1",
        "--s-max", "2",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["neighborliness"] == 1
    assert "non_face" in payload


def test_threepoint_det_emit(capsys):
    code, out = run_cli(capsys, "--no-meta", "threepoint", "det", "-n", "3", "--emit")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["numerator_terms"] == 1
    assert payload["numerator"] == [{"coeff": 2, "monomial": {"123": 1}}]
    assert payload["denominator"] == {}


def test_threepoint_fibers(capsys):
    code, out = run_cli(capsys, "--no-meta", "threepoint", "fibers", "-n", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert len(payload["derangements"]) == 9


def test_out_file(tmp_path, capsys):
    target = tmp_path / "matrix.json"
    code, out = run_cli(
        capsys, "--no-meta", "--out", str(target),
        "incidence", "matrix", "-n", "4", "-k", "3", "-t", "2",
    )
    assert code == EXIT_OK
    assert json.loads(target.read_text()) == json.loads(out)


def test_binomial_fails_on_boundary_complex(tmp_path, capsys):
    path = tmp_path / "triangle.cplx"
    path.write_text("1 2 3\n")
    code = main(["--no-meta", "complex", "binomial", str(path)])
    capsys.readouterr()
    assert code == EXIT_VERIFICATION


def test_certificate_error_is_verification_failure(monkeypatch, capsys):
    from incitoric import cli
    from incitoric.errors import CertificateError

    def broken(args):
        raise CertificateError("recombination check failed")

    monkeypatch.setattr(cli, "_cmd_incidence_ranks", broken)
    code = main(["--no-meta", "incidence", "ranks", "--n-max", "3"])
    assert code == EXIT_VERIFICATION
    assert "verification failure" in capsys.readouterr().err
