"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json

import pytest

from incitoric.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from incitoric.incidence import build_matrix


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


# sha256 of the --no-meta stdout of commands whose JSON is built from
# kernel vectors, edge vectors, polynomials or complex reports, pinned so
# that a change of representation keeps it
PINNED_NO_META_SHA256 = (
    ("designs pods -n 6 -k 3 -t 2", "436348473989d4ba9ad92df8fff39b40480f9c85a0635bf7b5d97fd7552feed2"),
    ("designs scan -n 7 -k 3 -t 2", "220096b2c5eade8ad37a909aeb462459c402847b2c753bfd8396dca3a83ec707"),
    ("polytope volume -n 6 -k 3 -t 2 --lattice column", "3622b88345b89b851edb950e5d9cef805cfe484c4692011e7e4dec2b016a6088"),
    ("polytope volume -n 6 -k 3 -t 2 --lattice euclidean", "d02a682710085cc633dcf0c9ff6274cb0d68cbdd64ef2063939c1b577f48929c"),
    ("polytope volume -n 7 -k 4 -t 3", "5a73574372cb6ff0dad17880b8800b8dfc37bf594b2e3aca76c02f4961d14ae3"),
    ("toric octahedral -n 6 -k 3 -t 2", "1078f850a7e150a31d608b01a5275d4af50ae0ec8b7e4714aa88daf438423dcf"),
    ("toric markov -n 6 -k 3 -t 2", "f3a051b554d7f65b751fce325ff94dccef36624a6a611b9109101b9c63a85af6"),
    ("threepoint check -n 5", "757878c608ea9814b8b5e9efe15adc11f3a3c5db2d3e8cee0b35084ac7cd153c"),
    ("threepoint check -n 7", "144461232351d588b1560dcb676502845e05f6d8dca89c3ec66e98f93fda3f86"),
    ("threepoint det -n 6 --emit", "e9682f95a8615f11d8e015c713ceed565852df659afd37419cd04828c8e479d2"),
    ("threepoint fibers -n 5", "42d3d2e5a5dd2719db9800ec55ed00e3e87299883d50db14c879a668ab10c8c9"),
    ("threepoint det -n 3 --emit", "690d2695de54cf365e9e1876884f92bf3b2d294b0d8a22857308076eba7e53ca"),
    ("threepoint check -n 6", "9ebf519a33acd639ad5631773553713035508f1657b730042d7b14d42ccd88d8"),
    ("designs pods -n 7 -k 3 -t 2", "c7718ac588319f04d48162391e47d5d75c7ea0babaea22d5b21bfb35ec1da18a"),
    ("complex verify octahedron.cplx", "640452a0bb9f3c28ceb82dd1ae986828e5933b406c327358b1fbef320f7722d8"),
    ("complex verify crossflip.cplx", "b19de4dd8d81b4a203b4f9cd107f8121a7bf3d7b577b9bd97c56d71b186ec0ba"),
    ("complex verify pinched_torus.cplx", "5c7578a0e7e6d83893d8374b852728e1edc02def05a4303f9826b7590a489349"),
    ("complex binomial octahedron.cplx", "356aeabbc4711f59326c4594253a2b092a09f536d39c2cd25f9b4b169812f7c7"),
    ("complex binomial crossflip.cplx", "b9e6c1decf2c6dcddf92a9190002e26cb0d6625d32dd967e86f792b1dfe3769a"),
    ("incidence ranks --n-max 6", "dc5e90ff2998417106d8ef48e6743dea0c53a0f6289bb0bf024ef9e085177002"),
    ("toric groebner -n 6 -k 3 -t 2", "c5ae9d0f6ae8198fdb12868bbf85f908db31ad8cfc6f7c3f573b20aab7c12d0f"),
    ("toric graver -n 5 -k 3 -t 1", "bdf25710bacb78ff669f10f6edc1dfdc555076a55ff5f22a51edf8594ebd1f09"),
    ("toric saturate -n 6 -k 3 -t 2", "a4276531437f24317ba14ea6df78b1f5872936aab2228cfa9ad3df3136f5d43f"),
    ("acceptance --json --only 1 2 10 11", "b7af10c9cb5d311c9570c62da0c3dc0dcbe6bc81d0a1e4783caca8216dadee1c"),
    ("incidence matrix -n 6 -k 3 -t 2", "857a8a7ad3736de990e0fbbfaa72dedeed1b8415b6491345f299a4ffbbad3e43"),
    ("polytope faces -n 6 -k 3 -t 2 --subset 136,246,145,235", "4915212f0005ed5acc4e1730e9ab65ea641c8a7778625df6973ca97cefbe8de7"),
    ("polytope faces -n 7 -k 3 -t 2 --subset 123,145,167", "01928836fdb03a3b06830c11661d375161f32e5603bd6df7278b22c74bb0ea7b"),
    ("polytope neighborly -n 6 -k 3 -t 2", "3ac74494def4c4b563240e6932f15940c0a565fe0f4b8b3dd2dcab8939f6c634"),
    ("acceptance --json --only 13 14", "9228a1d2578fe8d8bb323ee7c20f4cc546a2f539344151aa0560888eb4bfa7be"),
    ("incidence ranks --n-max 8", "a78400995ee6ed2119cdec530f410b56675953973494b8035af1345711bae3eb"),
)


@pytest.mark.parametrize("command, digest", PINNED_NO_META_SHA256)
def test_no_meta_output_is_pinned(tmp_path, monkeypatch, capsys, command, digest):
    from incitoric import complexes as cx

    # the complex payloads echo the file name, so the files get relative names
    monkeypatch.chdir(tmp_path)
    for name, delta in (
        ("octahedron", cx.octahedron()),
        ("crossflip", cx.crossflip_example()),
        ("pinched_torus", cx.pinched_torus()),
    ):
        (tmp_path / f"{name}.cplx").write_text(
            "".join(" ".join(map(str, sorted(f))) + "\n" for f in delta.facets)
        )
    code, out = run_cli(capsys, "--no-meta", *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_meta_timestamp_present_by_default(capsys):
    code, out = run_cli(capsys, "threepoint", "check", "-n", "5")
    assert code == EXIT_OK
    assert "timestamp" in json.loads(out)["meta"]


def test_unknown_vertex_label_is_usage_error(capsys):
    code = main(["--no-meta", "polytope", "faces", "-n", "6", "-k", "3", "-t", "2", "--subset", "999"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == "error: unknown vertex label '999'\n"


def test_repeated_vertex_label_is_usage_error(capsys):
    code = main(
        ["--no-meta", "polytope", "faces", "-n", "6", "-k", "3", "-t", "2", "--subset", "123,456, 123"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "repeated vertex label '123'" in captured.err
    assert captured.err == "error: repeated vertex label '123'\n"


def test_faces_without_subset_is_usage_error(capsys):
    # --subset is a required option of the faces leaf, enforced by argparse
    code = main(["--no-meta", "polytope", "faces", "-n", "6", "-k", "3", "-t", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "required: --subset" in captured.err


@pytest.mark.parametrize("argv, option", [
    (["polytope", "faces", "--subset", "123", "--lattice", "column"], "--lattice"),
    (["polytope", "neighborly", "--lattice", "column"], "--lattice"),
    (["polytope", "volume", "--subset", "123"], "--subset"),
    (["polytope", "neighborly", "--subset", "123"], "--subset"),
    (["polytope", "volume", "--s-max", "2"], "--s-max"),
    (["polytope", "faces", "--subset", "123", "--s-max", "2"], "--s-max"),
    (["threepoint", "check", "--emit"], "--emit"),
    (["threepoint", "fibers", "--emit"], "--emit"),
])
def test_option_of_another_subcommand_is_usage_error(capsys, argv, option):
    # each option belongs to the one leaf whose handler reads it
    sizes = ["-n", "4"] if argv[0] == "threepoint" else ["-n", "6", "-k", "3", "-t", "2"]
    code = main(["--no-meta", *argv[:2], *sizes, *argv[2:]])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "unrecognized arguments: " in captured.err
    assert option in captured.err.splitlines()[-1]


LEAVES = (
    "incidence matrix", "incidence ranks",
    "toric markov", "toric graver", "toric octahedral", "toric groebner", "toric saturate",
    "polytope volume", "polytope faces", "polytope neighborly",
    "complex verify", "complex binomial",
    "designs pods", "designs scan",
    "threepoint check", "threepoint det", "threepoint fibers",
    "acceptance",
)


@pytest.mark.parametrize("leaf", LEAVES)
def test_every_leaf_has_help(capsys, leaf):
    code, out = run_cli(capsys, *leaf.split(), "--help")
    assert code == EXIT_OK
    assert out.startswith(f"usage: incitoric {leaf} ")


def test_malformed_complex_file_is_usage_error(tmp_path, capsys):
    for name, text in (("labels.cplx", "1 2 x\n"), ("repeated.cplx", "1 2 3\n1 1 2\n")):
        path = tmp_path / name
        path.write_text(text)
        code = main(["--no-meta", "complex", "verify", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: line ")


def test_complex_file_of_comments_is_usage_error(tmp_path, capsys):
    path = tmp_path / "comments.cplx"
    path.write_text("# no facets here\n\n")
    err = usage_error(capsys, "--no-meta", "complex", "verify", str(path))
    assert err == "error: a complex needs at least one facet\n"


def usage_error(capsys, *argv):
    """Run the CLI, require exit 2 with nothing on stdout; return stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("case", ["directory", "binary", "out directory", "csv out directory"])
def test_file_error_is_usage_error(tmp_path, capsys, case):
    binary = tmp_path / "binary.cplx"
    binary.write_bytes(b"\xff\xfe\x00\x81 2 3\n")
    argv = {
        "directory": ["complex", "verify", str(tmp_path)],
        "binary": ["complex", "verify", str(binary)],
        "out directory": ["--out", str(tmp_path), "threepoint", "check", "-n", "3"],
        "csv out directory": ["--out", str(tmp_path), "incidence", "matrix", "-n", "4", "-k", "2", "-t", "1",
                              "--format", "csv"],
    }[case]
    err = usage_error(capsys, "--no-meta", *argv)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_file_holds_the_printed_payload(tmp_path, capsys):
    path = tmp_path / "check.json"
    code, out = run_cli(capsys, "--no-meta", "--out", str(path), "threepoint", "check", "-n", "3")
    assert code == EXIT_OK
    assert path.read_text() == out


@pytest.mark.parametrize("argv", [
    ["incidence", "matrix", "-n", "4", "-k", "2", "-t", "1", "--format", "csv"],
    ["acceptance", "--only", "10"],
])
def test_out_file_holds_the_printed_text(tmp_path, capsys, argv):
    # the CSV and the acceptance table are not JSON, and --out holds them too
    path = tmp_path / "out.txt"
    code, out = run_cli(capsys, "--no-meta", "--out", str(path), *argv)
    assert code == EXIT_OK
    assert out.count("\n") > 1
    assert path.read_text() == out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_pair_budget_below_one_is_usage_error(capsys, budget):
    err = usage_error(
        capsys, "--no-meta", "--pair-budget", budget, "toric", "markov", "-n", "6", "-k", "3", "-t", "2"
    )
    assert f"pair_queue_budget must be positive, not {budget}" in err


@pytest.mark.parametrize("argv", [
    ["incidence", "ranks", "--n-max", "3"],
    ["incidence", "matrix", "-n", "4", "-k", "3", "-t", "2"],
    ["complex", "verify", "octahedron.cplx"],
    ["polytope", "neighborly", "-n", "4", "-k", "2", "-t", "1"],
    ["designs", "pods", "-n", "6", "-k", "3", "-t", "2"],
    ["threepoint", "check", "-n", "3"],
])
def test_pair_budget_on_a_command_without_budget_is_usage_error(capsys, argv):
    # only toric and acceptance compute bases; elsewhere the option would be ignored
    err = usage_error(capsys, "--no-meta", "--pair-budget", "5", *argv)
    assert err.startswith("error: ")
    assert f"--pair-budget does not apply to the {argv[0]} command" in err


@pytest.mark.parametrize("s_max", ["0", "-3"])
def test_neighborly_s_max_below_one_is_usage_error(capsys, s_max):
    err = usage_error(
        capsys, "--no-meta", "polytope", "neighborly", "-n", "4", "-k", "2", "-t", "1", "--s-max", s_max
    )
    assert f"s_max must be at least 1, not {s_max}" in err


def test_neighborly_s_max_past_the_point_count_is_usage_error(capsys):
    # (3,2,1) has 3 points; s_max 50 used to be reported as the neighborliness
    err = usage_error(
        capsys, "--no-meta", "polytope", "neighborly", "-n", "3", "-k", "2", "-t", "1", "--s-max", "50"
    )
    assert err == "error: s_max 50 exceeds the 3 points\n"
    code, out = run_cli(
        capsys, "--no-meta", "polytope", "neighborly", "-n", "3", "-k", "2", "-t", "1", "--s-max", "3"
    )
    assert code == EXIT_OK
    assert json.loads(out)["neighborliness"] == 3


@pytest.mark.parametrize("only", [["2", "99"], ["0"], ["15", "3"]])
def test_unknown_acceptance_number_is_usage_error(capsys, only):
    err = usage_error(capsys, "--no-meta", "acceptance", "--only", *only)
    bad = next(x for x in only if not 1 <= int(x) <= 14)
    assert err.startswith("error: ")
    assert f"unknown criterion number {bad} (valid numbers are 1..14)" in err


@pytest.mark.parametrize("argv", [
    ["designs", "pods", "-n", "4", "-k", "-1", "-t", "1"],
    ["designs", "scan", "-n", "4", "-k", "-1", "-t", "1"],
    ["toric", "markov", "-n", "4", "-k", "-1", "-t", "1"],
    ["designs", "pods", "-n", "-1", "-k", "2", "-t", "1"],
    ["toric", "saturate", "-n", "4", "-k", "-1", "-t", "1"],
])
def test_negative_subset_size_is_usage_error(capsys, argv):
    # the type of -n, -k and -t refuses a negative size before any handler runs
    err = usage_error(capsys, "--no-meta", *argv)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be non-negative" in err


@pytest.mark.parametrize("n_max", ["1", "0", "-2"])
def test_rank_laws_without_a_triple_is_usage_error(capsys, n_max):
    err = usage_error(capsys, "--no-meta", "incidence", "ranks", "--n-max", n_max)
    assert f"n_max must be at least 2, the least n with a triple, not {n_max}" in err


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

    argv = ("--no-meta", "polytope", "faces", "-n", "6", "-k", "3", "-t", "2", "--subset", "123,456")
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["is_face"] is True
    # any functional that separates is valid: check that first, in integers
    inc = build_matrix(6, 3, 2)
    coeffs = [int(x) for x in payload["functional"]["coeffs"]]
    rhs = int(payload["functional"]["rhs"])
    for j, label in enumerate(inc.col_labels):
        value = sum(c * x for c, x in zip(coeffs, inc.matrix.column(j)))
        if label in ((1, 2, 3), (4, 5, 6)):
            assert value == rhs
        else:
            assert value < rhs
    assert payload["functional"] == {
        "coeffs": ["0", "0", "0", "-1", "-1", "-1", "-1", "-1", "-1", "0", "-1", "-1", "-1", "0", "0"],
        "rhs": "0",
    }
    assert run_cli(capsys, *argv) == (EXIT_OK, out)


def test_face_command_separates_labels_by_semicolons_from_n_10(capsys):
    # labels of n >= 10 hold commas, so the subset is split on ';'
    code, out = run_cli(
        capsys, "--no-meta", "polytope", "faces", "-n", "10", "-k", "3", "-t", "2",
        "--subset", "1,2,3;4,5,6",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["subset"], payload["is_face"]) == (["1,2,3", "4,5,6"], True)
    inc = build_matrix(10, 3, 2)
    coeffs = [int(x) for x in payload["functional"]["coeffs"]]
    rhs = int(payload["functional"]["rhs"])
    for j, label in enumerate(inc.col_labels):
        value = sum(c * x for c, x in zip(coeffs, inc.matrix.column(j)))
        assert value == rhs if label in ((1, 2, 3), (4, 5, 6)) else value < rhs

    code, _ = run_cli(
        capsys, "--no-meta", "polytope", "faces", "-n", "10", "-k", "3", "-t", "2",
        "--subset", "1,2,3,4,5,6",
    )
    assert code == EXIT_USAGE


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


@pytest.mark.parametrize("kind", ["octahedral", "saturate"])
def test_toric_octahedral_builds_matrix_once(monkeypatch, capsys, kind):
    from incitoric import cli, incidence

    calls = []
    build = incidence.build_matrix

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_matrix", counted)
    monkeypatch.setattr(incidence, "build_matrix", counted)
    code, _ = run_cli(capsys, "--no-meta", "toric", kind, "-n", "6", "-k", "3", "-t", "2")
    assert code == EXIT_OK
    # the octahedral basis carries the matrix its pods were checked against
    assert calls == [(6, 3, 2)]
