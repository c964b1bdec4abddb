"""Command-line front end.

Subcommands mirror the library modules.  Each one is a single argparse
leaf with one handler and only the options that handler reads, so an
option given to a subcommand that does not read it is a usage error.
Every command prints a single JSON document (or CSV where noted) and
exits 0 on success, 1 when a verification fails, 2 on usage or budget
errors.  Output is reproducible:
identical invocations give byte-identical output once the timestamp and
the acceptance times are suppressed with --no-meta.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import acceptance, complexes, designs, threepoint, toric
from .combinat import derangements, subset_label, subsets_colex
from .config import DEFAULT_CONFIG, RunConfig
from .errors import BudgetExceeded, CertificateError, IncitoricError
from .incidence import build_matrix, check_rank_laws
from .polytope import PointConfig, is_face, neighborliness, normalized_volume, placing_triangulation

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _emit(payload: dict, args) -> None:
    """Print the payload, opened by whichever of n, k and t the command's
    parser defines."""
    params = vars(args)
    payload = {key: params[key] for key in ("n", "k", "t") if key in params} | payload
    if not args.no_meta:
        payload["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    _write(json.dumps(payload, indent=2, sort_keys=True), args)


def _write(text: str, args) -> None:
    """Print the text, after writing it to --out if given, so that an
    unwritable path prints nothing."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _labels(n: int, k: int) -> list:
    return [subset_label(s, n) for s in subsets_colex(n, k)]


def _labelled(vec, labels: list) -> dict:
    """The nonzero entries of a vector over the colex subsets, by label."""
    return {labels[i]: x for i, x in enumerate(vec) if x}


def _cmd_incidence_matrix(args) -> int:
    inc = build_matrix(args.n, args.k, args.t)
    if args.format == "csv":
        lines = ["," + ",".join(subset_label(s, args.n) for s in inc.col_labels)]
        for label, row in zip(inc.row_labels, inc.matrix.entries):
            lines.append(subset_label(label, args.n) + "," + ",".join(str(x) for x in row))
        _write("\n".join(lines), args)
        return EXIT_OK
    _emit(
        {
            "rows": [subset_label(s, args.n) for s in inc.row_labels],
            "cols": [subset_label(s, args.n) for s in inc.col_labels],
            "matrix": {
                "rows": inc.matrix.rows,
                "cols": inc.matrix.cols,
                "entries": [str(x) for row in inc.matrix.entries for x in row],
            },
        },
        args,
    )
    return EXIT_OK


def _cmd_incidence_ranks(args) -> int:
    report = check_rank_laws(args.n_max)
    _emit({"n_max": args.n_max, **asdict(report)}, args)
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION


def _cmd_basis(args) -> int:
    config = _config(args)
    labels = _labels(args.n, args.k)
    basis = args.basis(args.n, args.k, args.t, config)
    degrees = basis.degree_multiset()
    _emit(
        {
            "kind": basis.kind,
            "order": "degrevlex",
            "count": len(basis.elements),
            "degrees": {str(d): c for d, c in sorted(degrees.items())},
            "elements": [
                {"plus": _labelled(b.plus, labels), "minus": _labelled(b.minus, labels)}
                for b in basis.elements
            ],
        },
        args,
    )
    return EXIT_OK


def _of_matrix(basis):
    """The builder of ``basis(inc, config)`` on the incidence matrix of (n, k, t)."""
    return lambda n, k, t, config: basis(build_matrix(n, k, t), config)


def _cmd_saturate(args) -> int:
    config = _config(args)
    _labels(args.n, args.k)  # the sizes are checked first, as on the basis leaves
    # the octahedral basis carries the matrix it was built against
    basis = toric.octahedral_generators(args.n, args.k, args.t)
    ok = toric.saturation_equals(basis, basis.matrix, config)
    _emit(
        {
            "octahedral_generators": len(basis.elements),
            "saturation_equals_lattice_ideal": ok,
        },
        args,
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _points(args) -> PointConfig:
    return PointConfig.from_incidence(build_matrix(args.n, args.k, args.t))


def _cmd_volume(args) -> int:
    cfg = _points(args)
    lattice = "euclidean" if args.lattice == "euclidean" else "column_lattice"
    tri = placing_triangulation(cfg)
    vol = normalized_volume(cfg, lattice, tri)
    _emit(
        {
            "lattice": lattice,
            "dimension": tri.dim,
            "simplices": len(tri.simplices),
            "normalized_volume": vol,
        },
        args,
    )
    return EXIT_OK


def _cmd_faces(args) -> int:
    cfg = _points(args)
    labels = _labels(args.n, args.k)
    idx = {lbl: i for i, lbl in enumerate(labels)}
    try:
        # labels of n >= 10 hold commas themselves
        subset = [idx[s.strip()] for s in args.subset.split("," if args.n <= 9 else ";")]
    except KeyError as e:
        print(f"error: unknown vertex label {e}", file=sys.stderr)
        return EXIT_USAGE
    repeated = [labels[i] for j, i in enumerate(subset) if i in subset[:j]]
    if repeated:
        print(f"error: repeated vertex label '{repeated[0]}'", file=sys.stderr)
        return EXIT_USAGE
    cert = is_face(cfg, subset)
    payload = {"subset": sorted(labels[i] for i in subset), "is_face": cert.is_face}
    if cert.is_face:
        c, beta = cert.functional
        payload["functional"] = {"coeffs": [str(x) for x in c], "rhs": str(beta)}
    else:
        payload["witness"] = _labelled(cert.witness, labels)
    _emit(payload, args)
    return EXIT_OK


def _cmd_neighborly(args) -> int:
    rep = neighborliness(_points(args), args.s_max)
    payload = {
        "s_max": args.s_max,
        "neighborliness": rep.neighborliness,
        "face_tests": rep.subsets_tested,
    }
    if rep.non_face_witness:
        labels = _labels(args.n, args.k)
        subset, witness = rep.non_face_witness
        payload["non_face"] = sorted(labels[i] for i in subset)
    _emit(payload, args)
    return EXIT_OK


def _verified(args):
    """The complex of the leaf's file and its verification report."""
    with open(args.file) as fh:
        delta = complexes.parse_complex_file(fh.read())
    return delta, complexes.verify(delta)


def _cmd_complex_verify(args) -> int:
    _, report = _verified(args)
    _emit({"file": args.file, "report": asdict(report)}, args)
    return EXIT_OK


def _cmd_complex_binomial(args) -> int:
    delta, report = _verified(args)
    try:
        binom = complexes.orientation_binomial(delta, report)
    except IncitoricError as e:
        print(f"cannot build orientation binomial: {e}", file=sys.stderr)
        return EXIT_VERIFICATION
    k = report.dimension + 1
    labels = _labels(delta.n, k)
    _emit(
        {
            "file": args.file,
            "n": delta.n,
            "k": k,
            "degree": binom.degree,
            "plus": _labelled(binom.plus, labels),
            "minus": _labelled(binom.minus, labels),
        },
        args,
    )
    return EXIT_OK


def _cmd_pods(args) -> int:
    labels = _labels(args.n, args.k)
    vectors = list(designs.pods(args.n, args.k, args.t))
    span_ok = designs.pods_span_kernel(args.n, args.k, args.t, vectors)
    _emit(
        {
            "count": len(vectors),
            "span_equals_kernel": span_ok,
            "designs": [_labelled(v, labels) for v in vectors],
        },
        args,
    )
    return EXIT_OK if span_ok else EXIT_VERIFICATION


def _cmd_scan(args) -> int:
    labels = _labels(args.n, args.k)
    scan = designs.min_support_scan(args.n, args.k, args.t)
    payload = {
        "min_positive_support": scan.min_positive_support,
        "subsets_enumerated": scan.subsets_enumerated,
    }
    if scan.witness is not None:
        payload["witness"] = _labelled(scan.witness, labels)
    _emit(payload, args)
    return EXIT_OK


def _cmd_check(args) -> int:
    report = threepoint.check_section5(args.n)
    _emit({**asdict(report), "all_passed": report.all_passed}, args)
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def _cmd_fibers(args) -> int:
    rows = []
    ok = True
    for d in derangements(args.n):
        size = len(threepoint.fiber(threepoint.phi(d), args.n))
        expected = threepoint.fiber_size_formula(d)
        ok = ok and size == expected
        rows.append(
            {
                "images": list(d.images),
                "cycles": [list(c) for c in d.cycles],
                "fiber": size,
                "formula": expected,
            }
        )
    _emit({"all_match": ok, "derangements": rows}, args)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_det(args) -> int:
    expr = threepoint.det_as_c_expression(args.n)
    tri_labels = _labels(args.n, 3)
    payload = {
        "numerator_terms": len(expr.f),
        "denominator": _labelled(expr.g_exps, tri_labels),
    }
    if args.emit:
        payload["numerator"] = [
            {"coeff": c, "monomial": _labelled(k, tri_labels)}
            for k, c in sorted(expr.f.items())
        ]
    _emit(payload, args)
    return EXIT_OK


def _cmd_acceptance(args) -> int:
    count = len(acceptance.ALL_CRITERIA)
    unknown = [i for i in args.only or () if not 1 <= i <= count]
    if unknown:
        print(f"error: unknown criterion number {unknown[0]} (valid numbers are 1..{count})", file=sys.stderr)
        return EXIT_USAGE
    ws = acceptance.Workspace(_config(args))
    results = acceptance.run_acceptance(ws, args.only)
    all_ok = all(r.passed for r in results)
    # times are metadata: --no-meta drops them so that the output is reproducible
    timed = not args.no_meta
    if args.json:
        rows = [{k: v for k, v in r.as_dict().items() if timed or k != "elapsed_seconds"} for r in results]
        _emit({"criteria": rows, "all_passed": all_ok}, args)
    else:
        width = max(len(r.name) for r in results)
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            elapsed = f"{r.elapsed:7.1f}s  " if timed else ""
            lines.append(f"[{mark}] {r.number:2d} {r.name:<{width}}  {elapsed}{r.detail}")
        lines.append("all passed" if all_ok else "FAILURES PRESENT")
        _write("\n".join(lines), args)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _config(args) -> RunConfig:
    # RunConfig refuses a budget below 1, which main reports as a usage error
    if args.pair_budget is not None:
        return RunConfig(pair_queue_budget=args.pair_budget)
    return DEFAULT_CONFIG


def _leaf(group, name, func, sizes="nkt", **kwargs) -> argparse.ArgumentParser:
    """One subcommand, its handler and a required integer option per
    letter of ``sizes``; ``kwargs`` go to ``add_parser``."""
    p = group.add_parser(name, **kwargs)
    for size in sizes:
        p.add_argument(f"-{size}", type=int, required=True)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incitoric",
        description="Exact computations around subset-incidence toric ideals",
    )
    parser.add_argument("--no-meta", action="store_true", help="suppress the timestamp and the acceptance times")
    parser.add_argument("--out", help="also write the output to this file")
    parser.add_argument("--pair-budget", type=int, help="pair queue budget of toric and acceptance")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, dest, help):
        return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    inc = group("incidence", "what", "incidence matrices and rank laws")
    _leaf(inc, "matrix", _cmd_incidence_matrix).add_argument("--format", choices=("json", "csv"), default="json")
    _leaf(inc, "ranks", _cmd_incidence_ranks, "").add_argument("--n-max", type=int, default=8)

    tor = group("toric", "kind", "Markov, Graver, octahedral and Groebner bases")
    for kind, basis in (
        ("markov", _of_matrix(toric.minimal_markov)),
        ("graver", _of_matrix(toric.graver_basis)),
        ("octahedral", lambda n, k, t, config: toric.octahedral_generators(n, k, t)),
        ("groebner", _of_matrix(toric.lattice_ideal_groebner)),
    ):
        _leaf(tor, kind, _cmd_basis).set_defaults(basis=basis)
    _leaf(tor, "saturate", _cmd_saturate)

    poly = group("polytope", "what", "face tests, neighborliness, volumes")
    _leaf(poly, "volume", _cmd_volume).add_argument(
        "--lattice", choices=("euclidean", "column"), default="euclidean"
    )
    _leaf(poly, "faces", _cmd_faces).add_argument(
        "--subset", required=True, help="vertex labels, separated by commas (by ';' for n >= 10)"
    )
    _leaf(poly, "neighborly", _cmd_neighborly).add_argument("--s-max", type=int, default=3)

    cx = group("complex", "what", "verify complexes and build orientation binomials")
    for what, func in (("verify", _cmd_complex_verify), ("binomial", _cmd_complex_binomial)):
        _leaf(cx, what, func, "").add_argument("file")

    dg = group("designs", "what", "pods and support scans")
    _leaf(dg, "pods", _cmd_pods)
    _leaf(dg, "scan", _cmd_scan)

    tp = group("threepoint", "what", "derangement and coset calculus")
    _leaf(tp, "check", _cmd_check, "n")
    _leaf(tp, "det", _cmd_det, "n").add_argument("--emit", action="store_true", help="include the full numerator")
    _leaf(tp, "fibers", _cmd_fibers, "n")

    acc = _leaf(sub, "acceptance", _cmd_acceptance, "", help="run the acceptance suite")
    acc.add_argument("--only", type=int, nargs="+", help="criterion numbers to run")
    acc.add_argument("--json", action="store_true", help="JSON output instead of a table")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if args.pair_budget is not None and args.command not in ("toric", "acceptance"):
        print(f"error: --pair-budget does not apply to the {args.command} command", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFICATION
    except IncitoricError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as e:  # an unreadable input or unwritable --out
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
