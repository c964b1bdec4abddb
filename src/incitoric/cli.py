"""Command-line front end.

Subcommands mirror the library modules.  Each one is a single argparse
leaf with one handler and only the options that handler reads, so an
option given to a subcommand that does not read it is a usage error.
A handler returns its output and its verdict: a payload dict, a text
(the CSV of the matrix, the acceptance table) or None, and whether its
verification passed.  ``main`` alone writes the output, a payload as a
single JSON document, and maps the verdict to the exit code: 0 on
success, 1 when a verification fails; an error raised into it exits 1
when a certificate fails and 2 on usage or budget errors.  Output is
reproducible: identical invocations give byte-identical output once the
timestamp and the acceptance times are suppressed with --no-meta.
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
from .errors import BadParameters, BudgetExceeded, CertificateError, IncitoricError
from .incidence import build_matrix, check_rank_laws
from .polytope import PointConfig, is_face, neighborliness, normalized_volume, placing_triangulation

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _write(output, args) -> None:
    """Print a handler's output: a payload as JSON, opened by whichever of
    n, k and t the command's parser defines, a text as it is.  It goes to
    --out first if given, so that an unwritable path prints nothing."""
    if isinstance(output, dict):
        params = vars(args)
        output = {key: params[key] for key in ("n", "k", "t") if key in params} | output
        if not args.no_meta:
            output["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
        output = json.dumps(output, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output + "\n")
    print(output)


def _labels(n: int, k: int) -> list:
    return [subset_label(s, n) for s in subsets_colex(n, k)]


def _labelled(vec, labels: list) -> dict:
    """The nonzero entries of a vector over the colex subsets, by label."""
    return {labels[i]: x for i, x in enumerate(vec) if x}


def _cmd_incidence_matrix(args):
    inc = build_matrix(args.n, args.k, args.t)
    rows = [subset_label(s, args.n) for s in inc.row_labels]
    cols = [subset_label(s, args.n) for s in inc.col_labels]
    if args.format == "csv":
        lines = ["," + ",".join(cols)]
        for label, row in zip(rows, inc.matrix.entries):
            lines.append(label + "," + ",".join(str(x) for x in row))
        return "\n".join(lines), True
    return {
        "rows": rows,
        "cols": cols,
        "matrix": {
            "rows": inc.matrix.rows,
            "cols": inc.matrix.cols,
            "entries": [str(x) for row in inc.matrix.entries for x in row],
        },
    }, True


def _cmd_incidence_ranks(args):
    report = check_rank_laws(args.n_max)
    return {"n_max": args.n_max, **asdict(report)}, report.all_ok


def _cmd_basis(args):
    config = _config(args)
    labels = _labels(args.n, args.k)
    basis = args.basis(args.n, args.k, args.t, config)
    degrees = basis.degree_multiset()
    return {
        "kind": basis.kind,
        "order": "degrevlex",
        "count": len(basis.elements),
        "degrees": {str(d): c for d, c in sorted(degrees.items())},
        "elements": [
            {"plus": _labelled(b.plus, labels), "minus": _labelled(b.minus, labels)}
            for b in basis.elements
        ],
    }, True


def _of_matrix(basis):
    """The builder of ``basis(inc, config)`` on the incidence matrix of (n, k, t)."""
    return lambda n, k, t, config: basis(build_matrix(n, k, t), config)


def _cmd_saturate(args):
    config = _config(args)
    # the octahedral basis carries the matrix it was built against
    basis = toric.octahedral_generators(args.n, args.k, args.t)
    ok = toric.saturation_equals(basis, basis.matrix, config)
    return {
        "octahedral_generators": len(basis.elements),
        "saturation_equals_lattice_ideal": ok,
    }, ok


def _points(args) -> PointConfig:
    return PointConfig.from_incidence(build_matrix(args.n, args.k, args.t))


def _cmd_volume(args):
    cfg = _points(args)
    lattice = "euclidean" if args.lattice == "euclidean" else "column_lattice"
    tri = placing_triangulation(cfg)
    vol = normalized_volume(cfg, lattice, tri)
    return {
        "lattice": lattice,
        "dimension": tri.dim,
        "simplices": len(tri.simplices),
        "normalized_volume": vol,
    }, True


def _cmd_faces(args):
    cfg = _points(args)
    labels = _labels(args.n, args.k)
    idx = {lbl: i for i, lbl in enumerate(labels)}
    try:
        # labels of n >= 10 hold commas themselves
        subset = [idx[s.strip()] for s in args.subset.split("," if args.n <= 9 else ";")]
    except KeyError as e:
        raise BadParameters(f"unknown vertex label {e}") from None
    repeated = [labels[i] for j, i in enumerate(subset) if i in subset[:j]]
    if repeated:
        raise BadParameters(f"repeated vertex label '{repeated[0]}'")
    cert = is_face(cfg, subset)
    payload = {"subset": sorted(labels[i] for i in subset), "is_face": cert.is_face}
    if cert.is_face:
        c, beta = cert.functional
        payload["functional"] = {"coeffs": [str(x) for x in c], "rhs": str(beta)}
    else:
        payload["witness"] = _labelled(cert.witness, labels)
    return payload, True


def _cmd_neighborly(args):
    rep = neighborliness(_points(args), args.s_max)
    payload = {
        "s_max": args.s_max,
        "neighborliness": rep.neighborliness,
        "face_tests": rep.subsets_tested,
    }
    if rep.non_face_witness:
        labels = _labels(args.n, args.k)
        subset = rep.non_face_witness[0]
        payload["non_face"] = sorted(labels[i] for i in subset)
    return payload, True


def _verified(args):
    """The complex of the leaf's file and its verification report."""
    with open(args.file) as fh:
        delta = complexes.parse_complex_file(fh.read())
    return delta, complexes.verify(delta)


def _cmd_complex_verify(args):
    _, report = _verified(args)
    return {"file": args.file, "report": asdict(report)}, True


def _cmd_complex_binomial(args):
    delta, report = _verified(args)
    try:
        binom = complexes.orientation_binomial(delta, report)
    except IncitoricError as e:
        print(f"cannot build orientation binomial: {e}", file=sys.stderr)
        return None, False
    k = report.dimension + 1
    labels = _labels(delta.n, k)
    return {
        "file": args.file,
        "n": delta.n,
        "k": k,
        "degree": binom.degree,
        "plus": _labelled(binom.plus, labels),
        "minus": _labelled(binom.minus, labels),
    }, True


def _cmd_pods(args):
    labels = _labels(args.n, args.k)
    vectors = list(designs.pods(args.n, args.k, args.t))
    span_ok = designs.pods_span_kernel(args.n, args.k, args.t, vectors)
    return {
        "count": len(vectors),
        "span_equals_kernel": span_ok,
        "designs": [_labelled(v, labels) for v in vectors],
    }, span_ok


def _cmd_scan(args):
    labels = _labels(args.n, args.k)
    scan = designs.min_support_scan(args.n, args.k, args.t)
    payload = {
        "min_positive_support": scan.min_positive_support,
        "subsets_enumerated": scan.subsets_enumerated,
    }
    if scan.witness is not None:
        payload["witness"] = _labelled(scan.witness, labels)
    return payload, True


def _cmd_check(args):
    report = threepoint.check_section5(args.n)
    return {**asdict(report), "all_passed": report.all_passed}, report.all_passed


def _cmd_fibers(args):
    rows = []
    ok = True
    sizes: dict = {}  # fiber size by image: each fiber is searched once
    for d in derangements(args.n):
        image = threepoint.phi(d)
        if image not in sizes:
            sizes[image] = len(threepoint.fiber(image, args.n))
        size = sizes[image]
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
    return {"all_match": ok, "derangements": rows}, ok


def _cmd_det(args):
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
    return payload, True


def _cmd_acceptance(args):
    count = len(acceptance.ALL_CRITERIA)
    unknown = [i for i in args.only or () if not 1 <= i <= count]
    if unknown:
        raise BadParameters(f"unknown criterion number {unknown[0]} (valid numbers are 1..{count})")
    ws = acceptance.Workspace(_config(args))
    results = acceptance.run_acceptance(ws, args.only)
    all_ok = all(r.passed for r in results)
    # times are metadata: --no-meta drops them so that the output is reproducible
    timed = not args.no_meta
    if args.json:
        rows = [{k: v for k, v in r.as_dict().items() if timed or k != "elapsed_seconds"} for r in results]
        return {"criteria": rows, "all_passed": all_ok}, all_ok
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        elapsed = f"{r.elapsed:7.1f}s  " if timed else ""
        lines.append(f"[{mark}] {r.number:2d} {r.name:<{width}}  {elapsed}{r.detail}")
    lines.append("all passed" if all_ok else "FAILURES PRESENT")
    return "\n".join(lines), all_ok


def _config(args) -> RunConfig:
    # RunConfig refuses a budget below 1, which main reports as a usage error
    if args.pair_budget is not None:
        return RunConfig(pair_queue_budget=args.pair_budget)
    return DEFAULT_CONFIG


def subset_size(text: str) -> int:
    """The type of -n, -k and -t: a subset size, refused before any handler
    runs when negative.  The error is an ``IncitoricError`` but not a
    ``ValueError``, which argparse would turn into its own message, so
    ``main`` reports it as a usage error of one line."""
    size = int(text)
    if size < 0:
        raise IncitoricError(f"subset sizes must be non-negative, not {size}")
    return size


def _leaf(group, name, func, sizes="nkt", **kwargs) -> argparse.ArgumentParser:
    """One subcommand, its handler and a required subset size option per
    letter of ``sizes``; ``kwargs`` go to ``add_parser``."""
    p = group.add_parser(name, **kwargs)
    for size in sizes:
        p.add_argument(f"-{size}", type=subset_size, required=True)
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
    try:
        args = build_parser().parse_args(argv)
        if args.pair_budget is not None and args.command not in ("toric", "acceptance"):
            raise BadParameters(f"--pair-budget does not apply to the {args.command} command")
        output, passed = args.func(args)
        if output is not None:
            _write(output, args)
        return EXIT_OK if passed else EXIT_VERIFICATION
    except SystemExit as e:  # argparse has printed its usage error, or the help
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
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
