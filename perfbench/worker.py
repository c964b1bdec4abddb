"""One pass of one benchmark workload, in a fresh interpreter.

Reads a JSON request on standard input: the workload name, its generated
inputs, whether to trace, whether to stop after set-up, and the
``perf_counter()`` time at which the parent started this interpreter.
Set-up imports ``incitoric`` and builds matrices, point configurations and
the inputs' objects; set-up time runs from the parent's start time to the
end of set-up.  Then the worker makes the timed calls and prints one JSON
line: the set-up time, the wall time of the calls, the latency of each
query, the peak resident memory and the results, which the parent checks.
A call that raises is recorded as an error result and the pass goes on.

Times are ``perf_counter()`` timestamps, mapped to seconds of the
reference machine by a ``SteadyClock`` (steadyclock.py) that runs from
before ``import incitoric`` to the end of the pass.  ``perf_counter()`` is
``CLOCK_MONOTONIC`` on Linux, one clock for all processes, so the parent's
start time compares with the worker's timestamps.  The same times are also
reported unscaled (``raw_*``) and as processor time (``*cpu_s``), so that
the scaling can be judged against them.  Calls go through module
attributes (``polytope.is_face``), which the tracer rebinds, so a traced
pass sees every call.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from time import perf_counter, process_time

from steadyclock import SteadyClock

# started before the imports below, whose time set-up time covers
CLOCK = SteadyClock().start()

import incitoric  # noqa: E402
from incitoric import acceptance, combinat, incidence, polytope, threepoint, toric  # noqa: E402
from incitoric.config import RunConfig  # noqa: E402


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a failing call is a result to report, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}


def _queries(latencies: list, thunks: list, repeats: int) -> list:
    """Run every query ``repeats`` times, round by round, so that the runs
    of one query are seconds apart.  Keep the (start, end) timestamps of each
    run; a query's latency is the median of its runs.  Runs that disagree
    are an error."""
    runs = [[] for _ in thunks]
    outs = [[] for _ in thunks]
    for _ in range(repeats):
        for fn, times, results in zip(thunks, runs, outs):
            start = perf_counter()
            results.append(_attempt(fn))
            times.append((start, perf_counter()))
    latencies.extend(runs)
    return [
        results[0] if all(r == results[0] for r in results)
        else {"error": "repeated runs of the query disagree"}
        for results in outs
    ]


def _labels(inc) -> dict:
    return {"rows": [list(s) for s in inc.row_labels], "cols": [list(s) for s in inc.col_labels]}


def _vectors(basis) -> dict:
    return {"vectors": [list(b.vector) for b in basis.elements]}


class Faces:
    def __init__(self, inputs, config):
        self.config = config
        inc732 = incidence.build_matrix(7, 3, 2)
        self.labels = {"732": _labels(inc732)}
        self.cfg632 = polytope.PointConfig.from_incidence(incidence.build_matrix(6, 3, 2))
        self.cfg732 = polytope.PointConfig.from_incidence(inc732)
        self.queries = [q["subset"] for q in inputs["queries"]]
        self.repeats = inputs["repeats"]

    def run(self, latencies: list) -> dict:
        scan = _attempt(lambda: _scan(polytope.neighborliness(self.cfg632, 3, self.config)))
        queries = _queries(latencies, [
            lambda q=q: _certificate(polytope.is_face(self.cfg732, q)) for q in self.queries
        ], self.repeats)
        return {"labels": self.labels, "scan": scan, "queries": queries}


def _scan(report) -> dict:
    return {
        "neighborliness": report.neighborliness,
        "subsets_tested": report.subsets_tested,
        "witness": None if report.non_face_witness is None else repr(report.non_face_witness),
    }


def _certificate(cert) -> dict:
    if cert.is_face:
        c, beta = cert.functional
        return {"is_face": True, "functional": [str(x) for x in c], "beta": str(beta)}
    return {"is_face": False, "witness": list(cert.witness)}


class Volumes:
    def __init__(self, inputs, config):
        self.config = config
        from_incidence = polytope.PointConfig.from_incidence
        self.cfg632 = from_incidence(incidence.build_matrix(6, 3, 2))
        self.cfg743 = from_incidence(incidence.build_matrix(7, 4, 3))
        self.order632, self.order743 = inputs["order632"], inputs["order743"]

    def run(self, latencies: list) -> dict:
        config = self.config
        out = {}
        tri632 = _attempt(lambda: polytope.placing_triangulation(self.cfg632, self.order632, config))
        out["tri632"] = _triangulation(tri632)
        # the column-lattice volume, one simplex per query
        out["simplex_volumes"] = _queries(latencies, [
            lambda s=s: {"value": polytope.normalized_volume(
                self.cfg632, "column_lattice", polytope.Triangulation(tri632.dim, (s,), ()), config)}
            for s in getattr(tri632, "simplices", ())
        ], 1)
        out["euclidean632"] = _attempt(lambda: {"value": polytope.normalized_volume(
            self.cfg632, "euclidean", tri632, config)})
        tri743 = _attempt(lambda: polytope.placing_triangulation(self.cfg743, self.order743, config))
        out["tri743"] = _triangulation(tri743)
        out["euclidean743"] = _attempt(lambda: {"value": polytope.normalized_volume(
            self.cfg743, "euclidean", tri743, config)})
        return out


def _triangulation(tri) -> dict:
    if isinstance(tri, dict):
        return tri
    return {"dim": tri.dim, "simplices": [list(s) for s in tri.simplices]}


class Toric:
    def __init__(self, inputs, config):
        self.config = config
        self.inc = {key: incidence.build_matrix(*nkt) for key, nkt in
                    (("632", (6, 3, 2)), ("521", (5, 2, 1)), ("531", (5, 3, 1)))}
        self.labels = {key: _labels(inc) for key, inc in self.inc.items()}
        self.binomials = [toric.Binomial.from_vector(q["vector"]) for q in inputs["queries"]]
        self.repeats = inputs["repeats"]

    def run(self, latencies: list) -> dict:
        config, inc632 = self.config, self.inc["632"]
        out = {"labels": self.labels}
        gb = _attempt(lambda: toric.lattice_ideal_groebner(inc632, config))
        out["groebner"] = _attempt(lambda: _vectors(gb))
        markov = _attempt(lambda: toric.minimal_markov(inc632, config))
        out["markov"] = _attempt(lambda: _vectors(markov))
        out["saturation_equals"] = _attempt(lambda: {"value": toric.saturation_equals(
            toric.octahedral_generators(6, 3, 2), inc632, config)})
        for key in ("521", "531"):
            out[f"graver{key}"] = _attempt(lambda: _vectors(toric.graver_basis(self.inc[key], config)))
        out["primitive"] = _queries(latencies, [
            lambda b=b: {"value": toric.is_primitive(b, inc632, config)}
            for b in getattr(markov, "elements", ())
        ], 1)
        out["reduce"] = _queries(latencies, [
            lambda b=b: {"value": toric.reduce_to_zero(b, gb)} for b in self.binomials
        ], self.repeats)
        return out


class Claims:
    def __init__(self, inputs, config):
        self.config = config
        self.workspace = acceptance.Workspace(config)
        self.criteria = inputs["criteria"]
        self.fibers = [combinat.derangement_from_images(images) for images in inputs["fibers"]]
        self.repeats = inputs["repeats"]

    def run(self, latencies: list) -> dict:
        criteria = _attempt(lambda: [
            c.as_dict() for c in acceptance.run_acceptance(self.workspace, self.criteria)
        ])
        fibers = _queries(latencies, [
            lambda d=d: {"value": sorted(
                list(e.images) for e in threepoint.fiber(threepoint.phi(d), 6, self.config))}
            for d in self.fibers
        ], self.repeats)
        return {"criteria": criteria if isinstance(criteria, list) else [], "fibers": fibers}


WORKLOADS = {"faces": Faces, "volumes": Volumes, "toric": Toric, "claims": Claims}


def main() -> int:
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(incitoric)
    workload = WORKLOADS[request["workload"]](request["inputs"], RunConfig(workers=1))
    ready = perf_counter()
    setup_cpu_s = process_time()

    if not request["setup_only"]:
        latencies: list = []  # per query, (start, end) of each run
        cpu_start = process_time()
        start = perf_counter()
        results = workload.run(latencies)
        end = perf_counter()
        cpu_s = process_time() - cpu_start
        if tracer:
            from tracing import CALIBRATION_CALLS, time_spans

            span_marks = time_spans()
    CLOCK.stop()

    ref, spawned = CLOCK.ref, request["spawned_at"]
    report = {"setup_s": ref(ready) - ref(spawned), "raw_setup_s": ready - spawned,
              "setup_cpu_s": setup_cpu_s}
    if not request["setup_only"]:
        report.update({
            "wall_s": ref(end) - ref(start),
            "raw_wall_s": end - start,
            "cpu_s": cpu_s,
            "queries_ms": [statistics.median(ref(b) - ref(a) for a, b in runs) * 1000.0
                           for runs in latencies],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "results": results,
        })
        if tracer:
            report["trace"] = tracer.summary(ref)
            # the cost of one span, from no-op calls with and without a
            # wrapper, times the pass's span count
            span_s = statistics.median(
                (ref(b) - ref(a)) - (ref(c) - ref(b)) for a, b, c in span_marks
            ) / CALIBRATION_CALLS
            report["trace"]["overhead_s"] = span_s * len(tracer.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
