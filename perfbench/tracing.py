"""Span tracer for the per-layer run of the benchmark.

The tracer replaces each traced function of ``incitoric`` with a wrapper
that records a span (name, start, end, parent) around the call.  A wrapper
is installed in every module namespace that binds the function, and in
module-level tuples such as ``acceptance.ALL_CRITERIA``, so no call escapes
its span.  Per-element helpers (``colex_rank``, ``toric._divides``) are
never wrapped.  Spans stay in memory; the caller writes them out at the end.

Self time is a span's duration minus the time covered by its child spans.
Inclusive time (``.s``) counts only the outermost span of a name, so a
recursive call is not counted twice.  ``time_spans`` measures the cost of
one span, from which the worker estimates the tracing overhead of a pass.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# (module, attribute, span name) of every traced function.
FUNCTIONS = (
    ("lp", "lp_feasible", "lp.lp_feasible"),
    ("lp", "verify_farkas", "lp.verify_farkas"),
    ("polytope", "neighborliness", "polytope.neighborliness"),
    ("polytope", "is_face", "polytope.is_face"),
    ("polytope", "placing_triangulation", "polytope.placing_triangulation"),
    ("polytope", "normalized_volume", "polytope.normalized_volume"),
    ("exactmath", "solve_rational", "exactmath.solve_rational"),
    ("exactmath", "determinant", "exactmath.determinant"),
    ("exactmath", "kernel_basis", "exactmath.kernel_basis"),
    ("exactmath", "hnf", "exactmath.hnf"),
    ("exactmath", "lattice_from_generators", "exactmath.lattice_from_generators"),
    ("exactmath", "rank_q", "exactmath.rank_q"),
    ("exactmath", "rank_mod_p", "exactmath.rank_mod_p"),
    ("exactmath", "lattice_member", "exactmath.lattice_member"),
    ("toric", "buchberger", "toric.buchberger"),
    ("toric", "saturate_binomials", "toric.saturate_binomials"),
    ("toric", "lattice_ideal_groebner", "toric.lattice_ideal_groebner"),
    ("toric", "graver_basis", "toric.graver_basis"),
    ("toric", "minimal_markov", "toric.minimal_markov"),
    ("toric", "saturation_equals", "toric.saturation_equals"),
    ("toric", "reduce_to_zero", "toric.reduce_to_zero"),
    ("toric", "is_primitive", "toric.is_primitive"),
    ("threepoint", "fiber", "threepoint.fiber"),
    ("threepoint", "check_section5", "threepoint.check_section5"),
    ("threepoint", "det_leibniz", "threepoint.det_leibniz"),
    ("threepoint", "det_as_c_expression", "threepoint.det_as_c_expression"),
    ("threepoint", "tilde_ideal_generators", "threepoint.tilde_ideal_generators"),
    ("designs", "min_support_scan", "designs.min_support_scan"),
    ("designs", "pods_span_kernel", "designs.pods_span_kernel"),
    ("incidence", "check_rank_laws", "incidence.check_rank_laws"),
    ("incidence", "build_matrix", "incidence.build_matrix"),
    ("complexes", "verify", "complexes.verify"),
) + tuple(
    ("acceptance", f"criterion_{i:02d}", f"acceptance.criterion_{i:02d}")
    for i in range(1, 15)
)

# Generators: each item is timed while it is produced.
GENERATORS = (("combinat", "derangements", "combinat.derangements"),)
GENERATOR_NAMES = {name for _, _, name in GENERATORS}

# Class methods that build LP problems, traced under one span name.
PROBLEM_BUILDERS = (("lp", "LinearConstraint"), ("lp", "RationalLpProblem"))


def _lp_status(tracer: "Tracer", result) -> None:
    tracer.counts[f"lp.lp_feasible.{result.status}"] += 1


def _basis_size(tracer: "Tracer", result) -> None:
    tracer.counts["toric.buchberger.basis_out"] += len(result)


def _simplex_count(tracer: "Tracer", result) -> None:
    tracer.counts["polytope.simplices"] += len(result.simplices)
    tracer.simplex_counts.append(len(result.simplices))


# Counts read off a traced call's result.
RESULT_COUNTS = {
    "lp.lp_feasible": _lp_status,
    "toric.buchberger": _basis_size,
    "polytope.placing_triangulation": _simplex_count,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1], perf_counter() times
        self.counts = Counter()  # read off results
        self.simplex_counts = []  # per placing_triangulation call, in order
        self._open = []  # indices of open spans

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A span per item produced, under the generator's name; the call
        itself makes no span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return self._timed_items(name, fn(*args, **kwargs))

        return traced

    def _timed_items(self, name: str, items):
        while True:
            index = self._enter(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._exit(index)
            self.counts[f"{name}.items"] += 1
            yield item

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` (the imported
        ``incitoric``) in every one of its module namespaces."""
        import importlib

        modules = {}
        for mod in ("acceptance", "combinat", "complexes", "designs", "exactmath",
                    "incidence", "lp", "polytope", "threepoint", "toric"):
            modules[mod] = importlib.import_module(f"{package.__name__}.{mod}")
        namespaces = [package] + list(modules.values())
        for mod, attr, name in FUNCTIONS:
            orig = getattr(modules[mod], attr)
            _rebind(namespaces, orig, self.wrap(name, orig))
        for mod, attr, name in GENERATORS:
            orig = getattr(modules[mod], attr)
            _rebind(namespaces, orig, self.wrap_generator(name, orig))
        for mod, cls_name in PROBLEM_BUILDERS:
            cls = getattr(modules[mod], cls_name)
            builder = cls.__dict__["of"].__func__
            cls.of = classmethod(self.wrap("lp.problem_build", builder))

    def summary(self, ref) -> dict:
        """Per-name calls, self and inclusive time, with times mapped by ``ref``
        (timestamp to seconds); also returns the mapped spans."""
        spans = [[name, ref(start), ref(end), parent] for name, start, end, parent in self.spans]
        calls, self_s, incl_s = Counter(self.counts), Counter(), Counter()
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            if name not in GENERATOR_NAMES:
                calls[f"{name}.calls"] += 1
            self_s[name] += end - start - child_s[i]
            if not _inside_same_name(spans, i):
                incl_s[name] += end - start
        return {
            "counts": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "simplex_counts": list(self.simplex_counts),
            "spans": spans,
        }


CALIBRATION_CALLS = 20_000


def _noop() -> None:
    pass


def time_spans(rounds: int = 5) -> list:
    """(start, middle, end) ``perf_counter()`` timestamps of ``rounds``
    rounds of ``CALIBRATION_CALLS`` calls of a no-op function: first through
    a wrapper of a fresh tracer, then directly.  The first stretch minus the
    second, per call, is the cost of one span."""
    wrapped = Tracer().wrap("noop", _noop)
    marks = []
    for _ in range(rounds):
        start = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        middle = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            _noop()
        marks.append((start, middle, perf_counter()))
    return marks


def _inside_same_name(spans: list, i: int) -> bool:
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _rebind(namespaces, orig, wrapped) -> None:
    bound = 0
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, key, wrapped)
                bound += 1
            elif isinstance(value, tuple) and any(v is orig for v in value):
                setattr(ns, key, tuple(wrapped if v is orig else v for v in value))
    if not bound:
        raise RuntimeError(f"{orig.__qualname__} is bound in no module namespace")
