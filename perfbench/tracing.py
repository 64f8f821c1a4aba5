"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` replaces public functions at each module boundary of
`mldhat` by wrappers, in the namespace the caller looks them up in (for
example `mldhat.cli.mld_at_point`, `mldhat.toric.hilbert_basis`), and
`uninstall()` puts the originals back.  Nothing in `mldhat` changes on disk,
and the untraced passes run the original functions.  One Tracer serves one
traced pass.

A span records (name, start, end, parent span, op id); spans stay in memory
until `write()`.  Functions called hundreds of thousands of times per pass
(`rank_of`, `is_feasible`, `objective`) are only counted, so their time
stays in the span that called them.  Self time of a span is its duration
minus the durations of its direct children; single-threaded spans nest, so
the children never overlap.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): each call becomes a span
SPANS = (
    ("mldhat.cli", "mld_at_point", "toric.point"),
    ("mldhat.cli", "hypersurface_report", "hypersurface.report"),
    ("mldhat.cli", "validate_support", "hypersurface.validate"),
    ("mldhat.cli", "certificate_data", "hypersurface.certificate_data"),
    ("mldhat.cli", "hilbert_basis", "hilbert.basis"),
    ("mldhat.cli", "dual_cone", "cones.dual"),
    ("mldhat.cli", "staircase_verify", "oracle.staircase"),
    ("mldhat.cli", "torus_point_sample", "oracle.torus"),
    ("mldhat.cli", "expand", "oracle.expand"),
    ("mldhat.toric", "minimize_spanning_cost", "toric.search"),
    ("mldhat.toric", "spanning_cost_greedy", "toric.greedy"),
    ("mldhat.toric", "enumerate_lattice_points", "lattice.enum"),
    ("mldhat.toric", "hilbert_basis", "hilbert.basis"),
    ("mldhat.cones", "dual_description", "cones.dd"),
    ("mldhat.hypersurface", "minimize_objective", "hypersurface.scan"),
    ("mldhat.hypersurface", "binomial_lambda", "hypersurface.scan"),
    ("mldhat.hypersurface", "equality_certificate", "hypersurface.certificate"),
    ("mldhat.oracle", "torus_point_sample", "oracle.torus"),
)

# (module, attribute, counter name): each call is counted, no span
COUNTERS = (
    ("mldhat.toric", "rank_of", "lattice.rank_calls"),
    ("mldhat.cones", "rank_of", "lattice.rank_calls"),
    ("mldhat.hilbert", "rank_of", "lattice.rank_calls"),
    ("mldhat.hypersurface", "rank_of", "lattice.rank_calls"),
    ("mldhat.hypersurface", "is_feasible", "hypersurface.feasible_calls"),
    ("mldhat.hypersurface", "objective", "hypersurface.objective_calls"),
)

# per_layer metric names, in BENCHMARK.json order
PER_LAYER = (
    "cli.calls", "cli.self_s",
    "toric.search_calls", "toric.search_self_s", "toric.greedy_calls", "toric.greedy_s",
    "toric.fast_path_share",
    "lattice.enum_points", "lattice.enum_s", "lattice.rank_calls",
    "hilbert.basis_calls", "hilbert.basis_s", "hilbert.candidates", "hilbert.elements",
    "hilbert.useful_ratio",
    "cones.dd_calls", "cones.dd_s",
    "hypersurface.scan_s", "hypersurface.box_tuples", "hypersurface.feasible_calls",
    "hypersurface.objective_calls", "hypersurface.useful_ratio",
    "hypersurface.certificate_calls", "hypersurface.certificate_s",
    "oracle.staircase_s", "oracle.staircase_trials", "oracle.staircase_success_ratio",
    "oracle.torus_s", "oracle.torus_trials_used", "oracle.expand_s", "oracle.expand_terms",
    "trace_overhead_ratio",
)

# metrics that are times; all other per-layer metrics are exact counts or ratios of counts
TIMES = frozenset(name for name in PER_LAYER if name.endswith("_s") or name == "trace_overhead_ratio")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        # (generators, parallelepiped outputs) per hilbert.basis span
        self.hilbert_inputs: list[tuple] = []
        self._saved: list = []

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; used directly for the cli boundary."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def _spanned(self, name, fn, after):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hilbert_entry(self, fn):
        def wrapper(dual, *args, **kwargs):
            self.hilbert_inputs.append((dual.generators, []))
            return fn(dual, *args, **kwargs)

        return wrapper

    def _collecting(self, fn):
        def wrapper(*args, **kwargs):
            points = fn(*args, **kwargs)
            if self.hilbert_inputs:
                self.hilbert_inputs[-1][1].append(points)
            return points

        return wrapper

    def install(self):
        for module, attr, name in SPANS:
            def make(fn, name=name):
                if name == "hilbert.basis":
                    fn = self._hilbert_entry(fn)
                return self._spanned(name, fn, AFTER.get(name))

            self._replace(module, attr, make)
        for module, attr, name in COUNTERS:
            self._replace(module, attr, lambda fn, name=name: self._counted(name, fn))
        self._replace("mldhat.hilbert", "parallelepiped_points", self._collecting)

    def _replace(self, module, attr, make):
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- results --------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        seconds: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            seconds[name] += end - start - child[i]
        return calls, seconds

    def layer_metrics(self):
        """Per-layer metrics of one traced pass (trace_overhead_ratio excluded)."""
        calls, seconds = self.self_times()
        c = self.counts
        candidates = 0  # distinct nonzero points hilbert_basis sieves, as it builds them
        for generators, outputs in self.hilbert_inputs:
            found = set(generators)
            for points in outputs:
                found.update(points)
            found.discard(tuple([0] * len(generators[0])))
            candidates += len(found)

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "cli.calls": calls["cli"],
            "cli.self_s": seconds["cli"],
            "toric.search_calls": calls["toric.search"],
            "toric.search_self_s": seconds["toric.search"],
            "toric.greedy_calls": calls["toric.greedy"],
            "toric.greedy_s": seconds["toric.greedy"],
            "toric.fast_path_share": ratio(c["toric.fast_path"], calls["toric.search"]),
            "lattice.enum_points": c["lattice.enum_points"],
            "lattice.enum_s": seconds["lattice.enum"],
            "lattice.rank_calls": c["lattice.rank_calls"],
            "hilbert.basis_calls": calls["hilbert.basis"],
            "hilbert.basis_s": seconds["hilbert.basis"],
            "hilbert.candidates": candidates,
            "hilbert.elements": c["hilbert.elements"],
            "hilbert.useful_ratio": ratio(c["hilbert.elements"], candidates),
            "cones.dd_calls": calls["cones.dd"],
            "cones.dd_s": seconds["cones.dd"],
            "hypersurface.scan_s": seconds["hypersurface.scan"],
            "hypersurface.box_tuples": c["hypersurface.box_tuples"],
            "hypersurface.feasible_calls": c["hypersurface.feasible_calls"],
            "hypersurface.objective_calls": c["hypersurface.objective_calls"],
            "hypersurface.useful_ratio": ratio(
                c["hypersurface.objective_calls"], c["hypersurface.box_tuples"]
            ),
            "hypersurface.certificate_calls": calls["hypersurface.certificate"],
            "hypersurface.certificate_s": seconds["hypersurface.certificate"],
            "oracle.staircase_s": seconds["oracle.staircase"],
            "oracle.staircase_trials": c["oracle.staircase_trials"],
            "oracle.staircase_success_ratio": ratio(
                c["oracle.staircase_successes"], c["oracle.staircase_trials"]
            ),
            "oracle.torus_s": seconds["oracle.torus"],
            "oracle.torus_trials_used": c["oracle.torus_trials_used"],
            "oracle.expand_s": seconds["oracle.expand"],
            "oracle.expand_terms": c["oracle.expand_terms"],
        }


def write_spans(path, tracers):
    """Write the spans of each traced pass; parent indices are per pass."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "passes": [t.spans for t in tracers]}, fh)


# Facts taken from a span's arguments and result, after the span has ended.


def _search(tracer, args, kwargs, report):
    tracer.counts["toric.fast_path"] += report.fast_path != "none"


def _enum(tracer, args, kwargs, points):
    tracer.counts["lattice.enum_points"] += len(points)


def _basis(tracer, args, kwargs, basis):
    tracer.counts["hilbert.elements"] += len(basis.elements)


def _scan(tracer, args, kwargs, result):
    tracer.counts["hypersurface.box_tuples"] += result.box_bound ** args[0].num_vars


def _staircase(tracer, args, kwargs, result):
    tracer.counts["oracle.staircase_trials"] += result.trials
    tracer.counts["oracle.staircase_successes"] += result.successes


def _torus(tracer, args, kwargs, witness):
    used = witness["trials_used"] if witness is not None else kwargs.get("trials", 50)
    tracer.counts["oracle.torus_trials_used"] += used


def _expand(tracer, args, kwargs, result):
    tracer.counts["oracle.expand_terms"] += sum(len(poly) for poly in result.terms.values())


AFTER = {
    "toric.search": _search,
    "lattice.enum": _enum,
    "hilbert.basis": _basis,
    "hypersurface.scan": _scan,
    "oracle.staircase": _staircase,
    "oracle.torus": _torus,
    "oracle.expand": _expand,
}
