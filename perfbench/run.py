"""Benchmark of the mldhat command-line path.

    python3 perfbench/run.py --workload toric-cones --seed 1 --seconds 55 --trace 0

Run from the repository root.  The benchmark generates the workload's inputs
from the seed (corpus.py), writes them as the JSON files the CLI reads, and
issues every op as an in-process `mldhat.cli.main(["--seed", ...])` call:
a closed loop, one client, one process, no threads.  It repeats the whole
corpus while the time allows (at least MIN_PASSES times), checks every
report (checker.py) and prints one metric per line with its unit, then the
result as a JSON object on the last line.

Every latency is normalised by the reference kernel of speed.py, timed
after each op: the machine's speed drifts by up to 1.5x for stretches of
seconds to minutes, and the kernel slows with it while a change to mldhat
moves the op alone.  Each op's timing is the median of its normalised
latencies over the passes; `wall_s` is their sum, and the latency
percentiles are Harrell-Davis estimates over them.  Set-up is sampled in fresh processes
between passes, normalised the same way, so its median covers the whole run.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
tracing.py, the counts of the first traced pass (they must repeat exactly
in every traced pass), the median of each time, and trace_overhead_ratio,
the traced over the untraced sum of per-op medians.  The spans of all
traced passes are written to .perfbench_work/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import checker
import corpus
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # each after an untraced pass
SETUP_PROBES_PER_PASS = 2  # fresh set-up processes after each pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(cli, op, tracer):
    """(seconds, exit code or failure text, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    argv = list(op.argv)
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv) if tracer is None else tracer.span("cli", cli.main, argv)
    except SystemExit as exc:
        code = f"exited with {exc.code!r}: {err.getvalue().strip()[-200:]}"
    except Exception:  # an op that raises is a failed op; the run goes on
        code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return perf_counter() - started, code, out.getvalue()


def run_pass(cli, ops, tracer=None):
    """(wall seconds, normalised latencies, results) of one pass over `ops`.

    The reference kernel is timed after every op, outside the op's latency.
    """
    latencies, kernels, results = [], [], []
    started = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.index
        seconds, code, stdout = run_op(cli, op, tracer)
        latencies.append(seconds)
        kernels.append(speed.time_kernel())
        results.append((code, stdout))
    return perf_counter() - started, speed.normalise(latencies, kernels), results


class Verdicts:
    """Checks every op of every pass; a report must also repeat byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_reports: dict[int, str] = {}
        self.examples: list[str] = []

    def add(self, ops, results):
        for op, (code, stdout) in zip(ops, results):
            self.attempted += 1
            reason = checker.check(op, code, stdout)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            first = self.first_reports.setdefault(op.index, digest)
            if reason is None and first != digest:
                reason = "report differs from an earlier pass under the same --seed"
            if reason is not None:
                self.failed += 1
                if len(self.examples) < 5:
                    self.examples.append(f"op {op.index} {' '.join(op.argv[2:4])}: {reason}")


class SetupSampler:
    """Normalised set-up seconds: this process's own sample plus fresh probe processes."""

    def __init__(self, started_import, workload, seed, workdir):
        seconds = perf_counter() - started_import
        self.samples = [seconds * speed.REFERENCE_S / speed.kernel_median()]
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
        self.workdir = workdir

    def probe(self, count=SETUP_PROBES_PER_PASS):
        for _ in range(count):
            probe_dir = os.path.join(self.workdir, f"setup{len(self.samples)}")
            done = subprocess.run(self.argv + [probe_dir], capture_output=True, text=True,
                                  timeout=120, check=True)
            seconds, kernel_s = map(float, done.stdout.split()[-2:])
            self.samples.append(seconds * speed.REFERENCE_S / kernel_s)
            shutil.rmtree(probe_dir, ignore_errors=True)


def harrell_davis(values, p):
    """The Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights: it moves smoothly when single ops near the quantile's rank move,
    where the plain order statistic jumps between neighbouring ops.  Each
    weight is the Beta density integrated by Simpson's rule over its slot.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 8  # Simpson steps per slot
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def median_per_op(passes):
    """Each op's median latency over the passes (lists in op order)."""
    return [statistics.median(samples) for samples in zip(*passes)]


def end_to_end(cli, ops, seconds, verdicts, setup):
    walls, passes = [], []
    started = perf_counter()
    while True:
        wall, lat, results = run_pass(cli, ops)
        verdicts.add(ops, results)
        walls.append(wall)
        passes.append(lat)
        setup.probe()
        if len(walls) >= MIN_PASSES and perf_counter() - started + wall > seconds:
            break
    typical = median_per_op(passes)
    p90 = harrell_davis(typical, 0.9)
    metrics = {
        "wall_s": (sum(typical), "s"),
        "op_p50_ms": (harrell_davis(typical, 0.5) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup.samples), "s"),
    }
    beyond = sum(1 for t in typical if t > p90)
    notes = [f"passes: {len(walls)} of {len(ops)} ops; latency samples: {len(ops)} per-op medians"
             f" of {len(walls)} normalised latencies each, {beyond} beyond p90",
             f"pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}",
             f"normalised setup samples (s): {' '.join(f'{s:.4f}' for s in setup.samples)}"]
    return metrics, notes


def per_layer(cli, ops, seconds, verdicts, spans_path):
    plain, traced, runs, tracers = [], [], [], []
    started = perf_counter()
    while True:
        wall, lat, results = run_pass(cli, ops)
        verdicts.add(ops, results)
        plain.append(lat)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall_traced, lat, results = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        verdicts.add(ops, results)
        traced.append(lat)
        runs.append(tracer.layer_metrics())
        tracers.append(tracer)
        if len(traced) >= MIN_TRACED_PASSES and perf_counter() - started + wall + wall_traced > seconds:
            break
    tracing.write_spans(spans_path, tracers)
    metrics = {}
    unsteady = []
    for name in tracing.PER_LAYER[:-1]:
        values = [run[name] for run in runs]
        if name in tracing.TIMES:
            metrics[name] = (statistics.median(values), "s")
        else:
            metrics[name] = (values[0], "ratio" if name.endswith("ratio") or name.endswith("share") else "count")
            if len(set(values)) != 1:
                unsteady.append(name)
    plain_s, traced_s = sum(median_per_op(plain)), sum(median_per_op(traced))
    metrics["trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
    notes = [f"pass pairs: {len(traced)}; normalised untraced passes (s):"
             f" {' '.join(f'{sum(p):.3f}' for p in plain)};"
             f" traced passes (s): {' '.join(f'{sum(p):.3f}' for p in traced)}",
             f"sum of per-op medians (s): untraced {plain_s:.3f}, traced {traced_s:.3f}",
             f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    if unsteady:
        verdicts.failed += 1
        verdicts.examples.append(f"counts differ between traced passes: {', '.join(unsteady)}")
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mldhat", "cli.py")):
        print(f"perfbench: no mldhat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        started_import = perf_counter()
        from mldhat import cli

        ops = corpus.build(args.workload, args.seed, os.path.join(workdir, "inputs"))
        verdicts = Verdicts()
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}.json")
            metrics, notes = per_layer(cli, ops, args.seconds, verdicts, spans_path)
        else:
            setup = SetupSampler(started_import, args.workload, args.seed, workdir)
            metrics, notes = end_to_end(cli, ops, args.seconds, verdicts, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fail_ratio = verdicts.failed / verdicts.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + verdicts.examples:
        print(line)
    print(f"fail_ratio: {fail_ratio:.6g} ratio ({verdicts.failed} of {verdicts.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
