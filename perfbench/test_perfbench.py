"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repository root)."""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from mldhat import cli  # noqa: E402


def call(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def files(directory):
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            contents[name] = fh.read()
    return contents


def strip(ops, directory):
    """Ops with the work directory taken out of their file arguments."""
    return [(op.index, op.kind, tuple(a.replace(directory, "") for a in op.argv), op.expect) for op in ops]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    a, b, c = (str(tmp_path / name) for name in "abc")
    ops_a = corpus.build(workload, 7, a)
    ops_b = corpus.build(workload, 7, b)
    ops_c = corpus.build(workload, 8, c)
    assert files(a) == files(b)
    assert strip(ops_a, a) == strip(ops_b, b)
    assert files(a) != files(c)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_workload_has_at_least_100_ops(workload, tmp_path):
    assert len(corpus.build(workload, 1, str(tmp_path))) >= 100


def first(ops, kind, source=None):
    return next(op for op in ops if op.kind == kind and source in (None, op.expect.get("source")))


@pytest.fixture(scope="module")
def toric_ops(tmp_path_factory):
    return corpus.build("toric-cones", 3, str(tmp_path_factory.mktemp("toric")))


@pytest.fixture(scope="module")
def structure_ops(toric_ops):
    return [op for op in toric_ops if op.kind in ("hilbert", "dual")]


def test_checker_accepts_then_rejects_lambda_plus_one(toric_ops):
    op = first(toric_ops, "toric", "criterion 2 (theory)")
    code, out = call(op)
    assert checker.check(op, code, out) is None
    report = json.loads(out)
    report["lambda"] += 1
    assert "lambda" in checker.check(op, 0, json.dumps(report))


def test_checker_rejects_a_non_interior_witness():
    op = corpus.Op(index=0, kind="toric", argv=(),
                   expect={"rays": ((1, 0), (0, 1)), "lam": 0, "mld": 2, "source": "quadrant"})

    def report(point):
        witness = {"point": point, "value": 2, "chosen_set": [[0, 1], [1, 0]]}
        return json.dumps({"lambda": 0, "mather_mld": 2, "status": "EXACT", "witness": witness})

    assert checker.check(op, 0, report([1, 1])) is None
    # (2, 0) has the same pairing sum but lies on a facet
    assert checker.check(op, 0, report([2, 0])) == "witness point is not interior"


def test_checker_rejects_a_missing_hilbert_element(structure_ops):
    op = first(structure_ops, "hilbert")
    code, out = call(op)
    assert checker.check(op, code, out) is None
    report = json.loads(out)
    report["elements"].pop()
    report["count"] -= 1
    assert "missing" in checker.check(op, 0, json.dumps(report))


def test_checker_rejects_a_wrong_exit_code(structure_ops):
    op = first(structure_ops, "dual")
    assert checker.check(op, 2, "") == "exit code 2"


def test_reports_repeat_byte_for_byte_under_a_seed(structure_ops):
    for op in structure_ops[:10]:
        assert call(op) == call(op)


def test_traced_counts_repeat_and_tracing_leaves_reports_unchanged(structure_ops):
    ops = structure_ops[:20]
    _, _, plain = run.run_pass(cli, ops)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, _, traced = run.run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        assert traced == plain
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items() if k not in tracing.TIMES})
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == len(ops)
    assert counts[0]["cones.dd_calls"] > 0
    assert cli.hilbert_basis.__module__ == "mldhat.hilbert"  # originals are back


def test_timings_take_each_ops_median_pass():
    passes = [[0.3, 0.1, 0.5], [0.2, 0.4, 0.6], [0.9, 0.2, 0.4]]
    assert run.median_per_op(passes) == [0.3, 0.2, 0.5]


def test_latencies_are_normalised_by_the_kernel_around_each_op():
    latencies = [1.0] * 6
    slow = [2 * speed.REFERENCE_S] * 6
    assert speed.normalise(latencies, slow) == [0.5] * 6
    # one stray kernel sample does not move its neighbours' speed
    kernels = [speed.REFERENCE_S] * 6
    kernels[2] *= 10
    assert speed.normalise(latencies, kernels) == [1.0] * 6


def test_harrell_davis_matches_the_quantiles_of_a_uniform_sample():
    values = [k / 1000 for k in range(1001)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert run.harrell_davis(values, 0.9) == pytest.approx(0.9, abs=1e-3)
    assert run.harrell_davis([3.0] * 50, 0.9) == pytest.approx(3.0)
