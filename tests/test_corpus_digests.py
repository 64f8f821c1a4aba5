"""Corpus digests: every op of benchmark corpus seeds 1-3 of both workloads,
pinned by one SHA-256 over its exit code, stdout and stderr.

`perfbench/corpus.py` writes each seed's input files into a temporary
directory and returns its ops; each op runs in process through
`mldhat.cli.main`.  `corpus_digests.json` holds, per workload and seed, one
record per op index: the argv (with the input directory written as "{dir}")
and the digest.  A failure names each op whose digest changed.

A change that is meant to keep every report must leave the file as it is.
To record it anew after a change that is meant to alter a report, run this
module as a script from the repository root:

    PYTHONPATH=src python tests/test_corpus_digests.py

It names each op whose record is new or changed; review that list and the
diff of `corpus_digests.json` like any other change.
"""

import hashlib
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mldhat.cli import main

DIGESTS = pathlib.Path(__file__).with_name("corpus_digests.json")
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
WORKLOADS = ("toric-cones", "hyper-oracle")
SEEDS = (1, 2, 3)


def _corpus():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import corpus

    return corpus


def digest_ops(workload, seed, directory):
    """{op index: {"argv": ..., "sha256": ...}} for one corpus seed."""
    records = {}
    for op in _corpus().build(workload, seed, directory):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(op.argv))
        payload = json.dumps([code, out.getvalue(), err.getvalue()])
        records[str(op.index)] = {
            "argv": [a.replace(directory, "{dir}") for a in op.argv],
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
    return dict(sorted(records.items(), key=lambda item: int(item[0])))


def key(workload, seed):
    return f"{workload}/{seed}"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_digests(workload, seed, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[key(workload, seed)]
    got = digest_ops(workload, seed, str(tmp_path))
    assert got.keys() == recorded.keys()
    changed = [
        f"op {index}: {' '.join(recorded[index]['argv'])}"
        for index in recorded
        if got[index] != recorded[index]
    ]
    assert not changed, "\n".join(changed)


def test_digests_cover_every_seed():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(key(w, s) for w in WORKLOADS for s in SEEDS)
    assert sum(len(ops) for ops in recorded.values()) == 1677


if __name__ == "__main__":
    previous = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    records = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as directory:
                records[key(workload, seed)] = digest_ops(workload, seed, directory)
    for k, ops in records.items():
        for index, record in ops.items():
            before = previous.get(k, {}).get(index)
            if before != record:
                status = "new" if before is None else "changed"
                print(f"{status}: {k} op {index}: {' '.join(record['argv'])}", file=sys.stderr)
    blocks = []
    for k, ops in records.items():
        lines = ",\n".join(f"  {json.dumps(i)}: {json.dumps(r)}" for i, r in ops.items())
        blocks.append(f" {json.dumps(k)}: {{\n{lines}\n }}")
    DIGESTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {sum(len(ops) for ops in records.values())} digests to {DIGESTS}", file=sys.stderr)
