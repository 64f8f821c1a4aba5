"""Golden reports: about 30 CLI ops whose exit code, stdout and stderr are
pinned byte for byte.

A change that is meant to keep every reported value (a refactor, a
deletion, a speed-up) must leave `golden_reports.json` as it is.  To
record the file anew after a change that is meant to alter a report, run
this module as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It names each op whose record is new or changed; review that list and the
diff of `golden_reports.json` like any other change.
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mldhat.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

# input files by name; argv tokens "{name}" are replaced by their paths
INPUTS = {
    "square": {"lattice_rank": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]},
    "surface": {"lattice_rank": 2, "rays": [[-3, 4], [4, -1]]},
    "simplicial3": {"lattice_rank": 3, "rays": [[-1, -6, -7], [-1, -2, -1], [5, -6, -8]]},
    "four_rays3": {"lattice_rank": 3, "rays": [[-3, -1, -3], [-2, -2, 3], [-1, -3, 0], [-1, 3, 1]]},
    "torus_factor": {"lattice_rank": 3, "rays": [[1, 0, 0], [1, 2, 0]]},
    "rank4": {"lattice_rank": 4, "rays": [[-6, 3, -4, 1], [-5, 1, 0, 4], [2, -5, 5, 3], [6, -6, -2, 1]]},
    # ray subsets of determinant 0, -2 and -4 in the cone, 0 and -2 in its
    # dual; its pulling triangulation has cells of determinant 1 and 4
    "rank4_five": {"lattice_rank": 4, "rays": [[-2, -1, -2, -1], [-1, 1, 0, 2], [-1, 1, 1, 2], [-2, -2, 2, 0], [-1, -1, -1, -1]]},
    "whitney": {"vars": 3, "support": [[2, 0, 0], [0, 2, 1]]},
    "equality": {"vars": 3, "support": [[1, 1, 0], [1, 0, 1], [0, 3, 0], [0, 0, 3]]},
    # certified only by the torus-zero criterion: g has two monomials
    "curve": {"vars": 2, "support": [[2, 0], [0, 2], [1, 1], [0, 3]]},
    "four_vars": {"vars": 4, "support": [[0, 1, 0, 1], [1, 0, 3, 2], [2, 2, 2, 0], [3, 2, 0, 0]]},
    "a2": {"vars": 3, "support": [[0, 0, 2], [0, 2, 0], [3, 0, 0]]},
    "wrong_length": {"vars": 2, "support": [[1, 0, 0], [0, 2, 0]]},
}

OPS = [
    ["toric", "--cone", "{square}"],
    ["toric", "--cone", "{square}", "--face", "0,1"],
    ["toric", "--cone", "{square}", "--face-functional", "1,0,0"],
    ["toric", "--cone", "{square}", "--face", ""],
    ["toric", "--cone", "{surface}"],
    ["toric", "--cone", "{simplicial3}"],
    ["toric", "--cone", "{four_rays3}"],
    ["toric", "--cone", "{torus_factor}"],
    ["hilbert", "--cone", "{rank4}"],
    ["hilbert", "--cone", "{four_rays3}"],
    ["dual", "--cone", "{rank4}"],
    ["dual", "--cone", "{square}"],
    ["hyper", "--support", "{whitney}"],
    ["hyper", "--support", "{four_vars}"],
    ["hyper", "--certify", "--support", "{equality}"],
    ["hyper", "--certify", "--support", "{whitney}"],
    ["hyper", "--certify", "--support", "{a2}"],
    ["oracle", "staircase", "--support", "{whitney}", "--alpha", "2,1,2", "--m", "4", "--prime", "101"],
    ["oracle", "staircase", "--support", "{a2}", "--alpha", "1,1,1", "--m", "3", "--prime", "10007"],
    ["oracle", "torus-point", "--support", "{equality}", "--alpha", "2,1,1"],
    ["oracle", "expand", "--support", "{whitney}", "--alpha", "2,1,2", "--m", "4"],
    ["oracle", "expand", "--support", "{a2}", "--alpha", "1,1,1", "--m", "3", "--coeffs", "2,-1,3", "--prime", "101"],
    ["toric", "--cone", "{square}", "--face", "0,9"],
    ["hyper", "--support", "{wrong_length}"],
    ["--max-subsets", "0", "toric", "--cone", "{square}"],
    ["hilbert", "--cone", "{rank4_five}"],
    ["toric", "--cone", "{rank4_five}"],
    # the 2 cells pass the cell check, their 5 parallelepiped points do not
    ["--max-subsets", "4", "hilbert", "--cone", "{rank4_five}"],
    # the torus-zero criterion decides plain `hyper` too; --certify changes nothing
    ["hyper", "--support", "{curve}"],
    ["hyper", "--certify", "--support", "{curve}"],
    ["hyper", "--support", "{equality}"],
    # the whole cone as a face keeps the torus factor that plain `toric` reports
    ["toric", "--cone", "{torus_factor}", "--face", "0,1"],
    # a coefficient of 2^63 is written as a decimal string
    ["oracle", "expand", "--support", "{whitney}", "--alpha", "1,1,1", "--m", "2", "--coeffs", "1,9223372036854775808"],
    ["--max-subsets", "0", "oracle", "torus-point", "--support", "{equality}", "--alpha", "2,1,1"],
]


def write_inputs(directory):
    paths = {}
    for name, data in INPUTS.items():
        path = pathlib.Path(directory) / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def run_op(op, paths):
    """(exit code, stdout, stderr) of one op under --seed 0."""
    argv = ["--seed", "0"] + [paths[t[1:-1]] if t.startswith("{") else t for t in op]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"op": op, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_ops_cover_every_command_and_exit_code():
    commands = {op[0] if op[0] != "--max-subsets" else op[2] for op in OPS}
    assert commands == {"toric", "hilbert", "dual", "hyper", "oracle"}
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["op"] for r in recorded] == OPS
    assert {r["exit"] for r in recorded} == {0, 2, 3}


@pytest.mark.parametrize("index", range(len(OPS)), ids=lambda i: " ".join(OPS[i])[:60])
def test_golden_report(index, tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
    assert run_op(OPS[index], write_inputs(tmp_path)) == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        paths = write_inputs(directory)
        records = [run_op(op, paths) for op in OPS]
    previous = {}
    if GOLDEN.exists():
        previous = {json.dumps(r["op"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    for record in records:
        before = previous.get(json.dumps(record["op"]))
        if before != record:
            print(f"{'new' if before is None else 'changed'}: {' '.join(record['op'])}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} reports to {GOLDEN}", file=sys.stderr)
