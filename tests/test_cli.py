import importlib
import io
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mldhat
from mldhat import cones, hypersurface
from mldhat.cli import (
    OPTIONS,
    dump_report,
    load_report,
    main,
    parse_cone_file,
    parse_support_file,
)
from mldhat.cones import ConeError, FaceError
from mldhat.hypersurface import SupportError
from mldhat.lattice import LatticeError, LimitError
from mldhat.oracle import OracleError
from reference_kernels import reference_encode
from test_golden import GOLDEN
from test_golden import OPS as GOLDEN_OPS
from test_golden import run_op, write_inputs
from test_hypersurface import FLAT_FAMILY, regression_supports


NO_OP_FLAGS = {"hyper": "--certify", "toric": "--no-fast-paths"}

# runs mldhat.cli.main on argv under a 1 GB address-space cap, prints the
# seconds main took and exits with its code
CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from mldhat.cli import main
started = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - started)
sys.exit(code)
"""


def run_cli(argv):
    """(exit code, stdout, stderr) of one call of main; a usage error exits by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"lattice_rank": 2, "rays": [[2, -1], [0, 1]]}))
    return str(path)


@pytest.fixture
def orthant_file(tmp_path):
    path = tmp_path / "orthant3.json"
    path.write_text(json.dumps({"lattice_rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    return str(path)


@pytest.fixture
def support_file(tmp_path):
    path = tmp_path / "whitney.json"
    path.write_text(json.dumps({"vars": 3, "support": [[2, 0, 0], [0, 2, 1]]}))
    return str(path)


class TestParsers:
    def test_cone(self, cone_file):
        cone = parse_cone_file(cone_file)
        assert cone.generators == ((0, 1), (2, -1))

    def test_smooth_cone(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [0, 1]]}))
        cone = parse_cone_file(str(path))
        assert cone.generators == ((0, 1), (1, 0))

    def test_non_pointed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [-1, 0]]}))
        with pytest.raises(ConeError):
            parse_cone_file(str(path))

    def test_zero_ray_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[0, 0], [1, 0]]}))
        with pytest.raises(ConeError):
            parse_cone_file(str(path))

    def test_support(self, support_file):
        s = parse_support_file(support_file)
        assert s.num_vars == 3

    def test_curve_support(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(
            json.dumps({"vars": 2, "support": [[2, 0], [0, 2], [1, 1], [0, 3]]})
        )
        s = parse_support_file(str(path))
        assert len(s.exponents) == 4

    def test_origin_in_support_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vars": 3, "support": [[0, 0, 0], [1, 1, 0]]}))
        with pytest.raises(SupportError):
            parse_support_file(str(path))

    @pytest.mark.parametrize("num_vars", [2.0, None, True, "2"])
    def test_vars_must_be_an_integer(self, tmp_path, num_vars):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"vars": num_vars, "support": [[2, 0], [0, 3]]}))
        with pytest.raises(SupportError, match="'vars' must be an integer"):
            parse_support_file(str(path))
        code, out, err = run_cli(["hyper", "--support", str(path)])
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["kind"] == "SupportError"
        assert report["error"] == f"'vars' must be an integer, got {num_vars!r}"

    @pytest.mark.parametrize(
        "parse, what, keys, error",
        [
            (parse_cone_file, "cone", ("lattice_rank", "rays"), ConeError),
            (parse_support_file, "support", ("vars", "support"), SupportError),
        ],
    )
    def test_unreadable_files_refused(self, tmp_path, parse, what, keys, error):
        # one reader opens and decodes both kinds of file, with the same messages
        try:
            json.loads("{")
        except json.JSONDecodeError as exc:
            bad_json = str(exc)
        missing = tmp_path / "missing.json"
        cases = {
            "missing": f"cannot read {what} file: [Errno 2] No such file or directory: {str(missing)!r}",
            "{": f"{what} file is not valid JSON: {bad_json}",
            "[]": f"{what} file needs keys {keys[0]!r} and {keys[1]!r}",
            json.dumps({keys[0]: 2}): f"{what} file needs keys {keys[0]!r} and {keys[1]!r}",
        }
        for text, message in cases.items():
            path = missing
            if text != "missing":
                path = tmp_path / f"{what}.json"
                path.write_text(text)
            with pytest.raises(error) as caught:
                parse(str(path))
            assert str(caught.value) == message
            if error is SupportError:
                assert caught.value.clause == "io"

    @pytest.mark.parametrize(
        "command, option, what, kind",
        [("dual", "--cone", "cone", "ConeError"), ("hyper", "--support", "support", "SupportError")],
    )
    @pytest.mark.parametrize(
        "data, reason",
        [
            (b'{"lattice_rank": 1, "rays": [[%s]], "vars": 1, "support": [[%s]]}' % (b"1" * 5000, b"1" * 5000),
             "Exceeds the limit (4300 digits)"),
            (b"\xff", "'utf-8' codec can't decode"),
        ],
        ids=["5000-digit-integer", "not-utf-8"],
    )
    def test_undecodable_files_refused(self, tmp_path, command, option, what, kind, data, reason):
        # json.load raises both as a plain ValueError, not a JSONDecodeError
        path = tmp_path / f"{what}.json"
        path.write_bytes(data)
        code, out, err = run_cli([command, option, str(path)])
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["kind"] == kind
        assert report["error"].startswith(f"{what} file is not valid JSON: {reason}")


class TestCommands:
    def test_toric(self, cone_file):
        code, out, _ = run_cli(["toric", "--cone", cone_file])
        assert code == 0
        report = json.loads(out)
        assert report["variety_kind"] == "toric"
        assert report["lambda"] == 0
        assert report["mather_mld"] == 2

    def test_hyper_certify(self, support_file):
        code, out, _ = run_cli(
            ["--seed", "5", "hyper", "--support", support_file, "--certify"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["lambda_lower_bound"] == 1
        assert report["mather_mld_lower_bound"] == 3
        assert report["status"] == "EXACT"
        assert report["timings"] is None

    def test_hilbert(self, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [1, 2]]}))
        code, out, _ = run_cli(["hilbert", "--cone", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["elements"] == [[1, 0], [1, 1], [1, 2]]

    def test_dual(self, cone_file):
        code, out, _ = run_cli(["dual", "--cone", cone_file])
        assert code == 0
        report = json.loads(out)
        assert report["dual_rays"] == [[1, 0], [1, 2]]

    def test_oracle_staircase(self, support_file):
        code, out, _ = run_cli(
            ["--seed", "3", "oracle", "staircase", "--support", support_file,
             "--alpha", "2,1,2", "--m", "8", "--prime", "10007", "--trials", "50"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["estimated_dim"] == 15
        assert report["successes"] >= 45

    def test_oracle_torus_point(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(
            json.dumps({"vars": 2, "support": [[2, 0], [0, 2], [1, 1], [0, 3]]})
        )
        code, out, _ = run_cli(
            ["--seed", "3", "oracle", "torus-point", "--support", str(path),
             "--alpha", "1,1", "--prime", "101", "--trials", "40"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["witness"] is not None

    def test_oracle_expand(self, support_file):
        code, out, _ = run_cli(
            ["oracle", "expand", "--support", support_file, "--alpha", "2,1,2",
             "--m", "4"]
        )
        assert code == 0
        report = json.loads(out)
        assert "4" in report["terms"]
        assert len(report["terms"]["4"]) == 2

    def test_face_by_functional(self, cone_file):
        code, out, _ = run_cli(
            ["toric", "--cone", cone_file, "--face-functional", "1,0"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["lambda"] == 0
        assert report["diagnostics"]["face_reduced_from"] == [0]

    def test_validation_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [-1, 0]]}))
        code, out, err = run_cli(["toric", "--cone", str(path)])
        assert code == 2
        assert "error" in json.loads(err)

    def test_input_errors_are_value_errors(self):
        # main maps ValueError to exit 2 and LimitError to exit 3
        for error in (ConeError, FaceError, SupportError, LatticeError, OracleError):
            assert issubclass(error, ValueError), error
        assert not issubclass(LimitError, ValueError)

    def test_limit_exit_code(self, cone_file):
        code, _, err = run_cli(
            ["--max-subsets", "1", "toric", "--cone", cone_file]
        )
        assert code == 3
        assert "error" in json.loads(err)

    def test_hyper_limit_exit_code(self, support_file):
        code, _, err = run_cli(["--max-subsets", "1", "hyper", "--support", support_file])
        assert code == 3
        assert json.loads(err)["kind"] == "LimitError"

    def test_hyper_limit_ignores_the_exponent_size(self, tmp_path):
        # layer 0 of a two-monomial scan takes up to 4 evaluations, however
        # large the exponents
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"vars": 2, "support": [[10000000, 0], [0, 1]]}))
        argv = ["--seed", "0", "hyper", "--support", str(path)]
        limited = run_cli(["--max-subsets", "1000000", *argv])
        assert limited[0] == 0
        assert limited == run_cli(argv)

    @pytest.mark.parametrize("entry", [2.9, True])
    def test_non_integer_exponent_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vars": 3, "support": [[entry, 0, 0], [0, 2, 1]]}))
        code, out, err = run_cli(["hyper", "--support", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "SupportError"

    @pytest.mark.parametrize("rays", [[[2.7, -1], [1, 1]], [[2, -1], [True, 1]], [[2, -1], ["1", 1]]])
    def test_non_integer_ray_rejected(self, tmp_path, rays):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": rays}))
        code, out, err = run_cli(["dual", "--cone", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "LatticeError"

    def test_non_list_ray_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [1, 2]}))
        code, out, err = run_cli(["dual", "--cone", str(path)])
        assert code == 2
        assert json.loads(err)["kind"] == "ConeError"

    def test_empty_exponent_vectors_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vars": 0, "support": [[], []]}))
        code, out, err = run_cli(["hyper", "--support", str(path)])
        assert code == 2
        assert out == ""
        report = json.loads(err)
        assert report["kind"] == "SupportError"
        assert "no entries" in report["error"]

    @pytest.mark.parametrize("command", ["staircase", "expand"])
    def test_oracle_limit_exit_code(self, tmp_path, command):
        # millions of window monomials at m = 240: refused before any expansion
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"vars": 3, "support": [[2, 0, 0], [0, 2, 1], [0, 0, 3]]}))
        argv = ["oracle", command, "--support", str(path), "--alpha", "2,1,2", "--m", "240"]
        started = time.perf_counter()
        code, out, err = run_cli(["--max-subsets", "10", *argv])
        assert time.perf_counter() - started < 5.0
        assert code == 3
        assert out == ""
        report = json.loads(err)
        assert report["kind"] == "LimitError"
        assert report["error"].startswith(f"oracle {command}: up to ")

    @pytest.mark.parametrize(
        "command, rows, alpha, m",
        [
            ("staircase", [[2, 0, 0], [0, 2, 1]], "2,1,2", 10**20),
            ("expand", [[2, 0, 0], [0, 2, 1]], "2,1,2", 10**20),
            ("staircase", [[10**8, 0], [0, 1]], f"1,{10**8}", 2 * 10**8),
            ("expand", [[10**8, 0], [0, 1]], "1,1", 2 * 10**8),
        ],
        ids=["staircase-whitney", "expand-whitney", "staircase-exponent", "expand-exponent"],
    )
    def test_oracle_window_past_sys_maxsize_without_a_limit(self, tmp_path, command, rows, alpha, m):
        # the Whitney umbrella at m = 10^20, and x^(10^8) with 10^8 orders of
        # slack, whose count would take minutes to compute: no list can hold
        # the window, so the guard trips with no --max-subsets before the
        # count is finished.  The command runs in a child capped at 1 GB of
        # address space and 30 s, so that a missing guard fails instead of
        # growing until the machine runs out
        path = tmp_path / "support.json"
        path.write_text(json.dumps({"vars": len(rows[0]), "support": rows}))
        argv = ["oracle", command, "--support", str(path), "--alpha", alpha, "--m", str(m)]
        child = subprocess.run(
            [sys.executable, "-c", CAPPED_MAIN, *argv],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(mldhat.__file__).parent.parent)},
        )
        assert child.returncode == 3, child.stderr
        assert float(child.stdout) < 1.0
        report = json.loads(child.stderr)
        assert report["kind"] == "LimitError"
        assert report["error"].startswith(f"oracle {command}: over 2^63 window monomials ")
        assert report["error"].endswith(f"exceed the limit ({sys.maxsize})")

    @pytest.mark.parametrize(
        "command, stage, points",
        [("hilbert", "hilbert parallelepiped points", 2**70), ("toric", "toric candidates", 4 * 2**70)],
        ids=["hilbert", "toric"],
    )
    def test_cell_walk_past_sys_maxsize_without_a_limit(self, tmp_path, command, stage, points):
        # one cell of |det T| = 2^70: no list can hold its walk, so the guard
        # trips with no --max-subsets before the walk is built.  The command
        # runs in a child capped like the oracle windows above
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [1, 2**70]]}))
        child = subprocess.run(
            [sys.executable, "-c", CAPPED_MAIN, command, "--cone", str(path)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(mldhat.__file__).parent.parent)},
        )
        assert child.returncode == 3, child.stderr
        assert float(child.stdout) < 1.0
        report = json.loads(child.stderr)
        assert report == {
            "error": f"{stage}: about {points} points exceed the limit ({sys.maxsize})",
            "kind": "LimitError",
        }

    @pytest.mark.parametrize("command", ["staircase", "expand"])
    def test_oracle_under_limit_unchanged(self, support_file, command):
        argv = ["--seed", "1", "oracle", command, "--support", support_file, "--alpha", "2,1,2", "--m", "5"]
        assert run_cli(["--max-subsets", "100000", *argv]) == run_cli(argv)

    def test_torus_point_limit_exit_code(self, tmp_path):
        # degree 3000 in the solve variable: about 1.8 s a trial, refused before any draw
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"vars": 2, "support": [[3000, 0], [0, 3001]]}))
        argv = ["oracle", "torus-point", "--support", str(path), "--alpha", "3001,3000"]
        started = time.perf_counter()
        code, out, err = run_cli(["--max-subsets", "1000000", *argv])
        assert time.perf_counter() - started < 5.0
        assert code == 3
        assert out == ""
        report = json.loads(err)
        assert report["kind"] == "LimitError"
        assert report["error"].startswith(
            "oracle torus-point: up to 6300000000 root-finding steps (50 trials, degree 3000, 14-bit prime)"
        )

    def test_torus_point_past_sys_maxsize_without_a_limit(self, tmp_path):
        # the criterion fails on this support, so no trial can succeed: with
        # 10^24 trials and no --max-subsets the steps pass sys.maxsize, and
        # the guard trips before any draw.  The command runs in a child
        # capped like the oracle windows above, so that a missing guard
        # fails by timeout instead of looping
        path = tmp_path / "support.json"
        path.write_text(json.dumps({"vars": 4, "support": [[0, 2, 1, 3], [0, 3, 0, 0], [3, 0, 2, 0], [3, 0, 0, 2]]}))
        argv = ["oracle", "torus-point", "--support", str(path), "--alpha", "1,2,1,1", "--trials", str(10**24)]
        child = subprocess.run(
            [sys.executable, "-c", CAPPED_MAIN, *argv],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(mldhat.__file__).parent.parent)},
        )
        assert child.returncode == 3, child.stderr
        assert float(child.stdout) < 1.0
        report = json.loads(child.stderr)
        assert report["kind"] == "LimitError"
        assert report["error"].startswith(f"oracle torus-point: up to {56 * 10**24} root-finding steps ")
        assert report["error"].endswith("exceed the limit (9223372036854775807)")

    def test_torus_point_under_limit_unchanged(self, support_file):
        argv = ["--seed", "1", "oracle", "torus-point", "--support", support_file, "--alpha", "2,1,2"]
        assert run_cli(["--max-subsets", "100000", *argv]) == run_cli(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilbert", "--cone", "{cone}"],
            ["toric", "--cone", "{cone}"],
            ["hyper", "--support", "{support}"],
            ["oracle", "expand", "--support", "{support}", "--alpha", "2,1,2", "--m", "4"],
            ["oracle", "staircase", "--support", "{support}", "--alpha", "2,1,2", "--m", "4"],
            ["oracle", "torus-point", "--support", "{support}", "--alpha", "2,1,2"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_every_guarded_command_trips_at_zero(self, cone_file, support_file, argv):
        # the README: N = 0 trips at the first stage
        argv = [a.format(cone=cone_file, support=support_file) for a in argv]
        code, out, err = run_cli(["--seed", "0", "--max-subsets", "0", *argv])
        assert code == 3
        assert out == ""
        report = json.loads(err)
        assert report["kind"] == "LimitError"
        assert report["error"].endswith("(0)")

    def test_hilbert_limit_exit_code(self, tmp_path):
        # 200000 parallelepiped points: the guard trips before building any
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"lattice_rank": 2, "rays": [[1, 0], [1, 200000]]}))
        started = time.perf_counter()
        code, out, err = run_cli(["--max-subsets", "10", "hilbert", "--cone", str(path)])
        assert time.perf_counter() - started < 5.0
        assert code == 3
        assert out == ""
        report = json.loads(err)
        assert report["kind"] == "LimitError"
        assert "hilbert parallelepiped points" in report["error"]

    def test_box_bound_is_refused(self, support_file, cone_file):
        # the hypersurface scan has one exact mode, and the parser knows no cap
        for argv in (
            ["--box-bound", "3", "hyper", "--support", support_file],
            ["--box-bound", "3", "toric", "--cone", cone_file],
        ):
            with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("face", ["0,,1", "0,0", ",", "0,", "a", " 1"])
    def test_malformed_face_rejected(self, orthant_file, face):
        # the option table refuses what is not a list of indices; a repeated
        # index is a list of indices, and the face check refuses it
        code, out, err = run_cli(["--seed", "0", "toric", "--cone", orthant_file, "--face", face])
        assert code == 2
        assert out == ""
        if face == "0,0":
            assert json.loads(err) == {"error": "ray indices repeat in [0, 0]", "kind": "FaceError"}
        else:
            assert err == f"mldhat: error: --face: expected comma-separated ray indices, got {face!r}\n"

    def test_zero_face(self, orthant_file):
        code, out, _ = run_cli(["--seed", "0", "toric", "--cone", orthant_file, "--face", ""])
        assert code == 0
        report = json.loads(out)
        assert report["diagnostics"]["face_reduced_from"] == []
        assert report["lambda"] == 0

    def test_face_indices_in_any_order(self, orthant_file):
        argv = ["--seed", "0", "toric", "--cone", orthant_file, "--face"]
        code, out, _ = run_cli(argv + ["1,0"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["face_reduced_from"] == [0, 1]
        assert (code, out) == run_cli(argv + ["0,1"])[:2]

    # digit separators, plus signs, surrounding spaces, non-ASCII digits
    # (Arabic-Indic one, fullwidth two) and empty entries
    NOT_INTEGERS = ["1_0", "+1", " 1", "1 ", "\u0661", "\uff12", ""]

    @pytest.mark.parametrize("functional", ["1_0, 0,+1", *(f"{e},0,1" for e in NOT_INTEGERS)])
    def test_face_functional_entries_are_strict(self, orthant_file, functional):
        # refused by the option table, as the tuple options of `oracle` are
        argv = ["--seed", "0", "toric", "--cone", orthant_file, "--face-functional", functional]
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("mldhat: error: --face-functional: expected an integer, got ")

    @pytest.mark.parametrize("entry", NOT_INTEGERS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "staircase", "--alpha", "2,{},2", "--m", "4"],
            ["oracle", "torus-point", "--alpha", "{},1,2"],
            ["oracle", "expand", "--alpha", "2,1,{}", "--m", "4"],
            ["oracle", "expand", "--alpha", "2,1,2", "--m", "4", "--coeffs", "1,{}"],
        ],
    )
    def test_tuple_entries_are_strict(self, support_file, argv, entry):
        argv = [a.format(entry) for a in argv] + ["--support", support_file]
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(["--seed", "0", *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("entry", NOT_INTEGERS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "{}", "toric"],
            ["--max-subsets", "{}", "toric"],
            ["--seed", "{}", "hyper"],
            ["--max-subsets", "{}", "hyper"],
            ["oracle", "staircase", "--alpha", "2,1,2", "--m", "{}"],
            ["oracle", "staircase", "--alpha", "2,1,2", "--m", "4", "--prime", "{}"],
            ["oracle", "staircase", "--alpha", "2,1,2", "--m", "4", "--trials", "{}"],
            ["oracle", "torus-point", "--alpha", "2,1,2", "--prime", "{}"],
            ["oracle", "torus-point", "--alpha", "2,1,2", "--trials", "{}"],
            ["oracle", "expand", "--alpha", "2,1,2", "--m", "{}"],
            ["oracle", "expand", "--alpha", "2,1,2", "--m", "4", "--prime", "{}"],
        ],
    )
    def test_integer_options_are_strict(self, support_file, cone_file, argv, entry):
        argv = [a.format(entry) for a in argv]
        argv += ["--cone", cone_file] if "toric" in argv else ["--support", support_file]
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["-5", "-1"])
    def test_negative_max_subsets_rejected(self, cone_file, value):
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stderr(err):
            main(["--max-subsets", value, "toric", "--cone", cone_file])
        assert exc.value.code == 2
        assert "nonnegative" in err.getvalue()

    def test_zero_max_subsets_is_a_limit(self, cone_file):
        code, out, err = run_cli(["--seed", "0", "--max-subsets", "0", "toric", "--cone", cone_file])
        assert code == 3
        assert json.loads(err)["kind"] == "LimitError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["toric", "--cone", "{cone}", "--face-func", "-1,0,0"],
            ["toric", "--cone", "{cone}", "--face-func=-1,0,0"],
            ["toric", "--cone", "{cone}", "--face-func", "1,0,0"],
            ["oracle", "expand", "--support", "{support}", "--alpha", "2,1,2", "--m", "4",
             "--coef", "-1,3"],
            ["oracle", "expand", "--support", "{support}", "--alpha", "2,1,2", "--m", "4",
             "--coef=-1,3"],
            ["--max-sub", "5", "toric", "--cone", "{cone}"],
            ["hyper", "--support", "{support}", "--cert"],
            ["dual", "--con", "{cone}"],
        ],
    )
    def test_abbreviated_options_rejected(self, orthant_file, support_file, argv):
        argv = [a.format(cone=orthant_file, support=support_file) for a in argv]
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(["--seed", "0", *argv])
        assert exc.value.code == 2

    def test_strict_integers_keep_signed_decimals(self, support_file, orthant_file):
        code, out, _ = run_cli(
            ["--seed", "-3", "toric", "--cone", orthant_file, "--face-functional", "1,0,01"]
        )
        assert code == 0
        assert json.loads(out)["diagnostics"]["face_reduced_from"] == [1]
        code, out, _ = run_cli(
            ["oracle", "expand", "--support", support_file, "--alpha", "2,1,2",
             "--m", "4", "--coeffs=-1,3", "--prime", "7"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (["--face-functional", "-1,0,0"], ["--face-functional=-1,0,0"]),
            (["--face-functional", "-1,0,-0"], ["--face-functional=-1,0,-0"]),
            (["--face-functional", "-1,x"], ["--face-functional=-1,x"]),
        ],
    )
    def test_negative_face_functional_spellings_agree(self, tmp_path, spaced, joined):
        # (-1, 0, 0) is in the dual and cuts out the face of rays 1 and 2
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": 3, "rays": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        argv = ["--seed", "0", "toric", "--cone", str(path)]
        result = run_cli(argv + spaced)
        assert result == run_cli(argv + joined)
        if spaced[1] != "-1,x":
            assert result[0] == 0
            assert json.loads(result[1])["diagnostics"]["face_reduced_from"] == [1, 2]
        else:
            assert result[0] == 2

    def test_negative_tuple_spellings_agree(self, support_file):
        for tail in (
            ["expand", "--support", support_file, "--alpha", "2,1,2", "--m", "4",
             "--prime", "7", "--coeffs", "{}"],
            ["expand", "--support", support_file, "--m", "4", "--alpha", "{}"],
            ["staircase", "--support", support_file, "--m", "4", "--alpha", "{}"],
            ["torus-point", "--support", support_file, "--alpha", "{}"],
        ):
            value = "-1,3" if "--coeffs" in tail else "-2,1,2"
            spaced = [t.format(value) for t in tail]
            joined = tail[:-2] + [f"{tail[-2]}={value}"]
            result = run_cli(["--seed", "0", "oracle", *spaced])
            assert result == run_cli(["--seed", "0", "oracle", *joined])
            assert result[0] == (0 if "--coeffs" in tail else 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["toric", "--face-functional", "--cone", "{cone}"],
            ["toric", "--cone", "{cone}", "--face-functional"],
            ["oracle", "expand", "--support", "{support}", "--m", "4", "--alpha", "--coeffs", "1,1"],
            ["dual", "--cone", "--max-subsets", "5"],
            ["dual", "--cone=--x"],
        ],
    )
    def test_missing_tuple_value_still_rejected(self, cone_file, support_file, argv):
        argv = [a.format(cone=cone_file, support=support_file) for a in argv]
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["hyper", "--support", "{support}", "--certify=yes"],
            ["toric", "--cone", "{cone}", "--no-fast-paths="],
            ["toric", "--seed", "1", "--cone", "{cone}"],
            ["toric", "--cone", "{cone}", "--max-subsets", "5"],
            ["oracle", "--seed", "1", "expand", "--support", "{support}", "--alpha", "2,1,2", "--m", "4"],
            ["--seed", "1"],
            [],
            ["oracle"],
            ["oracle", "stairs", "--support", "{support}"],
            ["toric", "--cone", "{cone}", "stray"],
            ["dual", "stray", "--cone", "{cone}"],
            ["dual", "--cone", "{cone}", "-x"],
            ["toric"],
            ["oracle", "staircase", "--support", "{support}", "--alpha", "2,1,2"],
            ["oracle", "expand", "--support", "{support}", "--m", "4"],
        ],
        ids=lambda argv: " ".join(argv) or "empty",
    )
    def test_malformed_arguments_rejected(self, cone_file, support_file, argv):
        # switches with values, global options after the command, no command,
        # stray tokens and missing options
        argv = [a.format(cone=cone_file, support=support_file) for a in argv]
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stderr(err):
            main(argv)
        assert exc.value.code == 2
        assert err.getvalue().startswith("mldhat: error: ")

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    @pytest.mark.parametrize("before", [[], ["--seed", "0"], ["oracle"], ["toric", "--cone", "x.json"]])
    def test_help_names_every_command_and_option(self, flag, before):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stdout(out):
            main([*before, flag])
        assert exc.value.code == 0
        text = out.getvalue()
        assert text.startswith("usage: mldhat [global options] command [options]")
        for command, (_, options) in OPTIONS.items():
            line = next(line for line in text.splitlines() if line.startswith(f"  {command or '(global options)'}  "))
            assert set(options) <= set(re.findall(r"--[a-z-]+", line)), line

    def test_repeated_option_keeps_its_last_value(self, orthant_file, cone_file, tmp_path):
        missing = str(tmp_path / "missing.json")
        toric = ["--seed", "0", "toric", "--cone", orthant_file]
        last = run_cli(toric + ["--face", "1,2"])
        assert last != run_cli(toric + ["--face", "0"])
        assert run_cli(toric + ["--face", "0", "--face", "1,2"]) == last
        assert run_cli(["--seed", "1", "--seed", "0", "dual", "--cone", missing, "--cone", cone_file]) == (
            run_cli(["--seed", "0", "dual", "--cone", cone_file])
        )

    def test_value_may_start_with_a_single_dash(self, monkeypatch, tmp_path, cone_file):
        # a file named -c.json is a value, not an option
        (tmp_path / "-c.json").write_text(pathlib.Path(cone_file).read_text())
        monkeypatch.chdir(tmp_path)
        result = run_cli(["--seed", "0", "dual", "--cone", "-c.json"])
        assert result[0] == 0
        assert result == run_cli(["--seed", "0", "dual", "--cone", cone_file])
        assert result == run_cli(["--seed", "0", "dual", "--cone=-c.json"])

    def test_console_entry(self, cone_file):
        # `python -m mldhat.cli` reads sys.argv and ends in sys.exit(main())
        def child(*argv):
            return subprocess.run(
                [sys.executable, "-m", "mldhat.cli", *argv], capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(pathlib.Path(mldhat.__file__).parent.parent)},
            )

        shown = child("--help")
        assert shown.returncode == 0
        assert all(command in shown.stdout for command in OPTIONS)
        refused = child("toric", "--seed", "1")
        assert refused.returncode == 2
        assert refused.stdout == ""
        assert refused.stderr.startswith("mldhat: error: ")
        argv = ["--seed", "0", "dual", "--cone", cone_file]
        answered = child(*argv)
        assert (answered.returncode, answered.stdout, answered.stderr) == run_cli(argv)

    def test_rank_tests_limit_exit_code(self, tmp_path):
        # the rank-4 moment cone: its 27 cells pass a limit of 1000, their
        # points do not
        path = tmp_path / "moment.json"
        rays = [[1, i, i**2, i**3] for i in range(30)]
        path.write_text(json.dumps({"lattice_rank": 4, "rays": rays}))
        for limit, message in (
            ("1000", "hilbert parallelepiped points: about 19709676 points exceed the limit (1000)"),
            ("26", "hilbert parallelepiped points: cell 27 of the triangulation exceeds the limit (26)"),
        ):
            started = time.perf_counter()
            code, out, err = run_cli(["--max-subsets", limit, "hilbert", "--cone", str(path)])
            assert time.perf_counter() - started < 5.0
            assert code == 3
            assert out == ""
            report = json.loads(err)
            assert report["kind"] == "LimitError"
            assert report["error"] == message

    def test_toric_report_is_exact(self, cone_file):
        code, out, _ = run_cli(["--seed", "0", "toric", "--cone", cone_file])
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "EXACT"
        assert "search_bound_used" not in report["diagnostics"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "staircase", "--alpha", "2,1,2", "--m", "6", "--trials", "-1"],
            ["oracle", "staircase", "--alpha", "2,1,2", "--m", "6", "--trials", "0"],
            ["oracle", "torus-point", "--alpha", "2,1,2", "--trials", "0"],
            ["oracle", "torus-point", "--alpha", "2,1,2", "--trials", "-1"],
        ],
    )
    def test_non_positive_trials_rejected(self, support_file, argv):
        code, out, err = run_cli(["--seed", "0", *argv, "--support", support_file])
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "OracleError"

    @pytest.mark.parametrize(
        "argv, alpha",
        [
            # the staircase cases keep their bare ids
            pytest.param(argv, alpha, id=alpha if argv[0] == "staircase" else f"{argv[0]}-{alpha}")
            for argv in (["staircase", "--m", "4"], ["torus-point"], ["expand", "--m", "4"])
            for alpha in ("2,1", "2,0,2", "2,1,2,1")
        ],
    )
    def test_staircase_rejects_wrong_alpha(self, support_file, argv, alpha):
        # every oracle command checks --alpha by the same rule
        code, out, err = run_cli(["oracle", *argv, "--support", support_file, "--alpha", alpha])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "alpha must list a positive order for every variable",
            "kind": "OracleError",
        }

    def test_expand_rejects_composite_prime(self, support_file):
        code, out, err = run_cli(
            ["oracle", "expand", "--support", support_file, "--alpha", "2,1,2",
             "--m", "4", "--prime", "4"]
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "OracleError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["staircase", "--alpha", "2,1,2", "--m", "4"],
            ["torus-point", "--alpha", "2,1,2"],
            ["expand", "--alpha", "2,1,2", "--m", "4"],
        ],
    )
    def test_rejects_strong_pseudoprime_to_all_bases(self, support_file, argv):
        # 399165290221 * 798330580441 passes Miller-Rabin on every base 2, ..., 37
        psi12 = "318665857834031151167461"
        code, out, err = run_cli(["oracle", *argv, "--support", support_file, "--prime", psi12])
        assert code == 2
        assert out == ""
        report = json.loads(err)
        assert report["kind"] == "OracleError"
        assert psi12 in report["error"]

    def test_expand_huge_exponent(self, tmp_path):
        # the t-series of x^e is empty past t^m once e * alpha > m
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vars": 2, "support": [[10**20, 0], [0, 1]]}))
        started = time.perf_counter()
        code, out, _ = run_cli(["oracle", "expand", "--support", str(path), "--alpha", "1,1", "--m", "2"])
        assert time.perf_counter() - started < 5.0
        assert code == 0
        assert json.loads(out)["terms"] == {"1": [{"coefficient": 1, "monomial": [[1, 1, 1]]}],
                                            "2": [{"coefficient": 1, "monomial": [[1, 2, 1]]}]}

    def test_torus_point_huge_exponent(self, tmp_path):
        # the form is evaluated with modular powers, never x**(10**7) exactly
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vars": 2, "support": [[10**7, 0], [0, 1]]}))
        started = time.perf_counter()
        code, out, _ = run_cli(
            ["--seed", "0", "oracle", "torus-point", "--support", str(path), "--alpha", "1,10000000"]
        )
        assert time.perf_counter() - started < 10.0
        assert code == 0
        assert json.loads(out)["witness"]["trials_used"] == 1

    def test_staircase_large_prime(self, tmp_path):
        path = tmp_path / "a2.json"
        path.write_text(json.dumps({"vars": 3, "support": [[3, 0, 0], [0, 2, 0], [0, 0, 2]]}))
        started = time.perf_counter()
        code, out, _ = run_cli(
            ["--seed", "0", "oracle", "staircase", "--support", str(path),
             "--alpha", "1,1,1", "--m", "3", "--prime", "2147483647", "--trials", "1"]
        )
        assert time.perf_counter() - started < 5.0
        assert code == 0
        assert json.loads(out)["trials"] == 1

    def test_determinism_with_seed(self, support_file, cone_file):
        for argv in (
            ["--seed", "11", "hyper", "--support", support_file, "--certify"],
            ["--seed", "11", "toric", "--cone", cone_file],
        ):
            _, first, _ = run_cli(argv)
            _, second, _ = run_cli(argv)
            assert first == second

    @pytest.mark.parametrize("option", ["--oracle-prime", "--oracle-trials"])
    def test_hyper_has_no_sampler_options(self, support_file, option):
        # the certificate is exact, so hyper takes no prime or trial count
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(["hyper", "--support", support_file, "--certify", option, "10007"])
        assert exc.value.code == 2

    def test_refused_argv_leaves_later_calls_unchanged(self, support_file, cone_file):
        # parsing keeps no state between calls: a refusal changes no later report
        hyper = ["--seed", "0", "hyper", "--support", support_file, "--certify"]
        code, first, _ = run_cli(hyper)
        assert code == 0
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(["toric", "--cone", cone_file, "--no-such-flag"])
        assert exc.value.code == 2
        assert run_cli(["--seed", "0", "toric", "--cone", cone_file])[0] == 0
        code, second, _ = run_cli(hyper)
        assert code == 0
        assert first == second

    @pytest.mark.parametrize(
        "rays",
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[2, -1], [0, 1]],
            [[1, 0, 0], [0, 1, 0], [1, 2, 5]],
        ],
        ids=["smooth-orthant", "surface", "simplicial-isolated"],
    )
    def test_no_fast_paths_flag_has_no_effect(self, tmp_path, rays):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": len(rays[0]), "rays": rays}))
        argv = ["--seed", "0", "toric", "--cone", str(path)]
        plain = run_cli(argv)
        flagged = run_cli(argv + ["--no-fast-paths"])
        assert plain[0] == 0
        assert plain == flagged

    @pytest.mark.parametrize(
        "op", [op for op in GOLDEN_OPS if op[0] in NO_OP_FLAGS], ids=lambda op: " ".join(op)[:60]
    )
    def test_no_op_flags_on_golden_inputs(self, tmp_path, op):
        # `hyper --certify` and `toric --no-fast-paths` are accepted and ignored
        flag = NO_OP_FLAGS[op[0]]
        plain = [t for t in op if t != flag]
        paths = write_inputs(tmp_path)
        without, with_flag = run_op(plain, paths), run_op(plain + [flag], paths)
        del without["op"], with_flag["op"]
        assert without == with_flag


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
ENTRIES = st.integers(0, 3) | JSON_LEAVES
SUPPORT_FILES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {
            "vars": st.integers(-1, 4) | JSON_LEAVES,
            "support": st.lists(st.lists(ENTRIES, max_size=4), max_size=4) | JSON_VALUES,
        }
    ),
    st.integers(1, 3).flatmap(
        lambda nv: st.fixed_dictionaries(
            {
                "vars": st.just(nv),
                "support": st.lists(
                    st.lists(st.integers(0, 3), min_size=nv, max_size=nv), min_size=1, max_size=4
                ),
            }
        )
    ),
)


def assert_refused(argv, error, kind):
    """The command exits 2 with nothing on stdout and exactly this error."""
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": error, "kind": kind}


class TestRefusals:
    """Input refusals that no other test reaches, each with its exit 2 and message."""

    def test_face_and_face_functional_together(self, orthant_file):
        argv = ["toric", "--cone", orthant_file, "--face", "0", "--face-functional", "1,0"]
        assert_refused(argv, "give at most one of --face and --face-functional", "ValueError")

    @pytest.mark.parametrize(
        "data, error",
        [
            ({"lattice_rank": "2", "rays": [[1, 0]]},
             "'lattice_rank' must be an integer and 'rays' a list"),
            ({"lattice_rank": 2, "rays": {"a": 1}},
             "'lattice_rank' must be an integer and 'rays' a list"),
            ({"lattice_rank": 0, "rays": [[1, 0]]}, "ambient rank must be positive"),
            ({"lattice_rank": 2, "rays": []}, "a cone needs at least one generator"),
        ],
        ids=["string-rank", "dict-rays", "zero-rank", "no-rays"],
    )
    def test_malformed_cone_file(self, tmp_path, data, error):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(data))
        assert_refused(["toric", "--cone", str(path)], error, "ConeError")

    @pytest.mark.parametrize(
        "options, error",
        [
            (["--coeffs", "1"], "one coefficient per support monomial is required"),
            (["--coeffs", "0,1"], "coefficients must be nonzero in the field"),
            (["--prime", "101", "--coeffs", "101,1"], "coefficients must be nonzero in the field"),
        ],
        ids=["too-few", "zero", "zero-mod-prime"],
    )
    def test_bad_expand_coefficients(self, support_file, options, error):
        argv = ["oracle", "expand", "--support", support_file, "--alpha", "2,1,2", "--m", "4"]
        assert_refused(argv + options, error, "OracleError")

    @pytest.mark.parametrize(
        "command, option, what, kind",
        [("toric", "--cone", "cone", "ConeError"), ("hyper", "--support", "support", "SupportError")],
        ids=["cone", "support"],
    )
    def test_deeply_nested_file(self, tmp_path, command, option, what, kind):
        # json.load raises RecursionError, not a ValueError, on a nest this deep
        path = tmp_path / f"{what}.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli([command, option, str(path)])
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["kind"] == kind
        assert report["error"].startswith(f"{what} file is not valid JSON: maximum recursion depth exceeded")


class TestDualDescriptionCalls:
    """A cone read from a file and its dual cost one double description."""

    @staticmethod
    def count_calls(monkeypatch, argv):
        calls = []
        original = cones.dual_description

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cones, "dual_description", counted)
        code, _, _ = run_cli(["--seed", "0", *argv])
        assert code == 0
        return len(calls)

    @pytest.mark.parametrize(
        "rays",
        [
            [[2, -1], [0, 1]],
            [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
            [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, 1, 2]],
        ],
        ids=["wedge", "square", "square-with-interior-ray"],
    )
    @pytest.mark.parametrize("command", ["dual", "hilbert", "toric"])
    def test_one_call_per_op(self, monkeypatch, tmp_path, rays, command):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": len(rays[0]), "rays": rays}))
        assert self.count_calls(monkeypatch, [command, "--cone", str(path)]) == 1

    @pytest.mark.parametrize(
        "rays, face",
        [
            ([[2, -1], [0, 1]], "0"),
            ([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]], "0,1"),
            ([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, 1, 2]], "3"),
        ],
        ids=["wedge-ray", "square-facet", "square-with-interior-ray-ray"],
    )
    def test_two_calls_per_face_op(self, monkeypatch, tmp_path, rays, face):
        # one for the cone, one for the face in the lattice it spans
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": len(rays[0]), "rays": rays}))
        assert self.count_calls(monkeypatch, ["toric", "--cone", str(path), "--face", face]) == 2


class TestOneCheckOneEvaluation:
    """An op checks its order tuple with `_as_alpha` and evaluates it with
    `_evaluate` at most once, counted through every mldhat module that binds
    either name: each certificate step reads the record the step before it made."""

    @staticmethod
    def counters(monkeypatch):
        """Wrap `_as_alpha` and `_evaluate` wherever mldhat binds them; returns their call counts."""
        calls = Counter()
        modules = [importlib.import_module(f"mldhat.{info.name}") for info in pkgutil.iter_modules(mldhat.__path__)]
        for name in ("_as_alpha", "_evaluate"):
            original = getattr(hypersurface, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_hyper_checks_no_tuple(self, monkeypatch, tmp_path):
        calls = self.counters(monkeypatch)
        scan = hypersurface.minimize_objective

        def counted_scan(*args, **kwargs):
            before = calls["_evaluate"]
            result = scan(*args, **kwargs)
            calls["scan"] += calls["_evaluate"] - before
            return result

        monkeypatch.setattr(hypersurface, "minimize_objective", counted_scan)
        supports = [s for s, _ in regression_supports()[::30]] + FLAT_FAMILY
        for i, s in enumerate(supports):
            path = tmp_path / f"support{i}.json"
            path.write_text(json.dumps({"vars": s.num_vars, "support": s.exponents}))
            calls.clear()
            code, _, _ = run_cli(["hyper", "--support", str(path)])
            assert code == 0
            assert calls["_evaluate"] == calls["scan"] > 0 and calls["_as_alpha"] == 0, s.exponents

    @pytest.mark.parametrize("alpha", ["2,1,2", "1,1,1"], ids=["feasible", "infeasible"])
    def test_staircase_evaluates_once(self, monkeypatch, support_file, alpha):
        calls = self.counters(monkeypatch)
        argv = ["oracle", "staircase", "--support", support_file, "--alpha", alpha, "--m", "4", "--trials", "5"]
        code, _, _ = run_cli(["--seed", "0", *argv])
        assert code == 0
        assert calls == {"_evaluate": 1}

    def test_torus_point_checks_and_evaluates_once(self, monkeypatch, support_file):
        calls = self.counters(monkeypatch)
        argv = ["oracle", "torus-point", "--support", support_file, "--alpha", "2,1,2", "--trials", "5"]
        code, _, _ = run_cli(["--seed", "0", *argv])
        assert code == 0
        assert calls == {"_as_alpha": 1, "_evaluate": 1}

    def test_torus_point_refuses_an_infeasible_tuple(self, monkeypatch, support_file):
        calls = self.counters(monkeypatch)
        code, _, err = run_cli(["oracle", "torus-point", "--support", support_file, "--alpha", "1,1,1"])
        assert code == 2
        assert json.loads(err) == {"error": "the tuple is not feasible for this support", "kind": "ValueError"}
        assert calls == {"_as_alpha": 1, "_evaluate": 1}


class TestConesCallNoRankTest:
    """Pointedness and extreme rays are read off the facet table: no cone route needs a rank."""

    WEDGE = [[2, -1], [0, 1]]
    SQUARE = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, 1, 2]]  # (1, 1, 2) is no extreme ray
    FLAT_SQUARE = [r + [0] for r in SQUARE]  # spans rank 3 of 4

    @pytest.fixture(autouse=True)
    def refuse_rank(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("mldhat.cones called rank_of")

        monkeypatch.setattr(cones, "rank_of", refused)

    def test_from_generators(self):
        for rays, extremes in ((self.WEDGE, 2), (self.SQUARE, 4), (self.FLAT_SQUARE, 4)):
            c = cones.Cone.from_generators(len(rays[0]), [tuple(r) for r in rays])
            assert len(c.generators) == extremes
        with pytest.raises(ConeError, match="not pointed"):
            cones.Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])

    # dual and hilbert need a full-dimensional cone
    @pytest.mark.parametrize(
        "rays, argv",
        [
            pytest.param(rays, argv, id=f"{name}-{'-'.join(argv)}")
            for name, rays in (("wedge", WEDGE), ("square", SQUARE), ("flat-square", FLAT_SQUARE))
            for argv in (["dual"], ["hilbert"], ["toric"], ["toric", "--face", "0,1"])
            if argv[0] == "toric" or name != "flat-square"
        ],
    )
    def test_ops(self, tmp_path, rays, argv):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"lattice_rank": len(rays[0]), "rays": rays}))
        code, _, err = run_cli([argv[0], "--cone", str(path), *argv[1:]])
        assert code == 0, err


class TestFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        payload=SUPPORT_FILES,
        alpha=st.lists(st.integers(1, 3), min_size=1, max_size=3)
        | st.lists(st.integers(-1, 3), min_size=1, max_size=4),
        m=st.integers(0, 4),
        prime=st.sampled_from(["-3", "0", "1", "2", "4", "101", "2147483647"]),
        trials=st.integers(-1, 2),
    )
    def test_oracle_inputs_never_traceback(self, tmp_path, payload, alpha, m, prime, trials):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(payload))
        common = ["--support", str(path), "--alpha=" + ",".join(map(str, alpha)), f"--prime={prime}"]
        for argv in (
            ["oracle", "staircase", *common, f"--m={m}", f"--trials={trials}"],
            ["oracle", "torus-point", *common, f"--trials={trials}"],
            ["oracle", "expand", *common, f"--m={m}"],
            ["hyper", "--support", str(path)],
            ["hyper", "--support", str(path), "--certify"],
        ):
            code, out, err = run_cli(["--seed", "0", "--max-subsets", "100000", *argv])
            assert code in (0, 2, 3), argv
            if code == 0:
                report = json.loads(out)
                if argv[0] == "hyper":
                    assert report["status"] in ("EXACT", "LOWER_BOUND"), argv
            else:
                assert out == ""
                assert "error" in json.loads(err)


class TestRoundTrip:
    def test_big_integers_survive(self):
        report = {"value": 2**80, "nested": {"list": [1, -(2**70)]}}
        text = dump_report(report)
        parsed = json.loads(text)
        assert parsed["value"] == str(2**80)
        assert load_report(text) == report

    def test_small_integers_stay_ints(self):
        report = {"value": 42, "flag": True, "none": None}
        assert load_report(dump_report(report)) == report

    @pytest.mark.parametrize("text", ["--5", "²", "--99999999999999999999"])
    def test_strings_that_are_not_integers_stay_strings(self, text):
        # before, str.isdigit admitted these and int() raised ValueError
        assert load_report(json.dumps({"value": text})) == {"value": text}

    def test_big_integer_round_trip_at_the_threshold(self):
        values = [2**63, -(2**63), 2**63 - 1, -(2**63) + 1, 10**40, -(10**40)]
        report = {"values": values, "text": "99999999999999999999x"}
        assert load_report(dump_report(report)) == report

    @pytest.mark.parametrize(
        "text", ["99999999999999999999", "-99999999999999999999", str(2**63), str(-(2**63))]
    )
    def test_strings_that_read_as_big_integers_are_refused(self, text):
        # they would come back as ints, so the encoding would not be one-to-one
        with pytest.raises(ValueError):
            dump_report({"v": text})
        with pytest.raises(ValueError):
            dump_report({"nested": [{"v": text}]})

    def test_strings_below_the_threshold_round_trip(self):
        report = {"v": str(2**63 - 1), "w": "-42", "x": "007", "y": "--99999999999999999999"}
        assert load_report(dump_report(report)) == report


def reference_dump(value):
    """The report text as it was written before the one-walk writer."""
    return json.dumps(reference_encode(value), indent=2)


def outcome(dump, value):
    """The text `dump` writes, or the class and message of what it raises."""
    try:
        return dump(value)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


BOUNDARY_INTEGERS = [2**63, -(2**63), 2**63 - 1, -(2**63) + 1, 2**64, -(10**40), 0]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(BOUNDARY_INTEGERS)
    | st.floats()
    | st.text()
    | st.sampled_from([str(2**63), str(-(2**63)), str(2**63 - 1), "007", "--5", "²", "é\u2028\"\\"])
    | st.sampled_from([b"bytes", frozenset({1}), 1j])
)
# keys that coincide after str() (1 and "1") are merged by the copy but
# written twice by the writer; no report has such keys
KEYS = st.text() | st.integers() | st.sampled_from(BOUNDARY_INTEGERS) | st.booleans() | st.none()
NESTED = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4).filter(lambda d: len({str(k) for k in d}) == len(d)),
    max_leaves=25,
)


class TestWriter:
    """`dump_report` against the copy-then-`json.dumps` route it replaced."""

    @pytest.mark.parametrize("index", range(len(GOLDEN_OPS)), ids=lambda i: " ".join(GOLDEN_OPS[i])[:60])
    def test_golden_reports(self, index):
        record = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
        for text in (record["stdout"], record["stderr"]):
            if text:
                report = load_report(text)
                assert dump_report(report) == reference_dump(report) == text[:-1]

    @settings(max_examples=400, deadline=None)
    @given(NESTED)
    def test_nested_values(self, value):
        assert outcome(dump_report, value) == outcome(reference_dump, value)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": [], "b": {}, "c": ()},
            [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
            {"s": "non-ASCII \u00e9\u4e2d\U0001f600 and \\ \" \n \x00"},
            {1: "int key", None: "none key", True: "bool key", (1, 2): "tuple key"},
            {"big": 2**63, "small": 2**63 - 1, "neg": -(2**63), "tuple": (2**100, -(2**100))},
            # the list branch writes a small int leaf inline; bools and big ints take their own branches
            [True, False, 0, 2**63 - 1, -(2**63 - 1), 2**63, -(2**63), (True, 0, (2**63, -(2**63) + 1)), [(False, -(2**63 - 1)), ()]],
        ],
    )
    def test_edge_values(self, value):
        assert dump_report(value) == reference_dump(value)

    @pytest.mark.parametrize(
        "value",
        [
            {"v": str(2**63)},
            [1, [2, {"deep": "-99999999999999999999"}]],
            {"x": b"bytes"},
            [{1, 2}],
            {"first": str(2**64), "second": object()},
            {"first": object(), "second": str(2**64)},
        ],
    )
    def test_same_refusals(self, value):
        expected = outcome(reference_dump, value)
        assert isinstance(expected, tuple)
        assert outcome(dump_report, value) == expected
