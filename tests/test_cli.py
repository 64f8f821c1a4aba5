import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mldhat.cli import (
    dump_report,
    load_report,
    main,
    parse_cone_file,
    parse_support_file,
)
from mldhat.cones import ConeError
from mldhat.hypersurface import SupportError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"lattice_rank": 2, "rays": [[2, -1], [0, 1]]}))
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
            ["--seed", "5", "hyper", "--support", support_file, "--certify",
             "--oracle-prime", "10007"]
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

    def test_limit_exit_code(self, cone_file):
        code, _, err = run_cli(
            ["--max-subsets", "1", "toric", "--cone", cone_file, "--no-fast-paths"]
        )
        assert code == 3
        assert "error" in json.loads(err)

    def test_hyper_limit_exit_code(self, support_file):
        code, _, err = run_cli(["--max-subsets", "1", "hyper", "--support", support_file])
        assert code == 3
        assert json.loads(err)["kind"] == "LimitError"

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

    def test_toric_rejects_box_bound(self, cone_file):
        code, out, err = run_cli(["--box-bound", "3", "toric", "--cone", cone_file])
        assert code == 2
        assert out == ""
        assert "hyper only" in json.loads(err)["error"]

    def test_toric_report_is_exact(self, cone_file):
        code, out, _ = run_cli(["--seed", "0", "toric", "--cone", cone_file, "--no-fast-paths"])
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "EXACT"
        assert "search_bound_used" not in report["diagnostics"]

    def test_heuristic_box_marked(self, support_file):
        code, out, _ = run_cli(
            ["--box-bound", "3", "hyper", "--support", support_file]
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] in ("EXACT", "HEURISTIC")

    def test_determinism_with_seed(self, support_file, cone_file):
        for argv in (
            ["--seed", "11", "hyper", "--support", support_file, "--certify"],
            ["--seed", "11", "toric", "--cone", cone_file],
        ):
            _, first, _ = run_cli(argv)
            _, second, _ = run_cli(argv)
            assert first == second


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
