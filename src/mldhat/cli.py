"""Command-line surface: JSON files in, JSON reports out.

Exit codes: 0 on success, 2 on any input or validation error, 3 when an
internal combinatorial guard trips.  With --seed the output is fully
deterministic (timings are omitted), so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cones import Cone, ConeError, FaceError, FaceSpec, dual_cone
from .hilbert import hilbert_basis
from .hypersurface import (
    Support,
    SupportError,
    certificate_data,
    hypersurface_report,
    validate_support,
)
from .lattice import LatticeError, LimitError
from .oracle import (
    OracleConfig,
    OracleError,
    expand,
    make_torus_sampler,
    staircase_verify,
    torus_point_sample,
)
from .toric import mld_at_point

BIG = 2**63


def _encode(value):
    """JSON-safe copy with arbitrary-precision integers kept lossless."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= BIG else value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _decode(value):
    """Inverse of _encode: big-integer strings come back as ints."""
    if isinstance(value, str):
        stripped = value.lstrip("-")
        if stripped.isdigit() and abs(int(value)) >= BIG:
            return int(value)
        return value
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def dump_report(report: dict) -> str:
    return json.dumps(_encode(report), indent=2, sort_keys=False)


def load_report(text: str) -> dict:
    return _decode(json.loads(text))


def parse_cone_file(path) -> Cone:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConeError(f"cannot read cone file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConeError(f"cone file is not valid JSON: {exc}")
    if not isinstance(data, dict) or "lattice_rank" not in data or "rays" not in data:
        raise ConeError("cone file needs keys 'lattice_rank' and 'rays'")
    rank = data["lattice_rank"]
    rays = data["rays"]
    if type(rank) is not int or not isinstance(rays, list):
        raise ConeError("'lattice_rank' must be an integer and 'rays' a list")
    if not all(isinstance(r, list) for r in rays):
        raise ConeError("each ray must be a list of integers")
    return Cone.from_generators(rank, [tuple(r) for r in rays])


def parse_support_file(path) -> Support:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SupportError("io", f"cannot read support file: {exc}")
    except json.JSONDecodeError as exc:
        raise SupportError("io", f"support file is not valid JSON: {exc}")
    if not isinstance(data, dict) or "vars" not in data or "support" not in data:
        raise SupportError("io", "support file needs keys 'vars' and 'support'")
    return validate_support(data["support"], num_vars=data["vars"])


def _witness_dict(witness):
    return {
        "point": list(witness.point),
        "value": witness.value,
        "chosen_set": [list(u) for u in witness.chosen_set],
    }


def _alpha_arg(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer tuple")


def _alpha_like(text):
    return tuple(int(x) for x in text.split(","))


def _run_toric(args):
    if args.box_bound is not None:
        raise ValueError("--box-bound applies to hyper only; the toric search is finite")
    cone = parse_cone_file(args.cone)
    if args.face is not None and args.face_functional is not None:
        raise ValueError("give at most one of --face and --face-functional")
    face = None
    if args.face is not None:
        face = FaceSpec(generator_subset=tuple(int(i) for i in args.face.split(",") if i != ""))
    elif args.face_functional is not None:
        face = FaceSpec(supporting_functional=_alpha_like(args.face_functional))
    started = time.perf_counter()
    report = mld_at_point(
        cone,
        face=face,
        use_fast_paths=not args.no_fast_paths,
        max_points=args.max_subsets,
    )
    elapsed = time.perf_counter() - started
    payload = {
        "variety_kind": "toric",
        "lambda": report.lambda_value,
        "mather_mld": report.mather_mld,
        "status": "EXACT",
        "witness": _witness_dict(report.witness),
        "assumptions": [],
        "diagnostics": {
            "fast_path": report.fast_path,
            "torus_factor_rank": report.torus_factor_rank,
            "face_reduced_from": (
                list(report.face_reduced_from)
                if report.face_reduced_from is not None
                else None
            ),
            "ambient_rank": cone.ambient_rank,
        },
        "timings": None if args.seed is not None else {"seconds": elapsed},
    }
    return payload


def _run_hyper(args):
    support = parse_support_file(args.support)
    sampler = None
    if args.certify:
        sampler = make_torus_sampler(
            OracleConfig(
                prime=args.oracle_prime,
                trials=args.oracle_trials,
                seed=args.seed if args.seed is not None else 0,
            )
        )
    started = time.perf_counter()
    report = hypersurface_report(
        support,
        sampler=sampler,
        box_override=args.box_bound,
        max_points=args.max_subsets,
    )
    elapsed = time.perf_counter() - started
    status = "HEURISTIC" if report.heuristic_box else report.status
    payload = {
        "variety_kind": "hypersurface",
        "lambda_lower_bound": report.lambda_lower_bound,
        "mather_mld_lower_bound": report.mather_mld_lower_bound,
        "status": status,
        "witness": {"alpha": list(report.witness_alpha)},
        "assumptions": list(report.assumptions),
        "certificate": {
            "status": report.certificate.status,
            "kind": report.certificate.kind,
            "detail": dict(report.certificate.detail),
        },
        "diagnostics": {
            "search_box_bound": report.search_box_bound,
            "dropped_variables": list(report.dropped_variables),
            "hypersurface_dimension": support.dimension_of_hypersurface,
        },
        "timings": None if args.seed is not None else {"seconds": elapsed},
    }
    return payload


def _run_hilbert(args):
    cone = parse_cone_file(args.cone)
    basis = hilbert_basis(cone, max_points=args.max_subsets)
    return {
        "cone_rays": [list(r) for r in cone.generators],
        "elements": [list(u) for u in basis.elements],
        "count": len(basis.elements),
    }


def _run_dual(args):
    cone = parse_cone_file(args.cone)
    dual = dual_cone(cone)
    return {
        "cone_rays": [list(r) for r in cone.generators],
        "dual_rays": [list(r) for r in dual.generators],
    }


def _run_oracle(args):
    support = parse_support_file(args.support)
    seed = args.seed if args.seed is not None else 0
    if args.oracle_command == "staircase":
        result = staircase_verify(
            support,
            args.alpha,
            m=args.m,
            prime=args.prime,
            trials=args.trials,
            seed=seed,
        )
        return {
            "kind": "staircase",
            "empty": result.empty,
            "window_size": result.window_size,
            "equations_solved": result.equations_solved,
            "free_parameter_count": result.free_parameter_count,
            "estimated_dim": result.estimated_dim,
            "trials": result.trials,
            "successes": result.successes,
            "failure_reasons": list(result.failure_reasons),
        }
    if args.oracle_command == "torus-point":
        data = certificate_data(support, args.alpha)
        witness = torus_point_sample(
            data.initial_form,
            data.pivot_coefficient,
            prime=args.prime,
            trials=args.trials,
            seed=seed,
        )
        return {
            "kind": "torus-point",
            "witness": None
            if witness is None
            else {
                "prime": witness["prime"],
                "trials_used": witness["trials_used"],
                "point": list(witness["point"]),
                "coefficients": list(witness["coefficients"]),
            },
        }
    if args.oracle_command == "expand":
        coeffs = (
            list(args.coeffs)
            if args.coeffs is not None
            else [1] * len(support.exponents)
        )
        result = expand(support, coeffs, args.alpha, m=args.m, prime=args.prime_opt)
        terms = {}
        for s in sorted(result.terms):
            terms[str(s)] = [
                {
                    "coefficient": c,
                    "monomial": [[j, u, e] for ((j, u), e) in mono],
                }
                for mono, c in sorted(result.terms[s].items())
            ]
        return {
            "kind": "expand",
            "alpha": list(result.alpha),
            "m": result.order,
            "prime": result.prime,
            "terms": terms,
        }
    raise ValueError(f"unknown oracle command {args.oracle_command!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mldhat",
        description=(
            "Mather minimal log discrepancies of affine toric varieties and "
            "very general hypersurfaces"
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="fix all randomness; makes output byte-identical")
    parser.add_argument("--max-subsets", type=int, default=None, help="abort with exit code 3 when a stage would generate more than this many points")
    parser.add_argument("--box-bound", type=int, default=None, help="hyper only: cap every vanishing order (marks the report HEURISTIC)")
    sub = parser.add_subparsers(dest="command", required=True)

    toric = sub.add_parser("toric", help="invariants at a point of an affine toric variety")
    toric.add_argument("--cone", required=True, help="JSON file with lattice_rank and rays")
    toric.add_argument("--face", default=None, help="comma-separated ray indices of a face (empty string for the zero face)")
    toric.add_argument("--face-functional", default=None, help="comma-separated dual vector whose zero set is the face")
    toric.add_argument("--no-fast-paths", action="store_true", help="force the general search")
    toric.set_defaults(func=_run_toric)

    hyper = sub.add_parser("hyper", help="lower bound and certificate for a hypersurface support")
    hyper.add_argument("--support", required=True, help="JSON file with vars and support")
    hyper.add_argument("--certify", action="store_true", help="strengthen the certificate with finite-field sampling")
    hyper.add_argument("--oracle-prime", type=int, default=10007)
    hyper.add_argument("--oracle-trials", type=int, default=50)
    hyper.set_defaults(func=_run_hyper)

    hilb = sub.add_parser("hilbert", help="minimal generating set of the lattice points of a cone")
    hilb.add_argument("--cone", required=True)
    hilb.set_defaults(func=_run_hilbert)

    dual = sub.add_parser("dual", help="extreme rays of the dual cone")
    dual.add_argument("--cone", required=True)
    dual.set_defaults(func=_run_dual)

    oracle = sub.add_parser("oracle", help="finite-field verification tools")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    stair = osub.add_parser("staircase", help="sample the staircase solution of the window equations")
    stair.add_argument("--support", required=True)
    stair.add_argument("--alpha", required=True, type=_alpha_arg)
    stair.add_argument("--m", required=True, type=int)
    stair.add_argument("--prime", type=int, default=10007)
    stair.add_argument("--trials", type=int, default=50)
    stair.set_defaults(func=_run_oracle)
    torus = osub.add_parser("torus-point", help="sample a torus zero of the initial form")
    torus.add_argument("--support", required=True)
    torus.add_argument("--alpha", required=True, type=_alpha_arg)
    torus.add_argument("--prime", type=int, default=10007)
    torus.add_argument("--trials", type=int, default=50)
    torus.set_defaults(func=_run_oracle)
    expand_p = osub.add_parser("expand", help="print the truncated arc expansion")
    expand_p.add_argument("--support", required=True)
    expand_p.add_argument("--alpha", required=True, type=_alpha_arg)
    expand_p.add_argument("--m", required=True, type=int)
    expand_p.add_argument("--coeffs", type=_alpha_arg, default=None)
    expand_p.add_argument("--prime", dest="prime_opt", type=int, default=None)
    expand_p.set_defaults(func=_run_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except (ConeError, FaceError, SupportError, LatticeError, OracleError, ValueError) as exc:
        print(dump_report({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 2
    except LimitError as exc:
        print(dump_report({"error": str(exc), "kind": "LimitError"}), file=sys.stderr)
        return 3
    print(dump_report(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
