"""Command-line surface: JSON files in, JSON reports out.

Exit codes: 0 on success, 2 on any input or validation error, 3 when an
internal combinatorial guard trips.  With --seed the output is fully
deterministic (timings are omitted), so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from json.encoder import encode_basestring_ascii

from .cones import Cone, ConeError, FaceSpec, dual_cone
from .hilbert import hilbert_basis
from .hypersurface import (
    Support,
    SupportError,
    certificate_data,
    hypersurface_report,
    validate_support,
    weight_data,
)
from .lattice import LimitError
from .oracle import check_alpha, expand, staircase_verify, torus_point_sample
from .toric import mld_at_point

BIG = 2**63
INTEGER = re.compile(r"-?[0-9]+")  # the decimal integers of `integer`


def _is_big_integer_text(text):
    """Does _decode read this string back as an integer?"""
    return INTEGER.fullmatch(text) is not None and abs(int(text)) >= BIG


def _decode(value):
    """Inverse of the big-integer rule of `dump_report`: such strings come back as ints.

    A string counts as an integer by the rule of `integer`, so "--5" or
    "²" stay strings.
    """
    if isinstance(value, str):
        return int(value) if _is_big_integer_text(value) else value
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_report(report: dict) -> str:
    """The report as JSON indented by two spaces, written in one walk.

    Integers of magnitude 2^63 or more become decimal strings, so a string
    that reads as one is refused: the encoding stays one-to-one.  Keys are
    written as str(key); tuples as lists.  The text is what the `json`
    module writes at indent 2 for the same tree with big integers as strings.
    """
    return _write(report, "\n")


def _write(value, newline):
    """The JSON text of one value; `newline` is the line break and indent of its level."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return f'"{value}"' if abs(value) >= BIG else str(value)
    if isinstance(value, str):
        if _is_big_integer_text(value):
            raise ValueError(f"the string {value!r} would read back as an integer")
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        text = repr(value)
        return _FLOAT_WORDS.get(text, text)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(str(k))}: {_write(v, inner)}" for k, v in value.items()]
        return "{" + ",".join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + ",".join([inner + _write(v, inner) for v in value]) + newline + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def load_report(text: str) -> dict:
    return _decode(json.loads(text))


def _read_json_file(path, what, keys, error):
    """The JSON object of a `what` file, holding both `keys`; `error(message)` builds each refusal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} file: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, or too deep a nest
        raise error(f"{what} file is not valid JSON: {exc}")
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise error(f"{what} file needs keys {keys[0]!r} and {keys[1]!r}")
    return data


def parse_cone_file(path) -> Cone:
    data = _read_json_file(path, "cone", ("lattice_rank", "rays"), ConeError)
    rank = data["lattice_rank"]
    rays = data["rays"]
    if type(rank) is not int or not isinstance(rays, list):
        raise ConeError("'lattice_rank' must be an integer and 'rays' a list")
    if not all(isinstance(r, list) for r in rays):
        raise ConeError("each ray must be a list of integers")
    return Cone.from_generators(rank, [tuple(r) for r in rays])


def parse_support_file(path) -> Support:
    data = _read_json_file(path, "support", ("vars", "support"), functools.partial(SupportError, "io"))
    if type(data["vars"]) is not int:
        raise SupportError("io", f"'vars' must be an integer, got {data['vars']!r}")
    return validate_support(data["support"], num_vars=data["vars"])


def integer(text):
    """A decimal integer: an optional minus sign and ASCII digits, nothing else."""
    if not INTEGER.fullmatch(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def nonnegative_integer(text):
    """A decimal integer that is zero or more."""
    value = integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _integers(text):
    return tuple(integer(x) for x in text.split(","))


def _alpha_arg(text):
    try:
        return _integers(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer tuple")


def _face_indices(text):
    """The ray indices of --face: "" is the zero face, else comma-separated integers."""
    if text == "":
        return ()
    try:
        return _integers(text)
    except ValueError:
        raise ValueError(f"--face expects comma-separated ray indices, got {text!r}")


def _run_toric(args):
    cone = parse_cone_file(args.cone)
    if args.face is not None and args.face_functional is not None:
        raise ValueError("give at most one of --face and --face-functional")
    face = None
    if args.face is not None:
        face = FaceSpec(generator_subset=_face_indices(args.face))
    elif args.face_functional is not None:
        face = FaceSpec(supporting_functional=_integers(args.face_functional))
    started = time.perf_counter()
    report = mld_at_point(cone, face=face, max_points=args.max_subsets)
    elapsed = time.perf_counter() - started
    payload = {
        "variety_kind": "toric",
        "lambda": report.lambda_value,
        "mather_mld": report.mather_mld,
        "status": "EXACT",
        "witness": vars(report.witness),
        "assumptions": [],
        "diagnostics": {
            "fast_path": report.fast_path,
            "torus_factor_rank": report.torus_factor_rank,
            "face_reduced_from": report.face_reduced_from,
            "ambient_rank": cone.ambient_rank,
        },
        "timings": None if args.seed is not None else {"seconds": elapsed},
    }
    return payload


def _run_hyper(args):
    support = parse_support_file(args.support)
    started = time.perf_counter()
    report = hypersurface_report(support, max_points=args.max_subsets)
    elapsed = time.perf_counter() - started
    payload = {
        "variety_kind": "hypersurface",
        "lambda_lower_bound": report.lambda_lower_bound,
        "mather_mld_lower_bound": report.mather_mld_lower_bound,
        "status": report.status,
        "witness": {"alpha": report.witness_alpha},
        "assumptions": report.assumptions,
        "certificate": {
            "status": report.certificate.status,
            "kind": report.certificate.kind,
            "detail": report.certificate.detail,
        },
        "diagnostics": {
            "search_box_bound": report.search_box_bound,
            "dropped_variables": report.dropped_variables,
            "hypersurface_dimension": support.dimension_of_hypersurface,
        },
        "timings": None if args.seed is not None else {"seconds": elapsed},
    }
    return payload


def _run_hilbert(args):
    cone = parse_cone_file(args.cone)
    basis = hilbert_basis(cone, max_points=args.max_subsets)
    return {"cone_rays": cone.generators, "elements": basis.elements, "count": len(basis.elements)}


def _run_dual(args):
    cone = parse_cone_file(args.cone)
    dual = dual_cone(cone)
    return {"cone_rays": cone.generators, "dual_rays": dual.generators}


def _run_staircase(args):
    result = staircase_verify(
        parse_support_file(args.support),
        args.alpha,
        m=args.m,
        prime=args.prime,
        trials=args.trials,
        seed=args.seed or 0,
        max_points=args.max_subsets,
    )
    return {"kind": "staircase", **vars(result)}


def _run_torus_point(args):
    support = parse_support_file(args.support)
    data = certificate_data(support, weight_data(support, check_alpha(support, args.alpha)))
    witness = torus_point_sample(
        data.initial_form,
        data.pivot_coefficient,
        prime=args.prime,
        trials=args.trials,
        seed=args.seed or 0,
        max_points=args.max_subsets,
    )
    return {"kind": "torus-point", "witness": witness}


def _run_expand(args):
    support = parse_support_file(args.support)
    coeffs = args.coeffs if args.coeffs is not None else [1] * len(support.exponents)
    result = expand(
        support, coeffs, args.alpha, m=args.m, prime=args.prime_opt, max_points=args.max_subsets
    )
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
        "alpha": result.alpha,
        "m": result.order,
        "prime": result.prime,
        "terms": terms,
    }


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every main() call.

    Every parser refuses abbreviated options, so each option is spelled in
    full: an abbreviation such as `--face-func` escapes
    `_attach_tuple_values`, which would leave a negative tuple after it to be
    read as an option.
    """
    parser = argparse.ArgumentParser(
        prog="mldhat",
        allow_abbrev=False,
        description=(
            "Mather minimal log discrepancies of affine toric varieties and "
            "very general hypersurfaces"
        ),
    )
    parser.add_argument("--seed", type=integer, default=None, help="fix all randomness; makes output byte-identical")
    parser.add_argument("--max-subsets", type=nonnegative_integer, default=None, help="abort with exit code 3 when a stage would generate more than this many points")
    sub = parser.add_subparsers(dest="command", required=True)

    toric = sub.add_parser("toric", help="invariants at a point of an affine toric variety", allow_abbrev=False)
    toric.add_argument("--cone", required=True, help="JSON file with lattice_rank and rays")
    toric.add_argument("--face", default=None, help="comma-separated ray indices of a face (empty string for the zero face)")
    toric.add_argument("--face-functional", default=None, help="comma-separated dual vector whose zero set is the face")
    toric.add_argument("--no-fast-paths", action="store_true", help="no effect: every cone takes the one general search")
    toric.set_defaults(func=_run_toric)

    hyper = sub.add_parser("hyper", help="lower bound and certificate for a hypersurface support", allow_abbrev=False)
    hyper.add_argument("--support", required=True, help="JSON file with vars and support")
    hyper.add_argument("--certify", action="store_true", help="no effect: the certificate is always decided exactly")
    hyper.set_defaults(func=_run_hyper)

    hilb = sub.add_parser("hilbert", help="minimal generating set of the lattice points of a cone", allow_abbrev=False)
    hilb.add_argument("--cone", required=True)
    hilb.set_defaults(func=_run_hilbert)

    dual = sub.add_parser("dual", help="extreme rays of the dual cone", allow_abbrev=False)
    dual.add_argument("--cone", required=True)
    dual.set_defaults(func=_run_dual)

    oracle = sub.add_parser("oracle", help="finite-field verification tools", allow_abbrev=False)
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    stair = osub.add_parser("staircase", help="sample the staircase solution of the window equations", allow_abbrev=False)
    stair.add_argument("--support", required=True)
    stair.add_argument("--alpha", required=True, type=_alpha_arg)
    stair.add_argument("--m", required=True, type=integer)
    stair.add_argument("--prime", type=integer, default=10007)
    stair.add_argument("--trials", type=integer, default=50)
    stair.set_defaults(func=_run_staircase)
    torus = osub.add_parser("torus-point", help="sample a torus zero of the initial form", allow_abbrev=False)
    torus.add_argument("--support", required=True)
    torus.add_argument("--alpha", required=True, type=_alpha_arg)
    torus.add_argument("--prime", type=integer, default=10007)
    torus.add_argument("--trials", type=integer, default=50)
    torus.set_defaults(func=_run_torus_point)
    expand_p = osub.add_parser("expand", help="print the truncated arc expansion", allow_abbrev=False)
    expand_p.add_argument("--support", required=True)
    expand_p.add_argument("--alpha", required=True, type=_alpha_arg)
    expand_p.add_argument("--m", required=True, type=integer)
    expand_p.add_argument("--coeffs", type=_alpha_arg, default=None)
    expand_p.add_argument("--prime", dest="prime_opt", type=integer, default=None)
    expand_p.set_defaults(func=_run_expand)
    return parser


# options whose value is a comma-separated integer tuple
TUPLE_OPTIONS = ("--face-functional", "--alpha", "--coeffs")


def _attach_tuple_values(argv):
    """Rewrite `--alpha -1,2` as `--alpha=-1,2` for the tuple options.

    argparse takes a token that starts with "-" and is not a plain negative
    number for an option, so a tuple with a negative first entry would
    leave its option without a value.  Any token after a tuple option that
    starts with "-" and a digit is that option's value; a missing value
    (the next token is an option) is still an argparse error.
    """
    out = []
    for token in argv:
        if out and out[-1] in TUPLE_OPTIONS and re.match(r"-[0-9]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_tuple_values(sys.argv[1:] if argv is None else argv))
    try:
        payload = args.func(args)
    except ValueError as exc:  # every input error class derives from it
        print(dump_report({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 2
    except LimitError as exc:
        print(dump_report({"error": str(exc), "kind": "LimitError"}), file=sys.stderr)
        return 3
    print(dump_report(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
