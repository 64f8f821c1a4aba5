"""usage: mldhat [global options] command [options]

Mather minimal log discrepancies of affine toric varieties and very general
hypersurfaces: JSON files in, JSON reports out.  Global options come before
the command.  `--name value` and `--name=value` mean the same; a value may
start with - but not with --, and a switch takes no value.  Every option is
spelled in full.

Exit codes: 0 on success, 2 on any input or validation error, 3 when an
internal combinatorial guard trips.  With --seed the output is fully
deterministic (timings are omitted), so identical invocations produce
byte-identical reports.  --max-subsets N exits 3 before the work starts
when a stage would generate more than N points.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
        return "[" + ",".join([inner + (str(v) if type(v) is int and -BIG < v < BIG else _write(v, inner)) for v in value]) + newline + "]"
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
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return value


def _integers(text):
    return tuple(integer(x) for x in text.split(","))


def _face_indices(text):
    """The ray indices of --face: "" is the zero face, else comma-separated integers."""
    if text == "":
        return ()
    try:
        return _integers(text)
    except ValueError:
        raise ValueError(f"expected comma-separated ray indices, got {text!r}") from None


def _run_toric(args):
    """Lambda and mld-hat at a point of an affine toric variety."""
    cone = parse_cone_file(args.cone)
    if args.face is not None and args.face_functional is not None:
        raise ValueError("give at most one of --face and --face-functional")
    face = None
    if args.face is not None:
        face = FaceSpec(generator_subset=args.face)
    elif args.face_functional is not None:
        face = FaceSpec(supporting_functional=args.face_functional)
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
    """Lower bound and equality certificate for a hypersurface support."""
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
    """Minimal generating set of the lattice points of a cone."""
    cone = parse_cone_file(args.cone)
    basis = hilbert_basis(cone, max_points=args.max_subsets)
    return {"cone_rays": cone.generators, "elements": basis.elements, "count": len(basis.elements)}


def _run_dual(args):
    """Extreme rays of the dual cone."""
    cone = parse_cone_file(args.cone)
    dual = dual_cone(cone)
    return {"cone_rays": cone.generators, "dual_rays": dual.generators}


def _run_staircase(args):
    """Sample the staircase solution of the window equations."""
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
    """Sample a torus zero of the initial form."""
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
    """The truncated arc expansion."""
    support = parse_support_file(args.support)
    coeffs = args.coeffs if args.coeffs is not None else [1] * len(support.exponents)
    result = expand(
        support, coeffs, args.alpha, m=args.m, prime=args.prime, max_points=args.max_subsets
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


REQUIRED = object()  # the default of an option that must be given
_CONE = {"--cone": (str, REQUIRED)}
_ORACLE = {"--support": (str, REQUIRED), "--alpha": (_integers, REQUIRED)}
_SAMPLER = {"--prime": (integer, 10007), "--trials": (integer, 50)}
# The global options under "", then each command: its runner and its
# options.  Each option maps to (value parser, default); a parser of None
# marks a switch, which takes no value.  `toric --no-fast-paths` and `hyper
# --certify` change nothing: there is one toric search, and every
# certificate is decided exactly.
OPTIONS = {
    "": (None, {"--seed": (integer, None), "--max-subsets": (nonnegative_integer, None)}),
    "toric": (_run_toric, {**_CONE, "--face": (_face_indices, None), "--face-functional": (_integers, None), "--no-fast-paths": (None, False)}),
    "hyper": (_run_hyper, {"--support": (str, REQUIRED), "--certify": (None, False)}),
    "hilbert": (_run_hilbert, _CONE),
    "dual": (_run_dual, _CONE),
    "oracle staircase": (_run_staircase, {**_ORACLE, "--m": (integer, REQUIRED), **_SAMPLER}),
    "oracle torus-point": (_run_torus_point, {**_ORACLE, **_SAMPLER}),
    "oracle expand": (_run_expand, {**_ORACLE, "--m": (integer, REQUIRED), "--coeffs": (_integers, None), "--prime": (integer, None)}),
}


def parse_args(argv):
    """The runner of the command that `argv` names and the namespace of its options.

    One pass over the tokens: the global options, the command's words,
    then the command's options.  `--help` or `-h` prints the module
    docstring and every command and option of OPTIONS and exits 0; any
    other fault prints `mldhat: error:` and exits 2.
    """
    command, (runner, options) = "", OPTIONS[""]
    values = {name: default for name, (_, default) in options.items()}
    tokens = iter(argv)
    try:
        for token in tokens:
            if token in ("--help", "-h"):
                print(__doc__ or "")
                for key, (run, table) in OPTIONS.items():
                    words = []
                    for name, (parse, default) in table.items():
                        word = name if parse is None else f"{name} {parse.__name__.strip('_').upper()}"
                        words.append(word if default is REQUIRED else f"[{word}]" if default in (None, False) else f"[{word}={default}]")
                    print(f"  {key or '(global options)':<19}", *words)
                    if run is not None:
                        print(" " * 22 + (run.__doc__ or ""))
                raise SystemExit(0)
            name, equals, value = token.partition("=")
            if name not in options:
                if runner is not None or token.startswith("-"):
                    raise ValueError(f"unrecognized argument {token!r}")
                command = f"{command} {token}".lstrip()
                runner, options = OPTIONS.get(command, (None, {}))
                values.update((name, default) for name, (_, default) in options.items())
            elif options[name][0] is None:
                if equals:
                    raise ValueError(f"the switch {name} takes no value")
                values[name] = True
            else:
                if not equals:
                    value = next(tokens, "--")
                if value.startswith("--"):
                    raise ValueError(f"{name} expects a value")
                try:
                    values[name] = options[name][0](value)
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
        if runner is None:
            raise ValueError(f"expected a command, one of: {', '.join(list(OPTIONS)[1:])}")
        missing = [name for name, value in values.items() if value is REQUIRED]
        if missing:
            raise ValueError(f"{command} needs {', '.join(missing)}")
    except ValueError as exc:
        print(f"mldhat: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return runner, SimpleNamespace(**{name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv=None):
    runner, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        payload = runner(args)
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
