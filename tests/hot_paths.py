"""Hot-path size of the library: functions per op kind and code lines per module.

Builds corpus seed N of both benchmark workloads with `perfbench/corpus.py`
(default N = 4), runs every op in process through `mldhat.cli.main` under
cProfile, and prints two tables:

* for each op kind, the number of ops, of distinct `mldhat` functions
  they call and of calls to `mldhat.hypersurface._evaluate`, the kernel
  the `hyper` scan runs once per candidate tuple;
* for each module of `src/mldhat`, its lines and its code lines, without
  docstrings, comments or blank lines.

Run it from the repository root:

    PYTHONPATH=src python tests/hot_paths.py [N]

It is a script, not a test module: pytest does not collect it.
"""

import ast
import cProfile
import io
import pathlib
import pstats
import sys
import tempfile
import tokenize
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

import mldhat
import mldhat.hypersurface
from mldhat.cli import main

PACKAGE = pathlib.Path(mldhat.__file__).parent
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
WORKLOADS = ("toric-cones", "hyper-oracle")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def functions_per_kind(seed):
    """{op kind: (ops, distinct mldhat functions called, `_evaluate` calls)}
    over corpus seed `seed`."""
    sys.path.insert(0, str(PERFBENCH))
    import corpus

    profiles, ops, evaluations = {}, defaultdict(int), defaultdict(int)
    evaluate = mldhat.hypersurface._evaluate

    def counted(*args):
        evaluations[kind] += 1
        return evaluate(*args)

    mldhat.hypersurface._evaluate = counted
    try:
        with tempfile.TemporaryDirectory() as directory:
            for workload in WORKLOADS:
                for op in corpus.build(workload, seed, directory):
                    kind = op.kind
                    profile = profiles.setdefault(kind, cProfile.Profile())
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        profile.runcall(main, list(op.argv))
                    ops[kind] += 1
    finally:
        mldhat.hypersurface._evaluate = evaluate
    counts = {}
    for kind, profile in profiles.items():
        called = pstats.Stats(profile).stats  # keyed by (file, line, function name)
        functions = sum(pathlib.Path(f).parent == PACKAGE for f, _, _ in called)
        counts[kind] = (ops[kind], functions, evaluations[kind])
    return counts


def code_lines(path):
    """Lines holding a token that is not a comment and not part of a docstring."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    print(f"corpus seed {seed}: distinct mldhat functions and _evaluate calls per op kind")
    print(f"{'kind':<10} {'ops':>5} {'functions':>9} {'evaluations':>11}")
    for kind, (ops, functions, evaluations) in sorted(functions_per_kind(seed).items()):
        print(f"{kind:<10} {ops:>5} {functions:>9} {evaluations:>11}")
    print()
    print(f"{'module':<16} {'lines':>5} {'code':>5}")
    total = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, body = len(path.read_text(encoding="utf-8").splitlines()), code_lines(path)
        total, code = total + lines, code + body
        print(f"{path.name:<16} {lines:>5} {body:>5}")
    print(f"{'total':<16} {total:>5} {code:>5}")
