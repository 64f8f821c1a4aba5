"""Hot-path size of the library: functions per op kind and code lines per module.

Builds corpus seed N of both benchmark workloads with `perfbench/corpus.py`
(default N = 4), runs every op in process through `mldhat.cli.main` under
cProfile and a `sys.settrace` line tracer, and prints two tables and a list.
Given several seeds, it prints the first table once per seed, and the
rest once for all of them: a statement is unrun when no op of any of the
seeds runs it.

* for each op kind, the number of ops, of distinct named `mldhat`
  functions they call (comprehensions, generator expressions and lambdas
  left out, so the count follows call paths, not style), of calls to
  `_evaluate`, the kernel the `hyper` scan runs once per candidate tuple,
  through every module that binds it (`hypersurface`, `oracle`), of calls
  to `mldhat.hypersurface._as_alpha`, the check of an order tuple, of
  calls to `mldhat.hypersurface.equality_certificate`, which the `hyper`
  report makes once per certificate class of its minimizers, of calls
  to `mldhat.lattice.pairing` from the modules that import it (`cones`,
  `hilbert`, `toric`), of calls to `hilbert_basis` through every module
  that binds it (`cli`, `toric`), of the `mldhat.toric._LevelGreedy`
  objects built, one per candidate the toric search holds, fed or not, of
  calls to `enumerate_lattice_points` through `mldhat.toric`, the binding
  the toric level search calls, one per fed level, with the lattice points
  those calls return, of calls to `eliminate` through `mldhat.toric`, the
  Fourier-Motzkin elimination of a level slice, with the rows of the
  projections they return, of calls to `mldhat.hilbert._numerators`, one
  per cell walked, with the cell points walked (sum |det T|), of calls to
  `mldhat.hilbert._fold`, the exact division that checks each move of a
  cell walk before the walk (the folds), and of the distinct
  candidates that `FacetValues.minimal_elements` sieves, with the
  subtraction tests it makes of them (each candidate is handed to the
  sieve as an int subclass that counts the subtractions made of it);
* for each module of `src/mldhat`, its lines, its code lines (without
  docstrings, comments or blank lines) and its unrun lines: the
  statements inside functions that no op of the seed runs;
* the unrun lines of each module, by line number.

Run it from the repository root:

    PYTHONPATH=src python tests/hot_paths.py [N ...]

It is a script, not a test module: pytest does not collect it.
"""

import ast
import cProfile
import importlib
import io
import pathlib
import pstats
import sys
import tempfile
import tokenize
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

import mldhat
from mldhat.cli import main

PACKAGE = pathlib.Path(mldhat.__file__).parent
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
WORKLOADS = ("toric-cones", "hyper-oracle")
# functions counted per op kind: name -> the mldhat modules whose global of that name is wrapped
COUNTED = {
    "_evaluate": ("hypersurface", "oracle"),  # every module that binds it
    "_as_alpha": ("hypersurface",),
    "equality_certificate": ("hypersurface",),
    "pairing": ("cones", "hilbert", "toric"),  # every module that imports it from lattice
    "hilbert_basis": ("cli", "toric"),  # every module that binds it
    "_LevelGreedy": ("toric",),  # one per candidate the level search builds
    "enumerate_lattice_points": ("toric",),  # the level search's binding
    "eliminate": ("toric",),  # the level search's binding
    "_numerators": ("hilbert",),  # the cell walk's binding
    "_fold": ("hilbert",),  # the move check's binding
}
# functions whose results are measured per op kind: name -> the size of one result
SIZES = {
    "enumerate_lattice_points": len,
    "eliminate": lambda projections: sum(map(len, projections)),
    "_numerators": lambda cell: cell[0] if cell else 0,  # |det T|, the points of the cell's walk
}
# code objects that are not named functions
ANONYMOUS = {"<listcomp>", "<genexpr>", "<setcomp>", "<dictcomp>", "<lambda>"}
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def run_corpus(seed, trace=True):
    """Run every op of corpus seed `seed`.

    Returns {op kind: (ops, distinct named mldhat functions called, then
    for each of COUNTED its calls and, for those in SIZES, the size of
    their results, then the candidates sieved and the sieve's subtraction
    tests)} and the set of (file, line) pairs of `mldhat` that ran, left
    empty with `trace=False`, which runs no line tracer.
    """
    sys.path.insert(0, str(PERFBENCH))
    import corpus

    profiles, ops = {}, defaultdict(int)
    calls = {name: defaultdict(int) for name in COUNTED}
    sizes = {name: defaultdict(int) for name in SIZES}
    sieved, tests = defaultdict(int), defaultdict(int)
    facet_values = importlib.import_module("mldhat.hilbert").FacetValues
    minimal_elements = facet_values.minimal_elements

    class Tested(int):
        """A packed candidate that counts the subtractions the sieve makes of it."""

        def __rsub__(self, other):
            tests[kind] += 1
            return int(other) - int(self)

    def sieve(coords, packed, *args, **kwargs):
        sieved[kind] += len(packed)
        return [int(e) for e in minimal_elements(coords, list(map(Tested, packed)), *args, **kwargs)]
    targets = [(importlib.import_module(f"mldhat.{module}"), name) for name, modules in COUNTED.items() for module in modules]
    originals = {(module, name): getattr(module, name) for module, name in targets}

    def counter(name, function):
        def counted(*args, **kwargs):
            calls[name][kind] += 1
            result = function(*args, **kwargs)
            if name in SIZES:
                sizes[name][kind] += SIZES[name](result)
            return result

        return counted

    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        # only frames of mldhat get the line tracer
        return trace_lines if pathlib.Path(frame.f_code.co_filename).parent == PACKAGE else None

    for (module, name), function in originals.items():
        setattr(module, name, counter(name, function))
    facet_values.minimal_elements = sieve
    try:
        with tempfile.TemporaryDirectory() as directory:
            for workload in WORKLOADS:
                for op in corpus.build(workload, seed, directory):
                    kind = op.kind
                    profile = profiles.setdefault(kind, cProfile.Profile())
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        sys.settrace(trace_calls if trace else None)
                        try:
                            profile.runcall(main, list(op.argv))
                        finally:
                            sys.settrace(None)
                    ops[kind] += 1
    finally:
        for (module, name), function in originals.items():
            setattr(module, name, function)
        facet_values.minimal_elements = minimal_elements
    counts = {}
    for kind, profile in profiles.items():
        called = pstats.Stats(profile).stats  # keyed by (file, line, function name)
        functions = sum(pathlib.Path(f).parent == PACKAGE and name not in ANONYMOUS for f, _, name in called)
        counts[kind] = (ops[kind], functions)
        for name in COUNTED:
            counts[kind] += (calls[name][kind],) + ((sizes[name][kind],) if name in SIZES else ())
        counts[kind] += (sieved[kind], tests[kind])
    return counts, ran


def own_statements(body):
    """The statements of a body and of its nested blocks, not those of nested defs or classes."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "handlers", "finalbody"):
                yield from own_statements(getattr(node, field, ()))


def unrun_lines(path, ran):
    """First lines of the statements inside functions of `path` that no traced op ran.

    A statement ran when a line of its header ran: its own lines for a
    simple statement, the lines before its first child for a compound one.
    Docstrings and `try:` lines, which hold no code of their own, are left out.
    """
    source = path.read_text(encoding="utf-8")
    lines = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = function.body[ast.get_docstring(function, clean=False) is not None:]
        for node in own_statements(body):
            if isinstance(node, ast.Try):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            header = node.body[0].lineno - 1 if getattr(node, "body", None) else node.end_lineno
            if not any((str(path), line) in ran for line in range(first, max(first, header) + 1)):
                lines.add(node.lineno)
    return sorted(lines)


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
    seeds = [int(arg) for arg in sys.argv[1:]] or [4]
    ran = set()
    for seed in seeds:
        counts, seed_ran = run_corpus(seed)
        ran |= seed_ran
        print(f"corpus seed {seed}: distinct named mldhat functions and kernel calls per op kind")
        print(f"{'kind':<10} {'ops':>5} {'functions':>9} {'evaluations':>11} {'_as_alpha':>9} "
              f"{'certificates':>12} {'pairing':>8} {'hilbert_basis':>13} {'candidates':>10} {'enumerations':>12} {'points':>7} "
              f"{'eliminations':>12} {'rows':>6} {'cells':>6} {'walked':>7} {'folds':>6} {'sieved':>7} {'tests':>7}")
        for kind, row in sorted(counts.items()):
            print(f"{kind:<10} " + " ".join(f"{x:>{w}}" for x, w in zip(row, (5, 9, 11, 9, 12, 8, 13, 10, 12, 7, 12, 6, 6, 7, 6, 7, 7))))
        print()
    print(f"{'module':<16} {'lines':>5} {'code':>5} {'unrun':>5}")
    total = code = missed = 0
    unrun = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines, body = len(path.read_text(encoding="utf-8").splitlines()), code_lines(path)
        unrun[path.name] = unrun_lines(path, ran)
        total, code, missed = total + lines, code + body, missed + len(unrun[path.name])
        print(f"{path.name:<16} {lines:>5} {body:>5} {len(unrun[path.name]):>5}")
    print(f"{'total':<16} {total:>5} {code:>5} {missed:>5}")
    print()
    label = f"seed {seeds[0]}" if len(seeds) == 1 else "seeds " + ", ".join(map(str, seeds))
    print(f"statements inside functions that no op of {label} runs, by first line")
    for name, lines in unrun.items():
        print(f"{name}: {', '.join(map(str, lines)) or '-'}")
