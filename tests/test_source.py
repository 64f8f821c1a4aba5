import ast
import pathlib
import types

import pytest

import mldhat

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "mldhat").glob("*.py"))
TRACING = ROOT / "perfbench" / "tracing.py"


def assert_lines(tree):
    """The line of each assert statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # correctness checks must raise: python -O strips assert statements
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = assert_lines(tree)
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_assert_check_catches():
    source = "def f(x):\n    if x:\n        assert x > 0, 'negative'\n"
    assert assert_lines(ast.parse(source)) == [3]


def test_assert_check_passes_raising_code():
    source = "if x < 0:\n    raise AssertionError('negative')\nassertion = x\n"
    assert not assert_lines(ast.parse(source))


def inexact_nodes(tree):
    """(line, what) for each true division, float literal or fractions import."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "float literal"
        elif isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "fractions" for alias in node.names
        ):
            yield node.lineno, "fractions import"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            yield node.lineno, "fractions import"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exact_arithmetic_only(path):
    # every value is an exact integer: no floats, no rationals
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = sorted(inexact_nodes(tree))
    assert not found, f"{path.name} has inexact arithmetic: {found}"


@pytest.mark.parametrize(
    "source",
    ["x = a / b", "x /= 2", "x = 0.5", "x = 1e3", "from fractions import Fraction", "import fractions"],
)
def test_exactness_check_catches(source):
    assert list(inexact_nodes(ast.parse(source)))


def test_exactness_check_passes_integer_code():
    assert not list(inexact_nodes(ast.parse("x = a // b\nx //= 2\ny = 10**3\nz = float")))


def cache_nodes(tree):
    """The line of each lru_cache import and each cached function of an input.

    A cache on a function without parameters is a lazily built constant
    (the CLI's argument parser) and is allowed.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "lru_cache" for alias in node.names):
                yield node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.args.args or node.args.posonlyargs or node.args.kwonlyargs
            or node.args.vararg or node.args.kwarg
        ):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_per_input_caches(path):
    # a cache keyed by its input pays off only when inputs repeat, and a
    # one-op CLI process never repeats one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(cache_nodes(tree))
    assert not lines, f"{path.name} caches per input at lines {lines}"


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache",
        "@functools.lru_cache(8)\ndef f(x): pass",
        "@functools.cache\ndef f(*, x): pass",
        "@cache\ndef f(x): pass",
    ],
)
def test_cache_check_catches(source):
    assert list(cache_nodes(ast.parse(source)))


def test_cache_check_passes_constants_and_other_functools():
    source = "import functools\n@functools.cache\ndef parser(): pass\nfrom functools import reduce\n"
    assert not list(cache_nodes(ast.parse(source)))


def unread_definitions(trees, exempt=frozenset()):
    """(module, name) for each top-level function or class that no other
    top-level statement of the package reads, by name or attribute.

    Import statements read nothing: they bind names, and a name bound only
    to be re-exported has no reader.  Names in `exempt` are skipped.
    """
    reads = [
        (stmt, {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
         | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)})
        for tree in trees.values()
        for stmt in tree.body
    ]
    for module, tree in trees.items():
        for stmt in tree.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name not in exempt
                and not any(other is not stmt and stmt.name in names for other, names in reads)
            ):
                yield module, stmt.name


def string_constants(tree):
    """Every string constant of a module."""
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}


# the benchmark's tracer looks functions up by name, spelled as strings
TRACED = string_constants(ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING)))
# the report reader that README documents for library callers
DOCUMENTED = {"load_report"}


def test_top_level_names_have_library_readers():
    # code that only the tests use belongs in the tests (reference_kernels.py)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    found = list(unread_definitions(trees, TRACED | DOCUMENTED))
    assert not found, f"functions and classes with no reader in the package: {found}"


def test_private_helper_check_catches():
    trees = {
        "a.py": ast.parse("def _used(): pass\ndef _dead(): return _dead()\nclass _Gone: pass\n"),
        "b.py": ast.parse("from a import _used\nx = _used()\n"),
    }
    assert sorted(unread_definitions(trees)) == [("a.py", "_Gone"), ("a.py", "_dead")]


def test_reader_check_catches_dead_public_function():
    # an import and a listing in __all__ are not readers
    trees = {
        "a.py": ast.parse("def dead(): pass\ndef traced(): pass\n"),
        "__init__.py": ast.parse("from .a import dead, traced\n__all__ = ['dead', 'traced']\n"),
    }
    assert list(unread_definitions(trees)) == [("a.py", "dead"), ("a.py", "traced")]
    assert list(unread_definitions(trees, {"traced"})) == [("a.py", "dead")]


def test_private_helper_check_passes_attribute_and_public_use():
    trees = {"a.py": ast.parse("import m\ndef _helper(): pass\ndef public(): pass\ny = m._helper\nz = public()\n")}
    assert not list(unread_definitions(trees))


def export_faults(module, names):
    """(name, fault) for each exported name listed twice or not bound in module."""
    seen = set()
    for name in names:
        if name in seen:
            yield name, "listed twice"
        elif not hasattr(module, name):
            yield name, "not bound"
        seen.add(name)


def test_public_names_resolve_once():
    found = list(export_faults(mldhat, mldhat.__all__))
    assert not found, f"faults in mldhat.__all__: {found}"


def test_export_check_catches():
    module = types.SimpleNamespace(a=1, b=2)
    assert list(export_faults(module, ["a", "b", "a", "gone"])) == [
        ("a", "listed twice"),
        ("gone", "not bound"),
    ]
