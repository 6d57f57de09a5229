"""Modules under src/ and tests/ use their imports; src/'s private names and the tracer's bindings are read.

Names are matched per module: an import counts as used when its bound name
is read anywhere in the module, or when a string constant in the module
equals it (the CLI looks its loaders and miners up in globals() by name, so
that wrapped bindings are picked up at call time; __all__ lists are strings
too). Package __init__.py files are skipped, since importing there is how the
package re-exports its API.

A private module-level name in src/ (one with a leading underscore) counts
as read when any module under src/, tests/ or perfbench/ loads it as a
name or an attribute, or holds a string constant equal to it.

perfbench/tracer.py swaps module attributes of siftmine for wrappers while a
traced pipeline runs. A binding that no longer exists breaks every traced
run, and one its module no longer reads leaves a counter at 0 unnoticed.

The `_proved` constructors of Itemset, Sequence, PatternRecord and
BinaryMatrix check nothing, so only callers that prove every field
themselves may use them; the one test caller builds its rows from a
checked matrix.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# "<module>.<name>" -> why the import stays although the module never reads it
ALLOWED = {
    "siftmine.graphs.subgraph_isomorphic": "perfbench/tracer.py wraps this binding to count the miner's calls",
}


# (module, attribute) the tracer wraps -> why the module never reads it
UNREAD_BINDINGS = {
    ("siftmine.graphs", "subgraph_isomorphic"): ALLOWED["siftmine.graphs.subgraph_isomorphic"],
    ("siftmine.tiling", "error"): "greedy_select scores trials on masks, so tiling.greedy_error_calls reads 0",
    ("siftmine.graphs", "canonical_code"): "the general miner sorts by the minimum DFS code it grew, so graphs.canon_calls reads 0",
}


def names_read(tree: ast.AST) -> set[str]:
    """Every name the tree loads, and every string constant in it."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unused_imports(source: str, module: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = names_read(tree)
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and f"{module}.{name}" not in ALLOWED
    )


def private_names(tree: ast.Module) -> dict[str, int]:
    """name -> line of each private name the module binds at top level."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    return {name: line for name, line in bound.items() if name.startswith("_") and not name.endswith("__")}


def names_and_attributes_read(tree: ast.AST) -> set[str]:
    """names_read plus every attribute the tree loads."""
    attrs = {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return names_read(tree) | attrs


def unread_private_names(sources: dict[str, str], defining: list[str]) -> list[tuple[str, int, str]]:
    """(path, line, name) of each private top-level name of a defining source that no source reads."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set().union(*map(names_and_attributes_read, trees.values()))
    return sorted(
        (path, line, name)
        for path in defining
        for name, line in private_names(trees[path]).items()
        if name not in read
    )


def test_no_unread_private_names():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in ("src", "tests", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert unread_private_names(sources, [path for path in sources if path.startswith("src")]) == []


def test_checker_flags_unread_private_names():
    defining = "_A = 1\n_B, _C = 2, 3\n_D: int = 4\ndef _f():\n    return _A\nclass _K:\n    pass\n__all__ = []\n"
    reader = "import m\nm._B\nsetattr(m, '_C', 0)\n"
    assert unread_private_names({"m.py": defining, "r.py": reader}, ["m.py"]) == [
        ("m.py", 3, "_D"),
        ("m.py", 4, "_f"),
        ("m.py", 6, "_K"),
    ]


def test_no_unused_imports():
    problems = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            rel = path.relative_to(ROOT)
            module = ".".join(rel.with_suffix("").parts[1 if top == "src" else 0 :])
            for line, name in unused_imports(path.read_text(encoding="utf-8"), module):
                problems.append(f"{rel}:{line}: {name}")
    assert problems == []


def test_checker_flags_unused_imports():
    source = "import os\nimport sys as system\nfrom re import compile, escape\nescape(system.argv[0])\n"
    assert unused_imports(source, "sample") == [(1, "os"), (3, "compile")]
    assert unused_imports("from a import b\n__all__ = ['b']\n", "sample") == []
    assert unused_imports("from a import b\nglobals()['b']()\n", "sample") == []
    assert unused_imports("from x import subgraph_isomorphic\n", "siftmine.graphs") == []


def test_tracer_bindings_resolve_and_are_read():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = [(module, attr) for module, attr, *_ in tracer.SPANNED + tracer.COUNTED]
    assert set(UNREAD_BINDINGS) <= set(bindings)
    for module_name, attr in bindings:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} does not resolve"
        read = attr in names_read(ast.parse(Path(module.__file__).read_text(encoding="utf-8")))
        assert read == ((module_name, attr) not in UNREAD_BINDINGS), f"{module_name}.{attr}"


def test_checker_flags_unread_bindings():
    tree = ast.parse("def error():\n    pass\nclass T:\n    error: int\nx = T().error\n")
    assert "error" not in names_read(tree)
    assert "error" in names_read(ast.parse("error()\n"))


# (path, enclosing function, class) of every use of a _proved constructor that may exist
PROVED_USES = {
    ("src/siftmine/core.py", "mine_patterns", "PatternRecord"),
    ("src/siftmine/itemsets.py", "_eclat", "Itemset"),
    ("src/siftmine/sequences.py", "_spam", "Sequence"),
    ("src/siftmine/formats.py", "_records", "Itemset"),
    ("src/siftmine/formats.py", "_records", "Sequence"),
    ("src/siftmine/formats.py", "_records", "PatternRecord"),
    ("src/siftmine/formats.py", "load_matrix", "BinaryMatrix"),
    ("tests/test_tiling.py", "check", "BinaryMatrix"),
}


def proved_uses(source: str, path: str) -> set[tuple[str, str, str]]:
    """(path, innermost enclosing function, object) of each `<object>._proved` the source reads."""
    uses = set()

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "_proved":
            uses.add((path, func, ast.unparse(node.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return uses


def test_proved_constructors_have_only_their_callers():
    uses = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            uses |= proved_uses(path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)))
    assert uses == PROVED_USES


def test_checker_finds_proved_uses():
    source = "def f():\n    def g():\n        return core.Itemset._proved(())\n    return Sequence._proved\nx = y._proved\n"
    assert proved_uses(source, "m.py") == {
        ("m.py", "g", "core.Itemset"),
        ("m.py", "f", "Sequence"),
        ("m.py", "<module>", "y"),
    }
