"""Every module under src/ and tests/ uses each name it imports.

Names are matched per module: an import counts as used when its bound name
is read anywhere in the module, or when a string constant in the module
equals it (the CLI looks its loaders and miners up in globals() by name, so
that wrapped bindings are picked up at call time; __all__ lists are strings
too). Package __init__.py files are skipped, since importing there is how the
package re-exports its API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# "<module>.<name>" -> why the import stays although the module never reads it
ALLOWED = {
    "siftmine.graphs.subgraph_isomorphic": "perfbench/tracer.py wraps this binding to count the miner's calls",
}


def unused_imports(source: str, module: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and f"{module}.{name}" not in ALLOWED
    )


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
