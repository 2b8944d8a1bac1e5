"""Every name a module imports is used there.  The package __init__ is
exempt: its imports are the public re-exports."""

import ast
from pathlib import Path

import evqc

MODULES = sorted(p for p in Path(evqc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    dead = [f"{path.name}:{line} {name}" for path in MODULES
            for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert dead == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x.y)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "e")]
