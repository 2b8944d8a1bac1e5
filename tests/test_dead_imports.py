"""Every name a module imports is used there, and every private
module-level function has a caller in the package.  The package __init__
is exempt from the first: its imports are the public re-exports.  No
module holds code that only the default interpreter runs, so the package
is one program under ``python`` and ``python -O``."""

import ast
from pathlib import Path

import evqc

PACKAGE = sorted(Path(evqc.__file__).parent.glob("*.py"))
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


def debug_only_code(tree: ast.Module) -> list[tuple[int, str]]:
    """Lines that ``python -O`` strips: each assert statement and each
    use of the name __debug__."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
    return sorted(found)


def test_no_module_holds_code_that_python_o_strips():
    found = [f"{path.name}:{line} {what}" for path in PACKAGE
             for line, what in debug_only_code(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_guard_sees_code_that_python_o_strips():
    tree = ast.parse(
        "if __debug__:\n    check()\nassert x, 'message'\ny = z or __debug__\n"
        "def f(v):\n    assert v is not None\n    return v\n"
    )
    assert debug_only_code(tree) == [(1, "__debug__"), (3, "assert"), (4, "__debug__"), (6, "assert")]


def uncalled_private_functions(trees: list[ast.Module]) -> list[str]:
    """Private (_-prefixed, not dunder) module-level functions that no other
    top-level statement of any of the trees names; a function naming
    itself does not count as a caller."""
    private, names_by_statement = set(), []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                private.add(stmt.name)
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            names_by_statement.append((getattr(stmt, "name", None), names))
    return sorted(name for name in private
                  if not any(name in names for owner, names in names_by_statement if owner != name))


def test_every_private_function_has_a_caller_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE]
    assert uncalled_private_functions(trees) == []


def test_the_guard_sees_an_uncalled_private_function():
    caller = ast.parse("import m\n\ndef run():\n    return m._by_attribute() + _by_name()\n")
    tree = ast.parse(
        "def _by_name():\n    return 1\n\n"
        "def _by_attribute():\n    return 2\n\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n\n"
        "def _unused():\n    return _by_name()\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    assert uncalled_private_functions([tree, caller]) == ["_recursive", "_unused"]


# Each module may import only the evqc modules listed before it.
LAYERS = ["funcspace", "spinops", "states", "timedomain", "engine", "adversary", "measstruct", "cli"]


def evqc_imports(tree: ast.Module) -> set[str]:
    """The evqc modules a module imports, at any depth of its tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("evqc.")}
        elif isinstance(node, ast.ImportFrom) and node.module == "evqc":
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("evqc."):
            found.add(node.module.split(".")[1])
    return found


def test_modules_import_only_earlier_layers():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES if p.name != "__main__.py")
    upward = [f"{path.stem} imports {name}" for path in MODULES if path.stem in LAYERS
              for name in sorted(evqc_imports(ast.parse(path.read_text(encoding="utf-8"))))
              if LAYERS.index(name) >= LAYERS.index(path.stem)]
    assert upward == []


def test_the_layer_guard_sees_every_import_form():
    tree = ast.parse(
        "import evqc.engine\nfrom evqc import cli, states as st\nfrom evqc.spinops import x\n"
        "def f():\n    from evqc.timedomain import y\n"
    )
    assert evqc_imports(tree) == {"engine", "cli", "states", "spinops", "timedomain"}
