"""Every name a module imports is used there, every private module-level
function has a caller in the package, and every public module-level
function or class has a user in the package or in the benchmark's code
(not its comments or strings); a test oracle lives in the tests.  The
package __init__ is exempt from the first and counts as no user for the
third: its imports are the public re-exports.  No module imports scipy,
in any scope, so a plain install runs every function.  No module holds
code that only the default interpreter runs, so the package is one
program under ``python`` and ``python -O``."""

import ast
from pathlib import Path

import evqc

PACKAGE = sorted(Path(evqc.__file__).parent.glob("*.py"))
MODULES = sorted(p for p in Path(evqc.__file__).parent.glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def scipy_imports(tree: ast.Module) -> list[int]:
    """Lines of every import of scipy or a scipy submodule, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name.partition(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.lineno] if (node.module or "").partition(".")[0] == "scipy" else []
    return sorted(found)


def test_no_module_imports_scipy():
    found = [f"{path.name}:{line}" for path in PACKAGE
             for line in scipy_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_guard_sees_every_scipy_import():
    tree = ast.parse(
        "import scipy\nimport numpy, scipy.linalg as la\nfrom scipy.optimize import minimize\n"
        "from scipyx import y\nfrom .scipy import z\n"
        "def f():\n    from scipy.linalg import expm\n    return expm\n"
        "class C:\n    def g(self):\n        import scipy.sparse\n"
    )
    assert scipy_imports(tree) == [1, 2, 3, 7, 11]


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


def named_in(node: ast.AST) -> set[str]:
    """The names node's code uses: each Name and Attribute, and each name
    it imports from evqc.  Words in comments and strings are not code."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").partition(".")[0] == "evqc":
            names |= {alias.name for alias in sub.names}
    return names


def unnamed_definitions(trees: list[ast.Module], kinds, picked) -> list[str]:
    """Module-level definitions of the given node kinds whose names pass
    picked and that no other top-level statement of any of the trees
    names; a definition naming itself does not count."""
    defined, names_by_statement = set(), []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, kinds) and picked(stmt.name):
                defined.add(stmt.name)
            names_by_statement.append((getattr(stmt, "name", None), named_in(stmt)))
    return sorted(name for name in defined
                  if not any(name in names for owner, names in names_by_statement if owner != name))


def uncalled_private_functions(trees: list[ast.Module]) -> list[str]:
    """Private (_-prefixed, not dunder) module-level functions no other
    top-level statement names."""
    return unnamed_definitions(trees, ast.FunctionDef, lambda name: name.startswith("_") and not name.startswith("__"))


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


def unused_public_definitions(trees: list[ast.Module], elsewhere: set[str]) -> list[str]:
    """Public module-level functions and classes, cmd_* handlers aside,
    that no other top-level statement names and that are not in elsewhere."""
    found = unnamed_definitions(trees, (ast.FunctionDef, ast.ClassDef),
                                lambda name: not name.startswith(("_", "cmd_")))
    return [name for name in found if name not in elsewhere]


def test_every_public_definition_has_a_user():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    bench_names = set().union(*(named_in(ast.parse(path.read_text(encoding="utf-8"))) for path in BENCHMARK))
    assert unused_public_definitions(trees, bench_names) == []


def test_the_guard_sees_an_unused_public_definition():
    caller = ast.parse("from m import by_name\nimport m\n\ndef run():\n    return m.by_attribute() + by_name()\n")
    tree = ast.parse(
        "def by_name():\n    return 1\n\n"
        "def by_attribute():\n    return 2\n\n"
        "class Used:\n    pass\n\n"
        "def make():\n    return Used()\n\n"
        "def benched():\n    return 3\n\n"
        "def cmd_run(args):\n    return 0\n\n"
        "def recursive(k):\n    return recursive(k - 1)\n\n"
        "class Unused:\n    pass\n"
    )
    assert unused_public_definitions([tree, caller], {"benched", "make", "run"}) == ["Unused", "recursive"]
    bench = ast.parse(
        "from evqc.m import benched\n"
        "import m\n\n"
        "# recursive is only named in this comment.\n"
        "def time_it():\n"
        "    return m.make(), run, 'Unused'\n"
    )
    assert named_in(bench) >= {"benched", "make", "run"}
    assert unused_public_definitions([tree, caller], named_in(bench)) == ["Unused", "recursive"]


# Each module may import only the evqc modules listed before it.
LAYERS = ["funcspace", "spinops", "measstruct", "states", "timedomain", "engine", "adversary", "cli"]


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
