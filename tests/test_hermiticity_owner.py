"""Hermiticity is decided in one place: `Operator.__post_init__` is the only
caller of `is_hermitian` in the package, and no call passes a `hermitian=`
claim, so every other site reads the flag the Operator stored."""

import ast
from pathlib import Path

import evqc

PACKAGE = sorted(Path(evqc.__file__).parent.glob("*.py"))


def scoped_calls(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """(scope, call) for every call in tree; the scope is the dotted chain of
    enclosing classes and functions, "" at module level."""
    calls = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                calls.append((scope, child))
            visit(child, scope)

    visit(tree, "")
    return calls


def hermiticity_decisions(trees: dict[str, ast.Module]) -> tuple[list[str], list[str]]:
    """The scopes that call is_hermitian, by name or attribute, and the
    lines of every call that passes a hermitian= keyword."""
    detections, claims = [], []
    for name, tree in trees.items():
        for scope, call in scoped_calls(tree):
            func = call.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "is_hermitian":
                detections.append(f"{name}:{scope}")
            if any(k.arg == "hermitian" for k in call.keywords):
                claims.append(f"{name}:{call.lineno}")
    return detections, claims


def test_only_the_operator_decides_hermiticity():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert hermiticity_decisions(trees) == (["spinops.py:Operator.__post_init__"], [])


def test_the_guard_sees_a_second_detection_and_a_claim():
    tree = ast.parse(
        "class Operator:\n"
        "    def __post_init__(self):\n"
        "        return is_hermitian(self.mat)\n\n"
        "def require(m):\n"
        "    return m.hermitian or spinops.is_hermitian(m.mat)\n\n"
        "X = Operator(mat, hermitian=True)\n"
    )
    assert hermiticity_decisions({"m.py": tree}) == (
        ["m.py:Operator.__post_init__", "m.py:require"],
        ["m.py:8"],
    )
