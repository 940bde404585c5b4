"""Package layout: no unused module-level imports or private definitions, and __all__ matches the imports."""

import ast
from pathlib import Path

import pytest

import relayauction

PACKAGE = Path(relayauction.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Names bound by the module-level imports (not __future__), with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set:
    """Names the module loads, counting those inside string annotations such as "_UserArrays"."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    public = {name for name in _imported(tree) if not name.startswith("_")}
    assert set(relayauction.__all__) == public
    assert len(relayauction.__all__) == len(public)  # no name listed twice
    assert [name for name in relayauction.__all__ if not hasattr(relayauction, name)] == []


def test_every_private_definition_is_referenced():
    # a private module-level function or class that nothing else in the package names is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
                others = (t for other, t in trees.items() if other != name)
                if not any(node.name in _used(t) | set(_imported(t)) for t in (rest, *others)):
                    unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, f"private definitions no other code names: {unreferenced}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_log_gain_crosses_from_channel_privately(path):
    # the model's formulas on per-user arrays live behind auction._Core; _log_gain is the
    # one private channel formula it shares with the scalar channel functions
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "channel" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "_log_gain"
    ]
    assert not private, f"{path.name} imports private channel names {private}"
