"""Package layout: no unused module-level imports, unexported definitions or defaulted parameters,
__all__ matches the imports, and no NumPy function written in Python on a benchmark unit's path."""

import ast
import sys
from pathlib import Path

import pytest

import relayauction
from relayauction import (
    KINDS,
    AuctionParams,
    MultiUserSpec,
    TwoUserSweepSpec,
    build_two_user_scenario,
    calibrate_price,
    fair_allocation,
    positive_increase_variance,
    sample_topologies,
    scenario_from_topology,
    solve_ne,
    vcg_auction,
)

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
    # a module-level function or class that __all__ does not export, private or not, and that
    # nothing else in the package names is dead code (a helper only the tests call included)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in relayauction.__all__:
                rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
                others = (t for other, t in trees.items() if other != name)
                if not any(node.name in _used(t) | set(_imported(t)) for t in (rest, *others)):
                    unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, f"unexported definitions no other package code names: {unreferenced}"


def _calls_by_name(trees) -> dict:
    """Every call in the trees, by the name it calls: a plain name or the last attribute."""
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(node.func, "id", None) or node.func.attr, []).append(node)
    return calls


def _functions(tree: ast.Module):
    """The module-level functions and methods of a module, each with its class (None for a function)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node.name, m) for m in node.body if isinstance(m, ast.FunctionDef))


def _defaulted(owner, fn: ast.FunctionDef) -> list:
    """A function's defaulted parameters as (position among the passed positional ones, or None, name)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if owner and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}:
        positional = positional[1:]  # self or cls, which a call does not pass
    first = len(positional) - len(args.defaults)
    return [(k, a.arg) for k, a in enumerate(positional) if k >= first] + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def _passes(call: ast.Call, position, name: str) -> bool:
    """Whether a call may pass a parameter: by keyword, by position or through * or **."""
    return (
        any(keyword.arg in (name, None) for keyword in call.keywords)
        or any(isinstance(arg, ast.Starred) for arg in call.args)
        or (position is not None and len(call.args) > position)
    )


def test_every_unexported_default_is_passed_somewhere():
    # a defaulted parameter of a module-level function or method that __all__ does not export,
    # which no call in the package or the tests passes, is a dead option: its other branch never
    # runs.  Calls are matched by name (a method by its attribute, __init__ by its class), so a
    # call of another function of the same name may hide one, never invent one.
    tests = Path(__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*MODULES, *tests.glob("*.py")]}
    calls = _calls_by_name(trees.values())
    unpassed = [
        f"{path.stem}.{owner + '.' if owner else ''}{fn.name}({name})"
        for path in MODULES
        for owner, fn in _functions(trees[path])
        if (owner or fn.name) not in relayauction.__all__
        for position, name in _defaulted(owner, fn)
        if not any(_passes(call, position, name) for call in calls.get(owner if fn.name == "__init__" else fn.name, []))
    ]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


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


def test_oracles_import_no_per_rule_name_from_auction():
    # the oracles read the scenario's core (auction._Core) and the power demand on it, never an
    # auction's per-rule arrays, rules or kinds
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "auction" and node.level == 1
        for alias in node.names
    ]
    per_rule = {"_UserArrays", "_rule", "_RULES", "POWER", "SNR"}
    assert "_Core" in imported and not per_rule & set(imported), f"oracles.py imports {imported} from auction"


# NumPy functions written in Python, each a few microseconds of Python frames before the C call
# it wraps, and the array methods var, mean and std, which make several NumPy calls in Python;
# the per-user arrays hold 2-20 users, so such a call costs more than the arithmetic it does.
PYTHON_LEVEL_NUMPY = {"var", "mean", "any", "all", "full", "tile", "stack", "sort", "diagonal", "flatnonzero", "errstate"}
PYTHON_LEVEL_METHODS = {"var", "mean", "std"}

# functions that may call them, each because no benchmark unit (an auction calibrated and solved,
# a sweep row, an oracle call) reaches it
ALLOWED_PYTHON_LEVEL_NUMPY = {
    "auction.allocate": "validates a bid profile; only equilibrium_from_bids allocates bids",
    "auction._UserArrays.factors": "read by iterate_best_response alone; equilibria read demands",
    "dynamics.update_matrix": "the iteration matrix, a diagnostic",
    "dynamics.iterate_best_response": "best-response iteration, a diagnostic",
    "experiments.run_multi_user": "the study's column means, once per budget after its units",
}


def _python_level_numpy_calls(tree: ast.Module, module: str) -> dict:
    """The banned calls of a module by enclosing module-level function or method (nested ones count to it)."""
    calls: dict = {}

    def visit(node, owner, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not in_function:
            owner, in_function = f"{owner}.{node.name}", not isinstance(node, ast.ClassDef)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, on = node.func.attr, node.func.value
            numpy = isinstance(on, ast.Name) and on.id == "np"
            if numpy and (name in PYTHON_LEVEL_NUMPY or name.endswith("_like")) or (
                not numpy and name in PYTHON_LEVEL_METHODS
            ):
                calls.setdefault(owner, []).append(f"line {node.lineno}: .{name}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner, in_function)

    visit(tree, module, False)
    return calls


def test_no_python_level_numpy_function_outside_the_allowed_functions():
    found = {}
    for path in MODULES:
        found.update(_python_level_numpy_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert {owner: lines for owner, lines in found.items() if owner not in ALLOWED_PYTHON_LEVEL_NUMPY} == {}
    # every allowance is still used, so that none outlives its reason
    assert set(ALLOWED_PYTHON_LEVEL_NUMPY) == set(found)


def test_the_allowed_functions_stay_off_every_benchmark_path():
    # the calls a benchmark unit makes, profiled: none may enter an allowed function
    spec = MultiUserSpec(n_users=4, n_topologies=3)
    scenarios = [build_two_user_scenario(TwoUserSweepSpec(), y) for y in (-120.0, 0.0, 25.0)]
    scenarios += [scenario_from_topology(spec, nodes, 0.1) for nodes in sample_topologies(spec)]
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(PACKAGE)):
            reached.add(f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}")

    sys.setprofile(profile)
    try:
        for sc in scenarios:
            vcg_auction(sc)
            fair_allocation(sc)
            for kind in KINDS:
                search = calibrate_price(sc, kind)
                positive_increase_variance(solve_ne(sc, AuctionParams(kind, search.price)).rate_increase_bps)
    finally:
        sys.setprofile(None)
    assert "oracles.fair_allocation" in reached and "dynamics.solve_ne" in reached
    assert reached & set(ALLOWED_PYTHON_LEVEL_NUMPY) == set()
