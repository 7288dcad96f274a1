"""Every public function and class of the package is used outside the tests.

A public top-level function or class of ``src/pfc`` must be referenced
somewhere other than its own definition: in the package as an import, a
name (a call, an annotation, a default), an attribute of a ``pfc`` module or
an ``__all__`` entry; or in ``perfbench`` the same way, or as the tracer's
``layer.name`` key.  ``np.mean`` is no use of ``grid.mean``.  A name that
only tests use lives beside them, in ``conftest.py`` or its one test file.

Likewise every defaulted parameter of a public function is passed by some
call in the package or in ``perfbench``: a setting that only tests change is
a module constant, which the tests patch.

And the public names that perfbench's step clock times as steps are the
three schemes' steps and the controller's ``adaptive_advance``, no more.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pfc_aliases(tree: ast.Module) -> set[str]:
    """Names a module binds to ``pfc`` or one of its modules."""
    out = {"pfc"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names
                    if a.name.split(".")[0] == "pfc"}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "pfc"):
            out |= {a.asname or a.name for a in node.names}   # from . import experiments as ex
    return out


def _root(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _uses(node: ast.AST, modules: set[str], keys: bool) -> set[str]:
    """Names referenced under ``node``; with ``keys``, also the last part of a
    dotted string such as ``"model.energy"``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom):
            out |= {a.name for a in n.names}
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and _root(n.value) in modules:
            out.add(n.attr)
        elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets):
            out |= {e.value for e in ast.walk(n.value) if isinstance(e, ast.Constant)}
        elif keys and isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if len(parts) > 1 and all(p.isidentifier() for p in parts):
                out.add(parts[-1])
    return out


def unused_public_names(root: Path = ROOT) -> list[str]:
    """``module.name`` of each public top-level function or class that nothing uses."""
    defined = []
    used = {}   # name -> the (file, line) of each top-level statement that uses it
    for path in sorted((root / "src" / "pfc").glob("*.py")) + sorted(
            (root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_pfc = path.parent.name == "pfc"
        aliases = _pfc_aliases(tree)
        for stmt in tree.body:
            where = (path, stmt.lineno)
            if (in_pfc and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.append((path.stem, stmt.name, where))
            for name in _uses(stmt, aliases, keys=not in_pfc):
                used.setdefault(name, set()).add(where)
    return [f"{mod}.{name}" for mod, name, where in defined
            if not used.get(name, set()) - {where}]


def test_every_public_name_is_used_outside_tests():
    assert unused_public_names() == []


# Defaults that a shipped call reaches through a name the scan cannot follow.
REACHED_INDIRECTLY = {
    "steppers.bdf2_step.forcing_hat":
        "run_fixed_mesh looks the step up by scheme name and calls "
        "step(state, tau, p, *forcing)",
}


def unpassed_defaults(root: Path = ROOT) -> list[str]:
    """``module.function.parameter`` of each defaulted parameter of a public
    function (or public method of a public class) of ``src/pfc`` that no call
    in ``src/pfc`` or ``perfbench`` passes, by keyword or by position.

    A call is matched by the called name alone; one with ``*args`` or
    ``**kwargs`` passes everything.
    """
    passed = {}   # called name -> keywords and positions passed, "*" for all
    defaults = []   # (module.function.parameter, function, the ways to pass it)
    for path in sorted((root / "src" / "pfc").glob("*.py")) + sorted(
            (root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                got = passed.setdefault(name, set())
                got |= {k.arg or "*" for k in n.keywords} | set(range(len(n.args)))
                if any(isinstance(a, ast.Starred) for a in n.args):
                    got.add("*")
        for stmt in tree.body if path.parent.name == "pfc" else []:
            fns = [(stmt, 0)] if isinstance(stmt, ast.FunctionDef) else []
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                fns = [(f, 1) for f in stmt.body if isinstance(f, ast.FunctionDef)]
            for fn, bound in fns:   # a method's call leaves out self
                if fn.name.startswith("_"):
                    continue
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                for i, arg in enumerate(args[first:], first - bound):
                    defaults.append((f"{path.stem}.{fn.name}.{arg.arg}", fn.name, {arg.arg, i}))
                defaults += [(f"{path.stem}.{fn.name}.{arg.arg}", fn.name, {arg.arg})
                             for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                             if d is not None]
    return [key for key, name, ways in defaults
            if not passed.get(name, set()) & (ways | {"*"})]


def test_every_default_is_passed_by_a_shipped_caller():
    unpassed = unpassed_defaults()
    assert sorted(set(unpassed) - set(REACHED_INDIRECTLY)) == []
    # an exemption the scan no longer needs is removed
    assert set(REACHED_INDIRECTLY) <= set(unpassed)


def test_step_clock_times_exactly_the_steps():
    """perfbench's step clock wraps each public ``steppers.*_step`` function and
    its ``ADVANCE``; a public helper named ``*_step`` would be timed and
    counted as a step, and the benchmark's step counts would be off."""
    import pfc.cli   # noqa: F401  imports every pfc module that public_functions scans
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    timed = {name for name, _ in tracer.public_functions()
             if tracer._is_step(name) or name == tracer.ADVANCE}
    assert timed == {"steppers.bdf2_step", "steppers.cn_step", "steppers.cncs_step",
                     "adaptive.adaptive_advance"}
