"""The benchmark in perfbench/ calls and wraps hypack's public API by name.

These checks keep the names it relies on in place: the tracer finds
every method and function it wraps and restores each original, and every
``hp.<name>`` the workloads use resolves on the package. The public
surface itself is exactly the names its users take: the CLI, ``verify``,
the README's library sketch and the benchmark.
"""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import hypack
import hypack.cli  # install() imports it; load it before any snapshot

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hp_names(source):
    """The names used as ``hp.<name>`` in Python source."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "hp"
    }


def _snapshot():
    """Every binding of every hypack module, and every hypack class's dict."""
    modules, classes = {}, {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hypack" or name.startswith("hypack.")):
            continue
        modules[name] = dict(vars(mod))
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__.startswith("hypack"):
                classes[value] = dict(value.__dict__)
    return modules, classes


def test_tracer_wraps_every_target_and_restores_it():
    tracer_mod = _load("tracer")
    before_modules, before_classes = _snapshot()
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer, hypack)
    try:
        assert tracer.missing == []
        assert hypack.mc_area_fraction is not before_modules["hypack"]["mc_area_fraction"]
    finally:
        tracer.uninstall()
    after_modules, after_classes = _snapshot()
    for name, binding in before_modules.items():
        after = after_modules[name]
        assert after.keys() == binding.keys(), name
        for key, value in binding.items():
            assert after[key] is value, f"{name}.{key}"
    for cls, attrs in before_classes.items():
        after = after_classes[cls]
        assert after.keys() == attrs.keys(), cls.__name__
        for key, value in attrs.items():
            assert after[key] is value, f"{cls.__name__}.{key}"


def test_workload_names_resolve_on_the_package():
    _load("workloads")
    used = _hp_names((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    assert used
    assert sorted(name for name in used if not hasattr(hypack, name)) == []


def test_metric_workload_checks_pass(tmp_path):
    workloads = _load("workloads")
    checks = workloads.metric_run(hypack, workloads.metric_inputs(1), str(tmp_path))
    assert checks
    assert [name for name, ok in checks if not ok] == []


def test_deep_workload_checks_pass(tmp_path):
    # f_R to R = 12 and the mass-transport mean over B(0, 7), which
    # builds one Dirichlet cell per owner site
    workloads = _load("workloads")
    checks = workloads.deep_run(hypack, workloads.deep_inputs(1), str(tmp_path))
    assert checks
    assert [name for name, ok in checks if not ok] == []


def test_public_surface_is_what_its_users_take():
    used = set()
    for name in ("cli", "verify"):
        tree = ast.parse((ROOT / "src" / "hypack" / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                used |= {alias.name for alias in node.names}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _hp_names(block)
    for path in PERFBENCH.glob("*.py"):
        used |= _hp_names(path.read_text(encoding="utf-8"))
    assert len(hypack.__all__) == len(set(hypack.__all__))
    assert set(hypack.__all__) == used
    assert len(used) <= 55


def _called_names(source):
    """The attribute names in Python source and the string arguments of
    its calls, as getattr and the tracer's wrappers take a method's name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Call):
            names |= {arg.value for arg in node.args
                      if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return names


def test_every_public_definition_has_a_caller():
    # a module-level function or class of src/hypack is exported or used by
    # other package code: names, attributes and imports count, text in
    # docstrings does not. An underscored helper must be used by package
    # code; one that only tests use belongs in tests/oracles.py
    defined, used, methods = {}, set(), {}
    for path in sorted((ROOT / "src" / "hypack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                methods.update((f"{node.name}.{item.name}", item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and (item.name == "__call__" or not item.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert any(name.startswith("_") for name in defined)
    unused = {name: module for name, module in defined.items()
              if name not in used and name not in hypack.__all__}
    assert unused == {}

    # a method or property of a package class, dunders aside but __call__
    # among them, is called by name in the package, the benchmark or the
    # README sketch. Packing.covers and Region.contains, covers_xy on one
    # point, are the library's own one-point predicates
    called = set()
    for path in [*(ROOT / "src" / "hypack").glob("*.py"), *PERFBENCH.glob("*.py")]:
        called |= _called_names(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        called |= _called_names(block)
    assert "Packing.covers" in methods and "Region.contains" in methods
    uncalled = sorted(key for key, name in methods.items()
                      if name not in called and key not in ("Packing.covers", "Region.contains"))
    assert uncalled == []


def _import_time_nodes(node):
    """The nodes below node that run when its module is imported: all but
    the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def _scipy_imports(nodes_of):
    """module:line of every scipy import among nodes_of(tree) of each
    module under src/hypack."""
    found = []
    for path in sorted((ROOT / "src" / "hypack").glob("*.py")):
        for node in nodes_of(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in modules):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_scipy_when_imported():
    # scipy (0.44 s of a cold import) stays out of `import hypack`
    found = _scipy_imports(_import_time_nodes)
    assert not found, f"scipy imported at module scope: {', '.join(found)}"


def test_no_module_imports_scipy():
    # the runtime needs numpy alone: scipy is a test dependency, for the
    # oracles, and no function under src/hypack imports it either
    found = _scipy_imports(ast.walk)
    assert not found, f"scipy imported: {', '.join(found)}"
