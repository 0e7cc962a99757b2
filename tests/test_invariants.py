"""Package-wide invariants.

Internal invariants must stay on under ``python -O``: ``-O`` strips
``assert`` statements, so the package states its invariants as explicit
exceptions instead.  Each module's ``__all__`` names only what the module
binds, once each, and every name the benchmark's tracer wraps is bound
where the tracer looks it up.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import reeb_bubble


def test_package_has_no_assert_statements():
    for path in sorted(pathlib.Path(reeb_bubble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def test_every_exported_name_is_bound_once():
    modules = [reeb_bubble] + [
        importlib.import_module(f"reeb_bubble.{info.name}")
        for info in pkgutil.iter_modules(reeb_bubble.__path__)
    ]
    for mod in modules:
        exported = getattr(mod, "__all__", [])
        unbound = [name for name in exported if not hasattr(mod, name)]
        assert not unbound, f"{mod.__name__} exports unbound names {unbound}"
        repeated = sorted({name for name in exported if exported.count(name) > 1})
        assert not repeated, f"{mod.__name__} lists {repeated} more than once"


def test_every_traced_name_is_bound_in_its_module():
    # perfbench/tracer.py looks each name up with getattr when it installs
    # its wrappers; a missing name breaks every traced benchmark run
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = ((tracer.LAYERS, inspect.isfunction), (tracer.CONSTRUCTORS, inspect.isclass))
    for kinds, check in traced:
        for layer, names in kinds.items():
            mod = importlib.import_module(f"reeb_bubble.{layer}")
            missing = [name for name in names if not check(getattr(mod, name, None))]
            assert not missing, f"reeb_bubble.{layer} does not bind {missing}"
