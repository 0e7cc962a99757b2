"""Package-wide invariants.

Internal invariants must stay on under ``python -O``: ``-O`` strips
``assert`` statements, so the package states its invariants as explicit
exceptions instead.  Each module's ``__all__`` names only what the module
binds, once each.
"""

import ast
import importlib
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
