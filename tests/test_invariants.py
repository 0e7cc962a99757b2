"""Internal invariants must stay on under ``python -O``.

``-O`` strips ``assert`` statements, so the package states its invariants
as explicit exceptions instead.
"""

import ast
import pathlib

import reeb_bubble


def test_package_has_no_assert_statements():
    for path in sorted(pathlib.Path(reeb_bubble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"
