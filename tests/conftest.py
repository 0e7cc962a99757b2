"""Pytest set-up shared by the whole suite.

Pytest rewrites ``assert`` statements only in test modules and conftest
files, and under ``python -O`` the interpreter strips every other one.
Registering :mod:`helpers` before any test module imports it keeps the
asserts of its checks (``check_split``) running in both modes.
"""

import pytest

pytest.register_assert_rewrite("helpers")
