"""The tolerance policy lives in one module, cstarkit.tolerances."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import cstarkit
from cstarkit import cli, spectral

PACKAGE = Path(cstarkit.__file__).resolve().parent

# Small float literals that are not tolerances, as (file, top-level name, value).
NOT_TOLERANCES = Counter(
    {
        # rounding margin of neumann_inverse's Frobenius stopping test
        ("spectral.py", "neumann_inverse", 1e-12): 1,
        # lower end of the --length domain [1e-100, 1e100]
        ("cli.py", "_OPTION_DOMAINS", 1e-100): 1,
    }
)


def _owner(stmt: ast.stmt) -> str:
    if hasattr(stmt, "name"):
        return stmt.name
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return getattr(targets[0], "id", "<module>")


def _small_float_literals(path: Path) -> Counter:
    found = Counter()
    for stmt in ast.parse(path.read_text()).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0.0 < abs(node.value) <= 1e-2:
                    found[(path.name, _owner(stmt), node.value)] += 1
    return found


def test_no_tolerance_literal_outside_the_tolerance_module():
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "tolerances.py":
            found += _small_float_literals(path)
    assert not found - NOT_TOLERANCES


@pytest.mark.parametrize(
    "command, library", [("sqrt", spectral.sqrt_positive), ("neumann", spectral.neumann_inverse)]
)
def test_cli_tol_defaults_are_the_library_defaults(command, library):
    args = cli.build_parser().parse_args([command, "--input", "unused.json"])
    assert args.tol == inspect.signature(library).parameters["tol"].default
