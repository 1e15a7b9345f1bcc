"""Declared dependencies match what the package imports.

The third-party packages that ``src/traintracks/*.py`` import, found with
``ast`` (the standard library and the package's own modules left out), must
be exactly the names in ``pyproject.toml``'s ``dependencies``, so a stale or
missing declaration fails the suite.  Every name a module imports at module
level must also be read in it (``__init__.py``, which re-exports, aside).
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "traintracks"


def imported_packages() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"traintracks"}


def declared_packages() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_") for dep in deps}


def test_declared_dependencies_are_the_imported_ones():
    assert imported_packages() == declared_packages()


def test_import_leaves_scipy_out():
    code = "import sys, traintracks; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def unused_imports(path: Path) -> list:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_import(name):
    assert unused_imports(PACKAGE / name) == []
