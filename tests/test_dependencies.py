"""Declared dependencies match what the package imports.

The third-party packages that ``src/traintracks/*.py`` import, found with
``ast`` (the standard library and the package's own modules left out), must
be exactly the names in ``pyproject.toml``'s ``dependencies``, so a stale or
missing declaration fails the suite.  Every name a module imports at module
level must also be read in it (``__init__.py``, which re-exports, aside),
and every public function or method the package defines must be read as a
name or an attribute by code in ``src/``, ``demos/`` or ``perfbench/``, or
be patched by the benchmark's tracer, so a helper that only tests call fails.
"""

import ast
import importlib.util
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


def public_defs(path: Path) -> list:
    """Names of the module-level functions and class methods in ``path``
    that do not start with an underscore."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return [
        node.name
        for body in bodies
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def names_read(path: Path) -> set:
    """Every name and attribute that the code in ``path`` reads, from its AST,
    so words in strings and comments do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def traced_names() -> set:
    """The functions and methods that ``perfbench/tracing.py`` patches by name,
    its module loaded from its file as ``tests/test_traced_names.py`` loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    attrs = [attr for _, _, attr, _ in tracing.SPANS] + [attr for _, attr, _ in tracing.COUNTERS]
    return {attr.rsplit(".", 1)[-1] for attr in attrs}


def test_every_public_def_is_named_in_src_or_demos():
    """A public def is read, as a name or an attribute, by code in ``src/``,
    ``demos/`` or ``perfbench/``, or is patched by the tracer; the re-exports
    in ``__init__.py`` do not count, so a helper that only tests call fails."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(names_read, paths)) | traced_names()
    defined = sorted({name for path in PACKAGE.glob("*.py") for name in public_defs(path)})
    assert [name for name in defined if name not in read] == []
