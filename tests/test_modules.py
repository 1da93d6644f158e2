"""Module boundaries of the package, read from its source with ast.

_lapack owns every BLAS/LAPACK call through ctypes and the OpenBLAS thread
budget; the other modules use its public names only.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "similearn").glob("*.py"))
# modules whose private names no other module may import
OWNERS = ("solver", "graph", "harness", "_lapack")


def imports(path):
    """(module, name) of each name imported by path; name is None for ``import module``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("similearn.")
            yield from ((module, alias.name) for alias in node.names)


def test_only_lapack_imports_ctypes():
    users = [path.name for path in SOURCES
             if any(module.split(".")[0] == "ctypes" for module, _ in imports(path))]
    assert users == ["_lapack.py"]


def test_no_module_imports_a_private_name_of_another():
    private = [f"{path.name}: {module}.{name}" for path in SOURCES
               for module, name in imports(path)
               if module in OWNERS and name is not None and name.startswith("_")]
    assert private == []
