"""Every module of the package uses every name it imports.

A name bound by an import and never read is left over from code that moved
or went away.  __init__.py is skipped: it imports names to re-export them.
A name bound only so that a tool outside the package can find it would need
an exemption here, named with its reason; none does today.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "pathenum"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(_imported(tree) - _read(tree))
    assert not unused, f"{path.name} imports but never uses {', '.join(unused)}"
