"""Every name the package defines is read in the package, or is listed here with its reason.

A function, class or method that no package code reads is either test-only
code, which belongs in tests/conftest.py, or is kept for a caller outside
the package.  The scan takes every top-level function and class and every
non-dunder method of src/pathenum/*.py.  A name is read where an ast.Name or
an ast.Attribute anywhere in the package, outside the name's own
definition, loads it.  A method is matched by its bare name, so it counts as
read wherever an attribute of that name is.  An import binds a name without
reading it, so a re-export from __init__.py does not count.
"""

import ast
import collections
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "pathenum"
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}

# Unread in the package, each kept for the reason given.
KEPT = {
    # traced by perfbench/spans.py, whose targets must stay bound (tests/test_trace_targets.py)
    "algebra.TSeries.inverse",
    "matrices.TriMatrix.inverse_unit_lower",
    "motzkin.grand_motzkin_series",
    "schroder.w_series",
    "schroder.schroder_series",
    "schroder.w_p_poly",
    # imported by perfbench/gate.py as its closed-form references
    "hankel.second_hankel_closed",
    "hankel.shifted_hankel_binomial",
    # looked up by name in cli.main
    "cli._cmd_seq",
    "cli._cmd_matrix",
    "cli._cmd_hankel",
    "cli._cmd_verify",
    # named in the README's Library section
    "motzkin.inverse_motzkin_poly",
    "schroder.compressed_p_poly",
    "schroder.banded_w_gf",
    "oracle.count_paths",
    "oracle.CountTable.recursion_holds",
    # ROADMAP item 8: the planned `verify hankel` suite calls it
    "hankel.hankel_recursion_check",
    # ROADMAP item 8: tests read the zeros above the diagonal through it
    "matrices.TriMatrix.entry",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each top-level def and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _reads(node: ast.AST) -> collections.Counter:
    """How often each name is loaded under node, as a Name or as an attribute."""
    reads = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads[n.attr] += 1
    return reads


def test_every_unread_name_is_kept_for_a_reason():
    everywhere = sum((_reads(tree) for tree in TREES.values()), collections.Counter())
    unread = {
        f"{module}.{qualified}"
        for module, tree in TREES.items()
        for qualified, name, node in _definitions(tree)
        if everywhere[name] == _reads(node)[name]
    }
    extra, stale = sorted(unread - KEPT), sorted(KEPT - unread)
    assert not extra, f"no package code reads {', '.join(extra)}; move them to the tests"
    assert not stale, f"the package reads {', '.join(stale)}; drop them from KEPT"
