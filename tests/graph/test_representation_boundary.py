"""Only ``repro.graph`` knows how a graph is held.

Every other module reads a graph through its public methods, so the
representation can change inside ``repro/graph/`` alone.  This scans the
source for attribute reads that reach into a graph: a private attribute
of anything named like a graph (``graph._x``, ``window_graph._x``), or
the representation's own names (``._columns``, ``._out``, ``._in``) on
anything at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
REPRESENTATION = {"_columns", "_out", "_in"}


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def private_graph_reads(source: str):
    """``(line, expression)`` of each read into a graph's internals."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        private = attr.startswith("_") and not attr.startswith("__")
        graph_like = "graph" in _name(node.value).lower()
        if attr in REPRESENTATION or (private and graph_like):
            yield node.lineno, ast.unparse(node)


def test_no_module_outside_the_graph_package_reads_graph_internals():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {expression}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if PACKAGE / "graph" not in path.parents
        for line, expression in private_graph_reads(path.read_text())
    ]
    assert found == []


def test_the_scan_sees_graph_internals():
    source = "graph._left\nwindow_graph._cache\nself._graphs.get(key)\nx._columns\npack._out\n"
    assert [expression for _, expression in private_graph_reads(source)] == [
        "graph._left",
        "window_graph._cache",
        "x._columns",
        "pack._out",
    ]
