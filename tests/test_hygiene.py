"""Source hygiene checks that need no tool beyond the standard library."""

import ast
from pathlib import Path

import holonet

SOURCES = sorted(Path(holonet.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import outside `from __future__`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def test_every_imported_name_is_used():
    assert len(SOURCES) > 10
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_small_float_literals_live_in_reports():
    """Thresholds are named constants in `reports.py`, never literals."""
    stray = []
    for path in SOURCES:
        if path.name == "reports.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{n.lineno} {n.value!r}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, float)
                  and 0.0 < abs(n.value) < 1e-3]
    assert stray == []


def test_every_tolerance_parameter_is_read():
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {fn.name}({name})"
                       for name in names if "tol" in name and name not in read]
    assert unread == []
