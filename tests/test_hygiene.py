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
