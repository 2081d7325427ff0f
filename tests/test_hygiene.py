"""Source hygiene checks that need no tool beyond the standard library."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import holonet
from holonet.shift_calculus import ShiftOp

SOURCES = sorted(Path(holonet.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


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


def is_tolerance(node) -> bool:
    return isinstance(node, ast.Name) and (node.id == "tol" or node.id.endswith("_TOL"))


def test_tolerance_gates_fail_on_nan():
    """A gate written `defect > tol` passes a NaN defect, because every
    comparison with NaN is False; gates are written `not defect <= tol`.
    Fails on any `>` comparison against `tol` or a `*_TOL` name.
    Exempt: the rank count in
    `linalg.null_space`, which counts singular values above `tol` and
    gates nothing."""
    exempt = {("linalg.py", "null_space")}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        spans = [(fn.lineno, fn.end_lineno, fn.name) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and (path.name, fn.name) in exempt]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, ast.Gt) and is_tolerance(right)
                       for op, right in zip(node.ops, node.comparators)):
                continue
            if not any(lo <= node.lineno <= hi for lo, hi, _ in spans):
                found.append(f"{path.name}:{node.lineno}")
        assert len(spans) == sum(name == path.name for name, _ in exempt)
    assert found == []


def names_in(nodes) -> set[str]:
    """Every name the nodes mention: identifiers, attribute names, and
    the parts of string constants that are dotted names (`bench/spans.py`
    patches functions by name)."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and DOTTED.fullmatch(n.value)):
                out.update(n.value.split("."))
    return out


def _is_method(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def unreached_definitions(modules: dict[str, str], roots: set[str]) -> list[str]:
    """Qualified names of the top-level functions and classes and the
    non-dunder methods of `modules` (module name -> source) that nothing
    reaches from `roots` or from module-level code.

    A definition is reached when its name is a root or is mentioned by
    module-level code or by a reached definition.  A class body is
    scanned apart from its methods, so a reached class does not reach
    all of its methods; dunder methods are scanned with their class.
    Imports reach nothing.  The check goes by name, so two definitions
    that share a name are reached together: a collision can hide dead
    code, never fail live code.
    """
    defs = []  # (name, qualified name, nodes to scan once reached)
    reached = set(roots)
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.ClassDef):
                body = [s for s in stmt.body if not _is_method(s)]
                defs.append((stmt.name, f"{module}.{stmt.name}",
                             [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *body]))
                defs += [(m.name, f"{module}.{stmt.name}.{m.name}", [m])
                         for m in stmt.body if _is_method(m)]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((stmt.name, f"{module}.{stmt.name}", [stmt]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached |= names_in([stmt])
    pending = defs
    while hit := [d for d in pending if d[0] in reached]:
        pending = [d for d in pending if d[0] not in reached]
        for _, _, nodes in hit:
            reached |= names_in(nodes)
    return sorted(qualified for _, qualified, _ in pending)


def test_every_definition_is_reached():
    """Roots: module-level code in `src/holonet` (the CLI's command table
    among it), every name in `bench/*.py` and `tests/test_acceptance.py`,
    and the backticked names of the README.  Other tests are not roots,
    so code that only tests call belongs in the tests."""
    parse = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    parse.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    roots = names_in(parse)
    for tick in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        if DOTTED.fullmatch(tick):
            roots.update(tick.split("."))
    modules = {p.stem: p.read_text() for p in SOURCES}
    assert unreached_definitions(modules, roots) == []


def test_reachability_finds_an_uncalled_function():
    source = """
def run():
    return helper()

def helper():
    return 1

def orphan():
    return helper()

class Op:
    def __init__(self):
        self.value = helper()

    def used(self):
        return 1

    def unused(self):
        return orphan()

TABLE = {"run": run}
"""
    got = unreached_definitions({"m": source}, {"Op", "used"})
    assert got == ["m.Op.unused", "m.orphan"]
    assert unreached_definitions({"m": source}, {"Op", "used", "unused"}) == []


def test_module_table_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `holonet\.(\w+)` \|", readme, flags=re.MULTILINE)
    modules = [p.stem for p in SOURCES if p.stem != "__init__"]
    assert sorted(rows) == modules


# Backticked names of the module table that are not holonet names: the
# builtin `id` (reports keys its memo by it), the parameter name `tol`, and
# `TOP`, the name of the element that `standard.with_top` adjoins.
TABLE_PROSE = {"id", "tol", "TOP"}


def stale_table_names(readme: str) -> list[str]:
    """Backticked dotted names in the README module rows that are not a
    holonet module, a module-level name, a class attribute or a dataclass
    field.  A name that starts with a module resolves attribute by
    attribute; any other name resolves part by part."""
    modules = {p.stem: importlib.import_module(f"holonet.{p.stem}")
               for p in SOURCES if p.stem != "__init__"}
    known = set(modules)
    for mod in modules.values():
        known.update(vars(mod))
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                known.update(dir(obj))
                if dataclasses.is_dataclass(obj):
                    known.update(f.name for f in dataclasses.fields(obj))
    rows = [line for line in readme.splitlines()
            if re.match(r"^\| `holonet\.\w+` \|", line)]
    stale = []
    for tick in sorted({t for line in rows for t in re.findall(r"`([^`\n]+)`", line)}):
        if not DOTTED.fullmatch(tick) or tick in TABLE_PROSE:
            continue
        parts = tick.removeprefix("holonet.").split(".")
        if parts[0] in modules:
            obj, ok = modules[parts[0]], True
            for part in parts[1:]:
                ok = ok and hasattr(obj, part)
                obj = getattr(obj, part, None)
        else:
            ok = all(part in known for part in parts)
        if not ok:
            stale.append(tick)
    return stale


def test_module_table_names_exist():
    readme = (ROOT / "README.md").read_text()
    assert stale_table_names(readme) == []
    planted = readme + "| `holonet.bundle` | `StarIso`, `holonet.cstar`, `bundle.nothing` |\n"
    assert stale_table_names(planted) == ["StarIso", "bundle.nothing", "holonet.cstar"]


def test_bench_span_targets_resolve():
    """`bench/spans.py` wraps holonet functions by name for a traced run:
    each name in its LAYER_FUNCTIONS and each ShiftOp method it patches
    must exist, so a rename fails here and not in a traced bench run."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)]
                  == ["LAYER_FUNCTIONS"])
    methods = [call.args[1].value for call in ast.walk(tree)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "_patch" and isinstance(call.args[0], ast.Name)
               and call.args[0].id == "ShiftOp"]
    assert sum(len(names) for names in layers.values()) > 20
    assert sorted(methods) == ["__matmul__", "materialize"]
    missing = [f"{mod}.{name}" for mod, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"holonet.{mod}"), name, None))]
    missing += [f"ShiftOp.{name}" for name in methods
                if not callable(getattr(ShiftOp, name, None))]
    assert missing == []
