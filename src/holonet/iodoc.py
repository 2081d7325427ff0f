"""One JSON document per experiment: poset, optional bundle, loop-group
representation, module recipe, spectral triple, and the irrational basis.

Complex numbers are [re, im] pairs, matrices are row lists of those,
exact rationals are "p/q" strings, and exact phases are
{"rat": "p/q", "irr": {"a1": "r/s"}}.  Parsing normalizes everything,
so printing a parsed document and reparsing gives an equal document.
numpy and the computational layers are imported only to decode a matrix,
an exact phase, the irrationals or a sector module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InputReferenceError, InputSyntaxError, SchemaError
from .homotopy import GroupPresentation, PathFrame, build_path_frame, fundamental_presentation
from .poset import Poset, build_poset

if TYPE_CHECKING:
    from .charclass import ExactPhase, IrrationalBasis

TOP_KEYS = ("poset", "bundle", "representation", "module", "triple", "irrationals")


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def _section(obj, where: str, allowed) -> dict:
    """`obj` as an object whose keys all lie in `allowed`."""
    _require(isinstance(obj, dict), where, "expected an object")
    unknown = sorted(set(obj) - set(allowed))
    _require(not unknown, where, f"unknown keys {unknown}")
    return obj


def _entries(sec: dict, key: str, where: str) -> list:
    """Sorted (key, value) pairs of the optional object `sec[key]`."""
    obj = sec.get(key, {})
    _require(isinstance(obj, dict), where, "expected an object")
    return sorted(obj.items())


def _count(obj, where: str, least: int) -> int:
    _require(type(obj) is int and obj >= least, where,
             f"expected an integer >= {least}, got {obj!r}")
    return obj


def decode_complex(obj, where: str) -> complex:
    _require(isinstance(obj, list) and len(obj) == 2
             and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     for x in obj),
             where, f"expected [re, im], got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def decode_matrix(obj, where: str):
    import numpy as np
    _require(isinstance(obj, list) and obj, where, "expected a nonempty row list")
    width = None
    rows = []
    for i, row in enumerate(obj):
        _require(isinstance(row, list) and row, f"{where} row {i}",
                 "expected a nonempty entry list")
        if width is None:
            width = len(row)
        _require(len(row) == width, f"{where} row {i}",
                 f"ragged matrix: {len(row)} entries, expected {width}")
        rows.append([decode_complex(e, f"{where} row {i} col {j}")
                     for j, e in enumerate(row)])
    return np.array(rows, dtype=complex)


def encode_matrix(m) -> list:
    import numpy as np
    m = np.asarray(m, dtype=complex)
    return [[encode_complex(z) for z in row] for row in m]


def decode_fraction(obj, where: str) -> Fraction:
    _require(isinstance(obj, str), where, f"expected a 'p/q' string, got {obj!r}")
    try:
        return Fraction(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad rational {obj!r} ({exc})") from None


def decode_phase(obj, where: str, basis: IrrationalBasis | None) -> ExactPhase:
    from .charclass import irrational_basis, phase
    _section(obj, where, ("rat", "irr"))
    rat = decode_fraction(obj.get("rat", "0"), f"{where}.rat")
    coeffs = {}
    for name, c in _entries(obj, "irr", f"{where}.irr"):
        if basis is None or name not in basis.names:
            raise InputReferenceError(
                f"{where}.irr: {name!r} is not a declared irrational")
        coeffs[name] = decode_fraction(c, f"{where}.irr.{name}")
    if basis is None:
        basis = irrational_basis()
    return phase(basis, rat, **coeffs)


def encode_phase(p: ExactPhase) -> dict:
    return {"rat": str(p.rat), "irr": {n: str(c) for n, c in p.irr}}


def _decode_str_list(obj, where: str) -> list[str]:
    _require(isinstance(obj, list) and obj
             and all(isinstance(x, str) for x in obj),
             where, "expected a nonempty list of strings")
    return list(obj)


def _decode_edge_key(key: str, poset: Poset, where: str) -> tuple[str, str]:
    parts = key.split("<")
    _require(len(parts) == 2, where, f"edge key {key!r} is not 'o<o1'")
    o, o1 = parts
    for x in (o, o1):
        if x not in poset.elements:
            raise InputReferenceError(f"{where}: unknown element {x!r} in edge {key!r}")
    if not poset.lt(o, o1):
        raise InputReferenceError(f"{where}: {o!r} < {o1!r} does not hold")
    return o, o1


def _decode_gen_key(key: str, pres: GroupPresentation, where: str) -> int:
    try:
        idx = int(key)
    except ValueError:
        idx = None
    if idx is None or key != str(idx):
        raise SchemaError(f"{where}: generator key {key!r} is not a canonical integer")
    if not 1 <= idx <= len(pres.generators):
        raise InputReferenceError(
            f"{where}: generator {idx} out of range, presentation has "
            f"{len(pres.generators)}")
    return idx


def _square(m, dim: int | None, where: str):
    _require(m.shape[0] == m.shape[1], where, f"matrix is {m.shape}, not square")
    if dim is not None:
        _require(m.shape[0] == dim, where,
                 f"matrix is {m.shape[0]}x{m.shape[0]}, declared dimension {dim}")
    return m


def _decode_matrices(sec: dict, key: str, where: str, dim: int | None,
                     decode_key) -> tuple[dict, dict]:
    """The optional object `sec[key]` of square matrices (dim x dim when
    `dim` is given) as ({decode_key(k, where): matrix}, {canonical key:
    JSON matrix}), in sorted key order."""
    parsed, canonical = {}, {}
    for k, mat in _entries(sec, key, where):
        pk = decode_key(k, where)
        m = _square(decode_matrix(mat, f"{where}.{k}"), dim, f"{where}.{k}")
        parsed[pk] = m
        name = "<".join(pk) if isinstance(pk, tuple) else str(pk)
        canonical[name] = encode_matrix(m)
    return parsed, canonical


@dataclass
class InputDocument:
    """Parsed, normalized experiment description.

    `raw` is the canonical JSON-ready form; two documents are equal iff
    their canonical forms are.  Derived poset data (presentation, frame)
    is computed once at parse time.
    """

    raw: dict
    poset: Poset
    base: str
    pres: GroupPresentation
    frame: PathFrame
    basis: IrrationalBasis | None = None
    bundle_dim: int | None = None
    bundle_incl: dict | None = None
    rep_images: dict | None = None
    rep_phases: dict | None = None
    module: dict | None = None
    triple: dict | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, InputDocument) and self.raw == other.raw


def _reject_constant(name: str):
    raise InputSyntaxError(f"non-finite number {name} is not allowed")


MAX_MAGNITUDE = 1e100
"""Largest accepted absolute value of a JSON number.  Squares of such
entries, and sums of d x d matrix products of them, stay finite in
double precision, so checks on accepted data cannot overflow."""


MAX_WINDOW_COLUMNS = 2048
"""Largest accepted `fredholm.sector_window_columns` of a sector module.
`pi_index` peels its windows before any dense work, so their cost is
linear in the columns; the declared `w_index` and `dims` bound that."""


def _bounded(convert):
    """JSON number hook rejecting numbers beyond the float range or
    beyond MAX_MAGNITUDE."""
    def parse(text: str):
        x = float(text)
        if not math.isfinite(x):
            raise InputSyntaxError(f"number out of the float range: {text[:32]}")
        if abs(x) > MAX_MAGNITUDE:
            raise InputSyntaxError(
                f"number beyond the magnitude bound {MAX_MAGNITUDE:g}: {text[:32]}")
        return convert(text)
    return parse


def _unique_names(pairs: list) -> dict:
    """JSON object hook rejecting a name that occurs twice in one object,
    where `json.loads` would keep the last value silently."""
    seen = set()
    for name, _ in pairs:
        if name in seen:
            raise InputSyntaxError(f"repeated name {name!r} in one object")
        seen.add(name)
    return dict(pairs)


def parse_document(text: str) -> InputDocument:
    try:
        data = json.loads(text, object_pairs_hook=_unique_names,
                          parse_constant=_reject_constant,
                          parse_float=_bounded(float), parse_int=_bounded(int))
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputSyntaxError("document is nested too deeply") from None
    _section(data, "document", TOP_KEYS)
    _require("poset" in data, "document", "missing required section 'poset'")

    psec = _section(data["poset"], "poset", ("elements", "pairs", "base"))
    elements = _decode_str_list(psec.get("elements"), "poset.elements")
    _require(len(set(elements)) == len(elements), "poset.elements",
             "duplicate elements")
    pairs = []
    plist = psec.get("pairs", [])
    _require(isinstance(plist, list), "poset.pairs", "expected a list")
    for i, pair in enumerate(plist):
        _require(isinstance(pair, list) and len(pair) == 2
                 and all(isinstance(x, str) for x in pair),
                 f"poset.pairs[{i}]", "expected [below, above]")
        for x in pair:
            if x not in elements:
                raise InputReferenceError(
                    f"poset.pairs[{i}]: unknown element {x!r}")
        pairs.append((pair[0], pair[1]))
    poset = build_poset(elements, pairs)
    base = psec.get("base", min(elements))
    if base not in poset.elements:
        raise InputReferenceError(f"poset.base: unknown element {base!r}")
    pres = fundamental_presentation(poset, base)
    frame = build_path_frame(poset, base)

    def edge_key(key, where):
        return _decode_edge_key(key, poset, where)

    def gen_key(key, where):
        return _decode_gen_key(key, pres, where)

    raw: dict = {"poset": {"elements": list(elements),
                           "pairs": [list(p) for p in pairs],
                           "base": base}}

    basis = None
    if "irrationals" in data:
        sec = data["irrationals"]
        _require(isinstance(sec, dict) and sec, "irrationals",
                 "expected a nonempty object of name -> value")
        for name, v in sec.items():
            _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                     f"irrationals.{name}", f"expected a number, got {v!r}")
        from .charclass import irrational_basis
        basis = irrational_basis(**{n: float(v) for n, v in sec.items()})
        raw["irrationals"] = {n: v for n, v in basis.values}

    doc = InputDocument(raw, poset, base, pres, frame, basis)

    if "bundle" in data:
        sec = _section(data["bundle"], "bundle", ("dimension", "edges"))
        dim = _count(sec.get("dimension"), "bundle.dimension", 1)
        doc.bundle_dim = dim
        doc.bundle_incl, raw_edges = _decode_matrices(sec, "edges", "bundle.edges",
                                                      dim, edge_key)
        raw["bundle"] = {"dimension": dim, "edges": raw_edges}

    if "representation" in data:
        sec = _section(data["representation"], "representation",
                       ("dimension", "images", "phases"))
        dim = _count(sec.get("dimension"), "representation.dimension", 1)
        images, raw_images = _decode_matrices(sec, "images", "representation.images",
                                              dim, gen_key)
        phases = {}
        raw_phases = {}
        for key, plist in _entries(sec, "phases", "representation.phases"):
            g = gen_key(key, "representation.phases")
            _require(isinstance(plist, list) and plist,
                     f"representation.phases.{key}", "expected a phase list")
            ps = [decode_phase(p, f"representation.phases.{key}[{i}]", basis)
                  for i, p in enumerate(plist)]
            _require(len(ps) == dim, f"representation.phases.{key}",
                     f"{len(ps)} phases, declared dimension {dim}")
            phases[g] = ps
            raw_phases[str(g)] = [encode_phase(p) for p in ps]
        doc.rep_images = images or None
        doc.rep_phases = phases or None
        raw["representation"] = {"dimension": dim}
        if raw_images:
            raw["representation"]["images"] = raw_images
        if raw_phases:
            raw["representation"]["phases"] = raw_phases

    if "module" in data:
        sec = _section(data["module"], "module",
                       ("kind", "images", "at", "dims", "w_index"))
        kind = sec.get("kind")
        _require(kind in ("shift", "sector"), "module.kind",
                 f"expected 'shift' or 'sector', got {kind!r}")
        _section(sec, "module", ("kind", "images", "at") if kind == "shift"
                 else ("kind", "dims", "images", "w_index"))
        images, raw_images = _decode_matrices(sec, "images", "module.images",
                                              None, gen_key)
        if kind == "shift":
            at = sec.get("at", base)
            if at not in poset.elements:
                raise InputReferenceError(f"module.at: unknown element {at!r}")
            recipe = {"kind": kind, "at": at}
        else:
            dims = sec.get("dims")
            _require(isinstance(dims, list) and dims
                     and all(type(d) is int and d >= 1 for d in dims),
                     "module.dims", f"expected a list of positive integers, got {dims!r}")
            w = _count(sec.get("w_index", 0), "module.w_index", 0)
            from .fredholm import sector_window_columns
            cols = sector_window_columns(w, sum(dims))
            _require(cols <= MAX_WINDOW_COLUMNS, "module",
                     f"w_index {w} and dims {dims} need kernel windows of "
                     f"{cols} columns, beyond the limit {MAX_WINDOW_COLUMNS}")
            recipe = {"kind": kind, "dims": dims, "w_index": w}
        doc.module = {**recipe, "images": images}
        raw["module"] = {**recipe, "images": raw_images}

    if "triple" in data:
        sec = _section(data["triple"], "triple",
                       ("grading", "u", "samples", "operator"))
        for need in ("grading", "u", "samples", "operator"):
            _require(need in sec, "triple", f"missing key {need!r}")
        grading = _square(decode_matrix(sec["grading"], "triple.grading"),
                          None, "triple.grading")
        dim = grading.shape[0]
        op = _square(decode_matrix(sec["operator"], "triple.operator"), dim,
                     "triple.operator")
        u_images, raw_u = _decode_matrices(sec, "u", "triple.u", dim, gen_key)
        samples, raw_samples = _decode_matrices(sec, "samples", "triple.samples",
                                                dim, lambda label, where: label)
        doc.triple = {"grading": grading, "u": u_images,
                      "samples": samples, "operator": op}
        raw["triple"] = {"grading": encode_matrix(grading), "u": raw_u,
                         "samples": raw_samples, "operator": encode_matrix(op)}

    return doc


def load_document(path: str) -> InputDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputSyntaxError(f"cannot read {path!r}: {exc}") from None
    return parse_document(text)


def print_document(doc: InputDocument) -> str:
    return json.dumps(doc.raw, sort_keys=True, indent=2) + "\n"
