"""One JSON document per experiment: poset, optional bundle, loop-group
representation, module recipe, spectral triple, and the irrational basis.

Complex numbers are [re, im] pairs, matrices are row lists of those,
exact rationals are "p/q" strings, and exact phases are
{"rat": "p/q", "irr": {"a1": "r/s"}}.  Parsing normalizes everything,
so printing a parsed document and reparsing gives an equal document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charclass import ExactPhase, IrrationalBasis, irrational_basis, phase
from .errors import InputReferenceError, InputSyntaxError, SchemaError
from .homotopy import (
    GroupPresentation,
    PathFrame,
    build_path_frame,
    fundamental_presentation,
)
from .poset import Poset, build_poset

TOP_KEYS = ("poset", "bundle", "representation", "module", "triple", "irrationals")


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def decode_complex(obj, where: str) -> complex:
    _require(isinstance(obj, list) and len(obj) == 2
             and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     for x in obj),
             where, f"expected [re, im], got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def decode_matrix(obj, where: str) -> np.ndarray:
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
    m = np.asarray(m, dtype=complex)
    return [[encode_complex(z) for z in row] for row in m]


def decode_fraction(obj, where: str) -> Fraction:
    _require(isinstance(obj, str), where, f"expected a 'p/q' string, got {obj!r}")
    try:
        return Fraction(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad rational {obj!r} ({exc})") from None


def decode_phase(obj, where: str, basis: IrrationalBasis | None) -> ExactPhase:
    _require(isinstance(obj, dict), where, "expected a phase object")
    _require(set(obj) <= {"rat", "irr"}, where,
             f"unknown phase keys {sorted(set(obj) - {'rat', 'irr'})}")
    rat = decode_fraction(obj.get("rat", "0"), f"{where}.rat")
    coeffs = {}
    for name, c in sorted((obj.get("irr") or {}).items()):
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
        raise SchemaError(f"{where}: generator key {key!r} is not an integer") from None
    if not 1 <= idx <= len(pres.generators):
        raise InputReferenceError(
            f"{where}: generator {idx} out of range, presentation has "
            f"{len(pres.generators)}")
    return idx


def _square(m: np.ndarray, dim: int | None, where: str) -> np.ndarray:
    _require(m.shape[0] == m.shape[1], where, f"matrix is {m.shape}, not square")
    if dim is not None:
        _require(m.shape[0] == dim, where,
                 f"matrix is {m.shape[0]}x{m.shape[0]}, declared dimension {dim}")
    return m


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
    rep_dim: int | None = None
    rep_images: dict | None = None
    rep_phases: dict | None = None
    module: dict | None = None
    triple: dict | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, InputDocument) and self.raw == other.raw


def _reject_constant(name: str):
    raise InputSyntaxError(f"non-finite number {name} is not allowed")


def _finite(convert):
    """JSON number hook rejecting numbers beyond the float range."""
    def parse(text: str):
        if not math.isfinite(float(text)):
            raise InputSyntaxError(f"number out of the float range: {text[:32]}")
        return convert(text)
    return parse


def parse_document(text: str) -> InputDocument:
    try:
        data = json.loads(text, parse_constant=_reject_constant,
                          parse_float=_finite(float), parse_int=_finite(int))
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    _require(isinstance(data, dict), "document", "top level must be an object")
    unknown = sorted(set(data) - set(TOP_KEYS))
    _require(not unknown, "document", f"unknown sections {unknown}")
    _require("poset" in data, "document", "missing required section 'poset'")

    psec = data["poset"]
    _require(isinstance(psec, dict), "poset", "expected an object")
    _require(set(psec) <= {"elements", "pairs", "base"}, "poset",
             f"unknown keys {sorted(set(psec) - {'elements', 'pairs', 'base'})}")
    elements = _decode_str_list(psec.get("elements"), "poset.elements")
    _require(len(set(elements)) == len(elements), "poset.elements",
             "duplicate elements")
    pairs = []
    for i, pair in enumerate(psec.get("pairs", [])):
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
        basis = irrational_basis(**{n: float(v) for n, v in sec.items()})
        raw["irrationals"] = {n: v for n, v in basis.values}

    doc = InputDocument(raw, poset, base, pres, frame, basis)

    if "bundle" in data:
        sec = data["bundle"]
        _require(isinstance(sec, dict), "bundle", "expected an object")
        _require(set(sec) <= {"dimension", "edges"}, "bundle",
                 f"unknown keys {sorted(set(sec) - {'dimension', 'edges'})}")
        dim = sec.get("dimension")
        _require(isinstance(dim, int) and dim >= 1, "bundle.dimension",
                 f"expected a positive integer, got {dim!r}")
        incl = {}
        raw_edges = {}
        for key, mat in sorted((sec.get("edges") or {}).items()):
            e = _decode_edge_key(key, poset, "bundle.edges")
            m = _square(decode_matrix(mat, f"bundle.edges.{key}"), dim,
                        f"bundle.edges.{key}")
            incl[e] = m
            raw_edges[f"{e[0]}<{e[1]}"] = encode_matrix(m)
        doc.bundle_dim = dim
        doc.bundle_incl = incl
        raw["bundle"] = {"dimension": dim, "edges": raw_edges}

    if "representation" in data:
        sec = data["representation"]
        _require(isinstance(sec, dict), "representation", "expected an object")
        _require(set(sec) <= {"dimension", "images", "phases"}, "representation",
                 f"unknown keys {sorted(set(sec) - {'dimension', 'images', 'phases'})}")
        dim = sec.get("dimension")
        _require(isinstance(dim, int) and dim >= 1, "representation.dimension",
                 f"expected a positive integer, got {dim!r}")
        images = {}
        raw_images = {}
        for key, mat in sorted((sec.get("images") or {}).items()):
            g = _decode_gen_key(key, pres, "representation.images")
            m = _square(decode_matrix(mat, f"representation.images.{key}"),
                        dim, f"representation.images.{key}")
            images[g] = m
            raw_images[str(g)] = encode_matrix(m)
        phases = {}
        raw_phases = {}
        for key, plist in sorted((sec.get("phases") or {}).items()):
            g = _decode_gen_key(key, pres, "representation.phases")
            _require(isinstance(plist, list) and plist,
                     f"representation.phases.{key}", "expected a phase list")
            ps = [decode_phase(p, f"representation.phases.{key}[{i}]", basis)
                  for i, p in enumerate(plist)]
            phases[g] = ps
            raw_phases[str(g)] = [encode_phase(p) for p in ps]
        doc.rep_dim = dim
        doc.rep_images = images or None
        doc.rep_phases = phases or None
        raw["representation"] = {"dimension": dim}
        if raw_images:
            raw["representation"]["images"] = raw_images
        if raw_phases:
            raw["representation"]["phases"] = raw_phases

    if "module" in data:
        sec = data["module"]
        _require(isinstance(sec, dict), "module", "expected an object")
        kind = sec.get("kind")
        _require(kind in ("shift", "sector"), "module.kind",
                 f"expected 'shift' or 'sector', got {kind!r}")
        if kind == "shift":
            allowed = {"kind", "images", "at"}
        else:
            allowed = {"kind", "dims", "images", "w_index"}
        _require(set(sec) <= allowed, "module",
                 f"unknown keys {sorted(set(sec) - allowed)}")
        images = {}
        raw_images = {}
        for key, mat in sorted((sec.get("images") or {}).items()):
            g = _decode_gen_key(key, pres, "module.images")
            m = _square(decode_matrix(mat, f"module.images.{key}"), None,
                        f"module.images.{key}")
            images[g] = m
            raw_images[str(g)] = encode_matrix(m)
        mod: dict = {"kind": kind, "images": images}
        raw_mod: dict = {"kind": kind, "images": raw_images}
        if kind == "shift":
            at = sec.get("at", base)
            if at not in poset.elements:
                raise InputReferenceError(f"module.at: unknown element {at!r}")
            mod["at"] = at
            raw_mod["at"] = at
        else:
            dims = sec.get("dims")
            _require(isinstance(dims, list) and dims
                     and all(isinstance(d, int) and d >= 1 for d in dims),
                     "module.dims", f"expected a list of positive integers, got {dims!r}")
            w = sec.get("w_index", 0)
            _require(isinstance(w, int) and w >= 0, "module.w_index",
                     f"expected a nonnegative integer, got {w!r}")
            mod["dims"] = tuple(dims)
            mod["w_index"] = w
            raw_mod["dims"] = list(dims)
            raw_mod["w_index"] = w
        doc.module = mod
        raw["module"] = raw_mod

    if "triple" in data:
        sec = data["triple"]
        _require(isinstance(sec, dict), "triple", "expected an object")
        _require(set(sec) <= {"grading", "u", "samples", "operator"}, "triple",
                 f"unknown keys {sorted(set(sec) - {'grading', 'u', 'samples', 'operator'})}")
        for need in ("grading", "u", "samples", "operator"):
            _require(need in sec, "triple", f"missing key {need!r}")
        grading = _square(decode_matrix(sec["grading"], "triple.grading"),
                          None, "triple.grading")
        dim = grading.shape[0]
        op = _square(decode_matrix(sec["operator"], "triple.operator"), dim,
                     "triple.operator")
        u_images = {}
        raw_u = {}
        for key, mat in sorted(sec["u"].items()):
            g = _decode_gen_key(key, pres, "triple.u")
            m = _square(decode_matrix(mat, f"triple.u.{key}"), dim,
                        f"triple.u.{key}")
            u_images[g] = m
            raw_u[str(g)] = encode_matrix(m)
        samples = {}
        raw_samples = {}
        for label, mat in sorted(sec["samples"].items()):
            m = _square(decode_matrix(mat, f"triple.samples.{label}"), dim,
                        f"triple.samples.{label}")
            samples[label] = m
            raw_samples[label] = encode_matrix(m)
        doc.triple = {"grading": grading, "u": u_images,
                      "samples": samples, "operator": op}
        raw["triple"] = {"grading": encode_matrix(grading), "u": raw_u,
                         "samples": raw_samples, "operator": encode_matrix(op)}

    return doc


def load_document(path: str) -> InputDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputSyntaxError(f"cannot read {path!r}: {exc}") from None
    return parse_document(text)


def print_document(doc: InputDocument) -> str:
    return json.dumps(doc.raw, sort_keys=True, indent=2) + "\n"
