"""Command line front end: one JSON experiment file in, one report out.

Reports are deterministic for a fixed input file and seed; wall-clock
timing goes to stderr so stdout stays byte-identical across runs.
Exit codes: 0 all verdicts pass, 1 a verdict failed or a computation
rejected the data, 2 the input could not be used at all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .bundle import (
    HilbertNetBundle,
    compute_sections,
    evaluate_word,
    hilbert_section_dimension_oracle,
    holonomy_rep,
    roundtrip_iso,
    section_defect,
    validate_bundle,
)
from .charclass import ccs_of_module, ccs_of_rep
from .errors import (
    HolonetError,
    InputReferenceError,
    SchemaError,
    UnknownCommand,
)
from .fredholm import (
    CHECK_TOL,
    INDEX_TOL,
    ExtensionObstruction,
    build_sector_module,
    build_shift_module,
    equivariant_cycle,
    extend_localized,
    from_cycle,
    localize,
    pi_index,
    sample_words,
    validate_module,
)
from .homotopy import simplify_presentation
from .iodoc import (
    InputDocument,
    encode_complex,
    encode_matrix,
    encode_phase,
    load_document,
    parse_document,
    print_document,
)
from .linalg import eigenphases
from .operators import adj, operators_equal_exact, zero_defect
from .spectral import (
    EquivariantTriple,
    NetSpectralTriple,
    from_equivariant,
    theta_trace,
    to_equivariant,
    validate_triple,
)


def _tol(opt) -> float:
    return CHECK_TOL if opt.tolerance is None else float(opt.tolerance)


def _report_summary(report) -> dict:
    out = {"checks": len(report.entries),
           "violations": [str(e) for e in report.violations],
           "max_defect": float(report.max_defect)}
    if not math.isfinite(out["max_defect"]):
        # a missing entry has an infinite defect, which JSON cannot carry
        out["max_defect"] = None
        out["max_defect_nonfinite"] = True
    return out


def _need(doc: InputDocument, attr: str, section: str, command: str):
    value = getattr(doc, attr)
    if value is None:
        raise SchemaError(f"{command} needs a {section!r} section")
    return value


def _bundle_of(doc: InputDocument, command: str) -> HilbertNetBundle:
    dim = _need(doc, "bundle_dim", "bundle", command)
    return HilbertNetBundle(doc.poset, dim, doc.bundle_incl or {})


def _module_of(doc: InputDocument, command: str, tol: float):
    mod = _need(doc, "module", "module", command)
    if mod["kind"] == "shift":
        return build_shift_module(doc.poset, doc.pres, doc.frame,
                                  mod["images"], tol=tol), None
    sec = build_sector_module(doc.poset, doc.pres, doc.frame, mod["dims"],
                              mod["images"], w_index=mod["w_index"], tol=tol)
    return sec.module, sec


def _declared_phases(doc: InputDocument, command: str) -> list:
    phases = _need(doc, "rep_phases", "representation.phases", command)
    if 1 not in phases:
        raise SchemaError(f"{command} needs declared phases for generator 1")
    return phases[1]


def _unitary_from_phases(declared) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.array(
        [p.float_value() for p in declared])))


def _virtual_summary(idx) -> dict:
    def blocks(bs):
        return [{"dim": b.dim,
                 "eigenphases": {str(g): [float(t) for t in eigenphases(u)]
                                 for g, u in sorted(b.images.items())}}
                for b in bs]
    return {"dim": idx.dim, "plus": blocks(idx.plus), "minus": blocks(idx.minus)}


def _ccs_summary(c) -> dict:
    return {"rank": c.rank, "odd": {n: str(coeff) for n, coeff in c.odd}}


def cmd_pi1(doc: InputDocument, opt) -> tuple[dict, bool]:
    simplified, verdict = simplify_presentation(doc.pres)
    results = {"base": doc.base,
               "generators": len(doc.pres.generators),
               "relators": len(doc.pres.relators),
               "simplified": {"generators": len(simplified.generators),
                              "relators": len(simplified.relators)},
               "verdict": verdict}
    return results, True


def cmd_holonomy(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    b = _bundle_of(doc, "holonomy")
    report = validate_bundle(b, tol)
    results: dict = {"bundle": _report_summary(report)}
    if not report.ok:
        return results, False
    images = holonomy_rep(b, doc.pres, doc.frame, tol)
    results["images"] = {str(g): encode_matrix(u)
                         for g, u in sorted(images.items())}
    results["unitarity_defects"] = {
        str(g): float(zero_defect(adj(u) @ u - np.eye(b.dim)))
        for g, u in sorted(images.items())}
    return results, True


def cmd_sections(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    b = _bundle_of(doc, "sections")
    report = validate_bundle(b, tol)
    if not report.ok:
        return {"bundle": _report_summary(report)}, False
    secs = compute_sections(b, doc.pres, doc.frame, tol)
    oracle = hilbert_section_dimension_oracle(b, doc.pres, doc.frame, tol)
    worst = max((section_defect(b, s) for s in secs), default=0.0)
    results = {"dimension": len(secs), "oracle_dimension": oracle,
               "agree": len(secs) == oracle,
               "max_section_defect": float(worst)}
    return results, results["agree"] and worst <= tol


def cmd_rep_check(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    if doc.rep_images is None and doc.rep_phases is None:
        raise SchemaError("rep-check needs a 'representation' section with "
                          "images or phases")
    images = dict(doc.rep_images or {})
    for g, declared in sorted((doc.rep_phases or {}).items()):
        images.setdefault(g, _unitary_from_phases(declared))
    passed = True
    unitarity = {}
    for g, u in sorted(images.items()):
        d = float(zero_defect(adj(u) @ u - np.eye(u.shape[0])))
        unitarity[str(g)] = d
        passed = passed and d <= tol
    results: dict = {"unitarity_defects": unitarity}
    if set(images) == set(range(1, len(doc.pres.generators) + 1)):
        relator_defects = []
        dim = next(iter(images.values())).shape[0] if images else 1
        for r in doc.pres.relators:
            relator_defects.append(float(zero_defect(
                evaluate_word(r, images, dim) - np.eye(dim))))
        results["relator_defects"] = relator_defects
        passed = passed and all(d <= tol for d in relator_defects)
    else:
        results["relator_defects"] = "not evaluated: missing generator images"
    if doc.rep_phases:
        matches = {}
        for g, declared in sorted(doc.rep_phases.items()):
            got = sorted(float(t) for t in eigenphases(images[g]))
            want = sorted(p.float_value() % 1.0 for p in declared)
            if len(got) != len(want):
                matches[str(g)] = {"match": False, "reason": "count mismatch"}
                passed = False
                continue
            worst = max((min(abs(a - b), 1.0 - abs(a - b))
                         for a, b in zip(got, want)), default=0.0)
            ok = worst <= 1e-9
            matches[str(g)] = {"match": ok, "max_distance": float(worst)}
            passed = passed and ok
        results["phase_matches"] = matches
    return results, passed


def cmd_fredholm_verify(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    m, sec = _module_of(doc, "fredholm-verify", tol)
    report = validate_module(m, tol)
    results: dict = {"parity": m.parity, "module": _report_summary(report)}
    if sec is not None:
        results["statistical_dimension"] = sec.statistical_dimension
        results["topological_dimension"] = sec.topological_dimension
    return results, report.ok


def cmd_extend(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = INDEX_TOL if opt.tolerance is None else float(opt.tolerance)
    m, _ = _module_of(doc, "extend", _tol(opt))
    at = (doc.module or {}).get("at", doc.base)
    loc = localize(m, at)
    out = extend_localized(loc, tol=tol)
    if isinstance(out, ExtensionObstruction):
        results = {"at": at, "extended": False,
                   "obstruction": {"generator": out.generator,
                                   "defect": float(out.defect)}}
        return results, False
    report = validate_module(out, _tol(opt))
    results = {"at": at, "extended": True, "obstruction": None,
               "module": _report_summary(report)}
    return results, report.ok


def cmd_index(doc: InputDocument, opt) -> tuple[dict, bool]:
    m, _ = _module_of(doc, "index", _tol(opt))
    idx = pi_index(equivariant_cycle(localize(m, doc.base)))
    results = {"index": _virtual_summary(idx)}
    words = sample_words(doc.pres, seed=opt.seed)
    results["characters"] = [{"word": list(w),
                              "value": encode_complex(idx.character(w))}
                             for w in words]
    return results, True


def cmd_ccs(doc: InputDocument, opt) -> tuple[dict, bool]:
    declared = _declared_phases(doc, "ccs")
    c = ccs_of_rep(declared, doc.pres)
    results: dict = {"rep_class": _ccs_summary(c),
                     "declared": [encode_phase(p) for p in declared]}
    if doc.module is not None:
        m, _ = _module_of(doc, "ccs", _tol(opt))
        cm = ccs_of_module(m, declared)
        results["module_class"] = _ccs_summary(cm)
        results["agree"] = cm == c
        return results, bool(results["agree"])
    return results, True


def cmd_shift_demo(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    declared = _declared_phases(doc, "shift-demo")
    u = (doc.rep_images or {}).get(1)
    if u is None:
        u = _unitary_from_phases(declared)
    m = build_shift_module(doc.poset, doc.pres, doc.frame, {1: u}, tol=tol)
    report = validate_module(m, tol)
    # doc.frame is built at doc.base, so idx is the index ccs_of_module needs
    idx = pi_index(equivariant_cycle(localize(m, doc.base)))
    c = ccs_of_module(m, declared, index=idx)
    results = {"module": _report_summary(report),
               "index": _virtual_summary(idx),
               "declared": [encode_phase(p) for p in declared],
               "ccs": _ccs_summary(c)}
    return results, report.ok


def cmd_sector_demo(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    mod = _need(doc, "module", "module", "sector-demo")
    if mod["kind"] != "sector":
        raise SchemaError("sector-demo needs module.kind == 'sector'")
    m, sec = _module_of(doc, "sector-demo", tol)
    report = validate_module(m, tol)
    idx = pi_index(equivariant_cycle(localize(m, doc.base)))
    results: dict = {"module": _report_summary(report),
                     "statistical_dimension": sec.statistical_dimension,
                     "topological_dimension": sec.topological_dimension,
                     "index": _virtual_summary(idx),
                     "character": encode_complex(idx.character((1,)))}
    if doc.rep_phases and 1 in doc.rep_phases:
        results["ccs"] = _ccs_summary(
            ccs_of_module(m, doc.rep_phases[1], index=idx))
    return results, report.ok


def cmd_spectral_verify(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    sec = _need(doc, "triple", "triple", "spectral-verify")
    e = EquivariantTriple(sec["grading"], sec["u"], sec["samples"],
                          sec["operator"], doc.pres)
    t = from_equivariant(e, doc.poset, doc.pres, doc.frame, tol)
    report = validate_triple(t, tol)
    results = {"triple": _report_summary(report),
               "theta_trace": {"beta=1": float(theta_trace(sec["operator"], 1.0))}}
    return results, report.ok


def cmd_roundtrip(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = _tol(opt)
    results: dict = {}
    passed = True

    reparsed = parse_document(print_document(doc))
    results["document"] = reparsed == doc
    passed = passed and results["document"]

    if doc.bundle_dim is not None:
        b = _bundle_of(doc, "roundtrip")
        report = validate_bundle(b, tol)
        if report.ok:
            rt = roundtrip_iso(b, doc.pres, doc.frame)
            results["bundle_defect"] = float(rt.defect)
            passed = passed and rt.defect <= tol
        else:
            results["bundle_defect"] = "bundle invalid: " + str(report.violations[0])
            passed = False

    if doc.module is not None:
        m, _ = _module_of(doc, "roundtrip", tol)
        loc = localize(m, doc.base)
        cyc = equivariant_cycle(loc)
        loc2 = from_cycle(cyc.samples, cyc.v_images, cyc.phi, doc.poset,
                          doc.pres, doc.frame, grading=cyc.grading,
                          parity=cyc.parity)
        same = operators_equal_exact(loc2.f, loc.f)
        for g in sorted(cyc.v_images):
            same = same and operators_equal_exact(
                equivariant_cycle(loc2).v_images[g], cyc.v_images[g])
        results["module_exact"] = bool(same)
        passed = passed and same

    if doc.triple is not None:
        sec = doc.triple
        e = EquivariantTriple(sec["grading"], sec["u"], sec["samples"],
                              sec["operator"], doc.pres)
        t = from_equivariant(e, doc.poset, doc.pres, doc.frame, tol)
        back = to_equivariant(t, tol)
        exact = back.D is e.D and back.grading is e.grading
        for g in sorted(e.u_images):
            exact = exact and np.array_equal(back.u_images[g], e.u_images[g])
        results["triple_exact"] = bool(exact)
        passed = passed and exact

    return results, passed


COMMANDS = {
    "pi1": cmd_pi1,
    "holonomy": cmd_holonomy,
    "sections": cmd_sections,
    "rep-check": cmd_rep_check,
    "fredholm-verify": cmd_fredholm_verify,
    "extend": cmd_extend,
    "index": cmd_index,
    "ccs": cmd_ccs,
    "shift-demo": cmd_shift_demo,
    "sector-demo": cmd_sector_demo,
    "spectral-verify": cmd_spectral_verify,
    "roundtrip": cmd_roundtrip,
}


def _text_lines(value, prefix: str, out: list[str]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _text_lines(value[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list):
        out.append(f"{prefix}: {json.dumps(value)}")
    else:
        out.append(f"{prefix}: {value}")


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2,
                                    allow_nan=False) + "\n")
        return
    lines: list[str] = []
    _text_lines(report, "", lines)
    sys.stdout.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holonet",
        description="poset holonomy, Fredholm modules, and spectral triples "
                    "from a single JSON experiment file")
    parser.add_argument("command", help=", ".join(sorted(COMMANDS)))
    parser.add_argument("--input", required=True, help="experiment JSON file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (default 0)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the equality-check tolerance "
                             "(kernel rank thresholds are unaffected)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    opt = parser.parse_args(argv)

    started = time.perf_counter()

    def finish(code: int) -> int:
        elapsed = (time.perf_counter() - started) * 1000.0
        print(f"elapsed_ms={elapsed:.3f}", file=sys.stderr)
        return code

    base = {"command": opt.command, "input": opt.input, "seed": opt.seed,
            "tolerance": _tol(opt)}

    def fail(exc: Exception, code: int) -> int:
        report = dict(base)
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["pass"] = False
        emit(report, opt.format)
        return finish(code)

    if opt.command not in COMMANDS:
        return fail(UnknownCommand(
            f"unknown command {opt.command!r}; choose from "
            f"{', '.join(sorted(COMMANDS))}"), 2)
    try:
        doc = load_document(opt.input)
    except HolonetError as exc:
        return fail(exc, 2)
    try:
        results, passed = COMMANDS[opt.command](doc, opt)
    except (SchemaError, InputReferenceError) as exc:
        return fail(exc, 2)
    except HolonetError as exc:
        return fail(exc, 1)
    report = dict(base)
    report["results"] = results
    report["pass"] = bool(passed)
    try:
        emit(report, opt.format)
    except ValueError as exc:
        # a result overflowed to inf or nan, which JSON cannot carry
        return fail(exc, 1)
    return finish(0 if passed else 1)


if __name__ == "__main__":
    raise SystemExit(main())
