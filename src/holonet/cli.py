"""Command line front end: one JSON experiment file in, one report out.

Reports are deterministic for a fixed input file and seed; wall-clock
timing goes to stderr so stdout stays byte-identical across runs.
Exit codes: 0 all verdicts pass, 1 a verdict failed, a computation
rejected the data or the program failed (an "internal" error object),
2 the input (the document or the command line) could not be used at all.

Each command checks its sections before it imports the layers it
computes with, so a process loads numpy and those layers only when its
document and command need them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback

from .errors import (FiberMismatch, HolonetError, InputReferenceError, SchemaError,
                     UnknownCommand)
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
from .reports import CHECK_TOL, PHASE_TOL


def _report_summary(report) -> dict:
    d = report.max_defect
    out = {"checks": report.count, "violations": [str(e) for e in report.violations],
           "max_defect": d if math.isfinite(d) else None}
    if not math.isfinite(d):
        # a missing entry has an infinite defect, which JSON cannot carry
        out["max_defect_nonfinite"] = True
    return out


def _need(doc: InputDocument, attr: str, section: str, command: str):
    value = getattr(doc, attr)
    if value is None:
        raise SchemaError(f"{command} needs a {section!r} section")
    return value


def _bundle_of(doc: InputDocument, command: str):
    dim = _need(doc, "bundle_dim", "bundle", command)
    from .bundle import HilbertNetBundle
    return HilbertNetBundle(doc.poset, dim, doc.bundle_incl or {})


def _module_of(doc: InputDocument, command: str, tol: float):
    mod = _need(doc, "module", "module", command)
    from .fredholm import build_sector_module, build_shift_module
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


def _unitary_from_phases(declared):
    import numpy as np
    return np.diag(np.exp(2j * np.pi * np.array(
        [p.float_value() for p in declared])))


def _virtual_summary(idx) -> dict:
    from .linalg import eigenphases
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
    tol = opt.tolerance
    b = _bundle_of(doc, "holonomy")
    from .bundle import holonomy_rep, validate_bundle
    from .operators import unitarity_defect
    report = validate_bundle(b, tol)
    results: dict = {"bundle": _report_summary(report)}
    if not report.ok:
        return results, False
    images = holonomy_rep(b, doc.pres, doc.frame, tol)
    results["images"] = {str(g): encode_matrix(u)
                         for g, u in sorted(images.items())}
    results["unitarity_defects"] = {
        str(g): float(unitarity_defect(u)) for g, u in sorted(images.items())}
    return results, True


def cmd_sections(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = opt.tolerance
    b = _bundle_of(doc, "sections")
    import numpy as np

    from .bundle import (compute_sections, hilbert_section_dimension_oracle, holonomy_rep,
                         section_defect, validate_bundle)
    report = validate_bundle(b, tol)
    if not report.ok:
        return {"bundle": _report_summary(report)}, False
    images = holonomy_rep(b, doc.pres, doc.frame, tol)
    secs = compute_sections(b, doc.pres, doc.frame, tol, images=images)
    oracle = hilbert_section_dimension_oracle(b, doc.pres, doc.frame, tol,
                                              images=images)
    worst = float(np.max([section_defect(b, s) for s in secs], initial=0.0))
    results = {"dimension": len(secs), "oracle_dimension": oracle,
               "agree": len(secs) == oracle,
               "max_section_defect": worst}
    return results, results["agree"] and worst <= tol


def cmd_rep_check(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = opt.tolerance
    if doc.rep_images is None and doc.rep_phases is None:
        raise SchemaError("rep-check needs a 'representation' section with "
                          "images or phases")
    import numpy as np

    from .linalg import eigenphases, turn_distance
    from .operators import relator_defects, unitarity_defect
    images = dict(doc.rep_images or {})
    for g, declared in sorted((doc.rep_phases or {}).items()):
        images.setdefault(g, _unitary_from_phases(declared))
    passed = True
    unitarity = {}
    for g, u in sorted(images.items()):
        d = float(unitarity_defect(u))
        unitarity[str(g)] = d
        passed = passed and d <= tol
    results: dict = {"unitarity_defects": unitarity}
    if set(images) == set(range(1, len(doc.pres.generators) + 1)):
        dim = next(iter(images.values())).shape[0] if images else 1
        defects = [float(d) for d in relator_defects(
            doc.pres, images, np.eye(dim, dtype=complex))]
        results["relator_defects"] = defects
        passed = passed and all(d <= tol for d in defects)
    else:
        results["relator_defects"] = "not evaluated: missing generator images"
        passed = False
    if doc.rep_phases:
        matches = {}
        for g, declared in sorted(doc.rep_phases.items()):
            # parse_document gives every phase list and image the declared
            # dimension, so the two lists have the same length
            got = sorted(float(t) for t in eigenphases(images[g]))
            want = sorted(p.float_value() % 1.0 for p in declared)
            worst = max((turn_distance(a, b) for a, b in zip(got, want)),
                        default=0.0)
            ok = worst <= PHASE_TOL
            matches[str(g)] = {"match": ok, "max_distance": float(worst)}
            passed = passed and ok
        results["phase_matches"] = matches
    return results, passed


def cmd_fredholm_verify(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = opt.tolerance
    m, sec = _module_of(doc, "fredholm-verify", tol)
    from .fredholm import validate_module
    report = validate_module(m, tol)
    results: dict = {"parity": m.parity, "module": _report_summary(report)}
    if sec is not None:
        results["statistical_dimension"] = sec.statistical_dimension
        results["topological_dimension"] = sec.topological_dimension
    return results, report.ok


def cmd_extend(doc: InputDocument, opt) -> tuple[dict, bool]:
    m, _ = _module_of(doc, "extend", opt.tolerance)
    from .fredholm import ExtensionObstruction, extend_localized, localize, validate_module
    at = (doc.module or {}).get("at", doc.base)
    out = extend_localized(localize(m, at))
    if isinstance(out, ExtensionObstruction):
        results = {"at": at, "extended": False,
                   "obstruction": {"generator": out.generator,
                                   "defect": float(out.defect)}}
        return results, False
    report = validate_module(out, opt.tolerance)
    results = {"at": at, "extended": True, "obstruction": None,
               "module": _report_summary(report)}
    return results, report.ok


def cmd_index(doc: InputDocument, opt) -> tuple[dict, bool]:
    m, _ = _module_of(doc, "index", opt.tolerance)
    from .fredholm import equivariant_cycle, localize, pi_index, sample_words
    idx = pi_index(equivariant_cycle(localize(m, doc.base)))
    results = {"index": _virtual_summary(idx)}
    words = sample_words(doc.pres, seed=opt.seed)
    results["characters"] = [{"word": list(w),
                              "value": encode_complex(idx.character(w))}
                             for w in words]
    return results, True


def cmd_ccs(doc: InputDocument, opt) -> tuple[dict, bool]:
    declared = _declared_phases(doc, "ccs")
    from .charclass import ccs_of_module, ccs_of_rep
    c = ccs_of_rep(declared, doc.pres)
    results: dict = {"rep_class": _ccs_summary(c),
                     "declared": [encode_phase(p) for p in declared]}
    if doc.module is not None:
        m, _ = _module_of(doc, "ccs", opt.tolerance)
        cm = ccs_of_module(m, declared)
        results["module_class"] = _ccs_summary(cm)
        results["agree"] = cm == c
        return results, bool(results["agree"])
    return results, True


def cmd_shift_demo(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = opt.tolerance
    declared = _declared_phases(doc, "shift-demo")
    n = len(doc.pres.generators)
    if n != 1:
        raise FiberMismatch(f"shift-demo needs a loop group with one generator, got {n}")
    from .charclass import ccs_of_module
    from .fredholm import (build_shift_module, equivariant_cycle, localize, pi_index,
                           validate_module)
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
    tol = opt.tolerance
    mod = _need(doc, "module", "module", "sector-demo")
    if mod["kind"] != "sector":
        raise SchemaError("sector-demo needs module.kind == 'sector'")
    m, sec = _module_of(doc, "sector-demo", tol)
    from .charclass import ccs_of_module
    from .fredholm import equivariant_cycle, localize, pi_index, validate_module
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
    tol = opt.tolerance
    sec = _need(doc, "triple", "triple", "spectral-verify")
    from .spectral import EquivariantTriple, from_equivariant, theta_trace, validate_triple
    e = EquivariantTriple(sec["grading"], sec["u"], sec["samples"],
                          sec["operator"], doc.pres)
    t = from_equivariant(e, doc.poset, doc.pres, doc.frame, tol)
    report = validate_triple(t, tol)
    results = {"triple": _report_summary(report),
               "theta_trace": {
                   "beta=1": float(theta_trace(sec["operator"], 1.0, tol))}}
    return results, report.ok


def cmd_roundtrip(doc: InputDocument, opt) -> tuple[dict, bool]:
    tol = opt.tolerance
    results: dict = {}
    passed = True

    reparsed = parse_document(print_document(doc))
    results["document"] = reparsed == doc
    passed = passed and results["document"]

    if doc.bundle_dim is not None:
        b = _bundle_of(doc, "roundtrip")
        from .bundle import holonomy_rep, roundtrip_iso, validate_bundle
        report = validate_bundle(b, tol)
        if report.ok:
            images = holonomy_rep(b, doc.pres, doc.frame, tol)
            rt = roundtrip_iso(b, doc.pres, doc.frame, images=images)
            results["bundle_defect"] = float(rt.defect)
            passed = passed and rt.defect <= tol
        else:
            results["bundle_defect"] = "bundle invalid: " + str(report.violations[0])
            passed = False

    if doc.module is not None:
        m, _ = _module_of(doc, "roundtrip", tol)
        from .fredholm import equivariant_cycle, from_cycle, localize
        from .operators import operators_equal_exact
        loc = localize(m, doc.base)
        cyc = equivariant_cycle(loc)
        loc2 = from_cycle(cyc.samples, cyc.v_images, cyc.phi, doc.poset,
                          doc.pres, doc.frame, grading=cyc.grading,
                          parity=cyc.parity, tol=tol)
        same = operators_equal_exact(loc2.f, loc.f)
        images2 = equivariant_cycle(loc2).v_images
        for g in sorted(cyc.v_images):
            same = same and operators_equal_exact(images2[g], cyc.v_images[g])
        results["module_exact"] = bool(same)
        passed = passed and same

    if doc.triple is not None:
        import numpy as np

        from .spectral import EquivariantTriple, from_equivariant, to_equivariant
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


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    lines: list[str] = []
    _text_lines(report, "", lines)
    return "\n".join(lines) + "\n"


def _error(exc: Exception, stage: str) -> tuple[int, dict]:
    """Exit code and error object of a run that raised `exc` while
    loading ("load", which includes checking the command line), running
    the command ("run") or rendering its report ("render")."""
    name = type(exc).__name__
    if isinstance(exc, HolonetError):
        unusable = stage == "load" or isinstance(exc, (SchemaError, InputReferenceError))
        return (2 if unusable else 1), {"type": name, "message": str(exc)}
    if stage == "render" and isinstance(exc, ValueError):
        # a result overflowed to inf or nan, which JSON cannot carry
        return 1, {"type": name, "message": str(exc)}
    # a fault of the program, not of the input: keep the contract of one
    # JSON object on stdout, put the traceback on stderr
    traceback.print_exc(file=sys.stderr)
    return 1, {"type": "internal", "message": f"{name}: {exc}"}


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a SchemaError, so that it
    takes the one failure path of `main` instead of argparse's usage
    message and exit."""

    def error(self, message):
        raise SchemaError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="holonet",
        description="poset holonomy, Fredholm modules, and spectral triples "
                    "from a single JSON experiment file")
    parser.add_argument("command", help=", ".join(sorted(COMMANDS)))
    parser.add_argument("--input", required=True, help="experiment JSON file")
    parser.add_argument("--seed", type=int, default=0,
                        help="nonnegative seed for sampled checks (default 0)")
    parser.add_argument("--tolerance", type=float, default=CHECK_TOL,
                        help=f"finite nonnegative override of CHECK_TOL "
                             f"(default {CHECK_TOL:g}): every check of that "
                             "class; never the index, compactness, "
                             "kernel-rank or phase thresholds")
    parser.add_argument("--format", choices=("json", "text"), default="json")

    started = time.perf_counter()
    base: dict = {}
    fmt = "json"  # until the command line has been read
    stage = "load"
    try:
        opt = parser.parse_args(argv)
        fmt = opt.format
        tol = opt.tolerance
        base = {"command": opt.command, "input": opt.input, "seed": opt.seed,
                "tolerance": tol if math.isfinite(tol) else None}
        if opt.command not in COMMANDS:
            raise UnknownCommand(f"unknown command {opt.command!r}; choose from "
                                 f"{', '.join(sorted(COMMANDS))}")
        if not 0 <= tol < math.inf:
            raise SchemaError(f"--tolerance: expected a finite nonnegative "
                              f"number, got {tol}")
        if opt.seed < 0:
            raise SchemaError(f"--seed: expected a nonnegative integer, got {opt.seed}")
        doc = load_document(opt.input)
        stage = "run"
        results, passed = COMMANDS[opt.command](doc, opt)
        stage = "render"
        code = 0 if passed else 1
        out = render({**base, "results": results, "pass": bool(passed)}, fmt)
    except Exception as exc:
        code, error = _error(exc, stage)
        out = render({**base, "error": error, "pass": False}, fmt)
    sys.stdout.write(out)
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
