"""Input document parsing, command dispatch, exit codes, and report
determinism for the command line front end."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nearly_flat_bundle

import holonet.bundle
import holonet.charclass
import holonet.cli
import holonet.fredholm
from holonet.cli import main
from holonet.errors import (
    CycleInOrder,
    InputReferenceError,
    InputSyntaxError,
    NotConnected,
    SchemaError,
)
from holonet.iodoc import (
    MAX_MAGNITUDE,
    MAX_WINDOW_COLUMNS,
    encode_matrix,
    load_document,
    parse_document,
    print_document,
)

ROOT = Path(__file__).resolve().parent.parent
HEXAGON = str(ROOT / "sample_inputs" / "hexagon.json")
CHAIN = str(ROOT / "sample_inputs" / "chain.json")
SECTOR = str(ROOT / "sample_inputs" / "sector.json")
# a child process imports holonet from where this test run found it
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(holonet.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run_json(capsys, *argv):
    """Run the CLI and parse stdout strictly: NaN and Infinity fail."""
    code, out, err = run(capsys, *argv)
    return code, json.loads(out, parse_constant=_no_constant), err


# ---------------------------------------------------------------- parsing


def test_minimal_document_parses():
    doc = parse_document('{"poset": {"elements": ["x"], "pairs": []}}')
    assert doc.base == "x"
    assert len(doc.pres.generators) == 0


def test_syntax_error_reports_position():
    with pytest.raises(InputSyntaxError) as err:
        parse_document('{"poset": [}')
    assert "line 1" in str(err.value)


def test_schema_errors_carry_locations():
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps({
            "poset": {"elements": ["a", "b"], "pairs": [["a", "b"]]},
            "bundle": {"dimension": 2,
                       "edges": {"a<b": [[[1, 0], [0, 0]], [[0, 0]]]}},
        }))
    assert "bundle.edges.a<b" in str(err.value)
    assert "ragged" in str(err.value)
    with pytest.raises(SchemaError):
        parse_document('{"poset": {"elements": ["x"], "pairs": []}, "junk": 1}')
    with pytest.raises(SchemaError):
        parse_document(json.dumps({
            "poset": {"elements": ["a", "b"], "pairs": [["a", "b"]]},
            "bundle": {"dimension": 0, "edges": {}}}))


def test_reference_errors():
    with pytest.raises(InputReferenceError):
        parse_document(json.dumps(
            {"poset": {"elements": ["a"], "pairs": [["a", "zz"]]}}))
    with pytest.raises(InputReferenceError):
        parse_document(json.dumps(
            {"poset": {"elements": ["a"], "pairs": [], "base": "zz"}}))
    with pytest.raises(InputReferenceError):
        parse_document(json.dumps({
            "poset": {"elements": ["a"], "pairs": []},
            "irrationals": {"a1": 0.5},
            "representation": {"dimension": 1,
                               "phases": {"1": [{"irr": {"nope": "1"}}]}},
        }))


def test_generator_keys_are_range_checked():
    text = json.dumps({
        "poset": {"elements": ["a", "b"], "pairs": [["a", "b"]]},
        "representation": {"dimension": 1, "images": {"5": [[[1, 0]]]}},
    })
    with pytest.raises(InputReferenceError):
        parse_document(text)


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0", "\u0661"])
def test_generator_keys_must_be_canonical(capsys, tmp_path, key):
    """int() reads each of these keys as a generator, so a second image
    of generator 1 (or one of generator 10) was dropped without a word."""
    text = json.dumps({
        "poset": json.loads(Path(HEXAGON).read_text())["poset"],
        "representation": {"dimension": 1,
                           "images": {"1": [[[1, 0]]], key: [[[5, 0]]]}},
    })
    with pytest.raises(SchemaError, match="not a canonical integer"):
        parse_document(text)
    path = tmp_path / "keys.json"
    path.write_text(text)
    for command in ("rep-check", "roundtrip"):
        code, report, _ = run_json(capsys, command, "--input", str(path))
        assert code == 2 and report["error"]["type"] == "SchemaError"


def test_repeated_names_are_rejected_at_any_depth(capsys, tmp_path):
    """json.loads keeps the last of two equal names; a non-unitary image
    ahead of hexagon's real one used to vanish and rep-check passed."""
    data = json.loads(Path(HEXAGON).read_text())
    real = json.dumps(data["representation"]["images"]["1"])
    data["representation"]["images"] = {"@": 0}
    text = json.dumps(data).replace('{"@": 0}', '{"1": [[[5.0, 0.0]]], "1": ' + real + "}")
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, report, _ = run_json(capsys, "rep-check", "--input", str(path))
    assert code == 2
    assert report["error"] == {"type": "InputSyntaxError",
                               "message": "repeated name '1' in one object"}
    poset = json.dumps(data["poset"])
    for doc in ('{"poset": %s, "poset": %s}' % (poset, poset),
                '{"poset": %s, "module": {"kind": "shift", "kind": "shift"}}' % poset,
                '{"poset": {"elements": ["x"], "pairs": [], "pairs": []}}'):
        with pytest.raises(InputSyntaxError, match="repeated name"):
            parse_document(doc)


CYCLIC = {"poset": {"elements": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]]}}
DISCONNECTED = {"poset": {"elements": ["a", "b", "c"], "pairs": [["a", "b"]]}}


def test_poset_errors_raise_at_parse_time():
    with pytest.raises(CycleInOrder):
        parse_document(json.dumps(CYCLIC))
    with pytest.raises(NotConnected):
        parse_document(json.dumps(DISCONNECTED))


def _hexagon_with_first_entry(value: str) -> str:
    data = json.loads(Path(HEXAGON).read_text())
    data["bundle"]["edges"]["V12<U1"][0][0][0] = 12345.5
    return json.dumps(data).replace("12345.5", value)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999",
                                   "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e999", "10^400"])
def test_non_finite_numbers_are_rejected(value):
    with pytest.raises(InputSyntaxError):
        parse_document(_hexagon_with_first_entry(value))


def test_golden_files_parse():
    doc = load_document(HEXAGON)
    assert doc.bundle_dim == 2
    assert len(doc.bundle_incl) == len(doc.poset.strict_pairs())
    assert doc.module["kind"] == "shift"
    assert doc.triple is not None
    assert doc.basis.names == ("a1",)


def test_parse_print_round_trip():
    for path in (HEXAGON, CHAIN, SECTOR):
        doc = load_document(path)
        text = print_document(doc)
        again = parse_document(text)
        assert again == doc
        assert print_document(again) == text


def test_parsing_normalizes_fractions():
    hexagon = json.loads(Path(HEXAGON).read_text())
    doc = parse_document(json.dumps({
        "poset": hexagon["poset"],
        "irrationals": {"a1": 0.25},
        "representation": {"dimension": 1,
                           "phases": {"1": [{"rat": "2/4", "irr": {"a1": "3/3"}}]}},
    }))
    printed = print_document(doc)
    assert '"rat": "1/2"' in printed
    assert '"a1": "1"' in printed


# --------------------------------------------------------------- commands


def test_pi1_verdicts(capsys):
    code, report, _ = run_json(capsys, "pi1", "--input", HEXAGON)
    assert code == 0
    assert report["pass"] is True
    assert report["results"]["generators"] == 1
    assert report["results"]["relators"] == 0
    assert report["results"]["verdict"] == "Nontrivial"
    code, report, _ = run_json(capsys, "pi1", "--input", CHAIN)
    assert code == 0
    assert report["results"]["verdict"] == "Trivial"


def test_reports_are_byte_identical(capsys):
    runs = [run(capsys, "index", "--input", HEXAGON)[1] for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, err = run(capsys, "index", "--input", HEXAGON, "--seed", "3")
    assert code == 0
    assert out != runs[0]  # sampled characters move with the seed


def test_sample_reports_match_the_golden_table(capsys, monkeypatch):
    """Exit code and stdout sha256 of every (command, sample) pair.

    `cli_golden.json` holds, per pair, what `python -m holonet.cli
    COMMAND --input sample_inputs/FILE` gives when run from the
    repository root.  A change that moves a stdout byte on purpose
    regenerates the table and names the bytes it moved.
    """
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    samples = sorted(p.name for p in (ROOT / "sample_inputs").glob("*.json"))
    pairs = [f"{c} {s}" for c in sorted(holonet.cli.COMMANDS) for s in samples]
    assert sorted(golden) == sorted(pairs)
    monkeypatch.chdir(ROOT)
    for pair in pairs:
        command, sample = pair.split()
        code, out, _ = run(capsys, command, "--input", f"sample_inputs/{sample}")
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == golden[pair], pair


def test_timing_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, "pi1", "--input", CHAIN)
    assert "elapsed_ms=" in err
    assert "elapsed_ms" not in out


def test_sections_and_holonomy(capsys):
    code, report, _ = run_json(capsys, "sections", "--input", HEXAGON)
    assert code == 0
    assert report["results"]["dimension"] == 1
    assert report["results"]["agree"] is True
    code, report, _ = run_json(capsys, "holonomy", "--input", HEXAGON)
    assert code == 0
    assert "1" in report["results"]["images"]


def test_ccs_agreement(capsys):
    code, report, _ = run_json(capsys, "ccs", "--input", HEXAGON)
    assert code == 0
    assert report["results"]["rep_class"] == {"rank": 1, "odd": {"a1": "1"}}
    assert report["results"]["module_class"] == {"rank": 1, "odd": {"a1": "1"}}
    assert report["results"]["agree"] is True


def test_shift_demo_recovers_phase(capsys):
    code, report, _ = run_json(capsys, "shift-demo", "--input", HEXAGON)
    assert code == 0
    assert report["results"]["ccs"] == {"rank": 1, "odd": {"a1": "1"}}
    plus = report["results"]["index"]["plus"]
    assert len(plus) == 1 and plus[0]["dim"] == 1
    assert abs(plus[0]["eigenphases"]["1"][0] - 0.6180339887498949) < 1e-9


def test_shift_demo_needs_one_generator(capsys, tmp_path):
    """A second loop at the base (W13 below U1 and U3) gives two
    generators; shift-demo reads generator 1 only, so it says so."""
    data = json.loads(Path(HEXAGON).read_text())
    del data["bundle"], data["triple"]
    data["poset"]["elements"].append("W13")
    data["poset"]["pairs"] += [["W13", "U1"], ["W13", "U3"]]
    path = tmp_path / "two_generators.json"
    path.write_text(json.dumps(data))
    message = "shift-demo needs a loop group with one generator, got 2"
    code, out, _ = run(capsys, "shift-demo", "--input", str(path), "--format", "text")
    assert code == 1
    assert f"error.message: {message}" in out.splitlines()
    assert "error.type: FiberMismatch" in out.splitlines()
    code, report, _ = run_json(capsys, "shift-demo", "--input", str(path))
    assert code == 1 and report["pass"] is False
    assert report["error"] == {"type": "FiberMismatch", "message": message}


def test_sector_demo(capsys):
    code, report, _ = run_json(capsys, "sector-demo", "--input", SECTOR)
    assert code == 0
    r = report["results"]
    assert r["statistical_dimension"] == 2
    assert r["topological_dimension"] == 2
    assert r["ccs"] == {"rank": 2, "odd": {"a1": "1", "a2": "1"}}


def test_extend_and_fredholm_verify(capsys):
    code, report, _ = run_json(capsys, "fredholm-verify", "--input", HEXAGON)
    assert code == 0 and report["results"]["module"]["violations"] == []
    code, report, _ = run_json(capsys, "extend", "--input", HEXAGON)
    assert code == 0
    assert report["results"]["extended"] is True
    assert report["results"]["obstruction"] is None


def test_spectral_verify_and_roundtrip(capsys):
    code, report, _ = run_json(capsys, "spectral-verify", "--input", HEXAGON)
    assert code == 0
    assert abs(report["results"]["theta_trace"]["beta=1"]
               - 4 * 2.718281828459045 ** -1) < 1e-12
    code, report, _ = run_json(capsys, "roundtrip", "--input", HEXAGON)
    assert code == 0
    assert report["results"] == {"document": True, "bundle_defect": 0.0,
                                 "module_exact": True, "triple_exact": True}
    code, report, _ = run_json(capsys, "roundtrip", "--input", CHAIN)
    assert code == 0
    assert report["results"] == {"document": True}


# ------------------------------------------------------------- exit codes


def test_unknown_command_exits_2(capsys):
    code, report, _ = run_json(capsys, "frobnicate", "--input", CHAIN)
    assert code == 2
    assert report["error"]["type"] == "UnknownCommand"


def test_unreadable_and_malformed_inputs_exit_2(capsys, tmp_path):
    code, report, _ = run_json(capsys, "pi1", "--input", str(tmp_path / "no.json"))
    assert code == 2
    assert report["error"]["type"] == "InputSyntaxError"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, report, _ = run_json(capsys, "pi1", "--input", str(bad))
    assert code == 2
    assert report["error"]["type"] == "InputSyntaxError"


@pytest.mark.parametrize("doc, error", [(CYCLIC, "CycleInOrder"),
                                        (DISCONNECTED, "NotConnected")])
def test_bad_poset_exits_2(capsys, tmp_path, doc, error):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "pi1", "--input", str(path))
    assert code == 2
    assert report["error"]["type"] == error
    assert report["pass"] is False


@pytest.mark.parametrize("command", ["holonomy", "sections", "roundtrip"])
def test_nan_in_a_bundle_exits_2(capsys, tmp_path, command):
    path = tmp_path / "nan.json"
    path.write_text(_hexagon_with_first_entry("NaN"))
    code, report, _ = run_json(capsys, command, "--input", str(path))
    assert code == 2
    assert report["error"]["type"] == "InputSyntaxError"


@pytest.mark.parametrize("command", ["holonomy", "sections"])
def test_missing_edge_reports_null_max_defect(capsys, tmp_path, command):
    data = json.loads(Path(HEXAGON).read_text())
    del data["bundle"]["edges"]["V12<U1"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_json(capsys, command, "--input", str(path))
    assert code == 1
    summary = report["results"]["bundle"]
    assert summary["max_defect"] is None
    assert summary["max_defect_nonfinite"] is True
    assert any("inclusion-coverage" in v for v in summary["violations"])


def test_finite_max_defect_has_no_flag(capsys):
    code, report, _ = run_json(capsys, "holonomy", "--input", HEXAGON)
    assert code == 0
    assert isinstance(report["results"]["bundle"]["max_defect"], float)
    assert "max_defect_nonfinite" not in report["results"]["bundle"]


def test_overflowing_result_exits_1_with_an_error_object(capsys, monkeypatch):
    # input magnitudes are bounded at parse time, so a result that is not
    # finite is forced here instead of being provoked by huge input data
    monkeypatch.setitem(holonet.cli.COMMANDS, "rep-check",
                        lambda doc, opt: ({"defect": float("inf")}, True))
    code, report, _ = run_json(capsys, "rep-check", "--input", HEXAGON)
    assert code == 1
    assert report["pass"] is False
    assert report["error"]["type"] == "ValueError"


def test_huge_magnitudes_are_rejected_at_parse_time(capsys, tmp_path):
    data = json.loads(Path(HEXAGON).read_text())
    data["representation"]["images"] = {"1": [[[1e200, 0.0]]]}
    with pytest.raises(InputSyntaxError, match="magnitude bound"):
        parse_document(json.dumps(data))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    for command in ("rep-check", "index"):
        code, report, _ = run_json(capsys, command, "--input", str(path))
        assert code == 2
        assert report["error"]["type"] == "InputSyntaxError"
        assert report["pass"] is False


def _sector_doc(tmp_path, w_index, dims=None, images=None):
    data = json.loads(Path(SECTOR).read_text())
    data["module"]["w_index"] = w_index
    if dims is not None:
        data["module"]["dims"] = dims
        data["module"]["images"] = images
    path = tmp_path / f"sector-{w_index}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_huge_sector_windows_exit_2_at_parse_time(capsys, tmp_path):
    path = _sector_doc(tmp_path, 10**9)
    with pytest.raises(SchemaError, match="beyond the limit 2048"):
        load_document(path)
    code, out, _ = run(capsys, "sector-demo", "--input", path)
    assert code == 2
    report = json.loads(out, parse_constant=_no_constant)
    assert report["pass"] is False
    assert report["error"]["type"] == "SchemaError"


def test_largest_accepted_sector_window_runs(capsys, tmp_path):
    # the widest window is the w0 + 2 probe, w0 = w_index + 4, in 8 colours
    assert MAX_WINDOW_COLUMNS == 2048
    w_max = MAX_WINDOW_COLUMNS // 8 - 6
    lam = np.exp(2j * np.pi * np.array([0.6180339887498949] * 4
                                       + [0.6931471805599453] * 4))
    images = {"1": [[[z.real, z.imag] if i == j else [0.0, 0.0]
                     for j, z in enumerate(lam)] for i in range(8)]}
    code, report, _ = run_json(capsys, "sector-demo", "--input",
                               _sector_doc(tmp_path, w_max, [4, 4], images))
    assert code == 0
    assert report["results"]["index"]["dim"] == 8
    assert report["results"]["ccs"] == {"rank": 8, "odd": {"a1": "4", "a2": "4"}}
    code, report, _ = run_json(capsys, "sector-demo", "--input",
                               _sector_doc(tmp_path, w_max + 1, [4, 4], images))
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("value, accepted", [("1e100", True), ("-1e100", True),
                                             ("1.0000001e100", False),
                                             ("-1e101", False),
                                             ("1" + "0" * 101, False)])
def test_magnitude_bound_is_inclusive(value, accepted):
    assert MAX_MAGNITUDE == 1e100
    text = _hexagon_with_first_entry(value)
    if accepted:
        parse_document(text)
    else:
        with pytest.raises(InputSyntaxError):
            parse_document(text)


def test_hostile_files_exit_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (deep, binary):
        code, report, _ = run_json(capsys, "pi1", "--input", str(path))
        assert code == 2
        assert report["error"]["type"] == "InputSyntaxError"


@pytest.mark.parametrize("exc", [RuntimeError("boom"),
                                 np.linalg.LinAlgError("SVD did not converge"),
                                 KeyError("U9")])
def test_program_faults_exit_1_with_an_internal_error_object(capsys, monkeypatch,
                                                             exc):
    def broken(doc, opt):
        raise exc

    monkeypatch.setitem(holonet.cli.COMMANDS, "pi1", broken)
    code, out, err = run(capsys, "pi1", "--input", HEXAGON)
    assert code == 1
    report = json.loads(out, parse_constant=_no_constant)
    assert report["pass"] is False
    assert report["error"] == {"type": "internal",
                               "message": f"{type(exc).__name__}: {exc}"}
    assert "Traceback" in err and "Traceback" not in out


def test_missing_section_exits_2(capsys):
    code, report, _ = run_json(capsys, "sector-demo", "--input", CHAIN)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    code, report, _ = run_json(capsys, "ccs", "--input", CHAIN)
    assert code == 2


def test_module_rejection_exits_1(capsys, tmp_path):
    data = json.loads(Path(HEXAGON).read_text())
    data["module"]["images"]["1"] = [[[2.0, 0.0]]]
    bad = tmp_path / "nonunitary.json"
    bad.write_text(json.dumps(data))
    code, report, _ = run_json(capsys, "fredholm-verify", "--input", str(bad))
    assert code == 1
    assert report["pass"] is False
    assert report["error"]["type"] == "InvalidRepresentation"


def test_invalid_bundle_fails_verdict(capsys, tmp_path):
    data = json.loads(Path(HEXAGON).read_text())
    key = sorted(data["bundle"]["edges"])[0]
    data["bundle"]["edges"][key] = [[[2.0, 0.0], [0.0, 0.0]],
                                    [[0.0, 0.0], [1.0, 0.0]]]
    bad = tmp_path / "badbundle.json"
    bad.write_text(json.dumps(data))
    code, report, _ = run_json(capsys, "holonomy", "--input", str(bad))
    assert code == 1
    assert report["pass"] is False
    assert report["results"]["bundle"]["violations"]


def failing_verdict(capsys, *argv) -> dict:
    """Run a command in both formats; each run exits 1 with `pass`
    false, and the JSON run prints one strict object, returned."""
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 1 and "pass: False" in out.splitlines()
    code, report, _ = run_json(capsys, *argv)
    assert code == 1 and report["pass"] is False
    return report


def test_an_extension_obstruction_fails_extend(capsys, tmp_path):
    # diag(1.5, 1) passes the unitarity gate at tolerance 2
    path = _variant(tmp_path, HEXAGON, ("module", "images", "1"),
                    encode_matrix(np.diag([1.5, 1.0])))
    report = failing_verdict(capsys, "extend", "--input", path, "--tolerance", "2")
    assert report["results"] == {"at": "U1", "extended": False,
                                 "obstruction": {"generator": 1, "defect": 2.5}}


def test_an_invalid_bundle_fails_roundtrip(capsys, tmp_path):
    data = json.loads(Path(HEXAGON).read_text())
    key = sorted(data["bundle"]["edges"])[0]
    edge = 2.0 * np.array(data["bundle"]["edges"][key])
    path = _variant(tmp_path, HEXAGON, ("bundle", "edges", key), edge.tolist())
    report = failing_verdict(capsys, "roundtrip", "--input", path)
    results = report["results"]
    assert results["bundle_defect"].startswith(
        "bundle invalid: inclusion-unitarity @ ('V12', 'U1')")
    assert results["document"] and results["module_exact"] and results["triple_exact"]


def test_a_generator_without_an_image_fails_rep_check(capsys, tmp_path):
    """rep-check passed a representation with generator images missing,
    whose relators it could not evaluate."""
    doc = {"poset": {"elements": ["a", "b", "c", "d", "e", "t"],
                     "pairs": [["a", "d"], ["b", "d"], ["c", "d"], ["a", "e"],
                               ["b", "e"], ["c", "e"], ["d", "t"], ["e", "t"],
                               ["a", "t"], ["b", "t"], ["c", "t"]]},
           "representation": {"dimension": 1, "images": {"1": [[[-1.0, 0.0]]]}}}
    assert len(parse_document(json.dumps({"poset": doc["poset"]})).pres.generators) == 6
    path = tmp_path / "one_image.json"
    path.write_text(json.dumps(doc))
    report = failing_verdict(capsys, "rep-check", "--input", str(path))
    assert report["results"] == {
        "unitarity_defects": {"1": 0.0},
        "relator_defects": "not evaluated: missing generator images"}


def test_tolerance_overrides_check_class(capsys, tmp_path):
    doc = {"poset": {"elements": ["a"], "pairs": []},
           "representation": {"dimension": 1,
                              "images": {}}}
    # a lone slightly non-unitary image
    doc["representation"]["images"] = {}
    doc["poset"] = {"elements": ["U1", "U2", "U3", "V12", "V23", "V31"],
                    "pairs": [["V12", "U1"], ["V12", "U2"], ["V23", "U2"],
                              ["V23", "U3"], ["V31", "U1"], ["V31", "U3"]],
                    "base": "U1"}
    doc["representation"]["images"] = {"1": [[[1.0 + 5e-9, 0.0]]]}
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "rep-check", "--input", str(path))
    assert code == 1 and report["pass"] is False
    code, report, _ = run_json(capsys, "rep-check", "--input", str(path),
                               "--tolerance", "1e-6")
    assert code == 0 and report["pass"] is True


def test_sections_tolerance_reaches_the_holonomy_relators(capsys, tmp_path):
    poset, pres, frame, b = nearly_flat_bundle()
    doc = {"poset": {"elements": list(poset.elements),
                     "pairs": [list(e) for e in poset.strict_pairs()],
                     "base": frame.base},
           "bundle": {"dimension": 2,
                      "edges": {f"{o}<{o1}": encode_matrix(u)
                                for (o, o1), u in b.incl.items()}}}
    path = tmp_path / "nearly_flat.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "sections", "--input", str(path),
                               "--tolerance", "1e-6")
    assert code == 0 and report["pass"] is True
    assert report["results"]["agree"] is True
    code, report, _ = run_json(capsys, "sections", "--input", str(path))
    assert code == 1
    assert any("chain-coherence" in v for v in report["results"]["bundle"]["violations"])


def test_a_nan_section_defect_fails_sections(capsys, monkeypatch, tmp_path):
    """A NaN defect after a finite one used to vanish in the builtin max
    over the sections (max(0.0, nan) is 0.0), and the command passed."""
    doc = {"poset": {"elements": ["a", "b", "c"], "pairs": [["a", "b"], ["a", "c"]],
                     "base": "a"},
           "bundle": {"dimension": 2,
                      "edges": {"a<b": encode_matrix(np.eye(2)),
                                "a<c": encode_matrix(np.eye(2))}}}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    defects = iter([0.0, float("nan")])
    monkeypatch.setattr(holonet.bundle, "section_defect", lambda b, s: next(defects))
    code, out, _ = run(capsys, "sections", "--input", str(path), "--format", "text")
    assert code == 1
    assert "results.dimension: 2" in out
    assert "results.max_section_defect: nan" in out and "pass: False" in out


def test_text_format(capsys):
    code, out, _ = run(capsys, "pi1", "--input", HEXAGON, "--format", "text")
    assert code == 0
    assert "pass: True" in out
    assert "results.verdict: Nontrivial" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "holonet.cli", "pi1", "--input", CHAIN],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["verdict"] == "Trivial"
    assert "elapsed_ms=" in proc.stderr


LAYERS = ("numpy", "holonet.operators", "holonet.bundle", "holonet.fredholm",
          "holonet.charclass", "holonet.spectral")
IMPORT_GUARD = """
import contextlib, io, json, sys
from holonet.cli import COMMANDS, main
runs = [[c, "--format", f] for c in COMMANDS for f in ("json", "text")]
runs += [["frobnicate"], ["pi1", "--tolerance", "nan"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*argv, "--input", sys.argv[1]]) for argv in runs]
print(json.dumps([codes, [m for m in sys.argv[2:] if m in sys.modules]]))
"""


def test_a_matrix_free_document_loads_no_numpy():
    """chain.json holds only a poset: every command either needs nothing
    but the poset and its presentation, or stops at a section check, so
    no process on it imports numpy or a computational layer."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, CHAIN, *LAYERS],
                          capture_output=True, text=True, check=True, env=CHILD_ENV)
    codes, loaded = json.loads(proc.stdout)
    want = [0 if c in ("pi1", "roundtrip") else 2 for c in holonet.cli.COMMANDS]
    assert codes == [c for c in want for _ in "jt"] + [2, 2]
    assert loaded == []
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "holonet.cli",
                           "pi1", "--input", CHAIN], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "holonet.iodoc" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize("command, path", [("shift-demo", HEXAGON),
                                           ("sector-demo", SECTOR)])
def test_demos_compute_the_index_once(capsys, monkeypatch, command, path):
    calls = []
    real = holonet.fredholm.pi_index

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(holonet.fredholm, "pi_index", counted)
    monkeypatch.setattr(holonet.charclass, "pi_index", counted)
    code, report, _ = run_json(capsys, command, "--input", path)
    assert code == 0
    assert "ccs" in report["results"]
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["sections", "roundtrip"])
def test_bundle_commands_compute_the_holonomy_once(capsys, monkeypatch, command):
    calls = []
    real = holonet.bundle.holonomy_rep

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(holonet.bundle, "holonomy_rep", counted)
    code, report, _ = run_json(capsys, command, "--input", HEXAGON)
    assert code == 0, report
    assert len(calls) == 1


# ------------------------------------------------- decoding and failure paths


@pytest.mark.parametrize("path, where, container", [
    (("poset", "pairs"), "poset.pairs", {"a": 1}),
    (("bundle", "edges"), "bundle.edges", [1]),
    (("representation", "images"), "representation.images", [1]),
    (("representation", "phases"), "representation.phases", [1]),
    (("representation", "phases", "1", 0, "irr"), r"representation.phases.1\[0\].irr",
     [1]),
    (("module", "images"), "module.images", [1]),
    (("triple", "u"), "triple.u", [1]),
    (("triple", "samples"), "triple.samples", [1])],
    ids=["poset.pairs", "bundle.edges", "representation.images",
         "representation.phases", "irr", "module.images", "triple.u",
         "triple.samples"])
def test_sections_reject_values_of_another_shape(path, where, container):
    for value in (container, True, None):
        data = json.loads(Path(HEXAGON).read_text())
        _set_value(data, path, value)
        with pytest.raises(SchemaError, match=f"^{where}: expected"):
            parse_document(json.dumps(data))


def _set_value(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def _variant(tmp_path, sample, path, value):
    data = json.loads(Path(sample).read_text())
    _set_value(data, path, value)
    out = tmp_path / "variant.json"
    out.write_text(json.dumps(data))
    return str(out)


@pytest.mark.parametrize("option", [("--tolerance", "nan"), ("--tolerance", "inf"),
                                    ("--tolerance", "-1"), ("--seed", "-1")],
                         ids=" ".join)
def test_unusable_options_exit_2(capsys, option):
    code, report, _ = run_json(capsys, "index", "--input", HEXAGON, *option)
    assert code == 2
    assert report["pass"] is False
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith(option[0])


@pytest.mark.parametrize("argv, message", [
    (("pi1", "--seed", "x", "--input", CHAIN), "argument --seed: invalid int value"),
    (("pi1",), "the following arguments are required: --input"),
    (("pi1", "--input", CHAIN, "--format", "xml"), "argument --format: invalid choice")],
    ids=["seed", "input", "format"])
def test_malformed_command_lines_exit_2_with_one_error_object(capsys, argv, message):
    code, report, err = run_json(capsys, *argv)
    assert code == 2
    assert set(report) == {"error", "pass"} and report["pass"] is False
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith(message)
    assert "usage" not in err


def test_phase_lists_must_have_the_declared_dimension(capsys, tmp_path):
    # six generators, relators from the top, one of them with two phases
    one = [[[1, 0]]]
    doc = {"poset": {"elements": ["a", "b", "c", "d", "e", "t"],
                     "pairs": [["a", "d"], ["b", "d"], ["c", "d"], ["a", "e"],
                               ["b", "e"], ["c", "e"], ["d", "t"], ["e", "t"],
                               ["a", "t"], ["b", "t"], ["c", "t"]]},
           "representation": {"dimension": 1,
                              "images": {str(g): one for g in (1, 3, 4, 5, 6)},
                              "phases": {"2": [{"rat": "0"}, {"rat": "1/2"}]}}}
    assert len(parse_document(json.dumps({"poset": doc["poset"]})).pres.generators) == 6
    path = tmp_path / "phases.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "rep-check", "--input", str(path))
    assert code == 2
    assert report["error"] == {"type": "SchemaError",
                               "message": "representation.phases.2: 2 phases, "
                                          "declared dimension 1"}


def test_load_faults_exit_1_with_an_internal_error_object(capsys, monkeypatch):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(holonet.cli, "load_document", broken)
    code, report, err = run_json(capsys, "pi1", "--input", HEXAGON)
    assert code == 1
    assert report["error"] == {"type": "internal", "message": "RuntimeError: boom"}
    assert "Traceback" in err


@pytest.mark.parametrize("command, sample, path", [
    ("sector-demo", SECTOR, ("module", "images")),
    ("index", SECTOR, ("module", "images")),
    ("spectral-verify", HEXAGON, ("triple", "u")),
    ("roundtrip", HEXAGON, ("triple", "u"))],
    ids=["sector-demo", "index", "spectral-verify", "roundtrip"])
def test_missing_generator_images_are_rejected(capsys, tmp_path, command, sample,
                                               path):
    code, report, _ = run_json(capsys, command, "--input",
                               _variant(tmp_path, sample, path, {}))
    assert code == 1
    assert report["error"] == {"type": "FiberMismatch",
                               "message": "missing generator images"}


def test_roundtrip_tolerance_reaches_the_cycle_checks(capsys, tmp_path):
    image = [[[(1 + 1e-8) * x for x in z] for z in row]
             for row in json.loads(Path(HEXAGON).read_text())["module"]["images"]["1"]]
    path = _variant(tmp_path, HEXAGON, ("module", "images", "1"), image)
    for command in ("fredholm-verify", "roundtrip"):
        code, report, _ = run_json(capsys, command, "--input", path,
                                   "--tolerance", "1e-6")
        assert code == 0, report
    assert report["results"]["module_exact"] is True


def test_spectral_verify_tolerance_reaches_the_heat_trace(capsys, tmp_path):
    path = _variant(tmp_path, HEXAGON, ("triple", "operator", 0, 1), [1e-8, 0.0])
    code, report, _ = run_json(capsys, "spectral-verify", "--input", path,
                               "--tolerance", "1e-6")
    assert code == 0, report
    code, report, _ = run_json(capsys, "spectral-verify", "--input", path)
    assert code == 1


def _value_paths(value, path=()):
    """Path of every value below `value`, lists down to their third item."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value[:3]) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _value_paths(item, path + (key,))


SAMPLES = {Path(p).name: json.loads(Path(p).read_text())
           for p in (CHAIN, HEXAGON, SECTOR)}
VALUE_PATHS = sorted((name, path) for name, doc in SAMPLES.items()
                     for path in _value_paths(doc))
REPLACEMENTS = [None, True, 0, -1, 1.5, "x", [], [1], {}, {"a": 1}, [[1]],
                [[[1, 0]]], 1e50]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-1e3, 1e3)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def _run_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@given(st.sampled_from(VALUE_PATHS),
       st.sampled_from(REPLACEMENTS) | JSON_VALUES,
       st.sampled_from(sorted(holonet.cli.COMMANDS)))
@example(("hexagon.json", ("triple", "u")), [1], "spectral-verify")
@example(("chain.json", ("poset", "pairs")), None, "pi1")
@example(("hexagon.json", ("representation", "phases", "1", 0, "irr")), [1], "ccs")
@example(("sector.json", ("module", "images")), {}, "sector-demo")
@settings(derandomize=True, max_examples=300, deadline=None)
def test_every_single_value_mutant_keeps_the_contract(target, value, command):
    """One strict JSON object on stdout, an exit code that agrees with
    `pass`, no program fault, and the same bytes on a rerun."""
    name, path = target
    data = json.loads(json.dumps(SAMPLES[name]))
    _set_value(data, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / name
        doc.write_text(json.dumps(data))
        code, out = _run_in_process([command, "--input", str(doc)])
        assert _run_in_process([command, "--input", str(doc)]) == (code, out)
    report = json.loads(out, parse_constant=_no_constant)
    assert isinstance(report, dict)
    assert code in (0, 1, 2)
    assert report["pass"] is (code == 0)
    assert report.get("error", {}).get("type") != "internal"
