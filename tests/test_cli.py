"""Input document parsing, command dispatch, exit codes, and report
determinism for the command line front end."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import holonet.charclass
import holonet.cli
from holonet.cli import main
from holonet.errors import (
    CycleInOrder,
    InputReferenceError,
    InputSyntaxError,
    NotConnected,
    SchemaError,
)
from holonet.iodoc import load_document, parse_document, print_document

ROOT = Path(__file__).resolve().parent.parent
HEXAGON = str(ROOT / "sample_inputs" / "hexagon.json")
CHAIN = str(ROOT / "sample_inputs" / "chain.json")
SECTOR = str(ROOT / "sample_inputs" / "sector.json")


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_result_exits_1_with_an_error_object(capsys, tmp_path):
    data = json.loads(Path(HEXAGON).read_text())
    data["representation"]["images"] = {"1": [[[1e200, 0.0]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_json(capsys, "rep-check", "--input", str(path))
    assert code == 1
    assert report["pass"] is False
    assert report["error"]["type"] == "ValueError"


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


def test_text_format(capsys):
    code, out, _ = run(capsys, "pi1", "--input", HEXAGON, "--format", "text")
    assert code == 0
    assert "pass: True" in out
    assert "results.verdict: Nontrivial" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "holonet.cli", "pi1", "--input", CHAIN],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["verdict"] == "Trivial"
    assert "elapsed_ms=" in proc.stderr


@pytest.mark.parametrize("command, path", [("shift-demo", HEXAGON),
                                           ("sector-demo", SECTOR)])
def test_demos_compute_the_index_once(capsys, monkeypatch, command, path):
    calls = []
    real = holonet.cli.pi_index

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(holonet.cli, "pi_index", counted)
    monkeypatch.setattr(holonet.charclass, "pi_index", counted)
    code, report, _ = run_json(capsys, command, "--input", path)
    assert code == 0
    assert "ccs" in report["results"]
    assert len(calls) == 1
