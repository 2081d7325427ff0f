"""The cli-samples workload: every command on every sample document, one
child process at a time, checked against a hand-written table.

Each chain is one `holonet.cli` process.  Its stdout must be exactly one
RFC 8259 JSON object (NaN and Infinity are rejected), the exit code and
the key fields must match EXPECTED, and stdout must be byte-identical to
the first run of the same (file, command) pair.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

COMMANDS = ("pi1", "holonomy", "sections", "rep-check", "fredholm-verify",
            "extend", "index", "ccs", "shift-demo", "sector-demo",
            "spectral-verify", "roundtrip")
FILES = ("chain", "hexagon", "sector")

OK, INPUT = 0, 2
SCHEMA = {"pass": False, "error.type": "SchemaError"}
CLASS_A1 = {"rank": 1, "odd": {"a1": "1"}}
CLASS_A1_A2 = {"rank": 2, "odd": {"a1": "1", "a2": "1"}}

# (file, command) -> (exit code, {dotted key: expected value}).  chain.json
# has only a poset; sector.json has no bundle and no triple; hexagon.json
# has a shift module, so sector-demo refuses it.
EXPECTED = {
    ("chain", "pi1"): (OK, {"results.verdict": "Trivial", "results.generators": 1,
                            "results.relators": 1, "results.simplified.generators": 0}),
    ("chain", "roundtrip"): (OK, {"results.document": True}),
    **{("chain", c): (INPUT, SCHEMA) for c in COMMANDS if c not in ("pi1", "roundtrip")},

    ("hexagon", "pi1"): (OK, {"results.verdict": "Nontrivial", "results.generators": 1,
                              "results.relators": 0}),
    ("hexagon", "holonomy"): (OK, {"results.bundle.violations": []}),
    ("hexagon", "sections"): (OK, {"results.dimension": 1, "results.oracle_dimension": 1,
                                   "results.agree": True}),
    ("hexagon", "rep-check"): (OK, {"results.phase_matches.1.match": True}),
    ("hexagon", "fredholm-verify"): (OK, {"results.parity": "even",
                                          "results.module.violations": []}),
    ("hexagon", "extend"): (OK, {"results.extended": True, "results.at": "U1"}),
    ("hexagon", "index"): (OK, {"results.index.dim": 1}),
    ("hexagon", "ccs"): (OK, {"results.agree": True, "results.rep_class": CLASS_A1,
                              "results.module_class": CLASS_A1}),
    ("hexagon", "shift-demo"): (OK, {"results.index.dim": 1, "results.ccs": CLASS_A1}),
    ("hexagon", "sector-demo"): (INPUT, SCHEMA),
    ("hexagon", "spectral-verify"): (OK, {"results.triple.violations": []}),
    ("hexagon", "roundtrip"): (OK, {"results.document": True, "results.module_exact": True,
                                    "results.triple_exact": True}),

    ("sector", "pi1"): (OK, {"results.verdict": "Nontrivial", "results.generators": 1}),
    ("sector", "holonomy"): (INPUT, SCHEMA),
    ("sector", "sections"): (INPUT, SCHEMA),
    ("sector", "rep-check"): (OK, {"results.phase_matches.1.match": True}),
    ("sector", "fredholm-verify"): (OK, {"results.statistical_dimension": 2,
                                         "results.topological_dimension": 2}),
    ("sector", "extend"): (OK, {"results.extended": True}),
    ("sector", "index"): (OK, {"results.index.dim": 2}),
    ("sector", "ccs"): (OK, {"results.agree": True, "results.rep_class": CLASS_A1_A2}),
    ("sector", "shift-demo"): (OK, {"results.index.dim": 2, "results.ccs": CLASS_A1_A2}),
    ("sector", "sector-demo"): (OK, {"results.index.dim": 2,
                                     "results.topological_dimension": 2,
                                     "results.ccs": CLASS_A1_A2}),
    ("sector", "spectral-verify"): (INPUT, SCHEMA),
    ("sector", "roundtrip"): (OK, {"results.document": True, "results.module_exact": True}),
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON number {name}")


def strict_object(raw: bytes) -> dict:
    """Exactly one RFC 8259 object: UTF-8, no NaN/Infinity, nothing after."""
    value = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    if not isinstance(value, dict):
        raise ValueError(f"stdout is a JSON {type(value).__name__}, not an object")
    return value


def lookup(report: dict, dotted: str):
    value = report
    for key in dotted.split("."):
        value = value[key]
    return value


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float = 120.0):
    """Run one process to the end; returns (exit code, stdout, stderr,
    wall seconds, peak RSS in KiB) with the child's own rusage."""
    start = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, cwd=cwd)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return p.returncode, out, err[0] if err else b"", wall, usage.ru_maxrss


class CliSamples:
    name = "cli-samples"

    def __init__(self, seed: int, root: Path, bench_dir: Path):
        self.root = root
        self.bench_dir = bench_dir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.pairs = sorted(EXPECTED)
        self.order: list[tuple[str, str]] = []
        self.first_stdout: dict[tuple[str, str], bytes] = {}
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.trace_dir: Path | None = None
        self.peak_rss_kb = 0

    def pair(self, i: int) -> tuple[str, str]:
        """Chains go through the pairs in passes, each pass in a fresh
        seeded order; index -1 is the warm-up pair."""
        if i < 0:
            return ("hexagon", "pi1")
        while len(self.order) <= i:
            self.order += [self.pairs[k] for k in self.rng.permutation(len(self.pairs))]
        return self.order[i]

    def argv(self, i: int) -> list[str]:
        f, cmd = self.pair(i)
        args = [cmd, "--input", f"sample_inputs/{f}.json", "--seed", str(self.seed)]
        if self.trace_dir is None:
            return [sys.executable, "-m", "holonet.cli", *args]
        return [sys.executable, str(self.bench_dir / "cli_child.py"),
                str(self.trace_dir / f"{i}.json"), *args]

    def chain(self, i: int):
        """Returns (failures, wall seconds, the program's elapsed_ms)."""
        key = self.pair(i)
        code, out, err, wall, rss = run_child(self.argv(i), self.env, self.root)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        failures = []
        want_code, fields = EXPECTED[key]
        if code != want_code:
            failures.append(f"{key}: exit {code}, want {want_code}: {err[-300:]!r}")
        try:
            report = strict_object(out)
            for dotted, want in fields.items():
                got = lookup(report, dotted)
                if got != want:
                    failures.append(f"{key}: {dotted} = {got!r}, want {want!r}")
            if report.get("pass") is not (code == 0):
                failures.append(f"{key}: pass flag disagrees with exit {code}")
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"{key}: stdout breaks the contract: {exc}")
        first = self.first_stdout.setdefault(key, out)
        if out != first:
            failures.append(f"{key}: stdout differs from its first run")
        elapsed = None
        for line in err.decode("utf-8", "replace").splitlines():
            if line.startswith("elapsed_ms="):
                elapsed = float(line.split("=", 1)[1])
        if elapsed is None:
            failures.append(f"{key}: no elapsed_ms on stderr")
        return failures, wall, elapsed
