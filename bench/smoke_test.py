"""Smoke test of the benchmark: the size sweeps at their smallest sizes,
one traced chain per workload, a one-second contract run, and the refusal
to run without holonet sources.

Kept out of the tier-1 suite (pytest collects only tests/).  Run from the
repository root with

    python3 -m pytest -q bench/smoke_test.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from cli_samples import EXPECTED, CliSamples  # noqa: E402
from run import run_chain  # noqa: E402
from spans import Tracer, layer_metrics, traced_api  # noqa: E402
from sweeps import CIRCLE_ARCS, CYCLIC_D, SECTOR_W, run_sweeps  # noqa: E402
from workloads import CircleTransport, RandomNets, SectorIndex, holonet_api  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_sweeps_at_smallest_sizes():
    metrics, points = run_sweeps(0, CIRCLE_ARCS[:2], SECTOR_W[:2], CYCLIC_D[:2])
    slopes = {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("sweep.")}
    assert set(metrics) == slopes
    assert all(math.isfinite(v) for v in metrics.values())
    assert len(points) == 6


def test_one_traced_chain_per_in_process_workload():
    api = holonet_api()
    for wl in (CircleTransport(0, api, n_arcs=8), SectorIndex(0, api, w_index=8),
               RandomNets(0, api, count=1)):
        tracer = Tracer()
        tracer.install()
        wl.api = traced_api(tracer, api)
        try:
            chain = run_chain(wl, 0, tracer)
        finally:
            tracer.uninstall()
            wl.api = api
        assert chain["failures"] == []
        metrics = layer_metrics(tracer.per_chain())
        assert metrics["trace.span_coverage_frac"] > 0.5
        assert metrics["poset.build_poset.calls"] == 1


def test_cli_chains_match_the_table():
    wl = CliSamples(0, ROOT, BENCH)
    assert len(EXPECTED) == 36
    assert sum(1 for code, _ in EXPECTED.values() if code == 0) == 22
    for i in range(3):
        failures, wall, elapsed_ms = wl.chain(i)
        assert failures == [] and wall > 0 and elapsed_ms is not None


def run_bench(cwd: Path, workload: str):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_contract_line():
    done = run_bench(ROOT, "cli-samples")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "circle-transport")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
