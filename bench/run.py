"""Benchmark of the holonet chain.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a holonet checkout.  Workloads: circle-transport,
sector-index, random-nets (in-process chains against the public API) and
cli-samples (one `holonet.cli` process per chain).  Every workload is a
closed loop with one caller.

With --trace 0 the run sets up (import, inputs from the seed, one
untimed warm-up chain), runs chains for S seconds and reports the
end-to-end metrics.  With --trace 1 it runs S/2 seconds untraced, then the
same chains again with spans for S/2 seconds, and reports the per-layer
metrics, the size sweeps and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
A fuller record, and the spans of a traced run, go to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("circle-transport", "sector-index", "random-nets", "cli-samples")
SETUP_PROBES = 2  # fresh processes that repeat set-up, besides this one
IMPORT_PROBES = 3


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"no BENCHMARK.json in {ROOT}; run from the checkout root")
    return json.loads(path.read_text())


# ------------------------------------------------------------ environment

def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return {"library": blas.get("name"), "version": blas.get("version"),
            "threads": threads,
            "threads_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}}


def env_record(args) -> dict:
    import numpy as np

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_record(), "seed": args.seed,
            "seconds": args.seconds, "workload": args.workload, "trace": args.trace}


# ---------------------------------------------------------------- set-up

def make_workload(args):
    if args.workload == "cli-samples":
        import compileall

        from cli_samples import CliSamples

        compileall.compile_dir(str(ROOT / "src" / "holonet"), quiet=1)
        return CliSamples(args.seed, ROOT, BENCH)
    from workloads import IN_PROCESS, holonet_api

    cls = IN_PROCESS[args.workload]
    if args.workload == "random-nets":
        # a fresh poset for every chain down to about 300 ms
        return cls(args.seed, holonet_api(), count=10 + int(3 * args.seconds))
    return cls(args.seed, holonet_api())


def set_up(args):
    """Import, inputs from the seed, and one untimed warm-up chain."""
    start = time.perf_counter()
    wl = make_workload(args)
    warm = run_chain(wl, -1)
    return wl, time.perf_counter() - start, warm["failures"]


def setup_probe(args) -> int:
    _, seconds, failures = set_up(args)
    print(json.dumps({"setup_s": seconds, "failures": failures}))
    return 0


def probe_setups(args) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0", "--setup-probe"]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
        if done.returncode != 0:
            die(f"set-up probe failed: {done.stderr[-2000:]}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------- chains

def run_chain(wl, i: int, tracer=None) -> dict:
    """One chain; an exception counts as a failure."""
    if tracer is not None:
        tracer.chain = i
        root = tracer.open(tracer.name_id("chain"))
    start = time.perf_counter()
    elapsed_ms = None
    try:
        if wl.name == "cli-samples":
            failures, wall, elapsed_ms = wl.chain(i)
        else:
            failures = wl.chain(i)
            wall = time.perf_counter() - start
    except Exception as exc:  # a chain that raises is a failed chain
        wall = time.perf_counter() - start
        failures = [f"chain {i} raised {type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.close(root)
    return {"seconds": wall, "failures": failures, "elapsed_ms": elapsed_ms}


def run_phase(wl, seconds: float, tracer=None) -> dict:
    """Chains one after another from index 0 until `seconds` have passed.
    Each chain starts after a full garbage collection, so that no chain
    pays for the cycles an earlier one left behind."""
    chains = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        gc.collect()
        chains.append(run_chain(wl, len(chains), tracer))
        if time.perf_counter() >= deadline:
            break
    return {"chains": chains, "wall": time.perf_counter() - start}


def tail(ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten chains beyond it (the
    largest value when there are fewer than eleven chains)."""
    xs = sorted(ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(phase: dict, setups: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    ms = [c["seconds"] * 1000.0 for c in phase["chains"]]
    failed = sum(1 for c in phase["chains"] if c["failures"])
    tail_ms, pct = tail(ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "chain_p50_ms": statistics.median(ms),
        "chain_tail_ms": tail_ms,
        "chains_per_s": len(ms) / phase["wall"],
        "failed_frac": failed / len(ms),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    info = {"chains": len(ms), "failed": failed, "tail_percentile": pct,
            "setup_samples_s": setups, "chain_ms": ms}
    return metrics, info


# ----------------------------------------------------------------- traced

def import_split() -> dict:
    """Median numpy and holonet import times from `-X importtime`."""
    numpy_us, holonet_us = [], []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import numpy; import holonet.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=120)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].rstrip()] = int(parts[1])
        numpy_us.append(cumulative.get(" numpy", 0))
        holonet_us.append(cumulative.get(" holonet.cli", 0))
    return {"cli.import_numpy_ms": statistics.median(numpy_us) / 1000.0,
            "cli.import_holonet_ms": statistics.median(holonet_us) / 1000.0}


def traced_run(args, wl) -> tuple[dict, dict, list]:
    from spans import Tracer, layer_metrics, traced_api
    from sweeps import run_sweeps

    half = args.seconds / 2.0
    plain = run_phase(wl, half)
    tracer = Tracer()
    out_dir = BENCH / "out"
    if wl.name == "cli-samples":
        wl.trace_dir = out_dir / f"cli-chains-{os.getpid()}"
        wl.trace_dir.mkdir(parents=True, exist_ok=True)
        traced = run_phase(wl, half)
        per_chain = {}
        for i in range(len(traced["chains"])):
            path = wl.trace_dir / f"{i}.json"
            if path.is_file():
                per_chain[i] = json.loads(path.read_text())
                path.unlink()
        wl.trace_dir.rmdir()
        wl.trace_dir = None
    else:
        api = wl.api
        tracer.install()
        wl.api = traced_api(tracer, api)
        try:
            traced = run_phase(wl, half, tracer)
        finally:
            tracer.uninstall()
            wl.api = api
        per_chain = tracer.per_chain()
    metrics = layer_metrics(per_chain)

    m = min(len(plain["chains"]), len(traced["chains"]))
    slow = sum(c["seconds"] for c in traced["chains"][:m])
    fast = sum(c["seconds"] for c in plain["chains"][:m])
    metrics["trace.overhead_frac"] = slow / fast - 1.0

    computes = [c["elapsed_ms"] for c in plain["chains"] if c["elapsed_ms"] is not None]
    if wl.name == "cli-samples" and computes:
        metrics["cli.compute_ms"] = statistics.median(computes)
        metrics["cli.startup_ms"] = statistics.median(
            c["seconds"] * 1000.0 - c["elapsed_ms"] for c in plain["chains"]
            if c["elapsed_ms"] is not None)
    else:
        metrics["cli.compute_ms"] = 0.0
        metrics["cli.startup_ms"] = 0.0
    metrics.update(import_split())
    sweep_metrics, points = run_sweeps(args.seed)
    metrics.update(sweep_metrics)

    out_dir.mkdir(parents=True, exist_ok=True)
    if len(tracer.start):
        tracer.dump(out_dir / f"{wl.name}-seed{args.seed}.spans.jsonl.gz")
    chains = plain["chains"] + traced["chains"]
    info = {"untraced_chains": len(plain["chains"]), "traced_chains": len(traced["chains"]),
            "spans": len(tracer.start), "sweep_points": points}
    return metrics, info, chains


# ------------------------------------------------------------------ main

def report_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<40} {value:>14.6g} {unit:<8} {note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "holonet" / "__init__.py").is_file():
        die(f"no holonet sources under {ROOT / 'src'}; run from a holonet checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)
    spec = contract()

    wl, setup_s, warm_failures = set_up(args)
    if args.trace:
        metrics, info, chains = traced_run(args, wl)
        listed = spec["per_layer"]
    else:
        phase = run_phase(wl, args.seconds)
        peak = wl.peak_rss_kb if wl.name == "cli-samples" else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [setup_s] + probe_setups(args)
        metrics, info = end_to_end(phase, setups, peak)
        chains = phase["chains"]
        listed = spec["end_to_end"]

    failures = warm_failures + [f for c in chains for f in c["failures"]]
    failed = sum(1 for c in chains if c["failures"])
    env = env_record(args)
    record = {"environment": env, "info": info, "metrics": metrics,
              "failures": failures[:50], "attempted": len(chains), "failed": failed}
    out_dir = BENCH / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.setdefault("failed_frac", "ratio")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name in sorted(metrics):
        note = ""
        if name == "chain_tail_ms":
            note = f"p{info['tail_percentile']:.1f} of {info['chains']} chains"
        if name == "failed_frac":
            note = f"{info['failed']} of {info['chains']} chains"
        print(report_line(name, metrics[name], units.get(name, ""), note))
    print("environment " + json.dumps(env, default=str))
    for f in failures[:20]:
        print(f"FAILED {f}")

    result = {"correct": not failures, "attempted": len(chains), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
