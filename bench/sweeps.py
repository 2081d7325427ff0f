"""Size sweeps of the traced run, with fitted log-log slopes.

Each point times one holonet call directly (no spans), taking the median
of a few repeats while they fit in a small time budget.  The slope of a
sweep is the least-squares fit of log(time) against log(size).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import circle_lists, haar_unitary

CIRCLE_ARCS = (16, 32, 64, 128, 256)
SECTOR_W = (32, 64, 128, 256)
CYCLIC_D = (8, 10, 12, 14)
REPEAT_BUDGET_S = 0.25
MAX_REPEATS = 5

CIRCLE_STEPS = ("build_path_frame", "bundle_from_rep", "roundtrip_iso",
                "validate_module", "extend_localized")


def timed(fn, *args, **kwargs) -> float:
    """Median wall seconds of fn(*args), repeated within the budget."""
    times = []
    spent = time.perf_counter()
    while True:
        t = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - t)
        if len(times) >= MAX_REPEATS or time.perf_counter() - spent > REPEAT_BUDGET_S:
            return statistics.median(times)


def slope(xs, ts) -> float:
    return float(np.polyfit(np.log(xs), np.log(ts), 1)[0])


def run_sweeps(seed: int, arcs=CIRCLE_ARCS, ws=SECTOR_W, ds=CYCLIC_D):
    """Returns (metrics, points): one slope per sweep, and the size
    parameters and seconds of every point."""
    from holonet import bundle, fredholm, homotopy, poset

    rng = np.random.default_rng(seed)
    points = []
    circle: dict[str, list[float]] = {s: [] for s in CIRCLE_STEPS}
    for n in arcs:
        els, pairs = circle_lists(n)
        p = poset.build_poset(els, pairs)
        pres = homotopy.fundamental_presentation(p, "U1")
        frame = homotopy.build_path_frame(p, "U1")
        u = haar_unitary(rng, 4)
        generic = bundle.HilbertNetBundle(
            p, 4, {e: haar_unitary(rng, 4) for e in p.strict_pairs()})
        m = fredholm.build_shift_module(p, pres, frame, {1: u})
        at = fredholm.localize(m, f"U{n // 2 + 1}")
        secs = {
            "build_path_frame": timed(homotopy.build_path_frame, p, "U1"),
            "bundle_from_rep": timed(bundle.bundle_from_rep, p, pres, frame, {1: u}, 4),
            "roundtrip_iso": timed(bundle.roundtrip_iso, generic, pres, frame),
            "validate_module": timed(fredholm.validate_module, m),
            "extend_localized": timed(fredholm.extend_localized, at),
        }
        for s, v in secs.items():
            circle[s].append(v)
        points.append({"sweep": "circle", "n_arcs": n, "elements": 2 * n,
                       "fiber_dim": 4, "seconds": secs})

    els, pairs = circle_lists(3)
    hexagon = poset.build_poset(els, pairs)
    pres = homotopy.fundamental_presentation(hexagon, "U1")
    frame = homotopy.build_path_frame(hexagon, "U1")
    rho = np.diag(np.exp(2j * np.pi * rng.uniform(0.05, 0.95, 3)))

    def sector_cycle(w):
        sec = fredholm.build_sector_module(hexagon, pres, frame, (2, 1), {1: rho},
                                           w_index=w)
        return fredholm.equivariant_cycle(fredholm.localize(sec.module, "U1"))

    fredholm.pi_index(sector_cycle(ws[0]))  # first dense SVDs of the process
    sector = []
    for w in ws:
        sector.append(timed(fredholm.pi_index, sector_cycle(w)))
        points.append({"sweep": "sector", "w_index": w, "sector_dims": [2, 1],
                       "seconds": {"pi_index": sector[-1]}})

    cyclic = []
    for d in ds:
        perm = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        cyclic.append(timed(fredholm.algebra_dimension, [perm]))
        points.append({"sweep": "cyclic", "d": d,
                       "seconds": {"algebra_dimension": cyclic[-1]}})

    metrics = {f"sweep.circle.{s}.slope": slope(arcs, circle[s]) for s in CIRCLE_STEPS}
    metrics["sweep.sector.pi_index.slope"] = slope(ws, sector)
    metrics["sweep.cyclic.algebra_dimension.slope"] = slope(ds, cyclic)
    return metrics, points
