"""Spans for the traced run.

A span records its name, start, end, parent span and chain id.  Spans
are kept in flat arrays while the run goes on and written out when it
ends.  Wrappers are installed only for a traced run, around:

- the public holonet functions named in LAYER_FUNCTIONS, in every holonet
  module that binds them, so calls from inside holonet are spans too;
- the ShiftOp product and `materialize`;
- the numpy.linalg entry points holonet calls.

`ApiProxy` gives the benchmark's own calls into any holonet module a span.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
import time
from array import array
from types import FunctionType, SimpleNamespace

LAYER_FUNCTIONS = {
    "poset": ("build_poset",),
    "homotopy": ("fundamental_presentation", "build_path_frame",
                 "simplify_presentation", "abelianization_rank", "edge_loop_word"),
    "bundle": ("validate_bundle", "bundle_from_rep", "holonomy_rep",
               "compute_sections", "roundtrip_iso", "evaluate_path"),
    "representation": ("covariantize",),
    "fredholm": ("build_shift_module", "build_sector_module", "algebra_dimension",
                 "validate_module", "extend_localized", "pi_index",
                 "windowed_kernel", "_kernel_window"),
    "charclass": ("ccs_of_module", "ccs_of_rep"),
    "spectral": ("from_equivariant", "validate_triple", "to_equivariant"),
    "iodoc": ("parse_document", "print_document"),
}
LINALG_FUNCTIONS = ("svd", "norm", "eig", "eigvals", "eigh", "eigvalsh", "solve", "qr")


def svd_flops(a, compute_uv: bool = True) -> float:
    """Floating-point operations of a dense SVD (Golub and Van Loan,
    table 5.4.1: R-SVD with U and V, or singular values only), times 4
    for complex input."""
    m, n = a.shape[-2], a.shape[-1]
    big, small = max(m, n), min(m, n)
    if compute_uv:
        f = 4.0 * big * big * small + 22.0 * small ** 3
    else:
        f = 4.0 * big * small * small - 4.0 * small ** 3 / 3.0
    return f * (4.0 if a.dtype.kind == "c" else 1.0)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.chain_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")
        self._stack: list[int] = []
        self.chain = -1
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, extra: float = 0.0) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.chain_of.append(self.chain)
        self.extra.append(extra)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, extra=None):
        """fn with a span; extra(args, kwargs) gives the span's count."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(nid, extra(args, kwargs) if extra else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------- install / remove

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import numpy as np
        from holonet.shift_calculus import ShiftOp

        originals = {}
        for mod, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"holonet.{mod}")
            for n in names:
                fn = getattr(module, n)
                label = "fredholm.kernel_window" if n == "_kernel_window" else f"{mod}.{n}"
                originals[fn] = self.wrap(label, fn, _EXTRAS.get(label))
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("holonet") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in originals:
                    self._patch(module, attr, originals[value])
        self._patch(ShiftOp, "__matmul__",
                    self.wrap("shift_calculus.matmul", ShiftOp.__matmul__))
        self._patch(ShiftOp, "materialize",
                    self.wrap("shift_calculus.materialize", ShiftOp.materialize,
                              _materialize_cells))
        for n in LINALG_FUNCTIONS:
            fn = getattr(np.linalg, n)
            if n == "norm":
                self._patch(np.linalg, n, self._norm_wrapper(fn))
            else:
                self._patch(np.linalg, n, self.wrap(f"linalg.{n}", fn, _EXTRAS.get(f"linalg.{n}")))

    def _norm_wrapper(self, fn):
        two, other = self.wrap("linalg.norm2", fn), self.wrap("linalg.norm", fn)

        def norm(x, ord=None, *args, **kwargs):
            return (two if ord == 2 else other)(x, ord, *args, **kwargs)
        return norm

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------- analysis

    def per_chain(self) -> dict[int, dict[str, list[float]]]:
        """chain id -> span name -> [self ms, calls, extra, ms]."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[int, dict[str, list[float]]] = {}
        for i in range(n):
            row = out.setdefault(self.chain_of[i], {}).setdefault(
                self.names[self.name[i]], [0.0, 0.0, 0.0, 0.0])
            row[0] += (dur[i] - child[i]) * 1000.0
            row[1] += 1
            row[2] += self.extra[i]
            row[3] += dur[i] * 1000.0
        # SVDs issued from inside windowed_kernel
        wk = self._ids.get("fredholm.windowed_kernel")
        svd = self._ids.get("linalg.svd")
        if wk is not None and svd is not None:
            for i in range(n):
                if self.name[i] != svd:
                    continue
                p = self.parent[i]
                while p >= 0 and self.name[p] != wk:
                    p = self.parent[p]
                if p >= 0:
                    row = out[self.chain_of[i]].setdefault(
                        "fredholm.windowed_kernel.svd", [0.0, 0.0, 0.0, 0.0])
                    row[1] += 1
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start and end in
        seconds, parent span index, chain id."""
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                f.write(json.dumps([self.name[i], round(self.start[i], 7),
                                    round(self.end[i], 7), self.parent[i],
                                    self.chain_of[i]]) + "\n")


def _materialize_cells(args, kwargs) -> float:
    op, rows = args[0], args[1]
    cols = args[2] if len(args) > 2 and args[2] is not None else kwargs.get("cols") or rows
    return float(rows * cols * op.d_out * op.d_in)


def _svd_extra(args, kwargs) -> float:
    return svd_flops(args[0], kwargs.get("compute_uv", args[2] if len(args) > 2 else True))


def _segments(args, kwargs) -> float:
    return float(len(args[1].simplices))


def _window(args, kwargs) -> float:
    return float(args[1])


_EXTRAS = {
    "linalg.svd": _svd_extra,
    "bundle.evaluate_path": _segments,
    "fredholm.kernel_window": _window,
}


class ApiProxy:
    """A holonet module whose functions, looked up through the proxy,
    open a span named `<module>.<function>`; classes pass through."""

    def __init__(self, tracer: Tracer, short: str, module):
        self._tracer, self._short, self._module = tracer, short, module
        self._cache: dict[str, object] = {}

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if not isinstance(value, FunctionType):
            return value
        if getattr(value, "__wrapped__", None) is not None:
            return value  # a layer wrapper already opens this span
        if attr not in self._cache:
            self._cache[attr] = self._tracer.wrap(f"{self._short}.{attr}", value)
        return self._cache[attr]


def traced_api(tracer: Tracer, api: SimpleNamespace) -> SimpleNamespace:
    return SimpleNamespace(**{k: ApiProxy(tracer, k, m) for k, m in vars(api).items()})


# --------------------------------------------------- per-layer metrics

def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(chains: dict[int, dict[str, list[float]]]) -> dict[str, float]:
    """Per-layer metrics, each the median over chains of a per-chain value."""
    rows = [c for k, c in sorted(chains.items()) if k >= 0]

    def per(name: str, col: int) -> float:
        return _median([c.get(name, [0.0] * 4)[col] for c in rows])

    out: dict[str, float] = {}
    for mod, names in LAYER_FUNCTIONS.items():
        for n in names:
            if n == "_kernel_window":
                continue
            out[f"{mod}.{n}.self_ms"] = per(f"{mod}.{n}", 0)
            out[f"{mod}.{n}.calls"] = per(f"{mod}.{n}", 1)
    out["bundle.evaluate_path.segments"] = per("bundle.evaluate_path", 2)
    for n in ("matmul", "materialize"):
        out[f"shift_calculus.{n}.self_ms"] = per(f"shift_calculus.{n}", 0)
        out[f"shift_calculus.{n}.calls"] = per(f"shift_calculus.{n}", 1)
    out["shift_calculus.materialize.cells"] = per("shift_calculus.materialize", 2)

    def ratio(num: str, num_col: int, den: str) -> float:
        vals = [c[num][num_col] / c[den][1] for c in rows
                if den in c and c[den][1] and num in c]
        return _median(vals)

    out["fredholm.windowed_kernel.svd_per_call"] = ratio(
        "fredholm.windowed_kernel.svd", 1, "fredholm.windowed_kernel")
    out["fredholm.kernel_window.sites"] = ratio(
        "fredholm.kernel_window", 2, "fredholm.kernel_window")
    out["linalg.svd.calls"] = per("linalg.svd", 1)
    out["linalg.svd.self_ms"] = per("linalg.svd", 0)
    out["linalg.svd.flops_computed"] = per("linalg.svd", 2)
    out["linalg.norm2.calls"] = per("linalg.norm2", 1)
    out["linalg.eig.calls"] = _median([
        sum(c.get(f"linalg.{n}", [0.0] * 4)[1] for n in ("eig", "eigvals", "eigh", "eigvalsh"))
        for c in rows])
    covered = [1.0 - c["chain"][0] / c["chain"][3] for c in rows
               if "chain" in c and c["chain"][3] > 0]
    out["trace.span_coverage_frac"] = _median(covered)
    return out
