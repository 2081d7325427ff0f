"""Validation reports: named checks with numeric defects, kept as columns."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

# Every threshold of the package.  A function takes a `tol` parameter
# only where some caller passes one; the CLI passes its --tolerance
# (default CHECK_TOL) there and never changes the other constants.
CONSTRUCTION_TOL = 1e-12  # validating data handed to a constructor
CHECK_TOL = 1e-10  # relations of computed objects (holonomy, modules, triples)
COMPACT_TOL = 1e-9  # stripe weight of a module relation that must be compact
INDEX_TOL = 1e-9  # holonomy invariance: extension, index kernels, characters
DENSE_KERNEL_TOL = 1e-8  # singular values at or below this span a kernel
SPAN_TOL = 1e-9  # relative singular value of a product that adds to a span
PHASE_TOL = 1e-9  # turns between a recovered and a declared eigenphase


def residual_defects(residuals: list):
    """`operators.residual_defects`, imported on the first call: loading
    this module loads neither numpy nor another holonet module."""
    from .operators import residual_defects
    return residual_defects(residuals)


@dataclass
class CheckEntry:
    check: str
    location: str
    defect: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.defect <= self.tolerance

    def __str__(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        return f"{self.check} @ {self.location}: defect={self.defect:.3e} tol={self.tolerance:.1e} [{status}]"


class ValidationReport:
    """Named checks kept as columns: check, location, tolerance and a slot
    into a list of residuals.

    A residual is a matrix, a stack of them or a ShiftOp, whose norm is
    the defect, a factor pair of stacks (see `residual_defects`), or a
    defect measured already (a float).  A read measures every residual
    added since the last one in one `residual_defects` call.  Only
    `entries` and `violations` build `CheckEntry` objects.
    """

    def __init__(self) -> None:
        self._checks, self._locations, self._tolerances, self._slots = [], [], [], []
        self._measured, self._pending = [], []
        # (residual, *operand ids) -> (slot, operands): holding the
        # operands keeps their ids from being reused while the key exists
        self._memo: dict = {}

    def _push(self, check: str, location: str, tolerance: float, slot: int) -> None:
        self._checks.append(check)
        self._locations.append(location)
        self._tolerances.append(tolerance)
        self._slots.append(slot)

    def add(self, check: str, location: str, defect, tolerance: float) -> None:
        """A check of a defect (a float) or of a residual to measure."""
        if isinstance(defect, numbers.Real):  # numpy registers its scalars here
            defect = float(defect)
        self._pending.append(defect)
        self._push(check, location, tolerance, len(self._measured) + len(self._pending) - 1)

    def relate(self, check: str, location: str, tolerance: float, residual, *ops) -> None:
        """A check of `residual(*ops)`, computed once per residual
        function and tuple of operand objects."""
        key = (residual, *map(id, ops))
        if key in self._memo:
            self._push(check, location, tolerance, self._memo[key][0])
        else:
            self.add(check, location, residual(*ops), tolerance)
            self._memo[key] = self._slots[-1], ops

    def _defects(self):
        import numpy as np
        if self._pending:
            self._measured = np.concatenate([self._measured, residual_defects(self._pending)])
            self._pending = []
        return np.asarray(self._measured, dtype=float)[self._slots]

    def _over(self):
        return ~(self._defects() <= self._tolerances)

    def _build(self, index) -> list[CheckEntry]:
        rows = list(zip(self._checks, self._locations, self._defects().tolist(), self._tolerances))
        return [CheckEntry(*rows[i]) for i in index]

    @property
    def count(self) -> int:
        return len(self._slots)

    @property
    def entries(self) -> list[CheckEntry]:
        return self._build(range(self.count))

    @property
    def violations(self) -> list[CheckEntry]:
        return self._build(self._over().nonzero()[0].tolist())

    @property
    def ok(self) -> bool:
        return not self._over().any()

    @property
    def max_defect(self) -> float:
        """The largest defect, NaN when any defect is NaN."""
        return float(self._defects().max(initial=0.0))

    def __str__(self) -> str:
        if self.ok:
            return f"valid ({self.count} checks, max defect {self.max_defect:.3e})"
        lines = [str(e) for e in self.violations]
        return "\n".join([f"INVALID ({len(lines)} violations)"] + lines)
