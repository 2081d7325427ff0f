"""Validation reports: a flat list of named checks with numeric defects."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import residual_defects

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


@dataclass
class ValidationReport:
    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, check: str, location: str, defect: float, tolerance: float) -> None:
        self.entries.append(CheckEntry(check, location, float(defect), tolerance))

    @property
    def violations(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_defect(self) -> float:
        """The largest defect, NaN when any defect is NaN."""
        return float(np.max([e.defect for e in self.entries], initial=0.0))

    def __str__(self) -> str:
        if self.ok:
            return f"valid ({len(self.entries)} checks, max defect {self.max_defect:.3e})"
        lines = [str(e) for e in self.violations]
        return "\n".join([f"INVALID ({len(self.violations)} violations)"] + lines)


def relation_memo(report: ValidationReport):
    """A per-call memo of relation residuals keyed on operand identity.

    Returns `(relate, measure)`.  `relate(check, location, tolerance,
    residual, *ops)` appends an entry to `report` for `residual(*ops)`,
    computed once per distinct tuple of operand objects.  `measure()`
    measures every residual at once (`operators.residual_defects`) and
    writes the defects in; until then the entries read NaN, which no
    tolerance passes.  Keys hold the `id` of each operand: make one memo
    per validator call, over operands it keeps alive, never a temporary.
    """
    slots: dict = {}
    residuals: list = []
    pending: list[tuple[CheckEntry, int]] = []

    def relate(check: str, location: str, tolerance: float, residual, *ops) -> None:
        key = (residual, *map(id, ops))
        if key not in slots:
            slots[key] = len(residuals)
            residuals.append(residual(*ops))
        report.entries.append(CheckEntry(check, location, float("nan"), tolerance))
        pending.append((report.entries[-1], slots[key]))

    def measure() -> None:
        defects = residual_defects(residuals).tolist()
        for entry, slot in pending:
            entry.defect = defects[slot]

    return relate, measure
