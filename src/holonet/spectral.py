"""Finite-dimensional nets of spectral triples and their equivariant
counterparts.

A net triple carries one odd self-adjoint operator per fiber,
transported by the edge unitaries of a graded representation; an
equivariant triple is the single-fiber picture, with the loop group
acting by unitaries that commute with the operator.  The two are
interchangeable, and the conversions here are exact on matrices.

Everything is finite dimensional, so theta-summability and the
superderivation domains are automatic; the validator checks neither.
Covariance of the superderivation delta(t) = D t - G t G D (G the
grading) along an edge unitary u follows from three residuals: for all
square matrices, with no unitarity or self-adjointness assumed,
delta1(u t u*) - u delta(t) u* = A t u* - B t X - Y t C, where
A = D1 u - u D, B = G1 u - u G, X = u* G1 D1, Y = u G, C = X - G D u*.
The validator reports |A| |u| + |B| |X| + |Y| |C|, a bound uniform over
|t| <= 1 that in exact arithmetic is never below the defect on any
matrix unit; grading transport is seen only through B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import holonomy_images, require_unitary_rep
from .errors import FiberMismatch, NotInvariant, NotSelfAdjoint
from .fredholm import SampledRep, flat_rep
from .homotopy import GroupPresentation, PathFrame
from .linalg import opnorms
from .operators import (
    adj,
    anticommutator_residual,
    intertwining_residual,
    selfadjoint_defect,
    selfadjoint_residual,
)
from .poset import Poset
from .reports import CHECK_TOL, ValidationReport


@dataclass(frozen=True)
class NetSpectralTriple:
    """Graded rep plus a fiberwise odd self-adjoint operator family."""

    rep: SampledRep
    D: dict[str, np.ndarray]


@dataclass(frozen=True)
class EquivariantTriple:
    """One graded fiber, loop-group unitaries, observables, one operator.

    The unitaries commute with the grading and with D; the observables
    are even.  D is odd and self-adjoint.
    """

    grading: np.ndarray
    u_images: dict[int, np.ndarray]
    samples: dict[str, np.ndarray]
    D: np.ndarray
    group: GroupPresentation


def _covariance_factors(u, d, d1, g, g1):
    """The factor pair ([A, B, Y], [u, X, C]) of the module docstring."""
    x = adj(u) @ g1 @ d1
    return (np.array([d1 @ u - u @ d, g1 @ u - u @ g, u @ g]),
            np.array([u, x, x - g @ d @ adj(u)]))


def validate_triple(t: NetSpectralTriple, tol: float = CHECK_TOL) -> ValidationReport:
    """Defect report for a net of spectral triples.

    Per fiber: D present, self-adjoint, odd against the grading.  Per
    edge: an edge operator present, D transported, and the bound
    |A| |u| + |B| |X| + |Y| |C| on superderivation covariance from the
    identity delta1(u t u*) - u delta(t) u* = A t u* - B t X - Y t C of
    the module docstring; grading transport is seen only through B.

    Through `ValidationReport.relate`, a relation on operands shared by
    several locations is evaluated once.
    """
    rep = t.rep
    grading = rep.grading or {}
    report = ValidationReport()
    for o in sorted(rep.poset.elements):
        d = t.D.get(o)
        if d is None:
            report.add("D-coverage", o, float("inf"), tol)
            continue
        report.relate("D-selfadjoint", o, tol, selfadjoint_residual, d)
        g = grading.get(o)
        if g is None:
            report.add("grading-coverage", o, float("inf"), tol)
        else:
            report.relate("D-odd", o, tol, anticommutator_residual, g, d)
    for e in sorted(rep.poset.strict_pairs()):
        o, o1 = e
        if e not in rep.u_incl:
            report.add("edge-coverage", f"{o}<{o1}", float("inf"), tol)
            continue
        d, d1 = t.D.get(o), t.D.get(o1)
        if d is None or d1 is None:
            continue
        u = rep.u_incl[e]
        report.relate("D-transport", f"{o}<{o1}", tol, intertwining_residual, u, d, d1)
        g, g1 = grading.get(o), grading.get(o1)
        if g is not None and g1 is not None:
            report.relate("superderivation-covariance", f"{o}<{o1}", tol,
                          _covariance_factors, u, d, d1, g, g1)
    return report


def _require_equivariant(e: EquivariantTriple, tol: float) -> None:
    """Raise NotInvariant on the worst equivariance relation unless it is
    within `tol`; all relations are measured in one stack."""
    out = [("D-selfadjoint", e.D - adj(e.D)),
           ("D-odd", e.grading @ e.D + e.D @ e.grading)]
    for g, u in sorted(e.u_images.items()):
        out.append((f"u{g}-commutes-D", u @ e.D - e.D @ u))
        out.append((f"u{g}-commutes-grading", u @ e.grading - e.grading @ u))
    for label, a in sorted(e.samples.items()):
        out.append((f"{label}-even", e.grading @ a - a @ e.grading))
    defects = opnorms(np.array([m for _, m in out]))
    k = int(np.argmax(defects))
    if not defects[k] <= tol:
        raise NotInvariant(f"{out[k][0]} fails: defect {defects[k]:.3e} > {tol:.1e}")


def to_equivariant(t: NetSpectralTriple, tol: float = CHECK_TOL) -> EquivariantTriple:
    """Read the triple off at the frame base; holonomy gives the action.

    The loop-group images must commute with D there (they do whenever
    the net family is transport-covariant), else NotInvariant.
    """
    rep = t.rep
    base = rep.frame.base
    if rep.grading is None or base not in rep.grading:
        raise FiberMismatch("need a grading at the base fiber")
    if base not in t.D:
        raise FiberMismatch("no operator at the base fiber")
    e = EquivariantTriple(rep.grading[base], holonomy_images(rep, rep.pres, rep.frame),
                          dict(rep.samples.get(base, {})), t.D[base],
                          rep.pres)
    _require_equivariant(e, tol)
    return e


def from_equivariant(e: EquivariantTriple, poset: Poset,
                     pres: GroupPresentation, frame: PathFrame,
                     tol: float = CHECK_TOL) -> NetSpectralTriple:
    """Spread an equivariant triple out as a constant family over the net.

    With a holonomy-flat representation the frame sections are exact
    identities, so the constant family IS the section-transported one,
    and converting back returns the very same matrices.  Every generator
    needs an image of D's shape (FiberMismatch otherwise), unitary
    within `tol` (InvalidRepresentation otherwise), and the relators
    must hold within `tol` (RelatorNotSatisfied otherwise).
    """
    dim = e.D.shape[0]
    require_unitary_rep(pres, e.u_images, dim, tol)
    _require_equivariant(e, tol)
    rep = flat_rep(poset, pres, frame, dict(e.u_images),
                   np.eye(dim, dtype=complex), dict(e.samples),
                   grading_at=e.grading)
    return NetSpectralTriple(rep, {o: e.D for o in poset.elements})


def theta_trace(d, beta: float, tol: float = CHECK_TOL) -> float:
    """Tr exp(-beta D^2) through the eigenvalues of D, self-adjoint
    within `tol`."""
    d = np.asarray(d, dtype=complex)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotSelfAdjoint(f"need a square matrix, got shape {d.shape}")
    if not selfadjoint_defect(d) <= tol:
        raise NotSelfAdjoint("operator is not self-adjoint")
    if beta <= 0:
        raise ValueError("beta must be positive")
    lam = np.linalg.eigvalsh(d)
    return float(np.sum(np.exp(-beta * lam * lam)))
