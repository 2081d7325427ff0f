"""Characteristic classes of loop-group representations over circle-type
posets, with exact phase arithmetic.

Phases live in Q + Q-span of a user-declared basis of formal
irrationals; the class of a representation is its rank together with
the sum of eigenphases reduced mod Q.  Everything is exact symbolic
arithmetic on Fractions; floats appear only when matching numerically
recovered phases back to declared ones.

Q-linear independence of the declared irrationals is assumed, not
verified (it is undecidable in general); declaring dependent values
makes "mod Q" meaningless for the affected coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BasisMismatch,
    InexactPhase,
    NotInfiniteCyclic,
    PhaseRecoveryFailed,
)
from .fredholm import FredholmModule, VirtualRep, equivariant_cycle, localize, pi_index
from .homotopy import GroupPresentation, simplify_presentation
from .linalg import eigenphases, turn_distance
from .reports import PHASE_TOL


@dataclass(frozen=True)
class IrrationalBasis:
    """Named formal irrationals with float approximations for recovery."""

    values: tuple[tuple[str, float], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.values)

    def value(self, name: str) -> float:
        for n, v in self.values:
            if n == name:
                return v
        raise BasisMismatch(f"unknown irrational {name!r}")


def irrational_basis(**values: float) -> IrrationalBasis:
    return IrrationalBasis(tuple(sorted((n, float(v)) for n, v in values.items())))


def _normal_coords(coords) -> tuple[tuple[str, Fraction], ...]:
    out = {}
    for name, c in dict(coords).items():
        c = Fraction(c)
        if c:
            out[name] = c
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class ExactPhase:
    """rat + sum of coefficients times declared irrationals, all exact."""

    rat: Fraction
    irr: tuple[tuple[str, Fraction], ...]
    basis: IrrationalBasis

    def _require_same_basis(self, other: "ExactPhase") -> None:
        if self.basis != other.basis:
            raise BasisMismatch("phases declared over different bases")

    def __add__(self, other: "ExactPhase") -> "ExactPhase":
        self._require_same_basis(other)
        coords = dict(self.irr)
        for n, c in other.irr:
            coords[n] = coords.get(n, Fraction(0)) + c
        return ExactPhase(self.rat + other.rat, _normal_coords(coords), self.basis)

    def __neg__(self) -> "ExactPhase":
        return self.scale(-1)

    def __sub__(self, other: "ExactPhase") -> "ExactPhase":
        return self + (-other)

    def scale(self, n: int) -> "ExactPhase":
        return ExactPhase(self.rat * n,
                          _normal_coords({k: c * n for k, c in self.irr}),
                          self.basis)

    def mod_q(self) -> "ExactPhase":
        """Reduction mod Q: the rational part dies."""
        return ExactPhase(Fraction(0), self.irr, self.basis)

    def float_value(self) -> float:
        return float(self.rat) + sum(float(c) * self.basis.value(n)
                                     for n, c in self.irr)

    def __str__(self) -> str:
        parts = [str(self.rat)] if self.rat else []
        parts += [f"{c}*{n}" for n, c in self.irr]
        return " + ".join(parts) if parts else "0"


def phase(basis: IrrationalBasis, rat=0, **coeffs) -> ExactPhase:
    for n in coeffs:
        basis.value(n)  # unknown symbols fail fast
    return ExactPhase(Fraction(rat), _normal_coords(coeffs), basis)


@dataclass(frozen=True)
class CCSClass:
    """Rank plus an odd part: exact coordinates over the basis, mod Q."""

    rank: int
    odd: tuple[tuple[str, Fraction], ...]
    basis: IrrationalBasis

    def __str__(self) -> str:
        odd = " + ".join(f"{c}*{n}" for n, c in self.odd) or "0"
        return f"({self.rank}, [{odd}])"


def _require_infinite_cyclic(pres: GroupPresentation) -> None:
    if len(pres.generators) == 1 and not pres.relators:
        return
    simplified, verdict = simplify_presentation(pres)
    if len(simplified.generators) == 1 and not simplified.relators:
        return
    raise NotInfiniteCyclic(
        f"need an infinite cyclic loop group, got {pres} (verdict {verdict})")


def ccs_of_rep(phases, pres: GroupPresentation) -> CCSClass:
    """Class of the representation of an infinite cyclic loop group whose
    generator image has the given exact eigenphases.

    Rank is the count; the odd part is the phase sum mod Q.  Higher
    classes vanish on circle-type spaces, so this is the whole class.
    """
    _require_infinite_cyclic(pres)
    phases = list(phases)
    if not phases:
        raise InexactPhase("a representation needs at least one eigenphase")
    for p in phases:
        if not isinstance(p, ExactPhase):
            raise InexactPhase(
                f"eigenphase {p!r} is not exact phase data; "
                "declare it over an irrational basis")
    total = phases[0]
    for p in phases[1:]:
        total = total + p
    total = total.mod_q()
    return CCSClass(len(phases), total.irr, phases[0].basis)


def _match_phase(turns: float, declared) -> ExactPhase:
    for p in declared:
        if turn_distance(turns, p.float_value()) <= PHASE_TOL:
            return p
    raise PhaseRecoveryFailed(
        f"recovered eigenphase {turns:.12f} turns matches no declared phase")


def ccs_of_module(m: FredholmModule, declared,
                  index: VirtualRep | None = None) -> CCSClass:
    """Class of the index of an even module, signs from the virtual rep.

    The numerically recovered eigenphases of the index action must each
    match a declared exact phase to `PHASE_TOL` (in turns); the class is
    then assembled exactly from the matched symbols.  A caller that
    already holds the module's `pi_index`, localized at the frame base
    `m.rep.frame.base`, passes it as `index` instead of having it
    computed again.
    """
    declared = list(declared)
    if not declared:
        raise PhaseRecoveryFailed("no declared phases to match against")
    for p in declared:
        if not isinstance(p, ExactPhase):
            raise InexactPhase(f"declared phase {p!r} is not exact phase data")
    basis = declared[0].basis
    pres = m.rep.pres
    # stricter than ccs_of_rep: the index blocks are keyed by generator,
    # so "simplifies to Z" is not enough to know which loop to read off
    if len(pres.generators) != 1 or pres.relators:
        raise NotInfiniteCyclic(
            f"module route needs one free generator, got {pres}")
    idx = index if index is not None else pi_index(
        equivariant_cycle(localize(m, m.rep.frame.base)))
    total = ExactPhase(Fraction(0), (), basis)
    for sign, blocks in ((1, idx.plus), (-1, idx.minus)):
        for b in blocks:
            for t in eigenphases(b.images[1]):
                total = total + _match_phase(float(t), declared).scale(sign)
    return CCSClass(idx.dim, total.mod_q().irr, basis)


def combine(x: CCSClass, y: CCSClass, mode: str) -> CCSClass:
    """Direct sum or tensor product of two classes.

    The tensor rule is rank-weighted: the odd part of a product is
    d * odd' + d' * odd, and ranks multiply.
    """
    if mode not in ("sum", "tensor"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (isinstance(x, CCSClass) and isinstance(y, CCSClass)):
        raise BasisMismatch(
            f"cannot combine {type(x).__name__} with {type(y).__name__}")
    if x.basis != y.basis:
        raise BasisMismatch("classes declared over different bases")
    cx, cy = dict(x.odd), dict(y.odd)
    names = set(cx) | set(cy)
    if mode == "sum":
        coords = {n: cx.get(n, Fraction(0)) + cy.get(n, Fraction(0))
                  for n in names}
        return CCSClass(x.rank + y.rank, _normal_coords(coords), x.basis)
    coords = {n: x.rank * cy.get(n, Fraction(0))
              + y.rank * cx.get(n, Fraction(0)) for n in names}
    return CCSClass(x.rank * y.rank, _normal_coords(coords), x.basis)
