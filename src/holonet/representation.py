"""Nets of finite-dimensional C*-algebras and their representations on
Hilbert net bundles.

A net assigns a block algebra to every poset element and a unital
injective *-homomorphism to every comparable pair; a representation
intertwines those inclusions with the adjoint action of the bundle
unitaries.  When the net inclusions are isomorphisms (a net bundle in
the C* sense), loops act on the base fiber and every representation
covariantizes to a pair (base homomorphism, holonomy unitaries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import CStarNetBundle, HilbertNetBundle, holonomy_images, holonomy_rep
from .cstar import BlockElement, StarIso, apply_iso, basis_stack, block_diag
from .errors import FiberMismatch, InvalidRepresentation, NotANetBundle
from .homotopy import GroupPresentation, PathFrame
from .linalg import dagger, first_over
from .operators import residual_defects
from .poset import Poset
from .reports import CHECK_TOL, ValidationReport

Edge = tuple[str, str]


@dataclass(frozen=True)
class BlockHom:
    """Unital injective *-homomorphism between block algebras.

    Determined by a multiplicity matrix (rows: target blocks, columns:
    source blocks) and one unitary per target block aligning the
    standard multiplicity embedding.
    """

    src_sizes: tuple[int, ...]
    dst_sizes: tuple[int, ...]
    mult: tuple[tuple[int, ...], ...]
    units: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.mult) != len(self.dst_sizes) or len(self.units) != len(self.dst_sizes):
            raise FiberMismatch("multiplicity rows must match target blocks")
        for i, row in enumerate(self.mult):
            if len(row) != len(self.src_sizes):
                raise FiberMismatch("multiplicity columns must match source blocks")
            if any(m < 0 for m in row):
                raise FiberMismatch("multiplicities must be nonnegative")
            if sum(m * n for m, n in zip(row, self.src_sizes)) != self.dst_sizes[i]:
                raise FiberMismatch(
                    f"target block {i} is not filled exactly (not unital)")
            if self.units[i].shape != (self.dst_sizes[i], self.dst_sizes[i]):
                raise FiberMismatch(f"unit {i} has wrong shape")
        for j in range(len(self.src_sizes)):
            if all(row[j] == 0 for row in self.mult):
                raise FiberMismatch(f"source block {j} is killed (not injective)")


def apply_hom(h: BlockHom, x: BlockElement) -> BlockElement:
    """h applied to x, unit by unit when x is stacked."""
    out = []
    for i, u in enumerate(h.units):
        copies: list[np.ndarray] = []
        for j, m in enumerate(h.mult[i]):
            copies.extend([x[j]] * m)
        out.append(u @ block_diag(copies) @ dagger(u))
    return tuple(out)


def identity_hom(sizes: tuple[int, ...]) -> BlockHom:
    n = len(sizes)
    mult = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return BlockHom(sizes, sizes, mult,
                    tuple(np.eye(k, dtype=complex) for k in sizes))


def iso_from_hom(h: BlockHom) -> StarIso:
    """Invert the encoding when the hom is an isomorphism."""
    if h.src_sizes != h.dst_sizes:
        raise NotANetBundle("source and target block sizes differ")
    src = []
    for i, row in enumerate(h.mult):
        hits = [j for j, m in enumerate(row) if m]
        if len(hits) != 1 or row[hits[0]] != 1:
            raise NotANetBundle(f"target block {i} is not a single source copy")
        src.append(hits[0])
    if sorted(src) != list(range(len(h.src_sizes))):
        raise NotANetBundle("multiplicity matrix is not a permutation")
    return StarIso(h.dst_sizes, tuple(src), h.units)


@dataclass(frozen=True)
class NetOfAlgebras:
    """Fiber block sizes per element, inclusion hom per strict pair."""

    poset: Poset
    fibers: dict[str, tuple[int, ...]]
    incl: dict[Edge, BlockHom]

    def hom(self, o: str, o1: str) -> BlockHom:
        if o == o1:
            return identity_hom(self.fibers[o])
        return self.incl[(o, o1)]


def net_of_bundle(b: HilbertNetBundle) -> NetOfAlgebras:
    """The full matrix net carried by a Hilbert net bundle: one block per
    fiber, inclusions acting by conjugation with the bundle unitaries."""
    sizes = (b.dim,)
    fibers = {o: sizes for o in b.poset.elements}
    incl = {e: BlockHom(sizes, sizes, ((1,),), (b.incl[e],)) for e in b.incl}
    return NetOfAlgebras(b.poset, fibers, incl)


def as_net_bundle(net: NetOfAlgebras) -> CStarNetBundle:
    """Reinterpret the net as a C* net bundle; inclusions must be isos."""
    sizes_set = {net.fibers[o] for o in net.poset.elements}
    if len(sizes_set) != 1:
        raise NotANetBundle(f"fibers are not constant: {sorted(sizes_set)}")
    sizes = next(iter(sizes_set))
    incl = {e: iso_from_hom(h) for e, h in net.incl.items()}
    return CStarNetBundle(net.poset, sizes, incl)


@dataclass(frozen=True)
class NetRepresentation:
    """A morphism from a net into the adjoint system of a Hilbert bundle:
    pi[o] maps the fiber algebra at o into the full matrix block at o."""

    net: NetOfAlgebras
    target: HilbertNetBundle
    pi: dict[str, BlockHom]

    def pi_matrix(self, o: str, t: BlockElement) -> np.ndarray:
        """pi at o applied to t, one matrix per unit when t is stacked."""
        return apply_hom(self.pi[o], t)[0]


def validate_representation(r: NetRepresentation,
                            tol: float = CHECK_TOL) -> ValidationReport:
    rep = ValidationReport()
    dim = r.target.dim
    for o in r.net.poset.elements:
        if o not in r.pi:
            rep.add("pi-coverage", o, float("inf"), tol)
            continue
        h = r.pi[o]
        if h.src_sizes != r.net.fibers[o] or h.dst_sizes != (dim,):
            rep.add("pi-fibers", o, float("inf"), tol)
    if not rep.ok:
        return rep
    basis = {o: basis_stack(r.net.fibers[o]) for o in r.net.poset.elements}
    images = {o: r.pi_matrix(o, t) for o, t in basis.items()}
    for o, o1 in sorted(r.net.poset.strict_pairs()):
        rep.add("morphism", f"{o}<{o1}",
                r.target.u(o, o1) @ images[o] @ dagger(r.target.u(o, o1))
                - r.pi_matrix(o1, apply_hom(r.net.hom(o, o1), basis[o])), tol)
    return rep


def identity_representation(b: HilbertNetBundle) -> NetRepresentation:
    """The bundle represented on itself (defining representation)."""
    sizes = (b.dim,)
    pi = {o: identity_hom(sizes) for o in b.poset.elements}
    return NetRepresentation(net_of_bundle(b), b, pi)


def covariantize(r: NetRepresentation, pres: GroupPresentation,
                 frame: PathFrame) -> tuple[BlockHom, dict[int, np.ndarray]]:
    """Base-fiber homomorphism plus holonomy unitaries on the generators.

    The net must be a net bundle so that loops act on the base fiber;
    the covariance identity pi(g.t) = U_g pi(t) U_g* is verified on the
    fiber basis for every generator.  Every check runs at CHECK_TOL.
    """
    report = validate_representation(r, CHECK_TOL)
    if not report.ok:
        raise InvalidRepresentation(str(report))
    cb = as_net_bundle(r.net)
    images = holonomy_rep(r.target, pres, frame, CHECK_TOL)
    pi_base = r.pi[pres.base]
    t = basis_stack(r.net.fibers[pres.base])
    pi_t = apply_hom(pi_base, t)[0]
    acts = holonomy_images(cb, pres, frame)
    residuals = [apply_hom(pi_base, apply_iso(act, t))[0]
                 - images[idx] @ pi_t @ dagger(images[idx])
                 for idx, act in acts.items()]
    d = residual_defects([m for stack in residuals for m in stack])
    k = first_over(d, CHECK_TOL)
    if k is not None:
        raise InvalidRepresentation(f"covariance fails on generator "
                                    f"{list(acts)[k // len(pi_t)]} (defect {d[k]:.3e})")
    return pi_base, images
