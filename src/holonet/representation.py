"""Nets of finite-dimensional C*-algebras and their representations on
Hilbert net bundles.

A net assigns a block algebra to every poset element and a unital
injective *-homomorphism (`BlockHom`) to every comparable pair; a
representation intertwines those inclusions with the adjoint action of
the bundle unitaries.  When the fibers are constant and every inclusion
is a block permutation (a net bundle in the C* sense), the net is a
carrier like the Hilbert bundles: loops act on the base fiber through
`holonomy_images`, and every representation covariantizes to a pair
(base homomorphism, holonomy unitaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bundle import HilbertNetBundle, holonomy_images, holonomy_rep
from .errors import FiberMismatch, InvalidRepresentation, NotANetBundle
from .homotopy import GroupPresentation, PathFrame
from .linalg import dagger, first_over
from .operators import residual_defects
from .poset import Poset
from .reports import CHECK_TOL, ValidationReport

Edge = tuple[str, str]
BlockElement = tuple[np.ndarray, ...]


def basis_stack(sizes: tuple[int, ...]) -> BlockElement:
    """Matrix units of the block algebra, block by block, as one stacked
    element: unit t has block k equal to `out[k][t]`."""
    total = sum(n * n for n in sizes)
    out, at = [], 0
    for n in sizes:
        blocks = np.zeros((total, n, n), dtype=complex)
        blocks[at:at + n * n] = np.eye(n * n).reshape(n * n, n, n)
        out.append(blocks)
        at += n * n
    return tuple(out)


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal matrix, or stack of them when the blocks carry a
    leading stack axis."""
    n = sum(b.shape[-1] for b in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[-1]
        out[..., at:at + k, at:at + k] = b
        at += k
    return out


@dataclass(frozen=True)
class BlockHom:
    """Unital injective *-homomorphism between block algebras.

    Determined by a multiplicity matrix (rows: target blocks, columns:
    source blocks) and one unitary per target block aligning the
    standard multiplicity embedding.  A block permutation of one
    algebra is a *-isomorphism: it composes with `@` and inverts with
    `.H`, and any other hom raises NotANetBundle there.
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

    @cached_property
    def src(self) -> tuple[int, ...]:
        """The source block of each target block, when self is a block
        permutation.  An injective unital hom between algebras of equal
        sizes is one: equal dimensions make it onto, so each row of the
        multiplicity matrix is a single copy."""
        if self.src_sizes != self.dst_sizes:
            raise NotANetBundle("source and target block sizes differ")
        return tuple(row.index(1) for row in self.mult)

    def __matmul__(self, inner: BlockHom) -> BlockHom:
        """self after inner: target block k receives source block
        inner.src[self.src[k]], conjugated by units[k] @ inner.units[self.src[k]]."""
        src, isrc = self.src, inner.src
        if inner.dst_sizes != self.src_sizes:
            raise NotANetBundle("the homs act on different block algebras")
        return _block_permutation(self.dst_sizes, tuple(isrc[s] for s in src),
                                  tuple(u @ inner.units[s] for u, s in zip(self.units, src)))

    @property
    def H(self) -> BlockHom:
        """The inverse *-isomorphism: block src[k] goes back to k by units[k]*."""
        back = tuple(sorted(range(len(self.src)), key=self.src.__getitem__))
        return _block_permutation(self.dst_sizes, back,
                                  tuple(dagger(self.units[k]) for k in back))


def _block_permutation(sizes: tuple[int, ...], src: tuple[int, ...],
                       units: tuple[np.ndarray, ...]) -> BlockHom:
    """The block permutation whose target block k receives source block
    src[k] conjugated by units[k]; its `src` is cached from the caller.

    Built without `__post_init__`: every caller passes a permutation of
    the blocks of `sizes` and one unit of each block's size (a product or
    inverse of validated block permutations, or the identity), which is a
    valid block permutation, so validating it again would check nothing."""
    n = len(sizes)
    h = object.__new__(BlockHom)
    h.__dict__.update(src_sizes=sizes, dst_sizes=sizes, units=units, src=src,
                      mult=tuple(tuple(int(j == s) for j in range(n)) for s in src))
    return h


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
    return _block_permutation(sizes, tuple(range(len(sizes))),
                              tuple(np.eye(k, dtype=complex) for k in sizes))


@dataclass(frozen=True)
class NetOfAlgebras:
    """Fiber block sizes per element, inclusion hom per strict pair.

    A carrier like the bundles: `u(o, o1)` is the inclusion, and the
    diagonal is `ident`, one identity object per net."""

    poset: Poset
    fibers: dict[str, tuple[int, ...]]
    incl: dict[Edge, BlockHom]

    @cached_property
    def ident(self) -> BlockHom:
        """The identity on the fiber, which must be the same everywhere."""
        sizes = {self.fibers[o] for o in self.poset.elements}
        if len(sizes) != 1:
            raise NotANetBundle(f"fibers are not constant: {sorted(sizes)}")
        return identity_hom(next(iter(sizes)))

    def u(self, o: str, o1: str) -> BlockHom:
        if o == o1:
            return self.ident
        return self.incl[(o, o1)]


def net_of_bundle(b: HilbertNetBundle) -> NetOfAlgebras:
    """The full matrix net carried by a Hilbert net bundle: one block per
    fiber, inclusions acting by conjugation with the bundle unitaries."""
    sizes = (b.dim,)
    fibers = {o: sizes for o in b.poset.elements}
    incl = {e: BlockHom(sizes, sizes, ((1,),), (b.incl[e],)) for e in b.incl}
    return NetOfAlgebras(b.poset, fibers, incl)


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
                - r.pi_matrix(o1, apply_hom(r.net.u(o, o1), basis[o])), tol)
    return rep


def identity_representation(b: HilbertNetBundle) -> NetRepresentation:
    """The bundle represented on itself (defining representation)."""
    sizes = (b.dim,)
    pi = {o: identity_hom(sizes) for o in b.poset.elements}
    return NetRepresentation(net_of_bundle(b), b, pi)


def covariantize(r: NetRepresentation, pres: GroupPresentation,
                 frame: PathFrame) -> tuple[BlockHom, dict[int, np.ndarray]]:
    """Base-fiber homomorphism plus holonomy unitaries on the generators.

    The net must be a net bundle (constant fibers, block permutations
    as inclusions, else NotANetBundle before any holonomy is evaluated)
    so that loops act on the base fiber; the covariance identity
    pi(g.t) = U_g pi(t) U_g* is verified on the fiber basis for every
    generator.  Every check runs at CHECK_TOL.
    """
    report = validate_representation(r, CHECK_TOL)
    if not report.ok:
        raise InvalidRepresentation(str(report))
    r.net.ident  # NotANetBundle unless the fibers are constant
    for h in r.net.incl.values():
        h.src  # NotANetBundle unless h is a block permutation
    images = holonomy_rep(r.target, pres, frame, CHECK_TOL)
    pi_base = r.pi[pres.base]
    t = basis_stack(r.net.fibers[pres.base])
    pi_t = apply_hom(pi_base, t)[0]
    acts = holonomy_images(r.net, pres, frame)
    residuals = [apply_hom(pi_base, apply_hom(act, t))[0]
                 - images[idx] @ pi_t @ dagger(images[idx])
                 for idx, act in acts.items()]
    d = residual_defects([m for stack in residuals for m in stack])
    k = first_over(d, CHECK_TOL)
    if k is not None:
        raise InvalidRepresentation(f"covariance fails on generator "
                                    f"{list(acts)[k // len(pi_t)]} (defect {d[k]:.3e})")
    return pi_base, images
