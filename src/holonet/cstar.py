"""Finite-dimensional C*-fibers: block algebras, their *-isomorphisms
and unital *-homomorphisms (multiplicity embedding followed by a unitary
conjugation)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiberMismatch
from .linalg import dagger, opnorms

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


def element_norm(x: BlockElement) -> float:
    """Largest block norm of x, over every unit when x is stacked; NaN
    when any norm is NaN."""
    return float(np.max([opnorms(b.reshape((-1,) + b.shape[-2:])) for b in x],
                        initial=0.0))


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


def element_sub(x: BlockElement, y: BlockElement) -> BlockElement:
    return tuple(a - b for a, b in zip(x, y))


@dataclass(frozen=True)
class StarIso:
    """*-isomorphism of a block algebra: target slot k receives source
    block src[k] conjugated by units[k]."""

    sizes: tuple[int, ...]
    src: tuple[int, ...]
    units: tuple[np.ndarray, ...]

    def __post_init__(self):
        if sorted(self.src) != list(range(len(self.sizes))):
            raise FiberMismatch("src is not a permutation of the block slots")
        for k, s in enumerate(self.src):
            if self.sizes[s] != self.sizes[k]:
                raise FiberMismatch(
                    f"slot {k} (size {self.sizes[k]}) cannot receive block {s} "
                    f"(size {self.sizes[s]})"
                )
            if self.units[k].shape != (self.sizes[k], self.sizes[k]):
                raise FiberMismatch(f"unit {k} has wrong shape")

    def __matmul__(self, inner: "StarIso") -> "StarIso":
        """self after inner."""
        return compose_iso(self, inner)

    @property
    def H(self) -> "StarIso":
        """The inverse *-isomorphism."""
        return inverse_iso(self)


def identity_iso(sizes: tuple[int, ...]) -> StarIso:
    return StarIso(sizes, tuple(range(len(sizes))),
                   tuple(np.eye(n, dtype=complex) for n in sizes))


def apply_iso(iso: StarIso, x: BlockElement) -> BlockElement:
    return tuple(u @ x[s] @ dagger(u) for s, u in zip(iso.src, iso.units))


def compose_iso(outer: StarIso, inner: StarIso) -> StarIso:
    """outer after inner."""
    src = tuple(inner.src[s] for s in outer.src)
    units = tuple(outer.units[k] @ inner.units[outer.src[k]]
                  for k in range(len(outer.sizes)))
    return StarIso(outer.sizes, src, units)


def inverse_iso(iso: StarIso) -> StarIso:
    n = len(iso.sizes)
    src = [0] * n
    units: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for k, s in enumerate(iso.src):
        src[s] = k
        units[s] = dagger(iso.units[k])
    return StarIso(iso.sizes, tuple(src), tuple(units))


def iso_map_defect(a: StarIso, b: StarIso, sizes: tuple[int, ...]) -> float:
    """Distance between the maps, measured on the matrix-unit basis."""
    t = basis_stack(sizes)
    return element_norm(element_sub(apply_iso(a, t), apply_iso(b, t)))

