"""Seeded random instances: connected posets, valid holonomy
representations and random net bundles.

Representations for presentations with relators are drawn from
commuting families Z^{m_g} with the integer exponent vector m taken in
the rational kernel of the relator exponent matrix, so every relator is
satisfied by construction; free presentations get independent unitaries.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .bundle import HilbertNetBundle, bundle_from_rep
from .homotopy import (
    GroupPresentation,
    PathFrame,
    build_path_frame,
    fundamental_presentation,
    relator_exponent_matrix,
)
from .linalg import dagger, random_unitary
from .poset import Poset, build_poset, check_connected, components


def random_connected_poset(rng: np.random.Generator, max_elements: int = 12) -> Poset:
    n = int(rng.integers(3, max_elements + 1))
    els = [f"e{i:02d}" for i in range(n)]
    while True:
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 2.2 / n:
                    pairs.append((els[i], els[j]))
        poset = build_poset(els, pairs)
        if check_connected(poset):
            return poset
        # deterministically stitch the components together
        comps = components(poset)
        extra = [(min(comps[k]), min(comps[k + 1])) for k in range(len(comps) - 1)]
        poset = build_poset(els, pairs + sorted(extra))
        if check_connected(poset):
            return poset


def _rational_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Integer basis of the rational kernel of an integer matrix: per free
    column, the primitive kernel vector that is positive there and zero
    at the other free columns.  Fraction-free (Bareiss) Gauss-Jordan: the
    pivot rows end as `d` times the reduced row echelon form."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [list(row) for row in rows]
    pivots: list[int] = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // d for a, b in zip(m[i], m[r])]
        pivots.append(c)
        d = p
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = d
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append([x // g for x in v])
    return basis


def random_representation(pres: GroupPresentation, dim: int,
                          rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Unitary images of the generators satisfying every relator."""
    n = len(pres.generators)
    if n == 0:
        return {}
    rows = relator_exponent_matrix(pres)
    if not rows:
        return {i + 1: random_unitary(rng, dim) for i in range(n)}
    kernel = _rational_kernel(rows)
    m = [0] * n
    for v in kernel:
        c = int(rng.integers(-2, 3))
        m = [a + c * b for a, b in zip(m, v)]
    # commuting family: common eigenvectors, exponentiated phases
    q = random_unitary(rng, dim)
    phases = rng.random(dim)
    images = {}
    for i in range(n):
        lam = np.exp(2j * np.pi * phases * m[i])
        images[i + 1] = q @ np.diag(lam) @ dagger(q)
    return images


def random_hilbert_bundle(poset: Poset, pres: GroupPresentation, frame: PathFrame,
                          dim: int, rng: np.random.Generator) -> HilbertNetBundle:
    """A valid random bundle: reconstruct from a random representation,
    then conjugate fiberwise by random unitaries (generic inclusions,
    chain coherence preserved up to float error)."""
    images = random_representation(pres, dim, rng)
    flat = bundle_from_rep(poset, pres, frame, images, dim)
    w = {o: random_unitary(rng, dim) for o in poset.elements}
    incl = {e: w[e[1]] @ flat.incl[e] @ dagger(w[e[0]]) for e in flat.incl}
    return HilbertNetBundle(poset, dim, incl)


def random_poset_with_frame(rng: np.random.Generator, max_elements: int = 12
                            ) -> tuple[Poset, GroupPresentation, PathFrame]:
    poset = random_connected_poset(rng, max_elements)
    base = min(poset.elements)
    return poset, fundamental_presentation(poset, base), build_path_frame(poset, base)
