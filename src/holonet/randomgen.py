"""Seeded random instances: connected posets, valid holonomy
representations, random net bundles, paths and homotopic variants.

Representations for presentations with relators are drawn from
commuting families Z^{m_g} with the integer exponent vector m taken in
the rational kernel of the relator exponent matrix, so every relator is
satisfied by construction; free presentations get independent unitaries.
"""

from __future__ import annotations

from fractions import Fraction

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
from .poset import (
    OneSimplex,
    Path,
    Poset,
    build_poset,
    check_connected,
    components,
    make_path,
)


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
    """Integer basis of the rational kernel of an integer matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        denom = 1
        for x in v:
            denom = denom * x.denominator // np.gcd(denom, x.denominator)
        basis.append([int(x * denom) for x in v])
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


def random_simplex_from(poset: Poset, rng: np.random.Generator, at: str) -> OneSimplex:
    """A random 1-simplex whose traversal starts at `at`."""
    supports = [s for s in poset.elements if poset.leq(at, s)]
    s = supports[int(rng.integers(len(supports)))]
    under = poset.below(s)
    f0 = under[int(rng.integers(len(under)))]
    return OneSimplex(s, f0, at)


def random_path(poset: Poset, rng: np.random.Generator, start: str,
                length: int) -> Path:
    at = start
    simplices = []
    for _ in range(length):
        b = random_simplex_from(poset, rng, at)
        simplices.append(b)
        at = b.face0
    return make_path(poset, simplices, at=start)


def random_loop(poset: Poset, frame: PathFrame, rng: np.random.Generator,
                length: int) -> Path:
    """A loop at the frame base: random walk out, tree path back."""
    from .poset import compose_paths, opposite_path

    p = random_path(poset, rng, frame.base, length)
    back = opposite_path(frame.to(p.end))
    return compose_paths(poset, back, p)


def homotopic_variant(poset: Poset, p: Path, rng: np.random.Generator,
                      moves: int = 8) -> Path:
    """Apply random elementary moves: insert/cancel a segment followed by
    its opposite, and expand/collapse a segment through its support."""
    simplices = list(p.simplices)

    def point_at(i: int) -> str:
        return p.start if i == 0 else simplices[i - 1].face0

    for _ in range(moves):
        kind = int(rng.integers(4))
        if kind == 0:  # insert b then opposite(b)
            i = int(rng.integers(len(simplices) + 1))
            b = random_simplex_from(poset, rng, point_at(i))
            simplices[i:i] = [b, b.opposite]
        elif kind == 1:  # cancel an adjacent opposite pair
            spots = [i for i in range(len(simplices) - 1)
                     if simplices[i + 1] == simplices[i].opposite]
            if spots:
                i = spots[int(rng.integers(len(spots)))]
                del simplices[i:i + 2]
        elif kind == 2:  # expand b into (up into support, down to face0)
            if simplices:
                i = int(rng.integers(len(simplices)))
                b = simplices[i]
                up = OneSimplex(b.support, b.support, b.face1)
                down = OneSimplex(b.support, b.face0, b.support)
                simplices[i:i + 1] = [up, down]
        else:  # collapse an (up, down) pair with common support
            spots = [
                i for i in range(len(simplices) - 1)
                if simplices[i].support == simplices[i + 1].support
                and simplices[i].face0 == simplices[i].support
                and simplices[i + 1].face1 == simplices[i + 1].support
            ]
            if spots:
                i = spots[int(rng.integers(len(spots)))]
                merged = OneSimplex(simplices[i].support,
                                    simplices[i + 1].face0, simplices[i].face1)
                simplices[i:i + 2] = [merged]
    return make_path(poset, simplices, at=p.start)
