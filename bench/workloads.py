"""The benchmark's workloads: inputs generated from a seed, one chain per
input, and references that do not come from holonet.

Every chain calls holonet through `api`, a namespace of module-like
objects (the holonet modules themselves in an untraced run, span-wrapping
proxies in a traced one).  A chain returns the list of reference
mismatches it found; an exception escaping a chain also counts as a
failure in the runner.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

GOLDEN = 0.6180339887498949
LOG2 = 0.6931471805599453
REF_TOL = 1e-9
# bound before a traced run wraps numpy.linalg, so reference work is not
# counted as holonet's
_svd = np.linalg.svd


# ------------------------------------------------------ shared helpers

def holonet_api() -> SimpleNamespace:
    """The holonet modules a chain calls, by their short names."""
    from holonet import (bundle, charclass, fredholm, homotopy, poset,
                         representation, spectral)
    return SimpleNamespace(poset=poset, homotopy=homotopy, bundle=bundle,
                           representation=representation, fredholm=fredholm,
                           charclass=charclass, spectral=spectral)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def circle_lists(n_arcs: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Elements and generating pairs of the circle covered by n_arcs arcs
    (arcs U1..Un, overlaps Vi(i+1) below two neighbouring arcs)."""
    us = [f"U{i + 1}" for i in range(n_arcs)]
    vs = [f"V{i + 1}{(i + 1) % n_arcs + 1}" for i in range(n_arcs)]
    pairs = []
    for i in range(n_arcs):
        pairs.append((vs[i], us[i]))
        pairs.append((vs[i], us[(i + 1) % n_arcs]))
    return us + vs, pairs


def circle_cycle(n_arcs: int) -> list[str]:
    """The comparability 2n-cycle in order U1, V12, U2, V23, ..."""
    els, _ = circle_lists(n_arcs)
    us, vs = els[:n_arcs], els[n_arcs:]
    return [x for pair in zip(us, vs) for x in pair]


def cycle_holonomy(cycle: list[str], incl: dict, start: str, first: str) -> np.ndarray:
    """Product of the edge transports once round the cycle, leaving
    `start` towards its neighbour `first`; an upward step x < y applies
    incl[(x, y)], a downward one its adjoint."""
    n = len(cycle)
    i = cycle.index(start)
    step = 1 if cycle[(i + 1) % n] == first else -1
    d = next(iter(incl.values())).shape[0]
    out = np.eye(d, dtype=complex)
    for k in range(n):
        x, y = cycle[(i + step * k) % n], cycle[(i + step * (k + 1)) % n]
        seg = incl[(x, y)] if (x, y) in incl else incl[(y, x)].conj().T
        out = seg @ out
    return out


def fixed_space_dim(mats: list[np.ndarray], d: int) -> int:
    """Common eigenvalue-1 space of the matrices, by numpy SVD."""
    if not mats:
        return d
    stacked = np.vstack([m - np.eye(d) for m in mats])
    s = _svd(stacked, compute_uv=False)
    return int(np.sum(s <= 1e-8))


def close(a, b, tol: float = REF_TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol)


class Checks:
    """Collects reference mismatches of one chain."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


# ----------------------------------------------------- circle-transport

class CircleTransport:
    """circle_poset(64) with a generic flat bundle of rank 4 and a shift
    module; every chain rebuilds the poset from the same lists."""

    name = "circle-transport"

    def __init__(self, seed: int, api: SimpleNamespace, n_arcs: int = 64,
                 dim: int = 4):
        rng = np.random.default_rng(seed)
        self.api = api
        self.dim = dim
        self.elements, self.pairs = circle_lists(n_arcs)
        self.base = "U1"
        self.opposite = f"U{n_arcs // 2 + 1}"
        self.cycle = circle_cycle(n_arcs)
        # a random unitary on every edge; the closing edge is solved for
        # so that the holonomy round the cycle has k planted fixed vectors
        self.fixed = int(rng.integers(1, dim))
        q = haar_unitary(rng, dim)
        angles = rng.uniform(0.1, 0.9, dim - self.fixed)
        lam = np.concatenate([np.ones(self.fixed), np.exp(2j * np.pi * angles)])
        target = q @ np.diag(lam) @ q.conj().T
        incl = {(x, y): haar_unitary(rng, dim) for x, y in self.pairs}
        closing = (self.cycle[-1], self.base)  # V(n)1 < U1, the last step up
        incl[closing] = np.eye(dim, dtype=complex)
        prefix = cycle_holonomy(self.cycle, incl, self.base, self.cycle[1])
        u, _, vh = np.linalg.svd(target @ prefix.conj().T)
        incl[closing] = u @ vh
        self.incl = incl
        self.shift_image = haar_unitary(rng, dim)

    def chain(self, i: int) -> list[str]:
        a, c = self.api, Checks()
        poset = a.poset.build_poset(self.elements, self.pairs)
        pres = a.homotopy.fundamental_presentation(poset, self.base)
        frame = a.homotopy.build_path_frame(poset, self.base)
        simple, verdict = a.homotopy.simplify_presentation(pres)
        c.expect(len(pres.generators) == 1 and not pres.relators,
                 "presentation is not free on one generator")
        c.expect(verdict == "Nontrivial" and len(simple.generators) == 1,
                 f"simplified verdict {verdict}")

        b = a.bundle.HilbertNetBundle(poset, self.dim, self.incl)
        c.expect(a.bundle.validate_bundle(b).ok, "generic flat bundle rejected")
        hol = a.bundle.holonomy_rep(b, pres, frame)
        lo, hi = pres.generators[0]
        ref = cycle_holonomy(self.cycle, self.incl, self.base, self._towards(lo, hi))
        c.expect(close(hol[1], ref), "holonomy differs from the cycle product")
        sections = a.bundle.compute_sections(b, pres, frame)
        oracle = a.bundle.hilbert_section_dimension_oracle(b, pres, frame)
        c.expect(len(sections) == oracle == self.fixed,
                 f"sections {len(sections)}, oracle {oracle}, planted {self.fixed}")
        rt = a.bundle.roundtrip_iso(b, pres, frame)
        c.expect(rt.defect <= REF_TOL, f"round-trip defect {rt.defect:.3e}")

        m = a.fredholm.build_shift_module(poset, pres, frame, {1: self.shift_image})
        c.expect(a.fredholm.validate_module(m).ok, "shift module invalid")
        ext = a.fredholm.extend_localized(a.fredholm.localize(m, self.opposite))
        c.expect(isinstance(ext, a.fredholm.FredholmModule),
                 "extension from the opposite element obstructed")
        idx = a.fredholm.pi_index(
            a.fredholm.equivariant_cycle(a.fredholm.localize(m, self.base)))
        c.expect(idx.dim == self.dim, f"index dimension {idx.dim}")
        c.expect(abs(idx.character((1,)) - np.trace(self.shift_image)) <= REF_TOL,
                 "index character differs from trace(U)")
        return c.failures

    def _towards(self, lo: str, hi: str) -> str:
        """First neighbour of the base on the loop that runs along the
        frame to `lo`, hops to `hi` and returns along the frame."""
        n = len(self.cycle)
        i, j = self.cycle.index(lo), self.cycle.index(hi)
        forward = (j - i) % n == 1  # lo -> hi runs with the cycle order
        return self.cycle[1] if forward else self.cycle[-1]


# --------------------------------------------------------- sector-index

class SectorIndex:
    """Hexagon sectors: a pinned (2,1) sector with irrational phases at a
    deep cyclic-vector index, and a 12-dimensional cyclic sector."""

    name = "sector-index"

    def __init__(self, seed: int, api: SimpleNamespace, w_index: int = 128,
                 cyclic_dim: int = 12):
        from holonet.charclass import irrational_basis, phase

        rng = np.random.default_rng(seed)
        self.api = api
        self.w_index = w_index
        self.elements, self.pairs = circle_lists(3)
        self.base = "U1"
        self.basis = irrational_basis(a1=GOLDEN, a2=LOG2)
        coords = self._distinct_phases(rng, 3)
        self.declared = [phase(self.basis, r, a1=c1, a2=c2) for r, c1, c2 in coords]
        turns = np.array([float(r) + c1 * GOLDEN + c2 * LOG2 for r, c1, c2 in coords])
        lam = np.exp(2j * np.pi * turns)
        v = haar_unitary(rng, 2)
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = v @ np.diag(lam[:2]) @ v.conj().T
        rho[2, 2] = lam[2]
        self.rho = rho
        sums = {"a1": sum(Fraction(c1) for _, c1, _ in coords),
                "a2": sum(Fraction(c2) for _, _, c2 in coords)}
        self.odd_ref = tuple((n, x) for n, x in sorted(sums.items()) if x)
        self.cyclic_dim = cyclic_dim
        perm = np.roll(np.eye(cyclic_dim, dtype=complex), 1, axis=0)
        w = haar_unitary(rng, cyclic_dim)
        self.cyclic = w @ perm @ w.conj().T
        self.cyclic_declared = [phase(self.basis, Fraction(k, cyclic_dim))
                                for k in range(cyclic_dim)]

    @staticmethod
    def _distinct_phases(rng, count):
        """Exact phases r + c1*a1 + c2*a2 whose eigenvalues are well apart."""
        while True:
            coords = [(Fraction(int(rng.integers(0, 12)), 12),
                       int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                      for _ in range(count)]
            t = [float(r) + c1 * GOLDEN + c2 * LOG2 for r, c1, c2 in coords]
            gaps = [abs((x - y + 0.5) % 1.0 - 0.5)
                    for i, x in enumerate(t) for y in t[i + 1:]]
            if min(gaps) > 1e-3:
                return coords

    def chain(self, i: int) -> list[str]:
        a, c = self.api, Checks()
        poset = a.poset.build_poset(self.elements, self.pairs)
        pres = a.homotopy.fundamental_presentation(poset, self.base)
        frame = a.homotopy.build_path_frame(poset, self.base)

        sec = a.fredholm.build_sector_module(poset, pres, frame, (2, 1),
                                             {1: self.rho}, w_index=self.w_index)
        c.expect(sec.statistical_dimension == 3, "statistical dimension")
        c.expect(sec.topological_dimension == 3,
                 f"topological dimension {sec.topological_dimension}, want 3")
        c.expect(a.fredholm.validate_module(sec.module).ok, "sector module invalid")
        idx = a.fredholm.pi_index(
            a.fredholm.equivariant_cycle(a.fredholm.localize(sec.module, self.base)))
        c.expect(idx.dim == 3, f"index dimension {idx.dim}")
        c.expect(abs(idx.character((1,)) - np.trace(self.rho)) <= REF_TOL,
                 "index character differs from trace(rho)")
        c_mod = a.charclass.ccs_of_module(sec.module, self.declared)
        c_rep = a.charclass.ccs_of_rep(self.declared, pres)
        c.expect(c_mod == c_rep, "ccs_of_module differs from ccs_of_rep")
        c.expect(c_rep.rank == 3 and c_rep.odd == self.odd_ref,
                 f"class {c_rep} differs from the summed declared phases")

        cyc = a.fredholm.build_sector_module(poset, pres, frame, (self.cyclic_dim,),
                                             {1: self.cyclic}, w_index=0)
        c.expect(cyc.topological_dimension == self.cyclic_dim,
                 f"cyclic topological dimension {cyc.topological_dimension}")
        idx12 = a.fredholm.pi_index(
            a.fredholm.equivariant_cycle(a.fredholm.localize(cyc.module, self.base)))
        c.expect(idx12.dim == self.cyclic_dim, f"cyclic index dimension {idx12.dim}")
        cls = a.charclass.ccs_of_module(cyc.module, self.cyclic_declared)
        c.expect(cls.rank == self.cyclic_dim and cls.odd == (),
                 f"cyclic class {cls} is not rational")
        return c.failures


# ---------------------------------------------------------- random-nets

def closure(gen: np.ndarray) -> np.ndarray:
    """Strict order lt[i, j] generated by the upper-triangular pairs."""
    lt = gen.copy()
    for k in range(len(lt)):
        lt |= np.outer(lt[:, k], lt[k, :])
    return lt


def components(gen: np.ndarray) -> list[int]:
    """Smallest element of each connected component of the pairs."""
    root = list(range(len(gen)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in zip(*np.nonzero(gen)):
        a, b = find(int(i)), find(int(j))
        root[max(a, b)] = min(a, b)
    return sorted({find(x) for x in range(len(gen))})


def draw_order(rng: np.random.Generator, n: int, edges: tuple[int, int],
               chains: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Generating pairs i < j, each drawn with probability 2.2/n, the
    components then chained by their smallest elements; redrawn until the
    numbers of strict pairs and of 2-chains x < y < z fall in the bands."""
    while True:
        gen = np.triu(rng.random((n, n)) < 2.2 / n, 1)
        firsts = components(gen)
        for a, b in zip(firsts, firsts[1:]):
            gen[a, b] = True
        lt = closure(gen)
        if (edges[0] <= lt.sum() <= edges[1]
                and chains[0] <= int((lt.sum(0) * lt.sum(1)).sum()) <= chains[1]):
            return gen, lt


class RandomNet:
    """One random connected poset with a gauged flat bundle of rank 3.

    The flat part is abelian: colour k carries the phases of a real
    1-cocycle (zero on `flat_colours` colours, so those give sections);
    every element then gets a random gauge unitary.
    """

    def __init__(self, rng: np.random.Generator, n: int, edges: tuple[int, int],
                 chains: tuple[int, int], dim: int = 3):
        gen, lt = draw_order(rng, n, edges, chains)
        pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(gen))]
        names = [f"e{i:02d}" for i in range(n)]
        self.elements = names
        self.pairs = [(names[i], names[j]) for i, j in pairs]
        self.base = names[0]
        strict = [(int(i), int(j)) for i, j in zip(*np.nonzero(lt))]
        col = {e: k for k, e in enumerate(strict)}
        rows = []
        for i, j in strict:
            for k in np.flatnonzero(lt[j]):
                r = np.zeros(len(strict))
                r[col[(j, int(k))]] += 1.0
                r[col[(i, j)]] += 1.0
                r[col[(i, int(k))]] -= 1.0
                rows.append(r)
        coboundary = np.array(rows).reshape(-1, len(strict))
        # closed 1-cochains: the kernel of the integer coboundary matrix
        vals, vecs = np.linalg.eigh(coboundary.T @ coboundary)
        cocycles = vecs[:, vals < 1e-8]
        # first Betti number: closed 1-cochains modulo coboundaries of 0-cochains
        self.betti1 = cocycles.shape[1] - (n - 1)
        self.flat_colours = int(rng.integers(0, dim))
        theta = cocycles @ rng.standard_normal((cocycles.shape[1], dim))
        theta[:, :self.flat_colours] = 0.0
        q = haar_unitary(rng, dim)
        gauge = [haar_unitary(rng, dim) for _ in range(n)]
        self.dim = dim
        self.q = q
        self.gauge = {names[i]: gauge[i] for i in range(n)}
        self.theta = {(names[i], names[j]): theta[col[(i, j)]] for i, j in strict}
        self.incl = {
            (names[i], names[j]):
                gauge[j] @ q @ np.diag(np.exp(2j * np.pi * theta[col[(i, j)]]))
                @ q.conj().T @ gauge[i].conj().T
            for i, j in strict}
        self.spectrum = rng.uniform(0.5, 2.0, dim)

    def phase_along(self, path) -> np.ndarray:
        """Summed cocycle phases along a path of 1-simplices: a segment
        face1 -> support -> face0 adds theta(face1, s) - theta(face0, s)."""
        zero = np.zeros(self.dim)
        out = zero.copy()
        for s in path.simplices:
            out += self.theta.get((s.face1, s.support), zero)
            out -= self.theta.get((s.face0, s.support), zero)
        return out

    def in_base_gauge(self, diag: np.ndarray) -> np.ndarray:
        w = self.gauge[self.base]
        return w @ self.q @ np.diag(diag) @ self.q.conj().T @ w.conj().T


class RandomNets:
    """A fresh random poset per chain.  Chain time varies several-fold
    with the numbers of strict pairs and 2-chains, so every poset is drawn
    within one band of typical sizes (30 elements, about 90 strict pairs
    and 110 2-chains); otherwise the median would follow the seed's size
    mix instead of the program."""

    name = "random-nets"
    ELEMENTS = 30
    EDGES = (84, 96)
    CHAINS = (95, 125)

    def __init__(self, seed: int, api: SimpleNamespace, count: int = 48):
        rng = np.random.default_rng(seed)
        self.api = api
        self.nets = [RandomNet(rng, self.ELEMENTS, self.EDGES, self.CHAINS)
                     for _ in range(count + 1)]
        self.warm = self.nets.pop()
        self.beta = 1.0

    def chain(self, i: int) -> list[str]:
        a, c = self.api, Checks()
        net = self.warm if i < 0 else self.nets[i % len(self.nets)]
        d = net.dim
        poset = a.poset.build_poset(net.elements, net.pairs)
        pres = a.homotopy.fundamental_presentation(poset, net.base)
        frame = a.homotopy.build_path_frame(poset, net.base)
        _, verdict = a.homotopy.simplify_presentation(pres)
        rank = a.homotopy.abelianization_rank(pres)
        c.expect(rank == net.betti1, f"abelianization rank {rank}, Betti {net.betti1}")
        c.expect(verdict == "Nontrivial" or net.betti1 == 0, f"verdict {verdict}")

        b = a.bundle.HilbertNetBundle(poset, d, net.incl)
        c.expect(a.bundle.validate_bundle(b).ok, "gauged flat bundle rejected")
        hol = a.bundle.holonomy_rep(b, pres, frame)
        refs = {}
        for (lo, hi), g in zip(pres.generators, range(1, len(pres.generators) + 1)):
            turns = (net.phase_along(frame.to(lo)) + net.theta[(lo, hi)]
                     - net.phase_along(frame.to(hi)))
            refs[g] = net.in_base_gauge(np.exp(2j * np.pi * turns))
        c.expect(set(hol) == set(refs)
                 and all(close(hol[g], refs[g]) for g in refs),
                 "holonomy differs from the gauge-conjugated images")
        sections = a.bundle.compute_sections(b, pres, frame)
        oracle = a.bundle.hilbert_section_dimension_oracle(b, pres, frame)
        want = fixed_space_dim(list(refs.values()), d)
        c.expect(len(sections) == oracle == want,
                 f"sections {len(sections)}, oracle {oracle}, numpy {want}")
        rt = a.bundle.roundtrip_iso(b, pres, frame)
        c.expect(rt.defect <= REF_TOL, f"round-trip defect {rt.defect:.3e}")

        r = a.representation.identity_representation(b)
        _, images = a.representation.covariantize(r, pres, frame)
        c.expect(all(close(images[g], refs[g]) for g in refs),
                 "covariantized images differ from the holonomy")

        # equivariant triple: the images commute with D = [[0, M], [M, 0]]
        eye = np.eye(d, dtype=complex)
        m = net.in_base_gauge(net.spectrum)
        grading = np.kron(np.diag([1.0, -1.0]), eye)
        e = a.spectral.EquivariantTriple(
            grading=grading, u_images={g: np.kron(np.eye(2), u) for g, u in refs.items()},
            samples={"one": np.eye(2 * d, dtype=complex)},
            D=np.kron(np.array([[0, 1], [1, 0]], dtype=complex), m), group=pres)
        t = a.spectral.from_equivariant(e, poset, pres, frame)
        c.expect(a.spectral.validate_triple(t).ok, "spectral triple invalid")
        back = a.spectral.to_equivariant(t)
        c.expect(back.D is e.D, "triple round trip is not exact")
        theta = a.spectral.theta_trace(e.D, self.beta)
        want_theta = 2.0 * float(np.sum(np.exp(-self.beta * net.spectrum ** 2)))
        c.expect(abs(theta - want_theta) <= REF_TOL * want_theta, "theta trace")

        # dense cycle: F+ maps C^d (x) C^2 onto C^d, its kernel C^d (x) e2
        # carries the holonomy, so the index is the holonomy representation
        row = np.array([[1.0, 0.0]])
        f_plus = np.kron(eye, row)
        phi = np.block([[np.zeros((2 * d, 2 * d)), f_plus.conj().T],
                        [f_plus, np.zeros((d, d))]]).astype(complex)
        v_images = {g: np.block([[np.kron(u, np.eye(2)), np.zeros((2 * d, d))],
                                 [np.zeros((d, 2 * d)), u]]) for g, u in refs.items()}
        grading3 = np.diag([1.0] * (2 * d) + [-1.0] * d).astype(complex)
        loc = a.fredholm.from_cycle({"one": np.eye(3 * d, dtype=complex)}, v_images,
                                    phi, poset, pres, frame, grading=grading3)
        idx = a.fredholm.pi_index(a.fredholm.equivariant_cycle(loc))
        c.expect(idx.dim == d, f"dense index dimension {idx.dim}")
        c.expect(all(abs(idx.character((g,)) - np.trace(u)) <= REF_TOL
                     for g, u in refs.items()),
                 "dense index character differs from the holonomy trace")
        return c.failures


IN_PROCESS = {w.name: w for w in (CircleTransport, SectorIndex, RandomNets)}
