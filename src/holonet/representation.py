"""Nets of finite-dimensional C*-algebras and their representations on
Hilbert net bundles.

A net assigns a block algebra to every poset element and a unital
injective *-homomorphism to every comparable pair; a representation
intertwines those inclusions with the adjoint action of the bundle
unitaries.  When the net inclusions are isomorphisms (a net bundle in
the C* sense), loops act on the base fiber and every representation
covariantizes to a pair (base homomorphism, holonomy unitaries); in the
other direction a covariant pair spreads out over the poset again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import (
    CStarNetBundle,
    HilbertNetBundle,
    bundle_from_rep,
    edge_loop_path,
    evaluate_path,
    evaluate_word_iso,
    holonomy_rep,
)
from .cstar import (
    BlockElement,
    StarIso,
    apply_iso,
    basis_elements,
    block_diag,
    identity_iso,
    iso_map_defect,
)
from .errors import (
    FiberMismatch,
    InvalidNet,
    InvalidRepresentation,
    NotANetBundle,
    NotCovariant,
    PathOutsidePoset,
    RelatorNotSatisfied,
)
from .homotopy import GroupPresentation, PathFrame, build_path_frame, edge_loop_word
from .linalg import dagger, opnorm
from .poset import Path, Poset
from .reports import ValidationReport

Edge = tuple[str, str]

CONSTRUCTION_TOL = 1e-12
CHECK_TOL = 1e-10


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


def hom_from_iso(iso: StarIso) -> BlockHom:
    n = len(iso.sizes)
    mult = tuple(tuple(1 if j == iso.src[i] else 0 for j in range(n))
                 for i in range(n))
    return BlockHom(iso.sizes, iso.sizes, mult, iso.units)


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


def validate_net(net: NetOfAlgebras, tol: float = CONSTRUCTION_TOL) -> ValidationReport:
    rep = ValidationReport()
    pairs = set(net.poset.strict_pairs())
    for o in net.poset.elements:
        if o not in net.fibers:
            rep.add("fiber-coverage", o, float("inf"), tol)
    for e in net.incl:
        if e not in pairs:
            rep.add("inclusion-indexing", f"{e}", float("inf"), tol)
    for e in sorted(pairs):
        if e not in net.incl:
            rep.add("inclusion-coverage", f"{e}", float("inf"), tol)
            continue
        h = net.incl[e]
        if h.src_sizes != net.fibers.get(e[0]) or h.dst_sizes != net.fibers.get(e[1]):
            rep.add("inclusion-fibers", f"{e}", float("inf"), tol)
    if rep.violations:
        return rep
    for o, o1, o2 in net.poset.two_chains():
        direct = net.hom(o, o2)
        outer, inner = net.hom(o1, o2), net.hom(o, o1)
        composed_mult = tuple(
            tuple(sum(outer.mult[i][j] * inner.mult[j][l]
                      for j in range(len(outer.src_sizes)))
                  for l in range(len(inner.src_sizes)))
            for i in range(len(outer.dst_sizes)))
        if direct.mult != composed_mult:
            rep.add("functoriality-mult", f"{o}<{o1}<{o2}", float("inf"), tol)
            continue
        worst = 0.0
        for t in basis_elements(net.fibers[o]):
            lhs = apply_hom(direct, t)
            rhs = apply_hom(outer, apply_hom(inner, t))
            worst = max(worst, max(opnorm(p - q) for p, q in zip(lhs, rhs)))
        rep.add("functoriality-action", f"{o}<{o1}<{o2}", worst, tol)
    return rep


def make_net(poset: Poset, fibers: dict[str, tuple[int, ...]],
             incl: dict[Edge, BlockHom], tol: float = CONSTRUCTION_TOL) -> NetOfAlgebras:
    net = NetOfAlgebras(poset, dict(fibers), dict(incl))
    report = validate_net(net, tol)
    if not report.ok:
        raise InvalidNet(str(report))
    return net


def constant_net(poset: Poset, sizes: tuple[int, ...]) -> NetOfAlgebras:
    fibers = {o: tuple(sizes) for o in poset.elements}
    incl = {e: identity_hom(tuple(sizes)) for e in poset.strict_pairs()}
    return NetOfAlgebras(poset, fibers, incl)


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
    if rep.violations:
        return rep
    for o, o1 in sorted(r.net.poset.strict_pairs()):
        u = r.target.u(o, o1)
        h = r.net.hom(o, o1)
        worst = 0.0
        for t in basis_elements(r.net.fibers[o]):
            lhs = u @ r.pi_matrix(o, t) @ dagger(u)
            rhs = r.pi_matrix(o1, apply_hom(h, t))
            worst = max(worst, opnorm(lhs - rhs))
        rep.add("morphism", f"{o}<{o1}", worst, tol)
    return rep


def make_net_representation(net: NetOfAlgebras, target: HilbertNetBundle,
                            pi: dict[str, BlockHom],
                            tol: float = CHECK_TOL) -> NetRepresentation:
    r = NetRepresentation(net, target, dict(pi))
    report = validate_representation(r, tol)
    if not report.ok:
        raise InvalidRepresentation(str(report))
    return r


def identity_representation(b: HilbertNetBundle) -> NetRepresentation:
    """The bundle represented on itself (defining representation)."""
    sizes = (b.dim,)
    pi = {o: identity_hom(sizes) for o in b.poset.elements}
    return NetRepresentation(net_of_bundle(b), b, pi)


def covariantize(r: NetRepresentation, pres: GroupPresentation,
                 frame: PathFrame | None = None,
                 tol: float = CHECK_TOL) -> tuple[BlockHom, dict[int, np.ndarray]]:
    """Base-fiber homomorphism plus holonomy unitaries on the generators.

    The net must be a net bundle so that loops act on the base fiber;
    the covariance identity pi(g.t) = U_g pi(t) U_g* is verified on the
    fiber basis for every generator.
    """
    report = validate_representation(r, tol)
    if not report.ok:
        raise InvalidRepresentation(str(report))
    cb = as_net_bundle(r.net)
    if frame is None:
        frame = build_path_frame(r.net.poset, pres.base)
    images = holonomy_rep(r.target, pres, frame)
    pi_base = r.pi[pres.base]
    for e, idx in pres.gen_index.items():
        loop = edge_loop_path(r.net.poset, frame, e[0], e[1])
        act = evaluate_path(cb, loop)
        u = images[idx]
        for t in basis_elements(r.net.fibers[pres.base]):
            lhs = apply_hom(pi_base, apply_iso(act, t))[0]
            rhs = u @ apply_hom(pi_base, t)[0] @ dagger(u)
            if opnorm(lhs - rhs) > tol:
                raise InvalidRepresentation(
                    f"covariance fails on generator {idx} "
                    f"(defect {opnorm(lhs - rhs):.3e})")
    return pi_base, images


def netify(eta: BlockHom, v_images: dict[int, np.ndarray], poset: Poset,
           pres: GroupPresentation, frame: PathFrame,
           action: dict[int, StarIso] | None = None,
           tol: float = CHECK_TOL) -> NetRepresentation:
    """Spread a covariant pair (eta, V) out over the poset.

    The loop group acts on the source algebra by `action` (identity by
    default, the Hilbert-space representation case); the target bundle
    is rebuilt from V, the net from the action, and eta is installed as
    the fiber homomorphism everywhere.  covariantize inverts this
    construction on the nose.
    """
    if len(eta.dst_sizes) != 1:
        raise FiberMismatch("eta must land in a single matrix block")
    dim = eta.dst_sizes[0]
    sizes = eta.src_sizes
    if action is None:
        action = {idx: identity_iso(sizes) for idx in v_images}
    if set(action) != set(v_images):
        raise NotCovariant("action and V must cover the same generators")
    for r in pres.relators:
        iso = evaluate_word_iso(r, action, sizes)
        d = iso_map_defect(iso, identity_iso(sizes), sizes)
        if d > tol:
            raise RelatorNotSatisfied(f"action breaks relator {r} by {d:.3e}")
    for idx, u in v_images.items():
        for t in basis_elements(sizes):
            lhs = apply_hom(eta, apply_iso(action[idx], t))[0]
            rhs = u @ apply_hom(eta, t)[0] @ dagger(u)
            if opnorm(lhs - rhs) > tol:
                raise NotCovariant(
                    f"eta does not intertwine generator {idx} "
                    f"(defect {opnorm(lhs - rhs):.3e})")
    target = bundle_from_rep(poset, pres, frame, v_images, dim, tol)
    incl = {}
    for e in poset.strict_pairs():
        w = edge_loop_word(pres, poset, frame, e[0], e[1])
        incl[e] = hom_from_iso(evaluate_word_iso(w, action, sizes))
    net = NetOfAlgebras(poset, {o: sizes for o in poset.elements}, incl)
    pi = {o: eta for o in poset.elements}
    return NetRepresentation(net, target, pi)


def check_path_compatibility(r: NetRepresentation, p: Path,
                             tol: float = CHECK_TOL) -> float:
    """Worst defect of ad U_p . pi_start = pi_end . j_p on the fiber basis."""
    cb = as_net_bundle(r.net)
    u = evaluate_path(r.target, p)
    jp = evaluate_path(cb, p)
    worst = 0.0
    for t in basis_elements(r.net.fibers[p.start]):
        lhs = u @ r.pi_matrix(p.start, t) @ dagger(u)
        rhs = r.pi_matrix(p.end, apply_iso(jp, t))
        worst = max(worst, opnorm(lhs - rhs))
    return worst


def enveloping_normal_form(b: HilbertNetBundle | CStarNetBundle, p: Path, t):
    """Normal form of the pair (path, fiber element): push t along p.

    For net bundles the enveloping fiber collapses onto the ordinary
    fiber at the path end; pairs related by absorption or homotopy get
    the same normal form because path evaluation respects both.
    """
    for s in p.simplices:
        if not (b.poset.leq(s.face0, s.support) and b.poset.leq(s.face1, s.support)):
            raise PathOutsidePoset(f"simplex {s} does not live in the poset")
    if isinstance(b, HilbertNetBundle):
        t = np.asarray(t, dtype=complex)
        if t.shape != (b.dim, b.dim):
            raise FiberMismatch(f"fiber element has shape {t.shape}")
        u = evaluate_path(b, p)
        return u @ t @ dagger(u)
    t = tuple(np.asarray(x, dtype=complex) for x in t)
    if tuple(x.shape[0] for x in t) != b.sizes:
        raise FiberMismatch("fiber element does not match the block sizes")
    return apply_iso(evaluate_path(b, p), t)
