"""Net bundles over a poset: coherent unitaries (Hilbert fibers) or
*-isomorphisms (C*-fibers) indexed by comparable pairs, their evaluation
along paths, holonomy, flat sections, and the equivalence between net
bundles and representations of the loop group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cstar import (
    StarIso,
    apply_iso,
    compose_iso,
    identity_iso,
    inverse_iso,
    iso_map_defect,
    iso_matrix,
    unvectorize,
)
from .errors import (
    InvalidBundle,
    InvalidRepresentation,
    RelatorNotSatisfied,
    UnknownElement,
)
from .homotopy import (
    GroupPresentation,
    PathFrame,
    Word,
    edge_loop_word,
    frame_transports,
)
from .linalg import dagger, is_unitary, joint_fixed_space, opnorm
from .poset import (
    Path,
    Poset,
    check_simplex,
    compose_paths,
    edge_simplex,
    make_path,
    opposite_path,
)
from .reports import ValidationReport

Edge = tuple[str, str]

CONSTRUCTION_TOL = 1e-12
CHECK_TOL = 1e-10


@dataclass(frozen=True)
class HilbertNetBundle:
    """Rank-d net bundle: a coherent unitary U_{o'o} for every o <= o'.

    incl[(o, o')] is the inclusion unitary for the strict pair o < o';
    the diagonal is the identity.  Optional grading: a self-adjoint
    unitary per element intertwined by the inclusions.
    """

    poset: Poset
    dim: int
    incl: dict[Edge, np.ndarray]
    grading: dict[str, np.ndarray] | None = None

    def u(self, o: str, o1: str) -> np.ndarray:
        if o == o1:
            return np.eye(self.dim, dtype=complex)
        if (o, o1) not in self.incl:
            raise UnknownElement(f"no inclusion stored for {o!r} <= {o1!r}")
        return self.incl[(o, o1)]


@dataclass(frozen=True)
class CStarNetBundle:
    """Net bundle of block C*-algebras: a *-isomorphism per strict pair."""

    poset: Poset
    sizes: tuple[int, ...]
    incl: dict[Edge, StarIso]

    def iso(self, o: str, o1: str) -> StarIso:
        if o == o1:
            return identity_iso(self.sizes)
        if (o, o1) not in self.incl:
            raise UnknownElement(f"no inclusion stored for {o!r} <= {o1!r}")
        return self.incl[(o, o1)]


def validate_bundle(b: HilbertNetBundle | CStarNetBundle,
                    tol: float = CONSTRUCTION_TOL) -> ValidationReport:
    """Check coverage, unitarity and the chain coherence U_{o''o} = U_{o''o'} U_{o'o}.

    The report lists every violated relation with its norm defect;
    an empty violation list means the bundle is valid.
    """
    rep = ValidationReport()
    poset = b.poset
    pairs = set(poset.strict_pairs())
    for e in b.incl:
        if e not in pairs:
            rep.add("inclusion-indexing", f"{e}", float("inf"), tol)
    for e in sorted(pairs):
        if e not in b.incl:
            rep.add("inclusion-coverage", f"{e}", float("inf"), tol)

    if isinstance(b, HilbertNetBundle):
        for e, u in sorted(b.incl.items()):
            if u.shape != (b.dim, b.dim):
                rep.add("inclusion-shape", f"{e}", float("inf"), tol)
                continue
            rep.add("inclusion-unitarity", f"{e}",
                    opnorm(u @ dagger(u) - np.eye(b.dim)), tol)
        for o, o1, o2 in poset.two_chains():
            if any((x, y) not in b.incl for x, y in [(o, o2), (o1, o2), (o, o1)]):
                continue
            d = opnorm(b.u(o, o2) - b.u(o1, o2) @ b.u(o, o1))
            rep.add("chain-coherence", f"{o}<{o1}<{o2}", d, tol)
        if b.grading is not None:
            for o in poset.elements:
                if o not in b.grading:
                    rep.add("grading-coverage", o, float("inf"), tol)
                    continue
                g = b.grading[o]
                rep.add("grading-involution", o,
                        opnorm(g @ g - np.eye(b.dim)), tol)
                rep.add("grading-selfadjoint", o, opnorm(g - dagger(g)), tol)
            for o, o1 in sorted(pairs):
                if (o, o1) not in b.incl or o not in (b.grading or {}) or o1 not in b.grading:
                    continue
                d = opnorm(b.grading[o1] @ b.u(o, o1) - b.u(o, o1) @ b.grading[o])
                rep.add("grading-transport", f"{o}<{o1}", d, tol)
    else:
        for e, iso in sorted(b.incl.items()):
            if iso.sizes != b.sizes:
                rep.add("inclusion-sizes", f"{e}", float("inf"), tol)
                continue
            worst = max(
                (opnorm(u @ dagger(u) - np.eye(u.shape[0])) for u in iso.units),
                default=0.0,
            )
            rep.add("inclusion-unitarity", f"{e}", worst, tol)
        for o, o1, o2 in poset.two_chains():
            if any((x, y) not in b.incl or b.incl[(x, y)].sizes != b.sizes
                   for x, y in [(o, o2), (o1, o2), (o, o1)]):
                continue
            d = iso_map_defect(b.iso(o, o2),
                               compose_iso(b.iso(o1, o2), b.iso(o, o1)), b.sizes)
            rep.add("chain-coherence", f"{o}<{o1}<{o2}", d, tol)
    return rep


def make_hilbert_bundle(poset: Poset, dim: int, incl: dict[Edge, np.ndarray],
                        grading: dict[str, np.ndarray] | None = None,
                        tol: float = CONSTRUCTION_TOL) -> HilbertNetBundle:
    """Build and validate; missing strict pairs are not tolerated."""
    b = HilbertNetBundle(poset, dim, dict(incl), grading)
    report = validate_bundle(b, tol)
    if not report.ok:
        raise InvalidBundle(str(report))
    return b


def make_cstar_bundle(poset: Poset, sizes: tuple[int, ...],
                      incl: dict[Edge, StarIso],
                      tol: float = CONSTRUCTION_TOL) -> CStarNetBundle:
    b = CStarNetBundle(poset, tuple(sizes), dict(incl))
    report = validate_bundle(b, tol)
    if not report.ok:
        raise InvalidBundle(str(report))
    return b


def transport_rule(b: HilbertNetBundle | CStarNetBundle):
    """The evaluation along the empty path, and the step (T, s) -> T
    followed by the segment s (up into its support, then down to the
    other face)."""
    if isinstance(b, HilbertNetBundle):
        return (np.eye(b.dim, dtype=complex),
                lambda t, s: dagger(b.u(s.face0, s.support))
                @ b.u(s.face1, s.support) @ t)
    return (identity_iso(b.sizes),
            lambda t, s: compose_iso(
                compose_iso(inverse_iso(b.iso(s.face0, s.support)),
                            b.iso(s.face1, s.support)), t))


def evaluate_path(b: HilbertNetBundle | CStarNetBundle, p: Path):
    """Evaluate the bundle along a path.

    Each segment contributes (up into the support, then down to the
    other face); segments compose in traversal order.  Returns a d x d
    unitary for Hilbert bundles, a StarIso for C*-bundles.
    """
    for s in p.simplices:
        check_simplex(b.poset, s)
    out, step = transport_rule(b)
    for s in p.simplices:
        out = step(out, s)
    return out


def edge_loop_path(poset: Poset, frame: PathFrame, o: str, o1: str) -> Path:
    """The loop frame(o1)^-1 * (hop o -> o1) * frame(o) at the frame base."""
    hop = make_path(poset, [edge_simplex(poset, o, o1)])
    out = compose_paths(poset, hop, frame.to(o))
    return compose_paths(poset, opposite_path(frame.to(o1)), out)


def holonomy_rep(b: HilbertNetBundle | CStarNetBundle, pres: GroupPresentation,
                 frame: PathFrame, tol: float = CHECK_TOL):
    """Images of the presentation generators under the holonomy.

    Returns {generator index: unitary} (Hilbert) or {index: StarIso} (C*).
    Relators are verified to evaluate to the identity.
    """
    images = {}
    for e, idx in pres.gen_index.items():
        loop = edge_loop_path(b.poset, frame, e[0], e[1])
        images[idx] = evaluate_path(b, loop)
    for r in pres.relators:
        if isinstance(b, HilbertNetBundle):
            d = opnorm(evaluate_word(r, images, b.dim) - np.eye(b.dim))
        else:
            d = iso_map_defect(evaluate_word_iso(r, images, b.sizes),
                               identity_iso(b.sizes), b.sizes)
        if d > tol:
            raise RelatorNotSatisfied(f"relator {r} has holonomy defect {d:.3e}")
    return images


def evaluate_word(w: Word, images: dict[int, np.ndarray], dim: int) -> np.ndarray:
    """Product of generator images, letters applied left to right."""
    out = np.eye(dim, dtype=complex)
    for l in reversed(w.letters):
        m = images[abs(l)]
        out = (m if l > 0 else dagger(m)) @ out
    return out


def evaluate_word_iso(w: Word, images: dict[int, StarIso],
                      sizes: tuple[int, ...]) -> StarIso:
    out = identity_iso(sizes)
    for l in reversed(w.letters):
        m = images[abs(l)]
        out = compose_iso(m if l > 0 else inverse_iso(m), out)
    return out


def bundle_from_rep(poset: Poset, pres: GroupPresentation, frame: PathFrame,
                    images: dict[int, np.ndarray], dim: int,
                    tol: float = CHECK_TOL) -> HilbertNetBundle:
    """Reconstruct a net bundle from a unitary loop-group representation.

    U_{o'o} := image of the edge loop word of (o, o').  Tree edges get
    exact identity matrices, so reconstructed bundles evaluate frame
    paths to the identity.
    """
    for idx, m in images.items():
        if not is_unitary(m, tol):
            raise InvalidRepresentation(f"generator {idx} image is not unitary")
    for r in pres.relators:
        d = opnorm(evaluate_word(r, images, dim) - np.eye(dim))
        if d > tol:
            raise RelatorNotSatisfied(f"relator {r} has defect {d:.3e}")
    incl = {}
    for e in poset.strict_pairs():
        w = edge_loop_word(pres, poset, frame, e[0], e[1])
        incl[e] = evaluate_word(w, images, dim)
    return HilbertNetBundle(poset, dim, incl)


@dataclass(frozen=True)
class Section:
    """A flat section: one fiber value per element, intertwined by the
    inclusions."""

    values: dict[str, np.ndarray] | dict[str, tuple[np.ndarray, ...]]


def section_defect(b, s: Section) -> float:
    worst = 0.0
    for o, o1 in b.poset.strict_pairs():
        if isinstance(b, HilbertNetBundle):
            worst = max(worst, opnorm(b.u(o, o1) @ s.values[o] - s.values[o1]))
        else:
            moved = apply_iso(b.iso(o, o1), s.values[o])
            worst = max(worst, max(
                (opnorm(x - y) for x, y in zip(moved, s.values[o1])), default=0.0))
    return worst


def compute_sections(b: HilbertNetBundle | CStarNetBundle,
                     pres: GroupPresentation, frame: PathFrame,
                     tol: float = CHECK_TOL) -> list[Section]:
    """Basis of the space of flat sections.

    Sections correspond to holonomy fixed points in the base fiber,
    transported along the frame paths.
    """
    hol = holonomy_rep(b, pres, frame)
    if isinstance(b, HilbertNetBundle):
        mats = list(hol.values()) or [np.eye(b.dim, dtype=complex)]
        basis = joint_fixed_space(mats, tol)
        t = frame_transports(b.poset, frame, *transport_rule(b))
        out = []
        for i in range(basis.shape[1]):
            x = basis[:, i]
            values = {o: t[o] @ x for o in b.poset.elements}
            out.append(Section(values))
        return out
    # C* case: fixed points of the iso action on the vectorized block space
    n = sum(k * k for k in b.sizes)
    mats = [iso_matrix(iso, b.sizes) for iso in hol.values()] or [np.eye(n, dtype=complex)]
    basis = joint_fixed_space(mats, tol)
    t = frame_transports(b.poset, frame, *transport_rule(b))
    out = []
    for i in range(basis.shape[1]):
        x = unvectorize(basis[:, i], b.sizes)
        values = {o: apply_iso(t[o], x) for o in b.poset.elements}
        out.append(Section(values))
    return out


@dataclass(frozen=True)
class RoundTrip:
    """Outcome of bundle -> holonomy -> bundle: the reconstructed bundle,
    the fiberwise intertwiner, and its worst commutation defect."""

    reconstructed: HilbertNetBundle
    intertwiner: dict[str, np.ndarray]
    defect: float


def roundtrip_iso(b: HilbertNetBundle, pres: GroupPresentation,
                  frame: PathFrame) -> RoundTrip:
    """Isomorphism between a bundle and its holonomy reconstruction.

    V_o := (evaluation of b along the frame path) * (evaluation of the
    reconstruction along the same path)^-1 intertwines the inclusions.
    """
    images = holonomy_rep(b, pres, frame)
    rebuilt = bundle_from_rep(b.poset, pres, frame, images, b.dim)
    t = frame_transports(b.poset, frame, *transport_rule(b))
    t_rebuilt = frame_transports(b.poset, frame, *transport_rule(rebuilt))
    inter = {o: t[o] @ dagger(t_rebuilt[o]) for o in b.poset.elements}
    worst = 0.0
    for o, o1 in b.poset.strict_pairs():
        worst = max(worst, opnorm(inter[o1] @ rebuilt.u(o, o1) - b.u(o, o1) @ inter[o]))
    return RoundTrip(rebuilt, inter, worst)


def hilbert_section_dimension_oracle(b: HilbertNetBundle, pres: GroupPresentation,
                                     frame: PathFrame, tol: float = CHECK_TOL) -> int:
    """Joint fixed-space dimension via the spectral count of a PSD sum.

    Independent of the SVD route used by compute_sections: the fixed
    space is the kernel of sum_g (2 - U_g - U_g*).
    """
    hol = holonomy_rep(b, pres, frame)
    acc = np.zeros((b.dim, b.dim), dtype=complex)
    for u in hol.values():
        acc += 2.0 * np.eye(b.dim) - u - dagger(u)
    if not hol:
        return b.dim
    eig = np.linalg.eigvalsh(acc)
    return int(np.sum(eig < tol))
