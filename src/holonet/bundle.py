"""Net bundles over a poset: coherent unitaries (Hilbert fibers) indexed
by comparable pairs, their validation, evaluation along paths, holonomy,
flat sections, and the equivalence between net bundles and
representations of the loop group.  The path product and
`holonomy_images` take any carrier of edge operators: a bundle, a
`fredholm.SampledRep`, or a `representation.NetOfAlgebras` whose
inclusions are block permutations.

A carrier's frame transports, holonomy images and relator defects are
computed once per presentation and frame and then read back from a memo
the carrier keeps (`_carrier_memo`), so a carrier's dicts must not
change after it is built, nor the shared operators in place (the arrays
are made read-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from types import MappingProxyType

import numpy as np

from .errors import (
    FiberMismatch,
    InvalidRepresentation,
    RelatorNotSatisfied,
    UnknownElement,
)
from .homotopy import (
    GroupPresentation,
    PathFrame,
    edge_loop_word,
    frame_transports,
)
from .linalg import dagger, joint_fixed_space, opnorm
from .operators import (
    coherence_residual,
    compose,
    evaluate_word_ops,
    relator_defects,
    require_generators,
    require_relator_defects,
    require_relators,
    require_unitary,
    residual_defects,
    transport_step,
    unitarity_residual,
)
from .poset import Path, Poset, check_simplex, edge_simplex
from .reports import CHECK_TOL, CONSTRUCTION_TOL, ValidationReport

Edge = tuple[str, str]


@dataclass(frozen=True)
class HilbertNetBundle:
    """Rank-d net bundle: a coherent unitary U_{o'o} for every o <= o'.

    incl[(o, o')] is the inclusion unitary for the strict pair o < o';
    the diagonal is the identity.
    """

    poset: Poset
    dim: int
    incl: dict[Edge, np.ndarray]

    @cached_property
    def ident(self) -> np.ndarray:
        """The identity on a fiber: one read-only array per bundle."""
        eye = np.eye(self.dim, dtype=complex)
        eye.flags.writeable = False
        return eye

    def u(self, o: str, o1: str) -> np.ndarray:
        if o == o1:
            return self.ident
        if (o, o1) not in self.incl:
            raise UnknownElement(f"no inclusion stored for {o!r} <= {o1!r}")
        return self.incl[(o, o1)]


def validate_bundle(b: HilbertNetBundle,
                    tol: float = CONSTRUCTION_TOL) -> ValidationReport:
    """Check the coverage of a Hilbert net bundle, the shape and unitarity
    of each inclusion, and the chain coherence U_{o''o} = U_{o''o'} U_{o'o}.

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

    for e, u in sorted(b.incl.items()):
        if u.shape != (b.dim, b.dim):
            rep.add("inclusion-shape", f"{e}", float("inf"), tol)
            continue
        rep.relate("inclusion-unitarity", f"{e}", tol, unitarity_residual, u)
    for o, o1, o2 in poset.two_chains():
        if any((x, y) not in b.incl for x, y in [(o, o2), (o1, o2), (o, o1)]):
            continue
        rep.relate("chain-coherence", f"{o}<{o1}<{o2}", tol, coherence_residual,
                   b.u(o, o2), b.u(o1, o2), b.u(o, o1))
    return rep


def evaluate_path(x, p: Path):
    """Evaluate the edge operators `x.u` of a carrier along a path: one
    `transport_step` per segment, in traversal order, after checking
    every segment against the poset."""
    for s in p.simplices:
        check_simplex(x.poset, s)
    out = x.ident
    for s in p.simplices:
        out = transport_step(x, out, s)
    return out


def _carrier_memo(x, key: str, operands: tuple, make):
    """`make()` on the first call with this key and these operand
    objects, read back from the memo in x's `__dict__` afterwards (where
    `ident` is cached too), so every later call returns that object.
    Its arrays (the value, or the values of a mapping) are made read-only,
    as `ident` is, since every later caller shares them.  The memo holds
    the operands, which keeps their ids from being reused while their
    entry exists."""
    memo = x.__dict__.setdefault("_memo", {})
    k = (key, *map(id, operands))
    if k not in memo:
        value = make()
        for a in (value,) if isinstance(value, np.ndarray) else value.values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        memo[k] = value, operands
    return memo[k][0]


def carrier_transports(x, frame: PathFrame) -> MappingProxyType:
    """`frame_transports` of the carrier x from `x.ident`, once per
    frame, as a read-only view of shared operators (read-only arrays;
    change no other operator in place)."""
    return _carrier_memo(x, "transports", (frame,), lambda: MappingProxyType(
        frame_transports(x.poset, frame, x.ident, partial(transport_step, x))))


def holonomy_images(x, pres: GroupPresentation, frame: PathFrame) -> dict:
    """Generator index -> evaluation of its edge loop at the frame base.

    The loop of (o, o1) is frame.to(o), the hop o -> o1, then frame.to(o1)
    backwards.  It is read off the frame transports: the transport to o,
    the hop, then the reversed segments of frame.to(o1), whose operators
    (their steps from x.ident) are formed once per element.  These are
    the products `evaluate_path` takes on the loop, in the same order, so
    the bits are the same; no path is built, and each hop is checked once.
    The images are computed once per (pres, frame); each call returns a
    fresh dict of the same shared operators, as `carrier_transports`."""
    def make():
        step = partial(transport_step, x)
        t = carrier_transports(x, frame)
        back: dict[str, list] = {}
        out = {}
        for (o, o1), idx in pres.gen_index.items():
            if o1 not in back:
                back[o1] = [step(x.ident, s.opposite)
                            for s in reversed(frame.to(o1).simplices)]
            v = step(t[o], edge_simplex(x.poset, o, o1))
            for op in back[o1]:
                v = compose(op, v, x.ident)
            out[idx] = v
        return out
    return dict(_carrier_memo(x, "holonomy", (pres, frame), make))


def holonomy_rep(b: HilbertNetBundle, pres: GroupPresentation,
                 frame: PathFrame, tol: float = CHECK_TOL) -> dict[int, np.ndarray]:
    """Images of the presentation generators under the holonomy of a
    Hilbert net bundle: {generator index: unitary}.  Relators are
    verified to evaluate to the identity within `tol`; their defects are
    measured once per (pres, frame) and judged at each call's `tol`.
    The images are shared as in `holonomy_images`: read-only arrays.
    """
    images = holonomy_images(b, pres, frame)
    defects = _carrier_memo(b, "relators", (pres, frame),
                            lambda: relator_defects(pres, images, b.ident))
    require_relator_defects(pres, defects, tol, RelatorNotSatisfied)
    return images


def require_unitary_rep(pres: GroupPresentation, images: dict[int, np.ndarray],
                        dim: int, tol: float) -> None:
    """Gate for a unitary loop-group representation on C^dim: every
    generator has an image, every image is dim x dim (FiberMismatch) and
    unitary (InvalidRepresentation), and the relators hold
    (RelatorNotSatisfied), all within `tol`."""
    require_generators(pres, images)
    for g, m in sorted(images.items()):
        if m.shape != (dim, dim):
            raise FiberMismatch(f"generator {g} image has shape {m.shape}")
    require_unitary(images, tol, InvalidRepresentation)
    require_relators(pres, images, np.eye(dim, dtype=complex), tol,
                     RelatorNotSatisfied)


def bundle_from_rep(poset: Poset, pres: GroupPresentation, frame: PathFrame,
                    images: dict[int, np.ndarray], dim: int,
                    tol: float = CHECK_TOL) -> HilbertNetBundle:
    """Reconstruct a net bundle from a unitary loop-group representation.

    U_{o'o} := image of the edge loop word of (o, o').  Tree edges get
    the bundle's identity object `ident` and a generator edge gets its
    image itself, so reconstructed bundles evaluate frame paths to
    `ident` and generator loops to the given images.
    """
    require_unitary_rep(pres, images, dim, tol)
    b = HilbertNetBundle(poset, dim, {})
    for e in poset.strict_pairs():
        w = edge_loop_word(pres, poset, frame, e[0], e[1])
        b.incl[e] = evaluate_word_ops(w.letters, images, b.ident)
    return b


@dataclass(frozen=True)
class Section:
    """A flat section of a Hilbert net bundle: one fiber vector per
    element, intertwined by the inclusions."""

    values: dict[str, np.ndarray]


def section_defect(b: HilbertNetBundle, s: Section) -> float:
    """The largest norm by which an inclusion misses the section, NaN
    when any norm is NaN."""
    norms = [opnorm(b.u(o, o1) @ s.values[o] - s.values[o1])
             for o, o1 in b.poset.strict_pairs()]
    return float(np.max(norms, initial=0.0))


def compute_sections(b: HilbertNetBundle, pres: GroupPresentation,
                     frame: PathFrame, tol: float = CHECK_TOL,
                     images: dict | None = None) -> list[Section]:
    """Basis of the space of flat sections of a Hilbert net bundle.

    Sections correspond to holonomy fixed points in the base fiber,
    transported along the frame paths.  `images` is
    `holonomy_rep(b, pres, frame, tol)` when the caller already holds it.
    """
    hol = images if images is not None else holonomy_rep(b, pres, frame, tol)
    t = carrier_transports(b, frame)
    mats = list(hol.values()) or [np.eye(b.dim, dtype=complex)]
    basis = joint_fixed_space(mats, tol)
    return [Section({o: t[o] @ x for o in b.poset.elements}) for x in basis.T]


@dataclass(frozen=True)
class RoundTrip:
    """Outcome of bundle -> holonomy -> bundle: the reconstructed bundle,
    the fiberwise intertwiner, and its worst commutation defect."""

    reconstructed: HilbertNetBundle
    intertwiner: dict[str, np.ndarray]
    defect: float


def roundtrip_iso(b: HilbertNetBundle, pres: GroupPresentation,
                  frame: PathFrame, images: dict | None = None) -> RoundTrip:
    """Isomorphism between a bundle and its holonomy reconstruction.

    V_o := (evaluation of b along the frame path) * (evaluation of the
    reconstruction along the same path)^-1 intertwines the inclusions.
    `images` is `holonomy_rep(b, pres, frame)` when the caller already
    holds it.
    """
    if images is None:
        images = holonomy_rep(b, pres, frame)
    rebuilt = bundle_from_rep(b.poset, pres, frame, images, b.dim)
    t, t_rebuilt = carrier_transports(b, frame), carrier_transports(rebuilt, frame)
    inter = {o: t[o] @ dagger(t_rebuilt[o]) for o in b.poset.elements}
    defects = residual_defects([inter[o1] @ rebuilt.u(o, o1) - b.u(o, o1) @ inter[o]
                                for o, o1 in b.poset.strict_pairs()])
    return RoundTrip(rebuilt, inter, float(defects.max(initial=0.0)))


def hilbert_section_dimension_oracle(b: HilbertNetBundle, pres: GroupPresentation,
                                     frame: PathFrame, tol: float = CHECK_TOL,
                                     images: dict | None = None) -> int:
    """Joint fixed-space dimension via the spectral count of a PSD sum.

    Independent of the SVD route used by compute_sections: the fixed
    space is the kernel of sum_g (2 - U_g - U_g*).  `images` is
    `holonomy_rep(b, pres, frame, tol)` when the caller already holds it.
    """
    hol = images if images is not None else holonomy_rep(b, pres, frame, tol)
    acc = np.zeros((b.dim, b.dim), dtype=complex)
    for u in hol.values():
        acc += 2.0 * np.eye(b.dim) - u - dagger(u)
    if not hol:
        return b.dim
    eig = np.linalg.eigvalsh(acc)
    return int(np.sum(eig < tol))
