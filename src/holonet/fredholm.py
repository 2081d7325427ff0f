"""Fredholm modules over nets and their index as a loop-group representation.

A module lives over a sampled net representation: one unitary per
comparability edge, finitely many labelled observables per fiber, and an
optional grading.  The fibers are either dense matrices or shift-type
operators from the exact calculus; all compactness conditions are
decided exactly (finite rank) or by a norm bound outside a finite
window.  The index of an even module is a formal difference of finite
dimensional unitary representations of the loop group, computed from
the two kernels of the off-diagonal corner of F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CentralityViolated,
    FiberMismatch,
    InvalidRepresentation,
    KernelNotInvariant,
    NotCovariant,
    NotFredholm,
    NotSelfAdjoint,
    PathMismatch,
    RelationDefect,
    RelatorNotSatisfied,
    UnknownElement,
)
from .homotopy import (
    GroupPresentation,
    PathFrame,
    edge_loop_word,
    frame_transports,
)
from .linalg import dagger, null_space, opnorm
from .operators import (
    adj,
    commutator,
    compact_defect,
    evaluate_word_ops,
    identity_like,
    is_exactly_zero,
    zero_defect,
)
from .poset import Path, Poset, opposite_path
from .reports import ValidationReport
from .shift_calculus import (
    ShiftOp,
    color_corner,
    finite_op,
    identity_op,
    map_color,
    shift_op,
    stripe_op,
)
from .bundle import edge_loop_path

Edge = tuple[str, str]

CHECK_TOL = 1e-10
COMPACT_TOL = 1e-9
INDEX_TOL = 1e-9
DENSE_KERNEL_TOL = 1e-8


# --------------------------------------------------------------- net reps

@dataclass(frozen=True)
class SampledRep:
    """A net representation recorded by edge unitaries and sampled fibers.

    All fibers share one space; `ident` is its exact identity operator.
    samples[o] maps a label to the represented observable at o.  When
    `transported` is given, transported[(e, label)] is the represented
    image of the inclusion of that observable along the edge e;
    otherwise every labelled observable is inclusion-invariant.
    Optional grading: a self-adjoint unitary per element.
    """

    poset: Poset
    pres: GroupPresentation
    frame: PathFrame
    u_incl: dict[Edge, object]
    samples: dict[str, dict[str, object]]
    ident: object
    grading: dict[str, object] | None = None
    transported: dict[tuple[Edge, str], object] | None = None

    def u(self, o: str, o1: str):
        if o == o1:
            return self.ident
        if (o, o1) not in self.u_incl:
            raise UnknownElement(f"no edge operator for {o!r} <= {o1!r}")
        return self.u_incl[(o, o1)]

    def step(self, t, s):
        """The transport t followed by the segment s (up into its
        support, then down to the other face)."""
        return adj(self.u(s.face0, s.support)) @ self.u(s.face1, s.support) @ t


def evaluate_rep_path(rep: SampledRep, p: Path):
    """Evaluate the edge unitaries along a path, like a bundle."""
    out = rep.ident
    for s in p.simplices:
        out = rep.step(out, s)
    return out


def holonomy_images(rep: SampledRep) -> dict[int, object]:
    """Generator index -> edge-loop holonomy at the frame base."""
    return {idx: evaluate_rep_path(rep, edge_loop_path(rep.poset, rep.frame,
                                                       e[0], e[1]))
            for e, idx in rep.pres.gen_index.items()}


def flat_rep(poset: Poset, pres: GroupPresentation, frame: PathFrame,
             images: dict[int, object], ident, samples_at: dict[str, object],
             grading_at=None,
             transported_of=None) -> SampledRep:
    """Holonomy-flat rep from loop-group images: tree edges act as the
    exact identity, generator edges by their image, everything else by
    the image of its tree-collapsed loop word.

    The samples (and grading) are constant across fibers; pass
    `transported_of` (a function of an edge operator and a sample) when
    the observables are not inclusion-invariant.
    """
    u_incl = {}
    for e in poset.strict_pairs():
        w = edge_loop_word(pres, poset, frame, e[0], e[1])
        u_incl[e] = evaluate_word_ops(w.letters, images, ident)
    samples = {o: dict(samples_at) for o in poset.elements}
    grading = {o: grading_at for o in poset.elements} if grading_at is not None else None
    transported = None
    if transported_of is not None:
        transported = {(e, l): transported_of(u, t)
                       for e, u in u_incl.items()
                       for l, t in samples_at.items()}
    return SampledRep(poset, pres, frame, u_incl, samples, ident,
                      grading, transported)


# ---------------------------------------------------------------- modules

@dataclass(frozen=True)
class FredholmModule:
    """A symmetry per fiber, transported by the edge unitaries."""

    rep: SampledRep
    F: dict[str, object]
    parity: str  # "even" | "odd"


@dataclass(frozen=True)
class LocalizedModule:
    """A single symmetry at one fiber, constrained only up to compacts.

    `origin` records the transport that produced this module, so that
    transporting back along the reversed path returns the original
    operator exactly instead of a float round trip.
    """

    rep: SampledRep
    at: str
    f: object
    parity: str
    origin: tuple[Path, "LocalizedModule"] | None = None


def _check_grading_at(rep_out: ValidationReport, g, f, samples: dict,
                      where: str, tol: float) -> None:
    rep_out.add("grading-selfadjoint", where, zero_defect(g - adj(g)), tol)
    rep_out.add("grading-involution", where,
                zero_defect(g @ g - identity_like(g)), tol)
    rep_out.add("grading-anticommutes", where, zero_defect(g @ f + f @ g), tol)
    for label, t in sorted(samples.items()):
        rep_out.add("grading-commutes-with-samples", f"{where}:{label}",
                    zero_defect(commutator(g, t)), tol)


def validate_module(m: FredholmModule, tol: float = CHECK_TOL,
                    compact_tol: float = COMPACT_TOL) -> ValidationReport:
    """Defect report for every module relation, per fiber and per edge.

    Equalities (self-adjointness, transport, grading) are measured in
    norm against `tol`; compactness conditions (F squared minus one,
    commutators with observables) against `compact_tol`.
    """
    out = ValidationReport()
    rep = m.rep
    for o in rep.poset.elements:
        if o not in m.F:
            out.add("F-coverage", o, float("inf"), tol)
            continue
        f = m.F[o]
        out.add("F-selfadjoint", o, zero_defect(f - adj(f)), tol)
        out.add("F-square-compact", o,
                compact_defect(f @ f - identity_like(f)), compact_tol)
        for label, t in sorted(rep.samples.get(o, {}).items()):
            out.add("F-commutes-with-samples", f"{o}:{label}",
                    compact_defect(commutator(f, t)), compact_tol)
    for e in sorted(rep.u_incl):
        o, o1 = e
        u = rep.u_incl[e]
        out.add("edge-unitarity", f"{e}",
                zero_defect(adj(u) @ u - identity_like(u)), tol)
        if o in m.F and o1 in m.F:
            out.add("F-transport", f"{e}",
                    zero_defect(u @ m.F[o] - m.F[o1] @ u), tol)
        for label, t in sorted(rep.samples.get(o, {}).items()):
            if rep.transported is not None:
                target = rep.transported.get((e, label))
            else:
                target = rep.samples.get(o1, {}).get(label)
            if target is None:
                out.add("sample-covariance", f"{e}:{label}",
                        float("inf"), tol)
                continue
            out.add("sample-covariance", f"{e}:{label}",
                    zero_defect(u @ t - target @ u), tol)
    for o, o1, o2 in rep.poset.two_chains():
        if all((x, y) in rep.u_incl for x, y in [(o, o2), (o1, o2), (o, o1)]):
            out.add("chain-coherence", f"{o}<{o1}<{o2}",
                    zero_defect(rep.u(o, o2) - rep.u(o1, o2) @ rep.u(o, o1)),
                    tol)
    if m.parity == "even":
        if rep.grading is None:
            out.add("grading-coverage", "-", float("inf"), tol)
        else:
            for o in rep.poset.elements:
                if o not in rep.grading:
                    out.add("grading-coverage", o, float("inf"), tol)
                    continue
                if o in m.F:
                    _check_grading_at(out, rep.grading[o], m.F[o],
                                      rep.samples.get(o, {}), o, tol)
            for e in sorted(rep.u_incl):
                o, o1 = e
                if o in (rep.grading or {}) and o1 in rep.grading:
                    out.add("grading-transport", f"{e}",
                            zero_defect(rep.u_incl[e] @ rep.grading[o]
                                        - rep.grading[o1] @ rep.u_incl[e]),
                            tol)
    elif rep.grading is not None:
        out.add("parity-grading", "-", float("inf"), tol)
    return out


def validate_localized(loc: LocalizedModule, tol: float = CHECK_TOL,
                       compact_tol: float = COMPACT_TOL) -> ValidationReport:
    """Relations at one fiber: everything holds only up to compacts,
    including the holonomy action on F itself."""
    out = ValidationReport()
    rep = loc.rep
    f = loc.f
    out.add("F-selfadjoint", loc.at, zero_defect(f - adj(f)), tol)
    out.add("F-square-compact", loc.at,
            compact_defect(f @ f - identity_like(f)), compact_tol)
    samples = rep.samples.get(loc.at, {})
    for label, t in sorted(samples.items()):
        out.add("F-commutes-with-samples", f"{loc.at}:{label}",
                compact_defect(commutator(f, t)), compact_tol)
    for g, w in sorted(_loop_images_at(rep, loc.at).items()):
        out.add("F-holonomy-compact", f"g{g}",
                compact_defect(w @ f @ adj(w) - f), compact_tol)
        for label, t in sorted(samples.items()):
            out.add("F-commutes-with-transported-samples", f"g{g}:{label}",
                    compact_defect(commutator(f, w @ t @ adj(w))),
                    compact_tol)
    if loc.parity == "even":
        if rep.grading is None or loc.at not in rep.grading:
            out.add("grading-coverage", loc.at, float("inf"), tol)
        else:
            _check_grading_at(out, rep.grading[loc.at], f, samples,
                              loc.at, tol)
    return out


def _loop_images_at(rep: SampledRep, at: str) -> dict[int, object]:
    """Holonomy of the generator loops conjugated to base point `at`."""
    images = holonomy_images(rep)
    if at == rep.frame.base:
        return images
    w = evaluate_rep_path(rep, rep.frame.to(at))
    return {g: w @ v @ adj(w) for g, v in images.items()}


# --------------------------------------------- localization and transport

def localize(m: FredholmModule, at: str) -> LocalizedModule:
    if at not in m.F:
        raise UnknownElement(f"module has no operator at {at!r}")
    return LocalizedModule(m.rep, at, m.F[at], m.parity)


def transport(loc: LocalizedModule, e: str, p: Path) -> LocalizedModule:
    """Move the localized operator along a path by conjugation.

    Transporting back along the reversed path returns the original
    operator object, so round trips are exact rather than float noise.
    """
    if p.start != loc.at or p.end != e:
        raise PathMismatch(
            f"path runs {p.start!r} -> {p.end!r}, module sits at {loc.at!r}"
            f" and should land at {e!r}")
    if loc.origin is not None:
        prev_path, prev = loc.origin
        if prev.at == e and p == opposite_path(prev_path):
            return prev
    w = evaluate_rep_path(loc.rep, p)
    return LocalizedModule(loc.rep, e, w @ loc.f @ adj(w), loc.parity,
                           origin=(p, loc))


@dataclass(frozen=True)
class ExtensionObstruction:
    """Witness that a localized operator is not holonomy-invariant."""

    generator: int
    defect: float


def extend_localized(loc: LocalizedModule,
                     tol: float = INDEX_TOL) -> FredholmModule | ExtensionObstruction:
    """Spread a holonomy-invariant localized operator over the poset.

    F_o is the conjugate of F_a along a path from a to o; the result is
    well defined (and transports coherently) exactly when the holonomy
    at a fixes F_a.  The first generator violating invariance beyond
    `tol` is returned as an obstruction witness instead.
    """
    rep = loc.rep
    for g, w in sorted(_loop_images_at(rep, loc.at).items()):
        d = zero_defect(w @ loc.f @ adj(w) - loc.f)
        if d > tol:
            return ExtensionObstruction(g, d)
    t = frame_transports(rep.poset, rep.frame, rep.ident, rep.step)
    back = t[loc.at]
    f_base = loc.f if loc.at == rep.frame.base else adj(back) @ loc.f @ back
    F = {}
    for o in rep.poset.elements:
        F[o] = loc.f if o == loc.at else t[o] @ f_base @ adj(t[o])
    return FredholmModule(rep, F, loc.parity)


# ------------------------------------------------------ cycle translation

@dataclass(frozen=True)
class EquivariantCycle:
    """Loop-group cycle data: observables, unitary images, one symmetry."""

    samples: dict[str, object]
    v_images: dict[int, object]
    phi: object
    grading: object | None
    parity: str
    group: GroupPresentation

    @property
    def strongly_equivariant(self) -> bool:
        """Every unitary image commutes with phi exactly (bitwise)."""
        return all(is_exactly_zero(commutator(v, self.phi))
                   for v in self.v_images.values())


def equivariant_cycle(loc: LocalizedModule) -> EquivariantCycle:
    """Forget the net: keep the fiber data at the localization point."""
    rep = loc.rep
    grading = None
    if rep.grading is not None:
        grading = rep.grading.get(loc.at)
    return EquivariantCycle(samples=rep.samples.get(loc.at, {}),
                            v_images=_loop_images_at(rep, loc.at),
                            phi=loc.f,
                            grading=grading,
                            parity=loc.parity,
                            group=rep.pres)


def from_cycle(samples: dict[str, object], v_images: dict[int, object],
               phi, poset: Poset, pres: GroupPresentation, frame: PathFrame,
               grading=None, parity: str = "even",
               tol: float = CHECK_TOL,
               compact_tol: float = COMPACT_TOL) -> LocalizedModule:
    """Rebuild a localized module at the frame base from cycle data.

    The unitary images must kill the relators (NotCovariant otherwise);
    phi must be a symmetry up to compacts relative to the observables
    (RelationDefect otherwise).  Passing the data of equivariant_cycle
    straight back reproduces the same operator objects.
    """
    ident = identity_like(phi)
    for g, v in sorted(v_images.items()):
        d = zero_defect(adj(v) @ v - identity_like(v))
        if d > tol:
            raise NotCovariant(f"generator {g} image is not unitary ({d:.3e})")
    for r in pres.relators:
        d = zero_defect(evaluate_word_ops(r.letters, v_images, ident) - ident)
        if d > tol:
            raise NotCovariant(f"relator {r} has defect {d:.3e}")
    for label, t in sorted(samples.items()):
        checks = [
            ("symmetry", (phi - adj(phi)) @ t),
            ("square", (phi @ phi - ident) @ t),
            ("commutator", commutator(phi, t)),
        ]
        for name, x in checks:
            d = compact_defect(x)
            if d > compact_tol:
                raise RelationDefect(
                    f"{name} relation fails on {label!r}: defect {d:.3e}")
    if parity == "even":
        if grading is None:
            raise RelationDefect("even cycle needs a grading")
        d = max(zero_defect(grading - adj(grading)),
                zero_defect(grading @ grading - ident),
                zero_defect(grading @ phi + phi @ grading),
                max((zero_defect(commutator(grading, v))
                     for v in v_images.values()), default=0.0),
                max((zero_defect(commutator(grading, t))
                     for t in samples.values()), default=0.0))
        if d > tol:
            raise RelationDefect(f"grading relations fail: defect {d:.3e}")
    elif grading is not None:
        raise RelationDefect("odd cycle must not carry a grading")
    rep = flat_rep(poset, pres, frame, v_images, ident, samples,
                   grading_at=grading,
                   transported_of=lambda u, t: u @ t @ adj(u))
    return LocalizedModule(rep, frame.base, phi, parity)


# ------------------------------------------------------------- the index

@dataclass(frozen=True)
class RepBlock:
    """One finite dimensional unitary summand of a virtual representation."""

    dim: int
    images: dict[int, np.ndarray]


@dataclass(frozen=True)
class VirtualRep:
    """Formal difference of unitary loop-group representations."""

    plus: tuple[RepBlock, ...]
    minus: tuple[RepBlock, ...]
    group: GroupPresentation

    @property
    def dim(self) -> int:
        return (sum(b.dim for b in self.plus)
                - sum(b.dim for b in self.minus))

    def character(self, letters) -> complex:
        """Trace of the word image, counted with signs."""
        out = 0.0 + 0.0j
        for sign, blocks in ((1.0, self.plus), (-1.0, self.minus)):
            for b in blocks:
                eye = np.eye(b.dim, dtype=complex)
                out += sign * np.trace(
                    evaluate_word_ops(letters, b.images, eye))
        return complex(out)


def sample_words(pres: GroupPresentation, count: int = 12, maxlen: int = 4,
                 seed: int = 0) -> list[tuple[int, ...]]:
    """Deterministic word sample used for character comparison."""
    n = len(pres.generators)
    if n == 0:
        return [()]
    rng = np.random.default_rng(seed)
    words = [(g,) for g in range(1, n + 1)]
    for _ in range(count):
        length = int(rng.integers(2, maxlen + 1))
        letters = tuple(int(l) if s else -int(l)
                        for l, s in zip(rng.integers(1, n + 1, size=length),
                                        rng.integers(0, 2, size=length)))
        words.append(letters)
    return words


def virtual_reps_match(a: VirtualRep, b: VirtualRep,
                       tol: float = INDEX_TOL) -> bool:
    """Character comparison on generators plus the fixed word sample."""
    if len(a.group.generators) != len(b.group.generators):
        return False
    if a.dim != b.dim:
        return False
    return all(abs(a.character(w) - b.character(w)) <= tol
               for w in sample_words(a.group))


def _dense_grading_split(g: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(g)
    if np.any(np.abs(np.abs(vals) - 1.0) > tol):
        raise FiberMismatch("grading is not a self-adjoint unitary")
    return vecs[:, vals > 0], vecs[:, vals < 0]


def _shift_grading_split(g: ShiftOp) -> tuple[list[int], list[int]]:
    if g.finite or set(g.stripes) - {(0, 0)}:
        raise FiberMismatch("shift grading must be a constant diagonal")
    m = g.stripes.get((0, 0))
    if m is None or np.any(m - np.diag(np.diag(m))) or \
            np.any(np.abs(np.diag(m).real) != 1.0) or np.any(np.diag(m).imag):
        raise FiberMismatch("shift grading must be a diagonal of +-1")
    d = np.diag(m).real
    return ([i for i in range(len(d)) if d[i] > 0],
            [i for i in range(len(d)) if d[i] < 0])


def _dense_window(op: ShiftOp, window: int) -> np.ndarray:
    """Dense block of the first `window` columns of the operator, with
    every row they reach: the stripes push column s down to row s + k,
    and the finite part may reach further."""
    up = max((k for k, _ in op.stripes if k > 0), default=0)
    return op.materialize(max(window + up, op.finite_extent), window)


def _kernel_window(op: ShiftOp, window: int, sv_tol: float) -> np.ndarray:
    return null_space(_dense_window(op, window), sv_tol)


def windowed_kernel(op: ShiftOp, sv_tol: float = DENSE_KERNEL_TOL) -> tuple[np.ndarray, int]:
    """Kernel basis of a shift-class operator on its stabilization window.

    The window w0 is the finite-part support plus the maximal shift power
    plus one.  One SVD with singular vectors gives the kernel basis at
    w0; the probe windows w0 + 1 and w0 + 2 only count the singular values
    above `sv_tol` (the same absolute rule as the kernel), and all three
    kernel dimensions must agree, otherwise the operator is not Fredholm
    in this class.
    """
    if not op.stripes:
        raise NotFredholm("no shift part: every window has a kernel beyond it")
    w0 = op.max_abs_shift + op.finite_extent + 1
    kernel = _kernel_window(op, w0, sv_tol)
    dims = [kernel.shape[1]]
    for w in (w0 + 1, w0 + 2):
        a = _dense_window(op, w)
        s = np.linalg.svd(a, compute_uv=False)
        dims.append(a.shape[1] - int(np.sum(s > sv_tol)))
    if dims[0] != dims[1] or dims[1] != dims[2]:
        raise NotFredholm(f"kernel window does not stabilize: dims {dims}")
    return kernel, w0


def _restrict_action(u_corner: ShiftOp, kernel: np.ndarray, window: int,
                     tol: float, side: str) -> np.ndarray:
    u_win = _dense_window(u_corner, window)
    uk = u_win @ kernel
    pad = np.zeros((u_win.shape[0] - kernel.shape[0], kernel.shape[1]))
    k_pad = np.vstack([kernel, pad])
    m = dagger(k_pad) @ uk
    if opnorm(uk - k_pad @ m) > tol:
        raise KernelNotInvariant(f"holonomy does not preserve the {side} kernel")
    return m


def pi_index(cycle: EquivariantCycle, pres: GroupPresentation | None = None,
             sv_tol: float = DENSE_KERNEL_TOL,
             tol: float = INDEX_TOL) -> VirtualRep:
    """[ker of the odd corner] - [ker of its adjoint], with the holonomy
    action restricted to both kernels.

    Dense fibers use a singular value threshold; shift-class fibers use
    the exact windowed kernel.  Raises NotFredholm when the window does
    not stabilize and KernelNotInvariant when the holonomy leaks out of
    a kernel.
    """
    if cycle.parity != "even" or cycle.grading is None:
        raise ValueError("the index needs an even cycle with a grading")
    pres = cycle.group if pres is None else pres
    phi, grading = cycle.phi, cycle.grading

    if isinstance(phi, ShiftOp):
        plus_c, minus_c = _shift_grading_split(grading)
        corner = color_corner(phi, minus_c, plus_c)
        blocks = []
        for rows_c, cols_c, op in ((minus_c, plus_c, corner),
                                   (plus_c, minus_c, corner.H)):
            side = "plus" if cols_c is plus_c else "minus"
            kernel, window = windowed_kernel(op, sv_tol)
            if kernel.shape[1] == 0:
                blocks.append(None)
                continue
            images = {}
            for g, v in cycle.v_images.items():
                leak = color_corner(v, rows_c, cols_c)
                if not is_exactly_zero(leak):
                    if opnorm(_dense_window(leak, window) @ kernel) > tol:
                        raise KernelNotInvariant(
                            f"holonomy pushes the {side} kernel across the grading")
                images[g] = _restrict_action(color_corner(v, cols_c, cols_c),
                                             kernel, window, tol, side)
            blocks.append(RepBlock(kernel.shape[1], images))
    else:
        v_plus, v_minus = _dense_grading_split(grading, sv_tol)
        corner = dagger(v_minus) @ phi @ v_plus
        blocks = []
        for basis, other, op in ((v_plus, v_minus, corner),
                                 (v_minus, v_plus, dagger(corner))):
            side = "plus" if basis is v_plus else "minus"
            kernel = null_space(op, sv_tol)
            if kernel.shape[1] == 0:
                blocks.append(None)
                continue
            images = {}
            for g, v in cycle.v_images.items():
                if opnorm(dagger(other) @ v @ basis @ kernel) > tol:
                    raise KernelNotInvariant(
                        f"holonomy pushes the {side} kernel across the grading")
                u_corner = dagger(basis) @ v @ basis
                m = dagger(kernel) @ u_corner @ kernel
                if opnorm(u_corner @ kernel - kernel @ m) > tol:
                    raise KernelNotInvariant(
                        f"holonomy does not preserve the {side} kernel")
                images[g] = m
            blocks.append(RepBlock(kernel.shape[1], images))

    plus = (blocks[0],) if blocks[0] is not None else ()
    minus = (blocks[1],) if blocks[1] is not None else ()
    return VirtualRep(plus, minus, pres)


# ----------------------------------------------------- shift construction

def _unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    m[i, j] = 1.0
    return m


def _doubling_f(d: int) -> ShiftOp:
    """Off-diagonal symmetry: shift up-right, co-shift down-left."""
    eye = np.eye(d, dtype=complex)
    return (stripe_op(1, np.kron(_unit(0, 1), eye))
            + stripe_op(-1, np.kron(_unit(1, 0), eye)))


def _doubling_grading(d: int) -> ShiftOp:
    return stripe_op(0, np.kron(np.diag([1.0, -1.0]), np.eye(d)))


def _double_color(m: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(2, dtype=complex), m)


def _default_shift_samples(d: int) -> dict[str, ShiftOp]:
    eye2d = np.eye(2 * d, dtype=complex)
    return {
        "one": identity_op(2 * d),
        "site00": finite_op({(0, 0): eye2d.copy()}, 2 * d),
        "site01": finite_op({(0, 1): eye2d.copy()}, 2 * d),
        "site11": finite_op({(1, 1): eye2d.copy()}, 2 * d),
    }


def _check_unitary_images(images: dict[int, np.ndarray], dim: int,
                          pres: GroupPresentation, tol: float) -> None:
    for g, m in sorted(images.items()):
        if m.shape != (dim, dim):
            raise FiberMismatch(f"generator {g} image has shape {m.shape}")
        if opnorm(adj(m) @ m - np.eye(dim)) > tol:
            raise InvalidRepresentation(f"generator {g} image is not unitary")
    eye = np.eye(dim, dtype=complex)
    for r in pres.relators:
        d = opnorm(evaluate_word_ops(r.letters, images, eye) - eye)
        if d > tol:
            raise RelatorNotSatisfied(f"relator {r} has defect {d:.3e}")


def build_shift_module(poset: Poset, pres: GroupPresentation,
                       frame: PathFrame, u_images: dict[int, np.ndarray],
                       samples: dict[str, ShiftOp] | None = None,
                       tol: float = CHECK_TOL) -> FredholmModule:
    """Even module whose index is the given loop-group representation.

    The fiber is the doubled semi-infinite space with d colors per half;
    the edge unitaries act on colors only, F shifts one half against the
    other, and the kernel of its odd corner is the d-dimensional summand
    at site zero carrying exactly the u-action.
    """
    if not u_images and len(pres.generators) > 0:
        raise FiberMismatch("missing generator images")
    d = next(iter(u_images.values())).shape[0] if u_images else 1
    _check_unitary_images(u_images, d, pres, tol)
    colors = {g: stripe_op(0, _double_color(m)) for g, m in u_images.items()}
    ident = identity_op(2 * d)
    rep = flat_rep(poset, pres, frame, colors, ident,
                   samples if samples is not None else _default_shift_samples(d),
                   grading_at=_doubling_grading(d))
    f = _doubling_f(d)
    return FredholmModule(rep, {o: f for o in poset.elements}, "even")


# ---------------------------------------------------- sector construction

@dataclass(frozen=True)
class SectorModule:
    """Even module of a charge sector, with its two dimensions.

    statistical: total multiplicity space dimension.  topological: the
    linear dimension of the algebra generated by the holonomy images.
    """

    module: FredholmModule
    statistical_dimension: int
    topological_dimension: int

    def admits(self, t: ShiftOp, tol: float = 0.0) -> bool:
        return dual_net_membership(self.module, t, tol)


def dual_net_membership(m: FredholmModule, t: ShiftOp,
                        tol: float = 0.0) -> bool:
    """Whether the observable commutes with every F up to finite rank."""
    return all(compact_defect(commutator(f, t)) <= tol
               for f in m.F.values())


def algebra_dimension(mats: list[np.ndarray], tol: float = 1e-9) -> int:
    """Linear dimension of the unital *-algebra generated by the matrices.

    Span closure over the seeds 1, M and M* for each matrix M: keep an
    orthonormal basis of the flattened elements found so far, multiply
    only the newest basis elements by the seeds, and add what is left of
    the products after projecting out the basis (singular values above
    `tol` relative to the largest product norm, at least 1).  The span is
    closed once a round adds nothing.  The basis never exceeds d^2
    elements for d x d matrices and each element is multiplied once, so
    there are at most d^2 * (2 * len(mats) + 1) products in all.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    seeds = [np.eye(d, dtype=complex)]
    for m in mats:
        seeds.append(np.asarray(m, dtype=complex))
        seeds.append(dagger(m))
    seeds = np.stack(seeds)
    basis = np.zeros((0, d * d), dtype=complex)
    new = seeds.reshape(len(seeds), d * d)
    while len(new):
        # classical Gram-Schmidt against the basis, twice for stability
        scale = max(1.0, float(np.max(np.linalg.norm(new, axis=1))))
        for _ in range(2):
            new = new - (new @ dagger(basis)) @ basis
        _, s, vh = np.linalg.svd(new, full_matrices=False)
        new = vh[:int(np.sum(s > tol * scale))]
        basis = np.vstack([basis, new])
        products = new.reshape(-1, 1, d, d) @ seeds
        new = products.reshape(-1, d * d)
    return len(basis)


def _pinned_shift(w_index: int) -> ShiftOp:
    """Isometry with cokernel at the given site: the shift conjugated by
    the transposition of sites 0 and w."""
    if w_index < 0:
        raise FiberMismatch("cyclic vector index must be nonnegative")
    s = shift_op(1)
    if w_index == 0:
        return s
    one = np.eye(1, dtype=complex)
    p = identity_op(1) + finite_op({(0, 0): -one, (w_index, w_index): -one,
                                    (0, w_index): one, (w_index, 0): one}, 1)
    return p @ s @ p


def _sector_blocks(sector_dims: tuple[int, ...]) -> list[tuple[int, int]]:
    out, at = [], 0
    for d in sector_dims:
        out.append((at, at + d))
        at += d
    return out


def _embed_sector(t: ShiftOp, block: tuple[int, int], total: int) -> ShiftOp:
    """Color-1 operator -> doubled total-color operator in one sector."""
    lo, hi = block

    def lift(m: np.ndarray) -> np.ndarray:
        color = np.zeros((total, total), dtype=complex)
        color[lo:hi, lo:hi] = m[0, 0] * np.eye(hi - lo)
        return np.kron(np.eye(2, dtype=complex), color)

    return map_color(t, lift)


def _default_sector_samples(w_index: int) -> dict[str, ShiftOp]:
    sw = _pinned_shift(w_index)
    return {
        "one": identity_op(1),
        "charge-shift": sw,
        "vacuum-corner": finite_op({(w_index, w_index): np.eye(1, dtype=complex)}, 1),
    }


def build_sector_module(poset: Poset, pres: GroupPresentation,
                        frame: PathFrame, sector_dims: tuple[int, ...],
                        rho_images: dict[int, np.ndarray],
                        pi_samples: dict[str, tuple[ShiftOp, ...]] | None = None,
                        w_index: int = 0,
                        tol: float = CHECK_TOL) -> SectorModule:
    """Even module of a superselection sector with multiplicity blocks.

    The holonomy images must be block-diagonal along `sector_dims`
    (CentralityViolated otherwise) and kill the relators.  Observables
    are sector families of scalar-color shift operators, represented
    diagonally across the multiplicity blocks; F pins the cyclic vector
    at `w_index`, so the index carries exactly the block action.
    """
    sector_dims = tuple(int(d) for d in sector_dims)
    if not sector_dims or any(d <= 0 for d in sector_dims):
        raise FiberMismatch("sector dimensions must be positive")
    total = sum(sector_dims)
    blocks = _sector_blocks(sector_dims)
    mask = np.ones((total, total), dtype=bool)
    for lo, hi in blocks:
        mask[lo:hi, lo:hi] = False
    for g, m in sorted(rho_images.items()):
        if m.shape != (total, total):
            raise FiberMismatch(f"generator {g} image has shape {m.shape}")
        leak = opnorm(np.where(mask, m, 0.0))
        if leak > tol:
            raise CentralityViolated(
                f"generator {g} image leaks across sectors ({leak:.3e})")
    _check_unitary_images(rho_images, total, pres, tol)

    if pi_samples is None:
        base = _default_sector_samples(w_index)
        pi_samples = {l: tuple(t for _ in sector_dims)
                      for l, t in base.items()}
    samples: dict[str, ShiftOp] = {}
    for label, per_sector in sorted(pi_samples.items()):
        if len(per_sector) != len(sector_dims):
            raise FiberMismatch(
                f"sample {label!r} has {len(per_sector)} sector entries, "
                f"expected {len(sector_dims)}")
        total_op = None
        for t, block in zip(per_sector, blocks):
            lifted = _embed_sector(t, block, total)
            total_op = lifted if total_op is None else total_op + lifted
        samples[label] = total_op

    colors = {g: stripe_op(0, _double_color(m))
              for g, m in rho_images.items()}
    ident = identity_op(2 * total)
    rep = flat_rep(poset, pres, frame, colors, ident, samples,
                   grading_at=_doubling_grading(total))

    sw = _pinned_shift(w_index)
    eye = np.eye(total, dtype=complex)
    f = (map_color(sw, lambda m: m[0, 0] * np.kron(_unit(0, 1), eye))
         + map_color(sw.H, lambda m: m[0, 0] * np.kron(_unit(1, 0), eye)))
    module = FredholmModule(rep, {o: f for o in poset.elements}, "even")

    images = list(rho_images.values()) or [np.eye(total, dtype=complex)]
    return SectorModule(module, total, algebra_dimension(images))


# --------------------------------------------------------------- analysis

def bounded_transform(d: np.ndarray, tol: float = CHECK_TOL) -> np.ndarray:
    """Rational damping D(1 + D^2)^{-1} of a self-adjoint dense matrix.

    Note the normalization: this is x/(1+x^2) applied spectrally, not
    the customary x/sqrt(1+x^2), so eigenvalues land in [-1/2, 1/2].
    The module relations only need a self-adjoint F with F^2 - 1 and
    the commutators compact, which either form provides.
    """
    d = np.asarray(d, dtype=complex)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotSelfAdjoint("need a square matrix")
    if opnorm(d - dagger(d)) > tol:
        raise NotSelfAdjoint("matrix is not self-adjoint")
    return np.linalg.solve(np.eye(d.shape[0], dtype=complex) + d @ d, d)
