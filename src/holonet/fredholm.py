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

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bundle import carrier_transports, holonomy_images, require_unitary_rep
from .errors import (
    CentralityViolated,
    FiberMismatch,
    KernelNotInvariant,
    NotCovariant,
    NotFredholm,
    NotSelfAdjoint,
    RelationDefect,
    UnknownElement,
)
from .homotopy import (
    GroupPresentation,
    PathFrame,
    edge_loop_word,
)
from .linalg import dagger, first_over, null_space, opnorm
from .operators import (
    adj,
    anticommutator_residual,
    coherence_residual,
    commutator,
    commutator_compact_defect,
    compact_defect,
    conjugate,
    evaluate_word_ops,
    identity_like,
    intertwining_residual,
    involution_residual,
    is_exactly_zero,
    require_generators,
    require_relators,
    require_unitary,
    residual_defects,
    selfadjoint_defect,
    selfadjoint_residual,
    square_compact_defect,
    stripe_part,
    unitarity_residual,
    zero_defect,
)
from .poset import Poset
from .reports import (
    CHECK_TOL,
    COMPACT_TOL,
    DENSE_KERNEL_TOL,
    INDEX_TOL,
    SPAN_TOL,
    ValidationReport,
)
from .shift_calculus import (
    ShiftOp,
    WindowAssembly,
    color_corner,
    dense_blocks,
    finite_op,
    identity_op,
    map_color,
    shift_op,
    stripe_op,
)
Edge = tuple[str, str]


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


def flat_rep(poset: Poset, pres: GroupPresentation, frame: PathFrame,
             images: dict[int, object], ident, samples_at: dict[str, object],
             grading_at=None) -> SampledRep:
    """Holonomy-flat rep from loop-group images: tree edges act as the
    exact identity, generator edges by their image, everything else by
    the image of its tree-collapsed loop word.

    The samples (and grading) are constant across fibers and recorded as
    inclusion-invariant (`transported` is None).
    """
    u_incl = {}
    for e in poset.strict_pairs():
        w = edge_loop_word(pres, poset, frame, e[0], e[1])
        u_incl[e] = evaluate_word_ops(w.letters, images, ident)
    samples = {o: dict(samples_at) for o in poset.elements}
    grading = {o: grading_at for o in poset.elements} if grading_at is not None else None
    return SampledRep(poset, pres, frame, u_incl, samples, ident, grading)


# ---------------------------------------------------------------- modules

@dataclass(frozen=True)
class FredholmModule:
    """A symmetry per fiber, transported by the edge unitaries."""

    rep: SampledRep
    F: dict[str, object]
    parity: str  # "even" | "odd"


@dataclass(frozen=True)
class LocalizedModule:
    """A single symmetry at one fiber, constrained only up to compacts."""

    rep: SampledRep
    at: str
    f: object
    parity: str


def validate_module(m: FredholmModule, tol: float = CHECK_TOL) -> ValidationReport:
    """Defect report for every module relation, per fiber and per edge.

    Equalities (self-adjointness, transport, grading) are measured in
    norm against `tol`; compactness conditions (F squared minus one,
    commutators with observables) against `COMPACT_TOL`.

    Through `ValidationReport.relate`, a relation on operands shared by
    several locations (one F for every fiber, say) is evaluated once.
    """
    out = ValidationReport()
    rep = m.rep
    for o in rep.poset.elements:
        if o not in m.F:
            out.add("F-coverage", o, float("inf"), tol)
            continue
        f = m.F[o]
        out.relate("F-selfadjoint", o, tol, selfadjoint_residual, f)
        out.relate("F-square-compact", o, COMPACT_TOL, square_compact_defect, f)
        for label, t in sorted(rep.samples.get(o, {}).items()):
            out.relate("F-commutes-with-samples", f"{o}:{label}", COMPACT_TOL,
                       commutator_compact_defect, f, t)
    for e in sorted(rep.poset.strict_pairs()):
        if e not in rep.u_incl:
            out.add("edge-coverage", f"{e}", float("inf"), tol)
    for e in sorted(rep.u_incl):
        o, o1 = e
        u = rep.u_incl[e]
        out.relate("edge-unitarity", f"{e}", tol, unitarity_residual, u)
        if o in m.F and o1 in m.F:
            out.relate("F-transport", f"{e}", tol, intertwining_residual,
                       u, m.F[o], m.F[o1])
        for label, t in sorted(rep.samples.get(o, {}).items()):
            if rep.transported is not None:
                target = rep.transported.get((e, label))
            else:
                target = rep.samples.get(o1, {}).get(label)
            if target is None:
                out.add("sample-covariance", f"{e}:{label}", float("inf"), tol)
                continue
            out.relate("sample-covariance", f"{e}:{label}", tol,
                       intertwining_residual, u, t, target)
    for o, o1, o2 in rep.poset.two_chains():
        if all((x, y) in rep.u_incl for x, y in [(o, o2), (o1, o2), (o, o1)]):
            out.relate("chain-coherence", f"{o}<{o1}<{o2}", tol, coherence_residual,
                       rep.u(o, o2), rep.u(o1, o2), rep.u(o, o1))
    if m.parity == "even":
        if rep.grading is None:
            out.add("grading-coverage", "-", float("inf"), tol)
        else:
            for o in rep.poset.elements:
                if o not in rep.grading:
                    out.add("grading-coverage", o, float("inf"), tol)
                    continue
                if o not in m.F:
                    continue
                g = rep.grading[o]
                out.relate("grading-selfadjoint", o, tol, selfadjoint_residual, g)
                out.relate("grading-involution", o, tol, involution_residual, g)
                out.relate("grading-anticommutes", o, tol, anticommutator_residual, g, m.F[o])
                for label, t in sorted(rep.samples.get(o, {}).items()):
                    out.relate("grading-commutes-with-samples", f"{o}:{label}", tol,
                               commutator, g, t)
            for e in sorted(rep.u_incl):
                o, o1 = e
                if o in (rep.grading or {}) and o1 in rep.grading:
                    out.relate("grading-transport", f"{e}", tol, intertwining_residual,
                               rep.u_incl[e], rep.grading[o], rep.grading[o1])
    elif rep.grading is not None:
        out.add("parity-grading", "-", float("inf"), tol)
    return out


def _loop_images_at(rep: SampledRep, at: str) -> dict[int, object]:
    """Holonomy of the generator loops conjugated to base point `at`."""
    images = holonomy_images(rep, rep.pres, rep.frame)
    rep.frame.to(at)  # UnknownElement off the frame
    w = carrier_transports(rep, rep.frame)[at]  # rep.ident at the base
    return {g: conjugate(w, v, rep.ident) for g, v in images.items()}


# -------------------------------------------------------------- localization

def localize(m: FredholmModule, at: str) -> LocalizedModule:
    if at not in m.F:
        raise UnknownElement(f"module has no operator at {at!r}")
    return LocalizedModule(m.rep, at, m.F[at], m.parity)


@dataclass(frozen=True)
class ExtensionObstruction:
    """Witness that a localized operator is not holonomy-invariant."""

    generator: int
    defect: float


def extend_localized(loc: LocalizedModule) -> FredholmModule | ExtensionObstruction:
    """Spread a holonomy-invariant localized operator over the poset.

    F_o is the conjugate of F_a along a path from a to o; the result is
    well defined (and transports coherently) exactly when the holonomy
    at a fixes F_a.  The first generator violating invariance beyond
    `INDEX_TOL` is returned as an obstruction witness instead.  Where
    the frame transport is the identity object `rep.ident` (every
    element of a flat module), F_o is the object F_a itself.
    """
    rep = loc.rep
    for g, w in sorted(_loop_images_at(rep, loc.at).items()):
        d = zero_defect(conjugate(w, loc.f, rep.ident) - loc.f)
        if not d <= INDEX_TOL:
            return ExtensionObstruction(g, d)
    t = carrier_transports(rep, rep.frame)
    back = t[loc.at]
    f_base = loc.f if back is rep.ident else adj(back) @ loc.f @ back
    F = {}
    for o in rep.poset.elements:
        F[o] = loc.f if o == loc.at else conjugate(t[o], f_base, rep.ident)
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
               tol: float = CHECK_TOL) -> LocalizedModule:
    """Rebuild a localized module at the frame base from cycle data.

    Every generator image and every sample must have phi's shape or
    colour dimensions (FiberMismatch otherwise, before any product);
    the images must be unitary and kill the relators within `tol`
    (NotCovariant otherwise); phi must be a symmetry up to compacts
    relative to the observables, and an even grading must satisfy its
    relations within `tol` (RelationDefect otherwise).  An observable is
    transported along an edge by conjugation.  Passing the data of
    equivariant_cycle straight back reproduces the same operator objects.
    """
    if (phi.d_out != phi.d_in if isinstance(phi, ShiftOp)
            else np.ndim(phi) != 2 or phi.shape[0] != phi.shape[1]):
        raise FiberMismatch(f"phi must be square, it has {_space(phi)}")
    ident = identity_like(phi)
    require_generators(pres, v_images)
    for g, v in sorted(v_images.items()):
        if _space(v) != _space(phi):
            raise FiberMismatch(f"generator {g} image has {_space(v)}, phi has {_space(phi)}")
    for label, t in sorted(samples.items()):
        if _space(t) != _space(phi):
            raise FiberMismatch(f"sample {label!r} has {_space(t)}, phi has {_space(phi)}")
    require_unitary(v_images, tol, NotCovariant)
    require_relators(pres, v_images, ident, tol, NotCovariant)
    if isinstance(phi, ShiftOp):
        # a compact defect is a stripe weight, which no finite part enters
        p = stripe_part(phi)
        symmetry, square = selfadjoint_residual(p), involution_residual(p)
        for label, t in sorted(samples.items()):
            s = stripe_part(t)
            for name, x in (("symmetry", symmetry @ s), ("square", square @ s),
                            ("commutator", commutator(p, s))):
                d = compact_defect(x)
                if not d <= COMPACT_TOL:
                    raise RelationDefect(
                        f"{name} relation fails on {label!r}: defect {d:.3e}")
    if parity == "even":
        if grading is None:
            raise RelationDefect("even cycle needs a grading")
        d = residual_defects(
            [selfadjoint_residual(grading), involution_residual(grading),
             anticommutator_residual(grading, phi)]
            + [commutator(grading, x) for x in (*v_images.values(), *samples.values())])
        if first_over(d, tol) is not None:
            raise RelationDefect(f"grading relations fail: defect {d.max():.3e}")
    elif grading is not None:
        raise RelationDefect("odd cycle must not carry a grading")
    rep = flat_rep(poset, pres, frame, v_images, ident, samples, grading_at=grading)
    transported = {(e, l): conjugate(u, t, ident)
                   for e, u in rep.u_incl.items() for l, t in samples.items()}
    return LocalizedModule(replace(rep, transported=transported), frame.base, phi, parity)


def _space(x) -> str:
    """The space an operator acts on, as a FiberMismatch names it."""
    return f"colours {x.d_out}x{x.d_in}" if isinstance(x, ShiftOp) else f"shape {np.shape(x)}"


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


def sample_words(pres: GroupPresentation, seed: int = 0) -> list[tuple[int, ...]]:
    """Deterministic word sample used for character comparison: each
    generator, then 12 random words of 2 to 4 letters."""
    n = len(pres.generators)
    if n == 0:
        return [()]
    rng = np.random.default_rng(seed)
    words = [(g,) for g in range(1, n + 1)]
    for _ in range(12):
        length = int(rng.integers(2, 5))
        letters = tuple(int(l) if s else -int(l)
                        for l, s in zip(rng.integers(1, n + 1, size=length),
                                        rng.integers(0, 2, size=length)))
        words.append(letters)
    return words


def _dense_grading_split(g: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(g)
    if not np.all(np.abs(np.abs(vals) - 1.0) <= tol):
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


def _pass_through(op: ShiftOp, a: WindowAssembly, blocks: dict[tuple[int, int], np.ndarray],
                  sv_tol: float) -> set[tuple[int, int]]:
    """The pass-through pairs among `blocks`, the touched blocks of a
    window, and the representatives of the bulk classes of `a` that pass.
    A pair (r, s) is a block that is the only nonzero block of row r and
    of column s, square, with smallest singular value above `sv_tol`; a
    bulk block always is the only one of its row and column.  The pairs
    share no row or column, so one pass finds all."""
    rows = Counter(r for r, _ in blocks)
    cols = Counter(s for _, s in blocks)
    candidates = {rs: blocks[rs] for rs in blocks if rows[rs[0]] == 1 == cols[rs[1]]}
    candidates.update((rs, m) for rs, m in a.bulk.items() if m is not None)
    if op.d_out != op.d_in or not candidates:
        return set()
    # a phase does not change singular values: a block that one stripe
    # fills alone has the smallest singular value of its colour matrix
    offsets = Counter(k for k, _ in op.stripes)
    alone = {k: m for (k, _), m in op.stripes.items() if offsets[k] == 1}
    # measured under the offset when its colour matrix decides, else the site pair
    keys = {(r, s): r - s if r - s in alone and (r, s) not in op.finite else (r, s)
            for r, s in candidates}
    sv = a.smallest_sv({keys[rs]: alone.get(keys[rs], m) for rs, m in candidates.items()})
    return {rs for rs in candidates if sv[keys[rs]] > sv_tol}


def _kernel_window(op: ShiftOp, window: int, sv_tol: float) -> np.ndarray:
    """Kernel basis of the window of the first `window` columns, with
    every row they reach, in window coordinates (column site * d +
    colour), singular values at or below `sv_tol`.

    The window is a sparse set of site blocks.  Its pass-through pairs
    and its empty rows are removed, and only the residual is dense: row
    r of a pair (r, s) forces x_s = 0 and column s meets no other row,
    so the window's singular values are those of the residual and of
    the pair blocks, all above `sv_tol`.  The residual's kernel is
    re-embedded with zeros on the peeled sites.

    The blocks come from `op.window_assembly`, one assembly per operator
    whatever the window.  A bulk class is decided once: if its block
    passes, none of its columns is visited; otherwise its columns below
    `window` enter the residual with the class block (none for an exact
    zero, an empty column).  So the residual's rows, columns and blocks
    are those of the full window's peel, and its cost is that of the
    touched columns and of the classes that do not pass.
    """
    a = op.window_assembly(window)
    blocks = {rs: m for rs, m in a.blocks.items() if rs[1] < window}
    passing = _pass_through(op, a, blocks, sv_tol)
    pairs = passing - a.bulk.keys()
    peeled = {s for _, s in pairs}
    rows = {r for r, _ in blocks} - {r for r, _ in pairs}
    cols = [s for s in a.touched if s < window and s not in peeled]
    touched = set(cols) | peeled
    for (r, s), m in a.bulk.items():
        if (r, s) in passing:
            continue
        for t in range(s % a.period, window, a.period):
            if t not in touched:
                cols.append(t)
                if m is not None:
                    rows.add(t + a.offset)
                    blocks[(t + a.offset, t)] = m
    cols.sort()
    kernel = null_space(dense_blocks(blocks, sorted(rows), cols, op.d_out, op.d_in), sv_tol)
    out = np.zeros((window * op.d_in, kernel.shape[1]), dtype=complex)
    out[_site_rows(cols, op.d_in)] = kernel
    return out


def _site_rows(sites, d: int) -> np.ndarray:
    """Coordinates of the given sites, colour index fastest."""
    return (np.asarray(sites, dtype=int)[:, None] * d + np.arange(d)).ravel()


def stabilization_window(op: ShiftOp) -> int:
    """The window w0 of `windowed_kernel`: the finite-part support plus
    the maximal shift power plus one."""
    return op.max_abs_shift + op.finite_extent + 1


def windowed_kernel(op: ShiftOp) -> tuple[np.ndarray, int]:
    """Kernel basis of a shift-class operator on its stabilization window.

    The window is w0 = `stabilization_window(op)`.  Each window is built
    as a sparse set of site blocks and peeled: a pair (row r, column s)
    whose block is the only nonzero block of its row and of its column,
    square with smallest singular value above `DENSE_KERNEL_TOL`, is
    removed, and so are empty rows.  This is exact: row r forces x_s = 0
    and column s meets no other row, so the singular values split as
    those of the residual and of the pair blocks.  Only the residual is
    dense; for a pinned shift it is one column, whatever the pinned site.
    The kernel basis is the residual's at w0, re-embedded in window
    coordinates; the probe windows w0 + 1 and w0 + 2 are taken the same
    way, and all three kernel dimensions must agree, otherwise the
    operator is not Fredholm in this class.  The site blocks come from
    one `op.window_assembly`, kept on `op`: for a square operator with
    one stripe offset (every shift and sector corner) it holds the
    columns the finite part touches and one bulk column per phase
    residue class, whatever the window, and each class is decided once;
    otherwise it is the widest window's columns, and the two narrower
    windows are its first columns.  Every colour dimension takes this one
    path: a scalar-colour operator S tensor I_d peels the same sites as
    S, so its dense residual is only d times as wide as that of S.
    """
    if not op.stripes:
        raise NotFredholm("no shift part: every window has a kernel beyond it")
    w0 = stabilization_window(op)
    op.window_assembly(w0 + 2)  # the one assembly the three windows share
    kernel, *probes = (_kernel_window(op, w, DENSE_KERNEL_TOL)
                       for w in (w0, w0 + 1, w0 + 2))
    dims = [k.shape[1] for k in (kernel, *probes)]
    if dims[0] != dims[1] or dims[1] != dims[2]:
        raise NotFredholm(f"kernel window does not stabilize: dims {dims}")
    return kernel, w0


def _on_sites(op: ShiftOp, sites: list[int]) -> np.ndarray:
    """The columns of op at `sites`, dense, on the rows `sites` first and
    then on every other row those columns reach."""
    blocks = op.site_blocks(sites)
    rows = sites + sorted({r for r, _ in blocks} - set(sites))
    return dense_blocks(blocks, rows, sites, op.d_out, op.d_in)


def _shift_blocks(rows_c: list[int], cols_c: list[int], sites: list[int],
                  v: ShiftOp) -> tuple[np.ndarray | None, np.ndarray]:
    """The colour blocks of v leaving and keeping the `cols_c` side, by
    `_on_sites` on the sites that carry the kernel; the leaving block is
    None when it is exactly zero."""
    leak = color_corner(v, rows_c, cols_c)
    return (None if is_exactly_zero(leak) else _on_sites(leak, sites),
            _on_sites(color_corner(v, cols_c, cols_c), sites))


def _dense_blocks(basis: np.ndarray, other: np.ndarray,
                  v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of v from the `basis` side to the `other` side and back
    to the `basis` side, in those bases."""
    return dagger(other) @ v @ basis, dagger(basis) @ v @ basis


def _index_sides(phi, grading):
    """The plus and then the minus side of the index, one at a time:
    (side, kernel of the odd corner on it, blocks), where blocks(v) gives
    `_shift_blocks` or `_dense_blocks` of a holonomy image v.  A shift
    kernel is kept on its support sites only, the sites where it has a
    nonzero entry; the rows of the other sites are zero."""
    if isinstance(phi, ShiftOp):
        plus_c, minus_c = _shift_grading_split(grading)
        corner = color_corner(phi, minus_c, plus_c)
        for side, op, cols_c, rows_c in (("plus", corner, plus_c, minus_c),
                                         ("minus", corner.H, minus_c, plus_c)):
            kernel, _ = windowed_kernel(op)
            d = len(cols_c)
            sites = np.flatnonzero(np.any(kernel, axis=1).reshape(-1, d).any(axis=1))
            yield (side, kernel[_site_rows(sites, d)],
                   partial(_shift_blocks, rows_c, cols_c, sites.tolist()))
    else:
        v_plus, v_minus = _dense_grading_split(grading, DENSE_KERNEL_TOL)
        corner = dagger(v_minus) @ phi @ v_plus
        for side, op, basis, other in (("plus", corner, v_plus, v_minus),
                                       ("minus", dagger(corner), v_minus, v_plus)):
            yield (side, null_space(op, DENSE_KERNEL_TOL),
                   partial(_dense_blocks, basis, other))


def _kernel_action(kernel: np.ndarray, side: str, leak: np.ndarray | None,
                   stay: np.ndarray) -> np.ndarray:
    """The action on `kernel` of a holonomy image given by its blocks
    leaving and keeping that side; KernelNotInvariant when either moves
    the kernel by more than `INDEX_TOL`.  The keeping block of a shift
    image has the kernel's support sites as its first rows and may reach
    further rows, where the kernel is zero, so it is padded with zeros."""
    if leak is not None and not opnorm(leak @ kernel) <= INDEX_TOL:
        raise KernelNotInvariant(
            f"holonomy pushes the {side} kernel across the grading")
    uk = stay @ kernel
    pad = np.zeros((stay.shape[0] - kernel.shape[0], kernel.shape[1]))
    k_pad = np.vstack([kernel, pad])
    m = dagger(k_pad) @ uk
    if not opnorm(uk - k_pad @ m) <= INDEX_TOL:
        raise KernelNotInvariant(f"holonomy does not preserve the {side} kernel")
    return m


def pi_index(cycle: EquivariantCycle) -> VirtualRep:
    """[ker of the odd corner] - [ker of its adjoint], with the holonomy
    action restricted to both kernels.

    Dense fibers use a singular value threshold; shift-class fibers use
    `windowed_kernel`, the kernel of a finite window whose dimension must
    not grow on the two next wider windows.  That stabilization is a
    necessary check, not a proof: a kernel of infinite support escapes
    every window.  Known false negative: for
    `stripe_op(-1, I_2, 1/3) + stripe_op(1, 0.25 I_2, 2/5)` (index 2, a
    kernel decaying like 0.25^n) both windowed kernels come out empty.

    Each window is peeled before its dense SVD, in every colour
    dimension alike: a pair (row r, column s) whose square block is the
    only nonzero block of its row and of its column, with smallest
    singular value above `DENSE_KERNEL_TOL`, is removed.  This is exact,
    because row r forces x_s = 0 and column s meets no other row.  The
    holonomy blocks are then taken only on the kernel's support sites
    and the rows those reach.  On a sector module the dense matrices are
    a few colours wide whatever the pinned site, and the window assembly
    holds only the sites the finite part touches plus one bulk site, so
    no part of the index but the zero-padded kernel basis is linear in it.

    Raises NotFredholm when the window does not stabilize and
    KernelNotInvariant when the holonomy leaks out of a kernel.
    """
    if cycle.parity != "even" or cycle.grading is None:
        raise ValueError("the index needs an even cycle with a grading")
    blocks = []
    for side, kernel, blocks_of in _index_sides(cycle.phi, cycle.grading):
        if kernel.shape[1] == 0:
            blocks.append(None)
            continue
        images = {g: _kernel_action(kernel, side, *blocks_of(v))
                  for g, v in cycle.v_images.items()}
        blocks.append(RepBlock(kernel.shape[1], images))
    plus = (blocks[0],) if blocks[0] is not None else ()
    minus = (blocks[1],) if blocks[1] is not None else ()
    return VirtualRep(plus, minus, cycle.group)


# ---------------------------------------------------- doubled-fiber modules

def _embed_sector(t: ShiftOp, total: int) -> ShiftOp:
    """Color-1 operator -> doubled total-color operator, repeated in every
    colour of both halves of the doubling."""

    def lift(m: np.ndarray) -> np.ndarray:
        out = np.zeros((2 * total, 2 * total), dtype=complex)
        np.fill_diagonal(out, m[0, 0])
        return out

    return map_color(t, lift)


def _doubled_module(poset: Poset, pres: GroupPresentation, frame: PathFrame,
                    images: dict[int, np.ndarray], total: int, sw: ShiftOp,
                    samples: dict[str, ShiftOp]) -> FredholmModule:
    """Even module on the doubled space, `total` colours per half: the
    images act on the colours of both halves, the grading is +1 on the
    upper half and -1 on the lower, each one-colour sample is repeated in
    every colour, and F = sw up-right plus sw* down-left, so the kernel
    of its odd corner is the cokernel of the isometry `sw` in every
    colour."""
    eye = np.eye(total, dtype=complex)
    colors = {g: stripe_op(0, np.kron(np.eye(2, dtype=complex), m))
              for g, m in images.items()}
    rep = flat_rep(poset, pres, frame, colors, identity_op(2 * total),
                   {label: _embed_sector(t, total) for label, t in sorted(samples.items())},
                   grading_at=stripe_op(0, np.kron(np.diag([1.0, -1.0]), eye)))
    up, down = np.kron([[0, 1], [0, 0]], eye), np.kron([[0, 0], [1, 0]], eye)
    f = (map_color(sw, lambda m: m[0, 0] * up)
         + map_color(sw.H, lambda m: m[0, 0] * down))
    return FredholmModule(rep, {o: f for o in poset.elements}, "even")


def build_shift_module(poset: Poset, pres: GroupPresentation,
                       frame: PathFrame, u_images: dict[int, np.ndarray],
                       tol: float = CHECK_TOL) -> FredholmModule:
    """Even module whose index is the given loop-group representation.

    The doubled-fiber module of the unilateral shift, d colours per half
    for d x d images: F shifts one half against the other, and the
    kernel of its odd corner is the d-dimensional summand at site zero
    carrying exactly the u-action.  Observables: the one and the site
    blocks (0, 0), (0, 1) and (1, 1).  The images go through
    `require_unitary_rep` (FiberMismatch, InvalidRepresentation,
    RelatorNotSatisfied).
    """
    d = next(iter(u_images.values())).shape[0] if u_images else 1
    require_unitary_rep(pres, u_images, d, tol)
    one = np.eye(1, dtype=complex)
    samples = {"one": identity_op(1), "site00": finite_op({(0, 0): one}, 1),
               "site01": finite_op({(0, 1): one}, 1), "site11": finite_op({(1, 1): one}, 1)}
    return _doubled_module(poset, pres, frame, u_images, d, shift_op(1), samples)


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


def algebra_dimension(mats: list[np.ndarray]) -> int:
    """Linear dimension of the unital *-algebra generated by the matrices.

    Span closure over the seeds 1, M and M* for each matrix M: keep an
    orthonormal basis of the flattened elements found so far, multiply
    only the newest basis elements by the seeds, and add what is left of
    the products after projecting out the basis (singular values above
    `SPAN_TOL` relative to the largest product norm, at least 1).  The span is
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
        new = vh[:int(np.sum(s > SPAN_TOL * scale))]
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


def sector_window_columns(w_index: int, total: int) -> int:
    """Columns of the widest window `pi_index` probes on a sector module
    with cyclic vector at `w_index` and `total` colours: the w0 + 2 probe
    of `windowed_kernel` on the odd corner, in every colour."""
    return (stabilization_window(_pinned_shift(w_index)) + 2) * total


def build_sector_module(poset: Poset, pres: GroupPresentation,
                        frame: PathFrame, sector_dims: tuple[int, ...],
                        rho_images: dict[int, np.ndarray],
                        w_index: int = 0,
                        tol: float = CHECK_TOL) -> SectorModule:
    """Even module of a superselection sector with multiplicity blocks.

    The holonomy images must be block-diagonal along `sector_dims`
    (CentralityViolated otherwise) and pass `require_unitary_rep`.  The
    module is the doubled-fiber module of the shift pinned at `w_index`,
    which is both F's isometry and the charge-shift observable, so the
    index carries exactly the block action.  Observables: the one, the
    charge shift and the vacuum corner at `w_index`, as scalar-colour
    shift operators repeated in every multiplicity block.
    """
    sector_dims = tuple(int(d) for d in sector_dims)
    if not sector_dims or any(d <= 0 for d in sector_dims):
        raise FiberMismatch("sector dimensions must be positive")
    total = sum(sector_dims)
    sector = np.repeat(np.arange(len(sector_dims)), sector_dims)
    mask = sector[:, None] != sector[None, :]  # the entries across sectors
    for g, m in sorted(rho_images.items()):
        if m.shape != (total, total):
            raise FiberMismatch(f"generator {g} image has shape {m.shape}")
        leak = opnorm(np.where(mask, m, 0.0))
        if not leak <= tol:
            raise CentralityViolated(
                f"generator {g} image leaks across sectors ({leak:.3e})")
    require_unitary_rep(pres, rho_images, total, tol)
    sw = _pinned_shift(w_index)
    samples = {"one": identity_op(1), "charge-shift": sw,
               "vacuum-corner": finite_op({(w_index, w_index): np.eye(1, dtype=complex)}, 1)}
    module = _doubled_module(poset, pres, frame, rho_images, total, sw, samples)
    images = list(rho_images.values()) or [np.eye(total, dtype=complex)]
    return SectorModule(module, total, algebra_dimension(images))


# --------------------------------------------------------------- analysis

def bounded_transform(d: np.ndarray) -> np.ndarray:
    """Rational damping D(1 + D^2)^{-1} of a self-adjoint dense matrix.

    Note the normalization: this is x/(1+x^2) applied spectrally, not
    the customary x/sqrt(1+x^2), so eigenvalues land in [-1/2, 1/2].
    The module relations only need a self-adjoint F with F^2 - 1 and
    the commutators compact, which either form provides.
    """
    d = np.asarray(d, dtype=complex)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotSelfAdjoint("need a square matrix")
    if not selfadjoint_defect(d) <= CHECK_TOL:
        raise NotSelfAdjoint("matrix is not self-adjoint")
    return np.linalg.solve(np.eye(d.shape[0], dtype=complex) + d @ d, d)
