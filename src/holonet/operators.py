"""Uniform operations over dense matrices, shift-type operators and
block permutations, and the one layer of word and path products built
on them.

Fredholm modules come in two flavors: finite rank fibers (plain numpy
arrays) and shift-type fibers (ShiftOp); nets of algebras carry
`representation.BlockHom` fibers, block permutations when the net is a
net bundle.  All three compose with `@` and take adjoints with `adj`
(for a block permutation, its inverse `.H`), so the verification code,
the word product and the transport step treat them the same way.  In
finite dimensions every operator is compact, so the compactness defect
of a dense operator is zero by definition.

Identity rule: every carrier (a bundle, a net of algebras or a sampled
representation) holds one identity object, `x.ident`, which its tree
edges and diagonal `x.u(o, o)` return.  The word product, the transport
step and `conjugate` skip each product in which an operand *is* that
object and pass the other operand on by reference.  A product with an exact
identity reproduces its operand up to the sign of a zero, so the results
agree with the full products under `op_equal` and `np.array_equal`.
"""

from __future__ import annotations

import numpy as np

from .errors import FiberMismatch
from .linalg import dagger, first_over, opnorm, opnorms
from .shift_calculus import ShiftOp, identity_op, op_equal


def adj(x):
    """Adjoint of a matrix or ShiftOp; inverse of a block permutation."""
    if isinstance(x, np.ndarray):
        return dagger(x)
    return x.H


def identity_like(x):
    if isinstance(x, ShiftOp):
        if x.d_out != x.d_in:
            raise ValueError("identity needs square color dimensions")
        return identity_op(x.d_out)
    return np.eye(x.shape[0], dtype=complex)


def stripe_part(x):
    """A ShiftOp without its finite part, unvalidated and sharing its
    stripes; a dense operand as it is.  The stripes of a sum, a
    negation, a product or an adjoint come from the stripes of the
    operands alone, so a compact defect (the stripe weight) taken on
    stripe parts is bit for bit the one taken on the full operators."""
    if isinstance(x, ShiftOp):
        return ShiftOp._normal(x.d_out, x.d_in, x.stripes, {})
    return x


def compact_defect(x) -> float:
    if isinstance(x, ShiftOp):
        return x.compact_defect()
    return 0.0


def zero_defect(x) -> float:
    """Upper bound for the distance to the zero operator."""
    if isinstance(x, ShiftOp):
        return x.norm_upper()
    return opnorm(x)


def commutator(a, b):
    return a @ b - b @ a


# Relations, each written once as a residual: a pure function of its
# operands, zero exactly when the relation holds.  Its defect is the norm
# of the residual, alone (`zero_defect`) or in a stack (`residual_defects`).

def selfadjoint_residual(x):
    return x - adj(x)


def unitarity_residual(u):
    return adj(u) @ u - identity_like(u)


def involution_residual(g):
    return g @ g - identity_like(g)


def anticommutator_residual(a, b):
    return a @ b + b @ a


def intertwining_residual(u, a, b):
    """Residual of u a = b u: u carries a to b."""
    return u @ a - b @ u


def coherence_residual(u02, u12, u01):
    """Residual of u02 = u12 u01 along a 2-chain."""
    return u02 - u12 @ u01


def selfadjoint_defect(x) -> float:
    return zero_defect(selfadjoint_residual(x))


def unitarity_defect(u) -> float:
    return zero_defect(unitarity_residual(u))


def square_compact_defect(f) -> float:
    """How far f squared is from the identity, modulo compacts: 0.0 for a
    dense f, with no product formed, and for a ShiftOp the stripe weight
    of f^2 - 1, taken on f's `stripe_part`."""
    if not isinstance(f, ShiftOp):
        return 0.0
    return compact_defect(involution_residual(stripe_part(f)))


def commutator_compact_defect(a, b) -> float:
    """The compact defect of [a, b]: 0.0 for dense operands, with no
    product formed, and otherwise taken on their `stripe_part`s."""
    if not (isinstance(a, ShiftOp) or isinstance(b, ShiftOp)):
        return 0.0
    return compact_defect(commutator(stripe_part(a), stripe_part(b)))


def residual_defects(residuals: list) -> np.ndarray:
    """The defect of each residual, bitwise as measured one by one: a
    matrix's norm, a stack's largest norm, a ShiftOp's `zero_defect`, and
    sum_k |P_k| |Q_k| for a factor pair (P, Q) of equal stacks; a float
    is a defect measured already.  Dense residuals of one dtype and matrix
    shape, pairs included, are measured in one `opnorms` call."""
    dense = [np.concatenate(r) if isinstance(r, tuple) else r for r in residuals]
    out = [r if isinstance(r, (float, np.ndarray)) else zero_defect(r) for r in dense]
    groups: dict = {}
    for i, r in enumerate(dense):
        if isinstance(r, np.ndarray):
            groups.setdefault((r.dtype, r.shape[-2:]), []).append(i)
    for (_, shape), idx in groups.items():
        stacks = [dense[i].reshape((-1,) + shape) for i in idx]
        norms, k = opnorms(np.concatenate(stacks)), 0
        for i, s in zip(idx, stacks):
            n, k, h = norms[k:k + len(s)], k + len(s), len(s) // 2
            out[i] = sum(n[:h] * n[h:]) if isinstance(residuals[i], tuple) else n.max(initial=0.0)
    return np.array(out, dtype=float)


def is_exactly_zero(x) -> bool:
    if isinstance(x, ShiftOp):
        return not x.stripes and not x.finite
    return not np.any(x)


def operators_equal_exact(a, b) -> bool:
    if isinstance(a, ShiftOp) and isinstance(b, ShiftOp):
        return op_equal(a, b)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return False


def compose(a, b, ident):
    """a @ b, or the other operand itself when one of them is `ident`."""
    if a is ident:
        return b
    if b is ident:
        return a
    return a @ b


def conjugate(w, a, ident):
    """w a w*, or `a` itself when w is `ident`."""
    if w is ident:
        return a
    return compose(w, a, ident) @ adj(w)


def evaluate_word_ops(letters, images: dict, ident):
    """Product of images over signed 1-based letters, last letter first.

    The empty word is `ident` itself and a one-letter word with a
    positive letter is that generator's image itself (identity rule)."""
    out = ident
    for l in reversed(tuple(letters)):
        m = images[abs(l)]
        out = compose(m if l > 0 else adj(m), out, ident)
    return out


def require_unitary(images: dict, tol: float, error) -> None:
    """Raise `error` on the first generator image, in generator order,
    whose unitarity defect is not within `tol`."""
    gens = sorted(images)
    defects = residual_defects([unitarity_residual(images[g]) for g in gens])
    k = first_over(defects, tol)
    if k is not None:
        raise error(f"generator {gens[k]} image is not unitary ({defects[k]:.3e})")


def relator_defects(pres, images: dict, ident) -> np.ndarray:
    """How far each relator of `pres`, evaluated on the generator images,
    is from `ident`; dense relators are measured in one stack."""
    words = [evaluate_word_ops(r.letters, images, ident) for r in pres.relators]
    if isinstance(ident, np.ndarray):
        return opnorms(np.array(words).reshape((-1,) + ident.shape) - ident)
    return np.array([zero_defect(w - ident) for w in words])


def require_generators(pres, images: dict) -> None:
    """Raise FiberMismatch unless every generator of `pres` has an image."""
    if not set(range(1, len(pres.generators) + 1)) <= set(images):
        raise FiberMismatch("missing generator images")


def require_relators(pres, images: dict, ident, tol: float, error) -> None:
    """Raise `error` on the first relator of `pres` that does not evaluate
    on the generator images to `ident` within `tol`."""
    require_relator_defects(pres, relator_defects(pres, images, ident), tol, error)


def require_relator_defects(pres, defects, tol: float, error) -> None:
    """Raise `error` on the first relator of `pres` whose measured defect
    (`relator_defects`) is not within `tol`."""
    k = first_over(defects, tol)
    if k is not None:
        raise error(f"relator {pres.relators[k]} has defect {defects[k]:.3e}")


def transport_step(x, t, s):
    """The transport t followed by the segment s of a path (up from
    s.face1 into the support, then down to s.face0), through the edge
    operators x.u of a bundle or a sampled representation.

    Evaluated as (adj(down) @ up) @ t, skipping each product with the
    carrier's identity object x.ident: one face of a hop is its support,
    where x.u is x.ident, and on a flat carrier every tree edge is
    x.ident, so a frame transport there is x.ident itself.  From
    t = x.ident, the step is the segment's operator itself."""
    ident = x.ident
    down = x.u(s.face0, s.support)
    up = x.u(s.face1, s.support)
    step = up if down is ident else compose(adj(down), up, ident)
    return compose(step, t, ident)
