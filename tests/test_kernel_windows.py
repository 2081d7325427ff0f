"""Peeled kernel windows against the windows they replace.

Two references: the dense window of the first `window` columns, with
every row they reach, and the kernel of its full SVD (the windows
`windowed_kernel` took before pass-through pairs were peeled); and the
full-window peel (every column below the window assembled and searched
for pass-through pairs), which the window assembly must reproduce bit
for bit.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import dense_window, rng_for

from holonet.errors import NotFredholm
from holonet.fredholm import (
    EquivariantCycle,
    _kernel_window,
    _pinned_shift,
    build_sector_module,
    equivariant_cycle,
    localize,
    pi_index,
    stabilization_window,
    windowed_kernel,
)
from holonet.linalg import dagger, null_space, opnorm, random_unitary
from holonet.operators import (
    commutator,
    commutator_compact_defect,
    compact_defect,
    involution_residual,
    square_compact_defect,
)
from holonet.reports import DENSE_KERNEL_TOL
from holonet.shift_calculus import (
    ShiftOp,
    color_corner,
    dense_blocks,
    finite_op,
    identity_op,
    map_color,
    stripe_op,
)


def dense_reference(op):
    """(kernel dimensions at w0, w0 + 1 and w0 + 2, kernel basis at w0)
    from full SVDs of the dense windows."""
    w0 = stabilization_window(op)
    kernels = [null_space(dense_window(op, w), DENSE_KERNEL_TOL)
               for w in (w0, w0 + 1, w0 + 2)]
    return [k.shape[1] for k in kernels], kernels[0]


def projector(basis):
    return basis @ dagger(basis)


def is_scalar_colour(op):
    """Whether op is S tensor I_d for d > 1: every colour matrix is
    exactly m[0, 0] times the identity."""
    eye = np.eye(op.d_in)
    return op.d_in > 1 and all(np.array_equal(m, m[0, 0] * eye)
                               for m in (*op.stripes.values(), *op.finite.values()))


def random_window_op(rng):
    """A shift-class operator on 1 to 3 colours: one or two stripes with
    offsets -2..2 and rational phases, colour matrices that are scalar
    multiples of I_d, unitaries or projections, and up to three
    finite blocks on the first five sites, some of them cancelling a
    stripe entry exactly."""
    d = int(rng.integers(1, 4))
    scalar = d > 1 and bool(rng.integers(0, 2))
    eye = np.eye(d, dtype=complex)

    def colour(scale):
        if scalar:
            return scale * np.exp(2j * np.pi * rng.random()) * eye
        if rng.random() < 0.3:
            return scale * np.diag((rng.random(d) < 0.5).astype(complex))
        return scale * random_unitary(rng, d)

    def phase():
        return Fraction(int(rng.integers(0, 5)), int(rng.integers(1, 6)))

    op = stripe_op(int(rng.integers(-2, 3)), colour(1.0), phase())
    if rng.random() < 0.4:
        op = op + stripe_op(int(rng.integers(-2, 3)), colour(0.3), phase())
    blocks = {}
    for _ in range(int(rng.integers(0, 4))):
        r, s = int(rng.integers(5)), int(rng.integers(5))
        m = (complex(rng.standard_normal(), rng.standard_normal()) * eye if scalar
             else rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        blocks[(r, s)] = m
    if op.stripes and rng.random() < 0.3:
        # cancel the stripe entry of some site exactly
        (k, c), m = next(iter(op.stripes.items()))
        s = int(rng.integers(max(0, -k), 5))
        blocks[(s + k, s)] = -op.site_blocks([s])[(s + k, s)]
    return op + finite_op(blocks, d)


def test_peeled_windows_match_the_dense_windows():
    counts = {"scalar": 0, "matrix": 0, "phased": 0, "kernel": 0, "not_fredholm": 0}
    for seed in range(200):
        op = random_window_op(rng_for(9100 + seed))
        dims, ref = dense_reference(op)
        w0 = stabilization_window(op)
        peeled = [_kernel_window(op, w, DENSE_KERNEL_TOL) for w in (w0, w0 + 1, w0 + 2)]
        assert [k.shape[1] for k in peeled] == dims, seed
        assert opnorm(projector(peeled[0]) - projector(ref)) <= 1e-10, seed
        if op.stripes and dims[0] == dims[1] == dims[2]:
            kernel, window = windowed_kernel(op)
            assert window == w0
            assert opnorm(projector(kernel) - projector(ref)) <= 1e-10, seed
            counts["kernel"] += dims[0] > 0
        else:
            with pytest.raises(NotFredholm):
                windowed_kernel(op)
            counts["not_fredholm"] += 1
        counts["scalar" if is_scalar_colour(op) else "matrix"] += op.d_in > 1
        counts["phased"] += any(c != 0 for _, c in op.stripes)
    assert min(counts.values()) >= 10, counts


@pytest.mark.parametrize("w", [0, 1, 5, 128])
def test_pinned_shift_kernel_is_one_site(w):
    kernel, w0 = windowed_kernel(_pinned_shift(w).H)
    assert kernel.shape == (w0, 1)
    assert np.flatnonzero(kernel[:, 0]).tolist() == [w]
    assert abs(kernel[w, 0]) == 1.0
    assert windowed_kernel(_pinned_shift(w))[0].shape[1] == 0


def test_a_cancelled_stripe_entry_is_a_kernel_site():
    op = identity_op(2) + finite_op({(2, 2): -np.eye(2)}, 2)
    assert (2, 2) not in op.site_blocks(range(4))
    kernel, w0 = windowed_kernel(op)
    dims, ref = dense_reference(op)
    assert dims == [2, 2, 2]
    assert opnorm(projector(kernel) - projector(ref)) <= 1e-12
    assert np.flatnonzero(np.any(kernel, axis=1)).tolist() == [4, 5]


def test_an_isolated_singular_block_is_not_peeled():
    # the block at site 1 is diag(1, 0): the only block of its row and
    # column, square, but singular, so its second colour is a kernel
    op = identity_op(2) + finite_op({(1, 1): np.diag([0.0, -1.0])}, 2)
    assert list(op.site_blocks([1])) == [(1, 1)]
    kernel, w0 = windowed_kernel(op)
    expected = np.zeros((2 * w0, 1))
    expected[3, 0] = 1.0
    assert np.array_equal(np.abs(kernel), expected)


def widest_svd(monkeypatch, call):
    """The widest matrix side that `call()` hands to numpy's SVD."""
    seen = [0]
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        seen[0] = max(seen[0], *np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", recording)
        call()
    return seen[0]


def test_sector_index_decomposes_matrices_of_a_few_sites(hexagon_pfp, monkeypatch):
    poset, pres, frame = hexagon_pfp
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = random_unitary(rng_for(23), 2)
    rho[2, 2] = np.exp(0.7j)
    widths = []
    for w in (16, 1024):
        sec = build_sector_module(poset, pres, frame, (2, 1), {1: rho}, w_index=w)
        cycle = equivariant_cycle(localize(sec.module, frame.base))
        widths.append(widest_svd(monkeypatch, lambda: pi_index(cycle)))
    assert widths[0] == widths[1] <= 2 * 3  # two sites of three colours


def test_sector_index_materializes_no_window(hexagon_pfp, monkeypatch):
    poset, pres, frame = hexagon_pfp
    sec = build_sector_module(poset, pres, frame, (2, 1),
                              {1: np.diag(np.exp([0.3j, 0.3j, 1.1j]))}, w_index=1024)
    cycle = equivariant_cycle(localize(sec.module, frame.base))

    def refuse(*args):
        raise AssertionError("a dense window was materialized")

    with monkeypatch.context() as m:
        m.setattr(ShiftOp, "materialize", refuse)
        idx = pi_index(cycle)
    assert [b.dim for b in idx.plus] == [3] and idx.minus == ()
    assert abs(idx.character((1,)) - (2 * np.exp(0.3j) + np.exp(1.1j))) <= 1e-12


def test_a_block_alone_in_its_row_only_is_not_peeled():
    # row 0 holds only the block at column 0, but column 0 also reaches
    # row 1: peeling it would leave [1e-6], while the window's smallest
    # singular value is about 1e-9, a kernel at the 1e-8 threshold
    op = finite_op({(0, 0): np.eye(1), (1, 0): 1e3 * np.eye(1),
                    (1, 1): 1e-6 * np.eye(1)}, 1)
    assert null_space(dense_window(op, 2), DENSE_KERNEL_TOL).shape[1] == 1
    assert _kernel_window(op, 2, DENSE_KERNEL_TOL).shape[1] == 1


def test_kernel_action_on_two_sites_with_a_row_outside_them(hexagon_pfp):
    # the odd corner 1 - P, P the projection onto (e1 + e2) / sqrt 2, has
    # that vector as kernel on both sides; the holonomy adds e0 (x1 - x2),
    # which vanishes on the kernel but reaches row 0, below its sites
    poset, pres, frame = hexagon_pfp
    half = 0.5 * np.eye(1, dtype=complex)
    t = identity_op(1) - finite_op({(1, 1): half, (1, 2): half,
                                    (2, 1): half, (2, 2): half}, 1)
    down, up = np.array([[0, 0], [1, 0]]), np.array([[0, 1], [0, 0]])
    phi = (map_color(t, lambda m: m[0, 0] * down)
           + map_color(t.H, lambda m: m[0, 0] * up))
    grad = stripe_op(0, np.diag([1.0, -1.0]))
    u = identity_op(2) + finite_op({(0, 1): np.eye(2), (0, 2): -np.eye(2)}, 2)
    idx = pi_index(EquivariantCycle({}, {1: u}, phi, grad, "even", pres))
    assert [b.dim for b in idx.plus] == [b.dim for b in idx.minus] == [1]
    for b in idx.plus + idx.minus:
        assert abs(b.images[1][0, 0] - 1.0) <= 1e-12


def test_non_square_blocks_are_not_peeled():
    # a 1 x 2 block has a kernel of its own; neither block is square
    for m in (np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]])):
        op = stripe_op(-1, m)
        for w in (1, 2, 5):
            want = null_space(dense_window(op, w), DENSE_KERNEL_TOL).shape[1]
            assert _kernel_window(op, w, DENSE_KERNEL_TOL).shape[1] == want


# ------------------------------------------------- the full-window peel

def full_peel_pairs(op, blocks, sv_tol):
    """The pass-through pairs of a fully assembled window: blocks alone
    in their row and column, square, with smallest singular value above
    `sv_tol`, taken from the colour matrix of a stripe alone at its offset
    and from the block itself otherwise."""
    rows = Counter(r for r, _ in blocks)
    cols = Counter(s for _, s in blocks)
    single = [(r, s) for r, s in blocks if rows[r] == 1 == cols[s]]
    if op.d_out != op.d_in or not single:
        return set()
    offsets = Counter(k for k, _ in op.stripes)
    alone = {k: m for (k, _), m in op.stripes.items() if offsets[k] == 1}
    mixed = {(r, s) for r, s in single if (r, s) in op.finite or r - s not in alone}
    mats = np.stack([*alone.values(), *(blocks[rs] for rs in mixed)])
    good = np.linalg.svd(mats, compute_uv=False)[:, -1] > sv_tol
    invertible = dict(zip([*alone, *mixed], good.tolist()))
    return {(r, s) for r, s in single
            if invertible[(r, s) if (r, s) in mixed else r - s]}


def full_peel(op, window, sv_tol=DENSE_KERNEL_TOL):
    """Every column below `window` through `site_blocks`, its pairs peeled,
    the residual's dense null space re-embedded in window coordinates."""
    blocks = op.site_blocks(range(window))
    pairs = full_peel_pairs(op, blocks, sv_tol)
    rows = sorted({r for r, _ in blocks} - {r for r, _ in pairs})
    cols = sorted(set(range(window)) - {s for _, s in pairs})
    kernel = null_space(dense_blocks(blocks, rows, cols, op.d_out, op.d_in), sv_tol)
    out = np.zeros((window * op.d_in, kernel.shape[1]), dtype=complex)
    at = (np.asarray(cols, dtype=int)[:, None] * op.d_in + np.arange(op.d_in)).ravel()
    out[at] = kernel
    return out


def full_peel_kernel(op):
    """`windowed_kernel` on full-window peels: (kernel at w0, w0), or the
    message of its NotFredholm."""
    if not op.stripes:
        return "no shift part: every window has a kernel beyond it"
    w0 = stabilization_window(op)
    kernels = [full_peel(op, w) for w in (w0, w0 + 1, w0 + 2)]
    dims = [k.shape[1] for k in kernels]
    if dims[0] != dims[1] or dims[1] != dims[2]:
        return f"kernel window does not stabilize: dims {dims}"
    return kernels[0], w0


def windowed_or_message(op):
    try:
        return windowed_kernel(op)
    except NotFredholm as exc:
        return str(exc)


def random_class_op(rng, d=None):
    """A square shift-class operator on d colours (1 to 3 if not given).  Mostly one
    offset with 1 to 3 phases of denominators dividing 12, colour
    matrices that are unitary, scalar or singular, now and then a pair of
    stripes that cancels on every other row or is singular there; else
    stripes on two or three offsets.  Up to three finite blocks on the
    first five sites, one of them now and then cancelling a stripe entry."""
    d = int(rng.integers(1, 4)) if d is None else d
    eye = np.eye(d, dtype=complex)

    def colour():
        kind = rng.random()
        if kind < 0.2:
            return np.diag((rng.random(d) < 0.5).astype(complex))
        if kind < 0.35:
            return complex(np.exp(2j * np.pi * rng.random())) * eye
        return random_unitary(rng, d) * (1.0 if rng.random() < 0.7 else 0.3)

    def phase():
        q = int(rng.choice([1, 2, 3, 4, 6, 12]))
        return Fraction(int(rng.integers(0, q)), q)

    single = rng.random() < 0.75
    k = int(rng.integers(-2, 3))
    c, m = phase(), colour()
    op = stripe_op(k, m, c)
    pair = rng.random()
    if single and pair < 0.2:
        op = op + stripe_op(k, -m, c + Fraction(1, 2))  # zero on even rows
    elif single and pair < 0.35:
        flip = np.diag(np.where(np.arange(d) % 2 == 0, 1.0, -1.0))
        op = op + stripe_op(k, m @ flip, c + Fraction(1, 2))  # singular classes
    for _ in range(int(rng.integers(0, 3))):
        op = op + stripe_op(k if single else int(rng.integers(-2, 3)), colour(), phase())
    blocks = {}
    for _ in range(int(rng.integers(0, 4))):
        r, s = int(rng.integers(5)), int(rng.integers(5))
        blocks[(r, s)] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if op.stripes and rng.random() < 0.3:
        (k0, _), _ = next(iter(op.stripes.items()))
        s = int(rng.integers(max(0, -k0), 5))
        entry = op.site_blocks([s]).get((s + k0, s))
        if entry is not None:
            blocks[(s + k0, s)] = -entry
    return op + finite_op(blocks, d)


def same_result(got, want):
    if isinstance(want, str):
        return got == want
    return (not isinstance(got, str) and got[1] == want[1]
            and got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes())


def test_kernel_windows_are_bitwise_the_full_window_peel():
    counts = Counter()
    for seed in range(300):
        op = random_class_op(rng_for(9400 + seed))
        for side in (op, op.H):
            got = windowed_or_message(side)
            assert same_result(got, full_peel_kernel(side)), seed
            a = side.window_assembly(0)
            if a.offset is None:
                counts["offsets"] += len({k for k, _ in side.stripes}) >= 2
                continue
            counts["single"] += 1
            counts["phases"] += len(side.stripes) >= 2
            counts["period"] += a.period >= 3
            counts["finite"] += bool(side.finite)
            counts["zero class"] += any(m is None for m in a.bulk.values())
            counts["singular class"] += any(
                m is not None and np.linalg.svd(m, compute_uv=False)[-1] <= DENSE_KERNEL_TOL
                for m in a.bulk.values())
            counts["not Fredholm"] += isinstance(got, str)
        # any window, on a fresh operator and after wider ones
        fresh = random_class_op(rng_for(9400 + seed))
        w0 = stabilization_window(fresh)
        for w in (w0 + 5, 0, 1, w0 - 1, w0, w0 + 3, 2 * w0 + 7):
            want = full_peel(fresh, max(w, 0))
            got = _kernel_window(fresh, max(w, 0), DENSE_KERNEL_TOL)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, w)
    assert min(counts[key] for key in ("offsets", "single", "phases", "period", "finite",
                                       "zero class", "singular class", "not Fredholm")) >= 10, counts


def test_sector_corner_windows_are_bitwise_the_full_window_peel(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = random_unitary(rng_for(31), 2)
    rho[2, 2] = np.exp(0.4j)
    for w_index in (0, 1, 5, 40):
        sec = build_sector_module(poset, pres, frame, (2, 1), {1: rho}, w_index=w_index)
        corner = color_corner(sec.module.F[frame.base], range(3, 6), range(3))
        for side in (corner, corner.H):
            assert same_result(windowed_or_message(side), full_peel_kernel(side)), w_index


def test_compact_defects_are_bitwise_the_full_products():
    """The compact-defect helpers work on stripe parts; the full products
    give the same float bits, and a dense operand gives 0.0."""
    for seed in range(300):
        rng = rng_for(9700 + seed)
        a = random_class_op(rng)
        b = random_class_op(rng, a.d_in)
        full_square = compact_defect(involution_residual(a))
        assert square_compact_defect(a).hex() == full_square.hex(), seed
        assert (commutator_compact_defect(a, b).hex()
                == compact_defect(commutator(a, b)).hex()), seed
    dense = random_unitary(rng_for(9699), 3)
    assert square_compact_defect(2.0 * dense) == commutator_compact_defect(dense, dense.T) == 0.0
