"""ShiftOp arithmetic builds its results directly in the normal form of
the validating constructor.  Each result is compared, key by key and
byte by byte, with a reference that states every operation through the
constructor, as the calculus was first written: `op_equal` and
`np.array_equal` cannot see a -0.0 or a zero block that was kept."""

from fractions import Fraction

import numpy as np
import pytest

from holonet.errors import FiberMismatch
from holonet.linalg import dagger
from holonet.shift_calculus import (
    ShiftOp,
    _scale,
    cispi_frac,
    color_corner,
    map_color,
    stripe_op,
)

F = Fraction


# ------------------------------------------- constructor-based reference

def ref_add(a, b):
    stripes = {k: v.copy() for k, v in a.stripes.items()}
    for k, v in b.stripes.items():
        stripes[k] = stripes.get(k, 0) + v
    finite = {k: v.copy() for k, v in a.finite.items()}
    for k, v in b.finite.items():
        finite[k] = finite.get(k, 0) + v
    return ShiftOp(a.d_out, a.d_in, stripes, finite)


def ref_mul(a, z):
    return ShiftOp(a.d_out, a.d_in, {k: z * v for k, v in a.stripes.items()},
                   {k: z * v for k, v in a.finite.items()})


def ref_sub(a, b):
    return ref_add(a, ref_mul(b, -1.0))


def ref_matmul(a, b):
    stripes, finite = {}, {}

    def add_stripe(k, c, m):
        stripes[(k, c % 1)] = stripes.get((k, c % 1), 0) + m

    def add_finite(r, s, m):
        finite[(r, s)] = finite.get((r, s), 0) + m

    for (k1, c1), m1 in a.stripes.items():
        for (k2, c2), m2 in b.stripes.items():
            k, c = k1 + k2, c1 + c2
            m = _scale(cispi_frac(-c2 * k1), m1 @ m2)
            add_stripe(k, c, m)
            for row in range(max(0, k), max(0, k1, k)):
                add_finite(row, row - k, _scale(-cispi_frac(c * row), m))
        for (r, s), m2 in b.finite.items():
            if r + k1 >= max(0, k1):
                add_finite(r + k1, s, _scale(cispi_frac(c1 * (r + k1)), m1 @ m2))
    for (r, s), m1 in a.finite.items():
        for (k2, c2), m2 in b.stripes.items():
            if s >= max(0, k2):
                add_finite(r, s - k2, _scale(cispi_frac(c2 * s), m1 @ m2))
        for (r2, s2), m2 in b.finite.items():
            if s == r2:
                add_finite(r, s2, m1 @ m2)
    return ShiftOp(a.d_out, b.d_in, stripes, finite)


def ref_adjoint(a):
    stripes = {(-k, -c % 1): _scale(cispi_frac(-c * k), dagger(m))
               for (k, c), m in a.stripes.items()}
    return ShiftOp(a.d_in, a.d_out, stripes,
                   {(s, r): dagger(m) for (r, s), m in a.finite.items()})


def ref_map_color(op, f):
    stripes = {k: np.asarray(f(m), dtype=complex) for k, m in op.stripes.items()}
    finite = {k: np.asarray(f(m), dtype=complex) for k, m in op.finite.items()}
    shape = [*stripes.values(), *finite.values()][0].shape
    return ShiftOp(*shape, stripes, finite)


def ref_color_corner(op, rows, cols):
    sel = np.ix_(rows, cols)
    return ShiftOp(len(rows), len(cols), {k: m[sel] for k, m in op.stripes.items()},
                   {k: m[sel] for k, m in op.finite.items()})


def ref_site_blocks(op, cols):
    cols = set(cols)
    out = {(r, s): 0 + m for (r, s), m in op.finite.items() if s in cols}
    for (k, c), m in op.stripes.items():
        for s in cols:
            row = s + k
            if row < 0:
                continue
            v = m if c == 0 else _scale(cispi_frac(c * row), m)
            out[(row, s)] = out[(row, s)] + v if (row, s) in out else 0 + v
    return {rs: b for rs, b in out.items() if np.any(b)}


def assert_same_blocks(got, want):
    assert list(got) == list(want)
    for key in want:
        assert type(key[0]) is int and type(key[1]) in (int, Fraction), key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


def assert_same(got, want):
    assert (got.d_out, got.d_in) == (want.d_out, want.d_in)
    assert_same_blocks(got.stripes, want.stripes)
    assert_same_blocks(got.finite, want.finite)
    assert all(m.any() for m in [*got.stripes.values(), *got.finite.values()])


# ----------------------------------------------------------- the operands

def color(rng, d_out, d_in):
    """Small integers, -0.0 and Gaussians, so that sums and products
    cancel exactly now and then and negative zeros meet the arithmetic."""
    kind = int(rng.integers(3))
    if kind == 0:
        m = rng.integers(-1, 2, (d_out, d_in)) + 1j * rng.integers(-1, 2, (d_out, d_in))
        return np.where(rng.random((d_out, d_in)) < 0.3, -0.0, m)
    if kind == 1:
        return np.where(rng.random((d_out, d_in)) < 0.5, -0.0 - 0.0j,
                        rng.standard_normal((d_out, d_in)))
    return rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))


def random_op(rng, d_out, d_in):
    stripes = {}
    for _ in range(int(rng.integers(0, 4))):
        q = int(rng.integers(1, 13))
        stripes[(int(rng.integers(-3, 4)), F(int(rng.integers(0, 2 * q)), q))] = \
            color(rng, d_out, d_in)
    finite = {(int(rng.integers(6)), int(rng.integers(6))): color(rng, d_out, d_in)
              for _ in range(int(rng.integers(0, 7)))}
    return ShiftOp(d_out, d_in, stripes, finite)


def cancelling(rng, a):
    """An operator sharing some blocks of a, negated, so a + it drops them."""
    keep = rng.random(len(a.stripes) + len(a.finite)) < 0.5
    stripes = {k: -m for k, m, x in zip(a.stripes, a.stripes.values(), keep) if x}
    finite = {k: -m for k, m, x in zip(a.finite, a.finite.values(),
                                       keep[len(a.stripes):]) if x}
    return ShiftOp(a.d_out, a.d_in, stripes, finite)


SCALARS = [-1.0, 0, 2, 1j, -0.5 + 0.25j, 1.0]


@pytest.mark.parametrize("seed", range(12))
def test_arithmetic_is_bitwise_the_constructor_form(seed):
    rng = np.random.default_rng(1900 + seed)
    for _ in range(15):
        d = int(rng.integers(1, 5))
        a, b, c = (random_op(rng, d, d) for _ in range(3))
        minus_a = cancelling(rng, a)
        assert_same(a + b, ref_add(a, b))
        assert_same(a + minus_a, ref_add(a, minus_a))
        assert_same(a - b, ref_sub(a, b))
        assert_same(a - a, ref_sub(a, a))
        assert not (a - a).stripes and not (a - a).finite
        assert_same(-a, ref_mul(a, -1.0))
        for z in SCALARS:
            assert_same(z * a, ref_mul(a, z))
            assert_same(a * z, ref_mul(a, z))
        assert_same(a.H, ref_adjoint(a))
        ab = a @ b
        assert_same(ab, ref_matmul(a, b))
        assert_same(a @ minus_a, ref_matmul(a, minus_a))
        # results are operands again
        assert_same(ab @ c.H, ref_matmul(ref_matmul(a, b), ref_adjoint(c)))
        assert_same((ab + c) @ (a - c), ref_matmul(ref_add(ab, c), ref_sub(a, c)))


@pytest.mark.parametrize("seed", range(6))
def test_colour_maps_are_bitwise_the_constructor_form(seed):
    rng = np.random.default_rng(2000 + seed)
    for _ in range(15):
        d = int(rng.integers(1, 5))
        a = random_op(rng, d, d) @ random_op(rng, d, d)
        rows = list(rng.permutation(d)[:int(rng.integers(1, d + 1))])
        cols = list(rng.permutation(d)[:int(rng.integers(1, d + 1))])
        assert_same(color_corner(a, rows, cols), ref_color_corner(a, rows, cols))
        if not a.stripes and not a.finite:
            continue
        for f in (lambda m: -m, lambda m: m[:1, :] * 0.0,
                  lambda m: np.kron(np.eye(2), m), lambda m: m[0, 0] * np.eye(3)):
            assert_same(map_color(a, f), ref_map_color(a, f))


@pytest.mark.parametrize("seed", range(6))
def test_site_blocks_are_bitwise_the_reference(seed):
    rng = np.random.default_rng(2100 + seed)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        a = random_op(rng, d, d) + random_op(rng, d, d).H
        cols = [int(s) for s in rng.permutation(9)[:int(rng.integers(0, 9))]]
        assert_same_blocks(a.site_blocks(cols), ref_site_blocks(a, cols))
        # a window assembly, also a narrower window after a wider one: the
        # blocks of its touched columns and of its bulk representatives
        w = int(rng.integers(0, 10))
        for op in (a, random_op(rng, d, d)):
            for width in (w + 2, w, w + 1, w + 2):
                got = op.window_assembly(width)
                touched = [s for s in got.touched if s < width]
                assert_same_blocks({rs: m for rs, m in got.blocks.items() if rs[1] < width},
                                   ref_site_blocks(op, touched))
                for (r, s), m in got.bulk.items():
                    assert s not in got.touched
                    assert_same_blocks({} if m is None else {(r, s): m},
                                       ref_site_blocks(op, [s]))


def test_non_integral_offsets_and_sites_are_rejected():
    one = np.eye(1)
    with pytest.raises(FiberMismatch, match="offset"):
        stripe_op(0.5, one)
    with pytest.raises(FiberMismatch, match="site"):
        ShiftOp(1, 1, finite={(1.5, 0): one, (1, 0): one})
    with pytest.raises(FiberMismatch, match="site"):
        ShiftOp(1, 1, finite={(0, np.float64(2.5)): one})
    with pytest.raises(FiberMismatch, match="offset"):
        ShiftOp(1, 1, {(float("nan"), F(0)): one})
    # integral numpy ints, and integral floats, are their integers
    op = ShiftOp(1, 1, {(np.int64(2), F(1, 3)): one, (-1.0, F(0)): one},
                 {(np.int32(1), np.uint8(0)): one})
    assert list(op.stripes) == [(2, F(1, 3)), (-1, F(0))]
    assert list(op.finite) == [(1, 0)]
    assert all(type(k) is int for k, _ in op.stripes)
    assert all(type(x) is int for key in op.finite for x in key)
