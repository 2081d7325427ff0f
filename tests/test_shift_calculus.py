from fractions import Fraction

import numpy as np
import pytest

from holonet.errors import FiberMismatch
from holonet.shift_calculus import (
    ShiftOp,
    _scale,
    cispi_frac,
    color_corner,
    dense_blocks,
    finite_op,
    identity_op,
    map_color,
    op_equal,
    shift_op,
    site_projection_op,
    stripe_op,
)

F = Fraction


def modulation(c, d=1):
    """Diagonal modulation: site m carries the phase exp(2 pi i c m)."""
    return stripe_op(0, np.eye(d), c)


# independent dense oracle: stripes via offset eye and a phase diagonal,
# blocks via kron with a matrix unit; no code shared with materialize

def dense_stripe(k, c, m, sites):
    ph = np.diag([np.exp(2j * np.pi * float(c) * row) for row in range(sites)])
    return np.kron(ph @ np.eye(sites, k=-k), m)


def dense_finite(r, s, m, sites):
    e = np.zeros((sites, sites))
    e[r, s] = 1.0
    return np.kron(e, m)


def dense_of(op, sites):
    d = op.d_out
    out = np.zeros((sites * d, sites * op.d_in), dtype=complex)
    for (k, c), m in op.stripes.items():
        out += dense_stripe(k, c, m, sites)
    for (r, s), m in op.finite.items():
        out += dense_finite(r, s, m, sites)
    return out


# ------------------------------------------------------- exact identities

def test_shift_isometry_exact():
    s = shift_op(1)
    assert op_equal(s.H @ s, identity_op(1))
    assert op_equal(s @ s.H, identity_op(1) - site_projection_op(1, 1))


def test_shift_isometry_exact_with_color():
    s = shift_op(3)
    assert op_equal(s.H @ s, identity_op(3))
    assert op_equal(s @ s.H, identity_op(3) - site_projection_op(1, 3))


def test_half_modulation_anticommutes_with_shift():
    s, d = shift_op(1), modulation(F(1, 2))
    assert op_equal(d @ s, -1.0 * (s @ d))
    assert op_equal(d @ s + s @ d, ShiftOp(1, 1))


def test_rational_modulations_compose_to_identity():
    d = modulation(F(1, 3))
    assert op_equal(d @ d @ d, identity_op(1))


def test_cispi_quarter_values_exact():
    assert cispi_frac(F(0)) == 1.0 + 0.0j
    assert cispi_frac(F(1, 2)) == -1.0 + 0.0j
    assert cispi_frac(F(1, 4)) == 1.0j
    assert cispi_frac(F(5, 4)) == 1.0j
    assert abs(cispi_frac(F(1, 3)) - np.exp(2j * np.pi / 3)) < 1e-15


def test_difference_with_self_is_exact_zero():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = stripe_op(2, m, F(2, 5)) + finite_op({(1, 3): m}, 2)
    assert not (a - a).stripes and not (a - a).finite
    assert op_equal(a - a, ShiftOp(2, 2))


def test_zero_matrices_are_dropped():
    z = stripe_op(1, np.zeros((2, 2)))
    assert not z.stripes and not z.finite
    assert op_equal(z, ShiftOp(2, 2))


# ------------------------------------------------------------- the oracle

PHASES = [F(0), F(1, 2), F(1, 3), F(2, 5), F(3, 4)]


def random_primitive(rng, d, sites):
    kind = int(rng.integers(3))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == 0:
        k = int(rng.integers(-2, 3))
        c = PHASES[int(rng.integers(len(PHASES)))]
        return stripe_op(k, m, c)
    if kind == 1:
        r, s = int(rng.integers(4)), int(rng.integers(4))
        return finite_op({(r, s): m}, d)
    return modulation(PHASES[int(rng.integers(len(PHASES)))], d)


def random_expression(rng, d, sites, steps=5):
    sym = random_primitive(rng, d, sites)
    den = dense_of(sym, sites)
    for _ in range(steps):
        kind = int(rng.integers(4))
        if kind == 0:
            other = random_primitive(rng, d, sites)
            sym, den = sym @ other, den @ dense_of(other, sites)
        elif kind == 1:
            other = random_primitive(rng, d, sites)
            sym, den = sym + other, den + dense_of(other, sites)
        elif kind == 2:
            sym, den = sym.H, den.conj().T
        else:
            z = complex(rng.standard_normal(), rng.standard_normal())
            sym, den = z * sym, z * den
    return sym, den


def test_calculus_matches_dense_oracle():
    sites, check, d = 40, 12, 2
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sym, den = random_expression(rng, d, sites)
        got = sym.materialize(check, check)
        want = den[:check * d, :check * d]
        assert np.linalg.norm(got - want) < 1e-9


def test_adjoint_antimultiplicative_on_window():
    sites, check = 30, 10
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        a = random_primitive(rng, 2, sites) @ random_primitive(rng, 2, sites)
        b = random_primitive(rng, 2, sites)
        lhs = (a @ b).H.materialize(check)
        rhs = (b.H @ a.H).materialize(check)
        assert np.linalg.norm(lhs - rhs) < 1e-11


def test_double_adjoint_exact_for_quarter_phases():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for c in (F(0), F(1, 2)):
        a = stripe_op(-2, m, c) + finite_op({(0, 2): m}, 2)
        assert op_equal(a.H.H, a)


def test_associativity_on_window():
    sites, check = 30, 8
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        a = random_primitive(rng, 2, sites)
        b = random_primitive(rng, 2, sites)
        c = random_primitive(rng, 2, sites)
        lhs = ((a @ b) @ c).materialize(check)
        rhs = (a @ (b @ c)).materialize(check)
        assert np.linalg.norm(lhs - rhs) < 1e-11


# ------------------------------------------------- compactness and norms

def test_compactness_detection():
    s = shift_op(2)
    assert s.compact_defect() > 0.0
    assert (s @ s.H - identity_op(2)).compact_defect() == 0.0
    assert site_projection_op(5, 2).compact_defect() == 0.0
    assert modulation(F(1, 3), 2).compact_defect() > 1e-9


def test_norm_upper_dominates_window_norm():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        op, _ = random_expression(rng, 2, 30, steps=3)
        win = np.linalg.norm(op.materialize(25), 2)
        assert win <= op.norm_upper() + 1e-9


def test_shift_norm_bound_tight():
    assert abs(shift_op(1).norm_upper() - 1.0) < 1e-15


# ------------------------------------------------------------- color maps

def test_color_corner_matches_dense_slicing():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = stripe_op(1, m, F(1, 3)) + finite_op({(0, 1): dagger_like(m)}, 4)
    sub = color_corner(op, [2, 3], [0, 1])
    sites = 6
    full = op.materialize(sites)
    rows = [q * 4 + i for q in range(sites) for i in (2, 3)]
    cols = [q * 4 + j for q in range(sites) for j in (0, 1)]
    assert np.allclose(sub.materialize(sites), full[np.ix_(rows, cols)],
                       atol=1e-13)


def dagger_like(m):
    return m.conj().T


def test_map_color_kron():
    op = shift_op(2)
    big = map_color(op, lambda m: np.kron(np.eye(2), m))
    assert big.d_out == big.d_in == 4
    assert op_equal(big.H @ big, identity_op(4))


def test_map_color_rejects_mixed_shapes():
    op = shift_op(2) + finite_op({(0, 0): np.eye(2)}, 2)
    calls = []

    def f(m):
        calls.append(m)
        return m if len(calls) == 1 else np.eye(3, dtype=complex)

    with pytest.raises(FiberMismatch):
        map_color(op, f)


# ------------------------------------------------------------- validation

def test_shape_validation():
    with pytest.raises(FiberMismatch):
        ShiftOp(2, 2, {(1, F(0)): np.eye(3)})
    with pytest.raises(FiberMismatch):
        ShiftOp(2, 2, finite={(-1, 0): np.eye(2)})
    with pytest.raises(FiberMismatch):
        shift_op(2) @ shift_op(3)
    with pytest.raises(FiberMismatch):
        shift_op(2) + shift_op(3)


def test_rectangular_window():
    s = shift_op(1)
    w = s.materialize(3, 2)
    assert w.shape == (3, 2)
    assert np.array_equal(w, np.array([[0, 0], [1, 0], [0, 1]], dtype=complex))


def test_constant_diag_and_projection():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    cd = stripe_op(0, m)
    w = cd.materialize(3)
    assert np.array_equal(w[2 * 2:, 2 * 2:], m)
    p = site_projection_op(2, 1)
    assert op_equal(p @ p, p)
    assert op_equal(p.H, p)


def materialize_per_row(op, rows, cols):
    """Window by the per-row rule: every stripe block, unmodulated ones
    included, is scaled by cispi_frac(c * row), after the finite part."""
    out = np.zeros((rows * op.d_out, cols * op.d_in), dtype=complex)
    for (r, s), m in op.finite.items():
        if r < rows and s < cols:
            out[r * op.d_out:(r + 1) * op.d_out,
                s * op.d_in:(s + 1) * op.d_in] += m
    for (k, c), m in op.stripes.items():
        for row in range(max(0, k), rows):
            col = row - k
            if 0 <= col < cols:
                out[row * op.d_out:(row + 1) * op.d_out,
                    col * op.d_in:(col + 1) * op.d_in] += _scale(
                        cispi_frac(c * row), m)
    return out


def test_materialize_bitwise_matches_per_row_phases():
    rng = np.random.default_rng(23)

    def color():
        return rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))

    stripes = {(0, F(0)): color(), (-2, F(0)): color(), (1, F(0)): color(),
               (0, F(1, 3)): color(), (1, F(1, 4)): color(),
               (-1, F(2, 5)): color(), (3, F(5, 7)): color()}
    finite = {(0, 0): color(), (2, 1): color(), (4, 6): color()}
    op = ShiftOp(2, 3, stripes, finite)
    for rows, cols in [(0, 0), (1, 1), (5, 5), (9, 4), (3, 8), (12, 12)]:
        got = op.materialize(rows, cols)
        want = materialize_per_row(op, rows, cols)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_site_blocks_are_the_nonzero_blocks_of_the_window():
    rng = np.random.default_rng(29)

    def color():
        return rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))

    m = color()
    stripes = {(0, F(0)): m, (1, F(1, 3)): color(), (-2, F(2, 5)): color()}
    # cancels the unmodulated stripe at site 3 exactly
    op = ShiftOp(2, 3, stripes, {(3, 3): -m, (1, 4): color()})
    sites = [5, 0, 3, 4]
    blocks = op.site_blocks(sites)
    assert (3, 3) not in blocks and all(np.any(b) for b in blocks.values())
    assert {s for _, s in blocks} <= set(sites)
    window = op.materialize(9, 6)
    dense = dense_blocks(blocks, range(9), sites, 2, 3)
    want = window.reshape(9, 2, 6, 3)[:, :, sites].reshape(18, 12)
    assert dense.tobytes() == want.tobytes()
    # every row the columns reach is there
    assert max(r for r, _ in blocks) == 6
