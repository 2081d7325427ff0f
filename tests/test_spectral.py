"""Nets of spectral triples: fiberwise validation, the equivariant
correspondence with exact round trips, and the heat trace."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import pfp, rng_for, superderivation
from holonet.errors import FiberMismatch, NotInvariant, NotSelfAdjoint
from holonet.fredholm import SampledRep, flat_rep
from holonet.linalg import dagger, random_unitary
from holonet.operators import adj, zero_defect
from holonet.reports import ValidationReport
from holonet.spectral import (
    EquivariantTriple,
    NetSpectralTriple,
    _covariance_factors,
    from_equivariant,
    theta_trace,
    to_equivariant,
    validate_triple,
)
from holonet.standard import chain_poset, circle_poset

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def rotation_triple():
    """Cyclic permutation holonomy with an exactly commuting circulant D."""
    v = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    h = v + v.T + np.eye(3)
    return EquivariantTriple(
        grading=np.kron(SZ, np.eye(3)),
        u_images={1: np.kron(np.eye(2), v)},
        samples={"one": np.eye(6, dtype=complex),
                 "shifted": np.kron(np.eye(2), v)},
        D=np.kron(SX, h),
        group=None,  # filled per test with the hexagon presentation
    )


def checks(report, name):
    return [e for e in report.entries if e.check == name]


def test_zero_operator_family_is_valid(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    e = EquivariantTriple(SZ.copy(), {1: np.eye(2, dtype=complex)},
                          {"one": np.eye(2, dtype=complex)},
                          np.zeros((2, 2), dtype=complex), pres)
    t = from_equivariant(e, poset, pres, frame)
    report = validate_triple(t)
    assert report.ok
    assert report.max_defect == 0.0
    assert superderivation(t.D["U1"], SZ, np.eye(2)).any() == False


def test_rotation_holonomy_round_trip_is_exact(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    e = rotation_triple()
    e = EquivariantTriple(e.grading, e.u_images, e.samples, e.D, pres)
    t = from_equivariant(e, poset, pres, frame)
    report = validate_triple(t)
    assert report.ok
    # integer-valued matrices keep every check exactly zero
    assert report.max_defect == 0.0
    back = to_equivariant(t)
    assert back.D is e.D
    assert back.grading is e.grading
    assert np.array_equal(back.u_images[1], e.u_images[1])
    assert sorted(back.samples) == sorted(e.samples)
    for label in e.samples:
        assert np.array_equal(back.samples[label], e.samples[label])
    again = from_equivariant(back, poset, pres, frame)
    for o in poset.elements:
        assert again.D[o] is t.D[o]
        for o1 in poset.elements:
            if poset.lt(o, o1):
                assert np.array_equal(again.rep.u(o, o1), t.rep.u(o, o1))


def test_triple_reports_each_relation_at_each_location(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    e = rotation_triple()
    e = EquivariantTriple(e.grading, e.u_images, e.samples, e.D, pres)
    report = validate_triple(from_equivariant(e, poset, pres, frame))
    for kind in ("D-selfadjoint", "D-odd"):
        assert len(checks(report, kind)) == len(poset.elements)
    for kind in ("D-transport", "superderivation-covariance"):
        assert len(checks(report, kind)) == len(poset.strict_pairs())
    assert len(report.entries) == 2 * len(poset.elements) + 2 * len(poset.strict_pairs())


def test_broken_transport_is_reported(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    e = rotation_triple()
    e = EquivariantTriple(e.grading, e.u_images, e.samples, e.D, pres)
    t = from_equivariant(e, poset, pres, frame)
    family = dict(t.D)
    family["U2"] = family["U2"] + 0.1 * np.kron(SX, np.eye(3))
    report = validate_triple(NetSpectralTriple(t.rep, family))
    assert not report.ok
    assert any(c.check == "D-transport" for c in report.violations)


def test_even_operator_fails_oddness(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rep = flat_rep(poset, pres, frame, {1: np.eye(2, dtype=complex)},
                   np.eye(2, dtype=complex), {"one": np.eye(2, dtype=complex)},
                   grading_at=SZ)
    even = np.diag([1.0, 2.0]).astype(complex)
    report = validate_triple(NetSpectralTriple(rep, {o: even for o in poset.elements}))
    assert any(c.check == "D-odd" for c in report.violations)


def test_missing_grading_and_missing_operator_are_reported(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rep = flat_rep(poset, pres, frame, {1: np.eye(2, dtype=complex)},
                   np.eye(2, dtype=complex), {"one": np.eye(2, dtype=complex)})
    zero = np.zeros((2, 2), dtype=complex)
    family = {o: zero for o in poset.elements}
    del family["U3"]
    report = validate_triple(NetSpectralTriple(rep, family))
    names = {c.check for c in report.violations}
    assert "grading-coverage" in names
    assert "D-coverage" in names
    with pytest.raises(FiberMismatch):
        to_equivariant(NetSpectralTriple(rep, family))


def test_non_commuting_operator_is_rejected_both_ways(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    v = np.diag([1.0, np.exp(0.7j)])
    e = EquivariantTriple(np.kron(SZ, np.eye(2)),
                          {1: np.kron(np.eye(2), v)},
                          {"one": np.eye(4, dtype=complex)},
                          np.kron(SX, SX), None)
    _, pres, _ = hexagon_pfp
    e = EquivariantTriple(e.grading, e.u_images, e.samples, e.D, pres)
    with pytest.raises(NotInvariant):
        from_equivariant(e, poset, pres, frame)
    # assembling the same data as a constant family fails on readoff too
    rep = flat_rep(poset, pres, frame, e.u_images,
                   np.eye(4, dtype=complex), e.samples, grading_at=e.grading)
    with pytest.raises(NotInvariant):
        to_equivariant(NetSpectralTriple(rep, {o: e.D for o in poset.elements}))


def test_odd_sample_is_rejected(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    e = EquivariantTriple(SZ.copy(), {1: np.eye(2, dtype=complex)},
                          {"flip": SX.copy()},
                          np.zeros((2, 2), dtype=complex), pres)
    with pytest.raises(NotInvariant):
        from_equivariant(e, poset, pres, frame)


def test_superderivation_is_a_graded_derivation():
    rng = rng_for(3)
    g = np.kron(SZ, np.eye(2))
    d = np.kron(SX, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    d = d + d.conj().T
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = superderivation(d, g, s @ t)
    rhs = superderivation(d, g, s) @ t + g @ s @ g @ superderivation(d, g, t)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_theta_trace_closed_forms():
    assert theta_trace(np.zeros((5, 5)), 2.0) == 5.0
    assert abs(theta_trace(np.diag([1.0, -1.0]), 1.0) - 2 * np.exp(-1.0)) < 1e-12
    assert abs(theta_trace(np.diag([3.0]), 0.5) - np.exp(-4.5)) < 1e-14


def test_theta_trace_conjugation_invariant():
    for seed in range(10):
        rng = rng_for(40 + seed)
        n = int(rng.integers(2, 7))
        d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = d + d.conj().T
        w = random_unitary(rng, n)
        beta = float(rng.uniform(0.1, 3.0))
        assert abs(theta_trace(d, beta)
                   - theta_trace(w @ d @ w.conj().T, beta)) < 1e-9


def test_theta_trace_monotone_in_beta():
    rng = rng_for(9)
    d = rng.standard_normal((6, 6))
    d = d + d.T
    betas = [0.1, 0.5, 1.0, 2.0, 5.0]
    values = [theta_trace(d, b) for b in betas]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-12


def test_theta_trace_input_guards():
    with pytest.raises(NotSelfAdjoint):
        theta_trace(np.ones((2, 3)), 1.0)
    with pytest.raises(NotSelfAdjoint):
        theta_trace(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        theta_trace(np.zeros((2, 2)), 0.0)
    nearly = np.array([[0.0, 1.0 + 1e-8], [1.0, 0.0]])
    with pytest.raises(NotSelfAdjoint):
        theta_trace(nearly, 1.0)
    assert abs(theta_trace(nearly, 1.0, 1e-6) - 2 * np.exp(-1.0)) < 1e-7


def test_theta_trace_rejects_a_nan_selfadjointness_defect():
    """An infinite entry makes the self-adjointness defect NaN, which no
    tolerance passes."""
    d = np.array([[1.0, np.inf], [0.0, 1.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotSelfAdjoint):
            theta_trace(d, 1.0)


def test_from_equivariant_rejects_missing_generator_images(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    e = replace(rotation_triple(), u_images={}, group=pres)
    with pytest.raises(FiberMismatch, match="missing generator images"):
        from_equivariant(e, poset, pres, frame)


def test_from_equivariant_rejects_an_image_off_the_shape_of_d(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    e = replace(rotation_triple(), u_images={1: np.eye(3, dtype=complex)}, group=pres)
    with pytest.raises(FiberMismatch, match=r"generator 1 image has shape \(3, 3\)"):
        from_equivariant(e, poset, pres, frame)


# ------------------------------------- validate_triple against the loop

def reference_validate_triple(t, tol=1e-10):
    """The per-location loop: every relation recomputed at every fiber
    and edge, whether or not its operands are shared.  Superderivation
    covariance is the bound |A| |u| + |B| |X| + |Y| |C|, each norm taken
    alone."""
    rep = t.rep
    report = ValidationReport()
    for o in sorted(rep.poset.elements):
        d = t.D.get(o)
        if d is None:
            report.add("D-coverage", o, float("inf"), tol)
            continue
        report.add("D-selfadjoint", o, zero_defect(d - adj(d)), tol)
        g = (rep.grading or {}).get(o)
        if g is None:
            report.add("grading-coverage", o, float("inf"), tol)
        else:
            report.add("D-odd", o, zero_defect(g @ d + d @ g), tol)
    for o, o1 in sorted(rep.poset.strict_pairs()):
        if (o, o1) not in rep.u_incl:
            report.add("edge-coverage", f"{o}<{o1}", float("inf"), tol)
            continue
        d, d1 = t.D.get(o), t.D.get(o1)
        if d is None or d1 is None:
            continue
        u = rep.u(o, o1)
        report.add("D-transport", f"{o}<{o1}", zero_defect(u @ d - d1 @ u), tol)
        g = (rep.grading or {}).get(o)
        g1 = (rep.grading or {}).get(o1)
        if g is None or g1 is None:
            continue
        x = adj(u) @ g1 @ d1
        pairs = [(d1 @ u - u @ d, u), (g1 @ u - u @ g, x), (u @ g, x - g @ d @ adj(u))]
        report.add("superderivation-covariance", f"{o}<{o1}",
                   sum(zero_defect(p) * zero_defect(q) for p, q in pairs), tol)
    return report


def triple_variants():
    """A constant triple, whose fibers and tree edges share operators, and
    variants that break the sharing or the relations at one place."""
    poset, pres, frame = pfp(circle_poset(6))
    v = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    e = EquivariantTriple(np.kron(SZ, np.eye(3)), {1: np.kron(np.eye(2), v)},
                          {"one": np.eye(6, dtype=complex)},
                          np.kron(SX, 0.7 * (v + v.T) + 0.3 * np.eye(3)), pres)
    t = from_equivariant(e, poset, pres, frame)
    elements = sorted(poset.elements)
    yield "shared", t
    yield "copies", NetSpectralTriple(t.rep, {o: d.copy() for o, d in t.D.items()})
    rng = rng_for(43)
    bent = dict(t.D)
    bent[elements[4]] = bent[elements[4]] + 0.01 * np.kron(SX, rng.random((3, 3)))
    yield "perturbed", NetSpectralTriple(t.rep, bent)
    yield "missing", NetSpectralTriple(
        t.rep, {o: d for o, d in t.D.items() if o != elements[2]})
    gauge = {o: np.kron(np.diag([1.0, 0.0]), random_unitary(rng, 3))
             + np.kron(np.diag([0.0, 1.0]), random_unitary(rng, 3))
             for o in elements}
    u_incl = {(o, o1): gauge[o1] @ u @ dagger(gauge[o])
              for (o, o1), u in t.rep.u_incl.items()}
    yield "gauged", NetSpectralTriple(
        replace(t.rep, u_incl=u_incl),
        {o: gauge[o] @ d @ dagger(gauge[o]) for o, d in t.D.items()})
    # real copies of the real-valued D on every other fiber: real and
    # complex residuals of one shape, measured in separate stacks
    yield "mixed", NetSpectralTriple(
        t.rep, {o: d.real.copy() if k % 2 else d
                for k, (o, d) in enumerate(sorted(t.D.items()))})


@pytest.mark.parametrize("name", ["shared", "copies", "perturbed", "missing",
                                  "gauged", "mixed"])
def test_validate_triple_matches_the_per_location_loop(name):
    t = dict(triple_variants())[name]
    got, want = validate_triple(t), reference_validate_triple(t)
    assert [(e.check, e.location, float(e.defect).hex(), e.tolerance)
            for e in got.entries] == \
        [(e.check, e.location, float(e.defect).hex(), e.tolerance)
         for e in want.entries]
    assert got.ok == (name in ("shared", "copies", "gauged", "mixed"))


def test_validate_triple_reports_a_missing_edge_operator(hexagon_pfp):
    """A strict pair without an edge operator is an `edge-coverage`
    violation, and none of that edge's other relations is checked."""
    poset, pres, frame = hexagon_pfp
    t = from_equivariant(replace(rotation_triple(), group=pres), poset, pres, frame)
    o, o1 = sorted(poset.strict_pairs())[0]
    u_incl = {e: u for e, u in t.rep.u_incl.items() if e != (o, o1)}
    report = validate_triple(NetSpectralTriple(replace(t.rep, u_incl=u_incl), t.D))
    assert [(c.check, c.location) for c in report.violations] == \
        [("edge-coverage", f"{o}<{o1}")]
    assert [c.check for c in report.entries if c.location == f"{o}<{o1}"] == \
        ["edge-coverage"]


# ------------------------------------- superderivation covariance bound

def unit_covariance_defect(u, d, d1, g, g1):
    """The largest superderivation covariance defect on the matrix units
    of the source fiber, one norm per unit."""
    worst = 0.0
    for i, j in np.ndindex(d.shape):
        unit = np.zeros_like(d)
        unit[i, j] = 1.0
        lhs = superderivation(d1, g1, u @ unit @ adj(u))
        worst = max(worst, zero_defect(lhs - u @ superderivation(d, g, unit) @ adj(u)))
    return worst


def test_covariance_factors_satisfy_the_identity():
    """delta1(u t u*) - u delta(t) u* = A t u* - B t X - Y t C for any
    square matrices, so its norm is at most sum_k |P_k| |Q_k| |t|."""
    rng = rng_for(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        u, d, d1, g, g1, t = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                              for _ in range(6))
        (a, b, y), (u_, x, c) = _covariance_factors(u, d, d1, g, g1)
        assert np.array_equal(u_, u)
        lhs = superderivation(d1, g1, u @ t @ adj(u)) - u @ superderivation(d, g, t) @ adj(u)
        rhs = a @ t @ adj(u) - b @ t @ x - y @ t @ c
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)
        bound = zero_defect(a) * zero_defect(u) + zero_defect(b) * zero_defect(x) \
            + zero_defect(y) * zero_defect(c)
        assert zero_defect(lhs) <= bound * zero_defect(t) * (1 + 1e-12)


def near_covariant_triple(seed):
    """A two-element net with a random edge unitary u and an odd D: D1 and
    G1 are u D u* and u G u* plus Hermitian perturbations of norm between
    1e-12 and 1e-3.  Returns the triple and its edge operands."""
    rng = rng_for(500 + seed)
    poset, pres, frame = pfp(chain_poset(2))
    g = np.kron(SZ, np.eye(3))
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = np.block([[np.zeros((3, 3)), m], [m.conj().T, np.zeros((3, 3))]])
    u = random_unitary(rng, 6)

    def bent(x):
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = h + h.conj().T
        return u @ x @ adj(u) + 10.0 ** rng.uniform(-12, -3) * h / zero_defect(h)

    d1, g1 = bent(d), bent(g)
    rep = SampledRep(poset, pres, frame, {("o1", "o2"): u}, {},
                     np.eye(6, dtype=complex), grading={"o1": g, "o2": g1})
    return NetSpectralTriple(rep, {"o1": d, "o2": d1}), (u, d, d1, g, g1)


def test_covariance_bound_is_never_below_the_matrix_unit_defect():
    for seed in range(300):
        t, ops = near_covariant_triple(seed)
        (entry,) = checks(validate_triple(t), "superderivation-covariance")
        assert entry.defect >= unit_covariance_defect(*ops) - 1e-14, seed


def test_untransported_grading_fails_superderivation_covariance(hexagon_pfp):
    """SY x 1 at one fiber anticommutes with D = SX x h as SZ x 1 does, so
    D stays odd and transported; but the superderivations of the two
    gradings differ, on matrix units too, and only the covariance entry
    sees it."""
    poset, pres, frame = hexagon_pfp
    t = from_equivariant(replace(rotation_triple(), group=pres), poset, pres, frame)
    grading = dict(t.rep.grading)
    grading["U2"] = np.kron(SY, np.eye(3))
    rep = replace(t.rep, grading=grading)
    report = validate_triple(NetSpectralTriple(rep, t.D))
    assert not report.ok
    assert {c.check for c in report.violations} == {"superderivation-covariance"}
    for c in report.violations:
        o, o1 = c.location.split("<")
        assert unit_covariance_defect(rep.u(o, o1), t.D[o], t.D[o1], grading[o],
                                      grading[o1]) > 1e-10
