from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import pfp, rng_for

from holonet.errors import (
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
from holonet.fredholm import (
    _kernel_window,
    EquivariantCycle,
    ExtensionObstruction,
    FredholmModule,
    LocalizedModule,
    RepBlock,
    SectorModule,
    VirtualRep,
    algebra_dimension,
    bounded_transform,
    build_sector_module,
    build_shift_module,
    dual_net_membership,
    equivariant_cycle,
    evaluate_rep_path,
    extend_localized,
    flat_rep,
    from_cycle,
    holonomy_images,
    localize,
    pi_index,
    sample_words,
    transport,
    validate_localized,
    validate_module,
    virtual_reps_match,
    windowed_kernel,
)
from holonet.homotopy import frame_transports
from holonet.linalg import dagger, eigenphase_multiset_match, opnorm, random_unitary
from holonet.operators import adj, commutator
from holonet.poset import edge_simplex, make_path, opposite_path
from holonet.shift_calculus import (
    constant_diag_op,
    finite_op,
    identity_op,
    modulation_op,
    op_equal,
    shift_op,
    stripe_op,
)
from holonet.randomgen import random_poset_with_frame, random_representation
from holonet.standard import chain_poset, hexagon_poset, with_top


def checks(report, name):
    return [e for e in report.entries if e.check == name]


def dense_symmetry(rng, d):
    """Random self-adjoint unitary with both eigenvalues present."""
    v = random_unitary(rng, d)
    signs = np.diag([1.0] * (d // 2) + [-1.0] * (d - d // 2))
    return v @ signs.astype(complex) @ dagger(v)


# ------------------------------------------------------------ sampled reps

def test_flat_rep_tree_edges_are_exact_identities(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    u = {1: random_unitary(rng_for(3), 2)}
    rep = flat_rep(poset, pres, frame, u, np.eye(2, dtype=complex), {})
    gen_edge = pres.generators[0]
    for e, m in rep.u_incl.items():
        if e != gen_edge:
            assert np.array_equal(m, np.eye(2))


def test_frame_paths_evaluate_to_identity(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    u = {1: random_unitary(rng_for(4), 3)}
    rep = flat_rep(poset, pres, frame, u, np.eye(3, dtype=complex), {})
    for o in poset.elements:
        got = evaluate_rep_path(rep, frame.to(o))
        assert np.array_equal(got, np.eye(3))


def test_holonomy_images_recover_inputs(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    u = {1: random_unitary(rng_for(5), 3)}
    rep = flat_rep(poset, pres, frame, u, np.eye(3, dtype=complex), {})
    got = holonomy_images(rep)
    assert np.array_equal(got[1], u[1])


def same_bits(a, b) -> bool:
    def bits(x):
        return {k: m.tobytes() for k, m in x.items()}
    return ((a.d_out, a.d_in) == (b.d_out, b.d_in)
            and bits(a.stripes) == bits(b.stripes)
            and bits(a.finite) == bits(b.finite))


def test_frame_transports_of_a_shift_module_match_path_evaluation():
    # gauge the flat shift module by a color unitary per element, so that
    # tree edges do not act as the identity
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed + 300)
        poset, pres, frame = random_poset_with_frame(rng, 10)
        images = random_representation(pres, 2, rng)
        if not images:
            continue
        m = build_shift_module(poset, pres, frame, images)
        gauge = {o: stripe_op(0, random_unitary(rng, 4)) for o in poset.elements}
        rep = replace(m.rep, u_incl={e: gauge[e[1]] @ u @ gauge[e[0]].H
                                     for e, u in m.rep.u_incl.items()})
        t = frame_transports(poset, frame, rep.ident, rep.step)
        for o in poset.elements:
            assert same_bits(t[o], evaluate_rep_path(rep, frame.to(o)))
        # extend_localized spreads F along the same transports
        at = max(poset.elements)
        f = gauge[at] @ m.F[at] @ gauge[at].H
        ext = extend_localized(LocalizedModule(rep, at, f, "even"))
        back = evaluate_rep_path(rep, frame.to(at))
        f_base = adj(back) @ f @ back
        for o in poset.elements:
            w = evaluate_rep_path(rep, frame.to(o))
            assert same_bits(ext.F[o], f if o == at else w @ f_base @ adj(w))
        checked += 1
    assert checked > 10


# -------------------------------------------------------------- validation

def test_shift_module_validates_with_exact_compact_parts(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: random_unitary(rng_for(0), 3)})
    report = validate_module(m)
    assert report.ok
    # the calculus makes F*F - 1 and all F commutators exactly finite rank
    for e in checks(report, "F-square-compact"):
        assert e.defect == 0.0
    for e in checks(report, "F-transport"):
        assert e.defect == 0.0
    for e in checks(report, "F-commutes-with-samples"):
        assert e.defect == 0.0
    for e in checks(report, "sample-covariance"):
        assert e.defect == 0.0
    for e in checks(report, "grading-anticommutes"):
        assert e.defect == 0.0


def test_validate_detects_broken_transport(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: random_unitary(rng_for(1), 2)})
    bad_f = dict(m.F)
    bad_f["U2"] = m.F["U2"] + finite_op({(0, 0): 0.1 * np.eye(4)}, 4)
    report = validate_module(FredholmModule(m.rep, bad_f, "even"))
    assert not report.ok
    assert any(not e.ok for e in checks(report, "F-transport"))


def test_validate_grading_requirements(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: np.eye(2, dtype=complex)})
    rep = m.rep
    stripped = flat_rep(poset, pres, frame, {1: stripe_op(0, np.eye(4))},
                        rep.ident, rep.samples[frame.base])
    report = validate_module(FredholmModule(stripped, m.F, "even"))
    assert any(e.check == "grading-coverage" for e in report.violations)
    report = validate_module(FredholmModule(rep, m.F, "odd"))
    assert any(e.check == "parity-grading" for e in report.violations)


def test_validate_detects_nonselfadjoint_f(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    ident = np.eye(2, dtype=complex)
    rep = flat_rep(poset, pres, frame, {1: ident.copy()}, ident, {"one": ident})
    f = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    report = validate_module(FredholmModule(rep, {o: f for o in poset.elements}, "odd"))
    assert any(not e.ok for e in checks(report, "F-selfadjoint"))


def test_validate_localized_flags_bad_square(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: random_unitary(rng_for(6), 2)})
    loc = localize(m, frame.base)
    assert validate_localized(loc).ok
    shrunk = LocalizedModule(loc.rep, loc.at, 0.5 * loc.f, "even")
    report = validate_localized(shrunk)
    assert any(not e.ok for e in checks(report, "F-square-compact"))


# --------------------------------------------------- localize and transport

def test_localize_requires_known_element(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: np.eye(1, dtype=complex)})
    with pytest.raises(UnknownElement):
        localize(m, "nowhere")


def test_transport_identity_path_keeps_values(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = rng_for(7)
    ident = np.eye(4, dtype=complex)
    rep = flat_rep(poset, pres, frame, {1: random_unitary(rng, 4)}, ident,
                   {"one": ident})
    loc = LocalizedModule(rep, frame.base, dense_symmetry(rng, 4), "odd")
    stay = transport(loc, frame.base, make_path(poset, [], at=frame.base))
    assert np.array_equal(stay.f, loc.f)


def test_transport_endpoint_mismatch(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: np.eye(1, dtype=complex)})
    loc = localize(m, frame.base)
    p = frame.to("U2")
    with pytest.raises(PathMismatch):
        transport(loc, "U3", p)
    moved = transport(loc, "U2", p)
    with pytest.raises(PathMismatch):
        transport(moved, "U3", p)


def test_transport_round_trip_is_exact(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = rng_for(8)
    for seed in range(6):
        m = build_shift_module(poset, pres, frame,
                               {1: random_unitary(rng_for(80 + seed), 3)})
        loc = localize(m, frame.base)
        p = frame.to("V23")
        back = transport(transport(loc, "V23", p), frame.base, opposite_path(p))
        assert back is loc


def test_transport_nonhomotopic_paths_differ_by_holonomy(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = rng_for(9)
    ident = np.eye(4, dtype=complex)
    u = np.kron(random_unitary(rng, 2), np.eye(2))
    rep = flat_rep(poset, pres, frame, {1: u}, ident, {"one": ident})
    f = dense_symmetry(rng, 4)
    loc = LocalizedModule(rep, "U1", f, "odd")

    short = make_path(poset, [edge_simplex(poset, "U1", "V12"),
                              edge_simplex(poset, "V12", "U2")])
    long = make_path(poset, [edge_simplex(poset, "U1", "V31"),
                             edge_simplex(poset, "V31", "U3"),
                             edge_simplex(poset, "U3", "V23"),
                             edge_simplex(poset, "V23", "U2")])
    f_short = transport(loc, "U2", short).f
    f_long = transport(loc, "U2", long).f
    # the two transports are conjugate by the holonomy of the loop
    w_short = evaluate_rep_path(rep, short)
    v_loop = evaluate_rep_path(
        rep, make_path(poset, list(opposite_path(short).simplices)
                       + list(long.simplices)))
    expected = w_short @ v_loop @ f @ dagger(v_loop) @ dagger(w_short)
    assert opnorm(f_long - expected) < 1e-12
    assert opnorm(f_long - f_short) > 1e-2


# ---------------------------------------------------------------- extension

def test_extension_of_invariant_operator_validates(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = rng_for(10)
    ident = np.eye(4, dtype=complex)
    u = np.kron(random_unitary(rng, 2), np.eye(2))
    f = np.kron(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))
    g = np.kron(np.eye(2, dtype=complex),
                np.array([[0, 1], [1, 0]], dtype=complex))
    rep = flat_rep(poset, pres, frame, {1: u}, ident, {"one": ident},
                   grading_at=g)
    ext = extend_localized(LocalizedModule(rep, frame.base, f, "even"))
    assert isinstance(ext, FredholmModule)
    report = validate_module(ext)
    assert report.ok
    assert report.max_defect <= 1e-10


def test_extension_obstruction_names_generator_and_defect(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = rng_for(11)
    ident = np.eye(4, dtype=complex)
    rep = flat_rep(poset, pres, frame, {1: random_unitary(rng, 4)}, ident,
                   {"one": ident})
    f = dense_symmetry(rng, 4)
    out = extend_localized(LocalizedModule(rep, frame.base, f, "odd"))
    assert isinstance(out, ExtensionObstruction)
    assert out.generator == 1
    assert out.defect > 1e-3


def test_extension_always_succeeds_without_loops():
    # the chain is simply connected: every relator kills its generator,
    # so any valid rep has trivial holonomy and any f extends
    poset, pres, frame = pfp(chain_poset(3))
    rng = rng_for(12)
    ident = np.eye(4, dtype=complex)
    images = {g: ident.copy() for g in range(1, len(pres.generators) + 1)}
    rep = flat_rep(poset, pres, frame, images, ident, {"one": ident})
    f = dense_symmetry(rng, 4)
    ext = extend_localized(LocalizedModule(rep, frame.base, f, "odd"))
    assert isinstance(ext, FredholmModule)
    assert validate_module(ext).ok


def test_extension_from_nonbase_point(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: random_unitary(rng_for(13), 2)})
    loc = localize(m, "U3")
    ext = extend_localized(loc)
    assert isinstance(ext, FredholmModule)
    assert ext.F["U3"] is loc.f
    assert validate_module(ext).ok


# -------------------------------------------------------- cycle translation

def test_cycle_round_trip_reproduces_objects(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: random_unitary(rng_for(14), 2)})
    cyc = equivariant_cycle(localize(m, frame.base))
    loc = from_cycle(cyc.samples, cyc.v_images, cyc.phi, poset, pres, frame,
                     grading=cyc.grading, parity=cyc.parity)
    cyc2 = equivariant_cycle(loc)
    assert cyc2.phi is cyc.phi
    assert all(op_equal(cyc2.v_images[g], cyc.v_images[g]) for g in cyc.v_images)
    assert all(op_equal(cyc2.samples[l], cyc.samples[l]) for l in cyc.samples)


def test_strong_equivariance_flag_tracks_exact_commutation(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    m = build_shift_module(poset, pres, frame, {1: random_unitary(rng_for(15), 3)})
    assert equivariant_cycle(localize(m, frame.base)).strongly_equivariant

    rng = rng_for(16)
    ident = np.eye(4, dtype=complex)
    rep = flat_rep(poset, pres, frame, {1: random_unitary(rng, 4)}, ident,
                   {"one": ident})
    loc = LocalizedModule(rep, frame.base, dense_symmetry(rng, 4), "odd")
    assert not equivariant_cycle(loc).strongly_equivariant


def test_from_cycle_rejects_relator_violations():
    poset, pres, frame = pfp(with_top(hexagon_poset()))
    assert pres.relators
    ident = np.eye(2, dtype=complex)
    v = {g: np.diag([1.0, -1.0]).astype(complex)
         for g in range(1, len(pres.generators) + 1)}
    with pytest.raises(NotCovariant):
        from_cycle({"one": ident}, v, np.diag([1.0, -1.0]).astype(complex),
                   poset, pres, frame, grading=None, parity="odd")


def test_from_cycle_rejects_nonunitary_images(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    ident = np.eye(2, dtype=complex)
    with pytest.raises(NotCovariant):
        from_cycle({"one": ident}, {1: 2.0 * ident}, np.diag([1.0, -1.0]),
                   poset, pres, frame, grading=None, parity="odd")


def test_from_cycle_rejects_relation_defects(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    ident = identity_op(1)
    phi = shift_op(1)  # not self-adjoint: (phi - phi*) eta is a real stripe
    with pytest.raises(RelationDefect):
        from_cycle({"one": ident}, {1: ident}, phi, poset, pres, frame,
                   grading=None, parity="odd")


def test_from_cycle_grading_requirements(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    ident = np.eye(2, dtype=complex)
    f = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(RelationDefect):
        from_cycle({"one": ident}, {1: ident.copy()}, f, poset, pres, frame,
                   grading=None, parity="even")
    with pytest.raises(RelationDefect):
        # grading must anticommute with phi
        from_cycle({"one": ident}, {1: ident.copy()}, f, poset, pres, frame,
                   grading=f.copy(), parity="even")


def test_cycle_with_noninvariant_phi_fails_to_extend(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = rng_for(17)
    ident = np.eye(4, dtype=complex)
    v = {1: random_unitary(rng, 4)}
    phi = dense_symmetry(rng, 4)
    g = dense_symmetry(rng, 4)
    g = g - phi @ g @ phi  # anticommutes with phi by construction
    g = g / opnorm(g)
    # normalized anticommuting part need not be unitary; build the even
    # cycle the simple way instead: double the space
    phi2 = np.block([[np.zeros((4, 4)), dagger(phi)],
                     [phi, np.zeros((4, 4))]]).astype(complex)
    grad = np.kron(np.diag([1.0, -1.0]), np.eye(4)).astype(complex)
    v2 = {1: np.kron(np.eye(2), v[1]).astype(complex)}
    eta = {"one": np.eye(8, dtype=complex)}
    loc = from_cycle(eta, v2, phi2, poset, pres, frame, grading=grad,
                     parity="even")
    out = extend_localized(loc)
    assert isinstance(out, ExtensionObstruction)
    assert out.defect > 1e-3


# ------------------------------------------------------------------- index

def test_invertible_corner_gives_zero_virtual_rep(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    phi = np.array([[0, 1], [1, 0]], dtype=complex)
    grad = np.diag([1.0, -1.0]).astype(complex)
    cyc = EquivariantCycle({"one": np.eye(2, dtype=complex)},
                           {1: np.eye(2, dtype=complex)}, phi, grad, "even", pres)
    idx = pi_index(cyc)
    assert idx.dim == 0
    assert idx.plus == () and idx.minus == ()


def test_index_of_trivial_shift_module():
    poset, pres, frame = pfp(hexagon_poset())
    m = build_shift_module(poset, pres, frame, {1: np.eye(1, dtype=complex)})
    idx = pi_index(equivariant_cycle(localize(m, frame.base)))
    assert idx.dim == 1
    assert len(idx.plus) == 1 and not idx.minus
    assert abs(idx.character((1,)) - 1.0) < 1e-12


def test_index_of_phase_shift_module():
    poset, pres, frame = pfp(hexagon_poset())
    phase = np.exp(2j * np.pi / 3)
    m = build_shift_module(poset, pres, frame,
                           {1: np.array([[phase]], dtype=complex)})
    idx = pi_index(equivariant_cycle(localize(m, frame.base)))
    assert abs(idx.character((1,)) - phase) < 1e-12
    assert abs(idx.character((-1,)) - np.conj(phase)) < 1e-12


def test_index_matches_random_unitary_holonomy():
    poset, pres, frame = pfp(hexagon_poset())
    for seed in range(8):
        u = {1: random_unitary(rng_for(100 + seed), int(rng_for(seed).integers(1, 9)))}
        m = build_shift_module(poset, pres, frame, u)
        idx = pi_index(equivariant_cycle(localize(m, frame.base)))
        assert len(idx.plus) == 1 and not idx.minus
        assert eigenphase_multiset_match(idx.plus[0].images[1], u[1], 1e-9)
        want = VirtualRep((RepBlock(u[1].shape[0], u),), (), pres)
        assert virtual_reps_match(idx, want)


def test_index_on_simply_connected_poset():
    poset, pres, frame = pfp(chain_poset(4))
    images = {g: np.eye(1, dtype=complex)
              for g in range(1, len(pres.generators) + 1)}
    m = build_shift_module(poset, pres, frame, images)
    idx = pi_index(equivariant_cycle(localize(m, frame.base)))
    assert idx.dim == 1
    assert idx.character(()) == 1.0 + 0.0j
    assert all(abs(idx.character((g,)) - 1.0) < 1e-12 for g in images)


def test_index_invariant_under_unitary_conjugation():
    poset, pres, frame = pfp(hexagon_poset())
    for seed in range(5):
        rng = rng_for(200 + seed)
        u = {1: random_unitary(rng, 3)}
        m = build_shift_module(poset, pres, frame, u)
        cyc = equivariant_cycle(localize(m, frame.base))
        w = constant_diag_op(np.kron(np.eye(2), random_unitary(rng, 3)))
        conj = EquivariantCycle(
            {l: w @ t @ w.H for l, t in cyc.samples.items()},
            {g: w @ v @ w.H for g, v in cyc.v_images.items()},
            w @ cyc.phi @ w.H, cyc.grading, cyc.parity, cyc.group)
        a, b = pi_index(cyc), pi_index(conj)
        for word in sample_words(pres):
            assert abs(a.character(word) - b.character(word)) <= 1e-9


def test_index_requires_even_cycle(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    cyc = EquivariantCycle({}, {1: np.eye(2, dtype=complex)},
                           np.diag([1.0, -1.0]).astype(complex), None, "odd", pres)
    with pytest.raises(ValueError):
        pi_index(cyc)


def test_index_detects_noninvariant_kernel(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    phi = (stripe_op(-1, np.array([[0, 0], [1, 0]], dtype=complex))
           + stripe_op(1, np.array([[0, 1], [0, 0]], dtype=complex)))
    grad = stripe_op(0, np.diag([1.0, -1.0]))
    one = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    swap01 = identity_op(2) + finite_op(
        {(0, 0): -one, (1, 1): -one, (0, 1): one, (1, 0): one}, 2)
    cyc = EquivariantCycle({}, {1: swap01}, phi, grad, "even", pres)
    with pytest.raises(KernelNotInvariant):
        pi_index(cyc)


# --------------------------------------------------------- windowed kernels

def test_windowed_kernel_requires_shift_part():
    op = finite_op({(0, 0): np.eye(2)}, 2)
    with pytest.raises(NotFredholm):
        windowed_kernel(op)


def test_windowed_kernel_detects_unstable_window(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    color = np.zeros((4, 4), dtype=complex)
    color[0, 2] = color[2, 0] = 1.0  # second plus color is annihilated
    phi = stripe_op(0, color)
    grad = stripe_op(0, np.diag([1.0, 1.0, -1.0, -1.0]))
    cyc = EquivariantCycle({}, {1: identity_op(4)}, phi, grad, "even", pres)
    with pytest.raises(NotFredholm):
        pi_index(cyc)


def test_windowed_kernel_stable_under_finite_perturbations():
    for seed in range(20):
        rng = rng_for(300 + seed)
        blocks = {}
        for _ in range(int(rng.integers(1, 4))):
            r, s = int(rng.integers(3)), int(rng.integers(3))
            blocks[(r, s)] = rng.standard_normal((2, 2)) \
                + 1j * rng.standard_normal((2, 2))
        op = stripe_op(-1, np.eye(2)) + finite_op(blocks, 2)
        kernel, window = windowed_kernel(op)
        # vectors found on the window are genuine kernel vectors
        wide = op.materialize(window + 6, window)
        assert opnorm(wide @ kernel) < 1e-8


def test_windowed_kernel_of_identity_plus_finite():
    for seed in range(20):
        rng = rng_for(400 + seed)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = identity_op(3) + finite_op({(0, 0): m}, 3)
        kernel, window = windowed_kernel(op)
        expected = 3 - np.linalg.matrix_rank(np.eye(3) + m)
        assert kernel.shape[1] == expected


def test_windowed_kernel_probes_agree_with_kernel_window():
    for seed in range(10):
        rng = rng_for(600 + seed)
        blocks = {}
        for _ in range(int(rng.integers(1, 4))):
            r, s = int(rng.integers(4)), int(rng.integers(4))
            blocks[(r, s)] = rng.standard_normal((2, 2)) \
                + 1j * rng.standard_normal((2, 2))
        op = stripe_op(-1, np.eye(2), Fraction(1, 3)) + finite_op(blocks, 2)
        kernel, w0 = windowed_kernel(op)
        assert kernel.shape[1] > 0
        for extra in (1, 2):
            assert _kernel_window(op, w0 + extra, 1e-8).shape[1] == kernel.shape[1]
        assert np.array_equal(kernel, _kernel_window(op, w0, 1e-8))


def test_windowed_kernel_rejects_growing_kernels():
    # a projection stripe has a kernel on every site, so each probe window
    # finds more of it
    for c in (Fraction(0), Fraction(1, 3)):
        op = stripe_op(0, np.diag([1.0, 0.0]), c) + finite_op({(1, 0): np.eye(2)}, 2)
        with pytest.raises(NotFredholm, match="does not stabilize"):
            windowed_kernel(op)


# ------------------------------------------------------- shift construction

def test_build_shift_module_checks_relators():
    poset, pres, frame = pfp(with_top(hexagon_poset()))
    bad = {g: np.array([[-1.0]], dtype=complex)
           for g in range(1, len(pres.generators) + 1)}
    with pytest.raises(RelatorNotSatisfied):
        build_shift_module(poset, pres, frame, bad)
    good = {g: np.eye(1, dtype=complex)
            for g in range(1, len(pres.generators) + 1)}
    m = build_shift_module(poset, pres, frame, good)
    assert validate_module(m).ok


def test_build_shift_module_checks_unitarity(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    with pytest.raises(InvalidRepresentation):
        build_shift_module(poset, pres, frame, {1: 2.0 * np.eye(2, dtype=complex)})


def test_shift_commutes_with_color_action_exactly():
    rng = rng_for(18)
    v = random_unitary(rng, 3)
    s = shift_op(3)
    cv = constant_diag_op(v)
    assert op_equal(s @ cv, cv @ s)


def test_shift_module_with_exact_permutation_is_exact(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    u = {1: np.array([[0, 1], [1, 0]], dtype=complex)}
    m = build_shift_module(poset, pres, frame, u)
    report = validate_module(m)
    assert report.ok
    assert report.max_defect == 0.0


# ------------------------------------------------------ sector construction

def test_sector_module_trivial_single_sector(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    sec = build_sector_module(poset, pres, frame, (2,),
                              {1: np.eye(2, dtype=complex)})
    assert sec.statistical_dimension == 2
    assert sec.topological_dimension == 1
    assert validate_module(sec.module).ok
    idx = pi_index(equivariant_cycle(localize(sec.module, frame.base)))
    assert idx.dim == 2
    assert abs(idx.character((1,)) - 2.0) < 1e-12


def test_sector_module_two_phases(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    a1, a2 = np.exp(0.41j), np.exp(2.2j)
    sec = build_sector_module(poset, pres, frame, (1, 1),
                              {1: np.diag([a1, a2])})
    assert sec.statistical_dimension == 2
    assert sec.topological_dimension == 2
    idx = pi_index(equivariant_cycle(localize(sec.module, frame.base)))
    assert abs(idx.character((1,)) - (a1 + a2)) < 1e-9
    assert eigenphase_multiset_match(idx.plus[0].images[1],
                                     np.diag([a1, a2]), 1e-9)


def test_sector_topological_dimension_collapses_for_equal_phases(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    a = np.exp(0.7j)
    sec = build_sector_module(poset, pres, frame, (1, 1), {1: np.diag([a, a])})
    assert sec.topological_dimension == 1
    assert sec.statistical_dimension == 2


def test_sector_centrality_enforced(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(CentralityViolated):
        build_sector_module(poset, pres, frame, (1, 1), {1: swap})
    # the same unitary is fine once the sectors are merged
    sec = build_sector_module(poset, pres, frame, (2,), {1: swap})
    assert validate_module(sec.module).ok


def test_sector_relators_enforced():
    poset, pres, frame = pfp(with_top(hexagon_poset()))
    bad = {g: np.diag([1.0, -1.0]).astype(complex)
           for g in range(1, len(pres.generators) + 1)}
    with pytest.raises(RelatorNotSatisfied):
        build_sector_module(poset, pres, frame, (1, 1), bad)


def test_sector_with_moved_cyclic_vector(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    a1, a2 = np.exp(1.1j), np.exp(0.3j)
    sec = build_sector_module(poset, pres, frame, (1, 1),
                              {1: np.diag([a1, a2])}, w_index=2)
    assert validate_module(sec.module).ok
    idx = pi_index(equivariant_cycle(localize(sec.module, frame.base)))
    assert idx.dim == 2
    assert abs(idx.character((1,)) - (a1 + a2)) < 1e-9


def test_dual_net_membership(hexagon_pfp):
    from fractions import Fraction

    poset, pres, frame = hexagon_pfp
    sec = build_sector_module(poset, pres, frame, (1, 2),
                              {1: np.diag([1.0, 1.0j, 1.0j]).astype(complex)})
    total = 2 * 3
    assert sec.admits(identity_op(total))
    assert sec.admits(finite_op({(0, 2): np.eye(total, dtype=complex)}, total))
    assert dual_net_membership(sec.module, shift_op(total))
    assert not sec.admits(modulation_op(Fraction(1, 2), total))


def test_sector_rejects_bad_shapes(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    with pytest.raises(FiberMismatch):
        build_sector_module(poset, pres, frame, (), {})
    with pytest.raises(FiberMismatch):
        build_sector_module(poset, pres, frame, (1, 1),
                            {1: np.eye(3, dtype=complex)})
    with pytest.raises(FiberMismatch):
        build_sector_module(poset, pres, frame, (1, 1),
                            {1: np.eye(2, dtype=complex)},
                            pi_samples={"one": (identity_op(1),)})


def closure_dimension(mats):
    """Dimension of the unital *-algebra by breadth-first search over
    words in 1, M, M*, keeping a word only when it raises the rank."""
    d = mats[0].shape[0]
    seeds = [np.eye(d, dtype=complex)] + list(mats) + [dagger(m) for m in mats]
    words, frontier = [], [np.eye(d, dtype=complex)]
    while frontier:
        fresh = []
        for w in frontier:
            for s in seeds:
                x = w @ s
                stack = np.array([v.reshape(-1) for v in words + [x]])
                if np.linalg.matrix_rank(stack) > len(words):
                    words.append(x)
                    fresh.append(x)
        frontier = fresh
    return len(words)


def algebra_families(rng):
    for d in range(1, 6):
        yield [random_unitary(rng, d)]
        yield [random_unitary(rng, d), random_unitary(rng, d)]
        q = random_unitary(rng, d)
        yield [q @ np.diag(np.exp(2j * np.pi * rng.integers(0, 3, d) / 3))
               @ dagger(q) for _ in range(2)]
        yield [np.diag(np.ones(d - 1), 1).astype(complex)]
        yield [np.roll(np.eye(d), 1, axis=0).astype(complex)]
        for a in range(1, d):
            u = np.zeros((d, d), dtype=complex)
            u[:a, :a] = random_unitary(rng, a)
            u[a:, a:] = random_unitary(rng, d - a)
            yield [q @ u @ dagger(q)]
        if d % 2 == 0:
            yield [np.kron(np.eye(2), random_unitary(rng, d // 2))]


def test_algebra_dimension_matches_brute_force_closure():
    rng = rng_for(700)
    count = 0
    for mats in algebra_families(rng):
        assert algebra_dimension(mats) == closure_dimension(mats)
        count += 1
    assert count >= 30


def test_algebra_dimension_generic_and_cyclic():
    rng = rng_for(701)
    assert algebra_dimension([random_unitary(rng, 5), random_unitary(rng, 5)]) == 25
    cyc = np.roll(np.eye(16), 1, axis=0).astype(complex)
    assert algebra_dimension([cyc]) == 16
    q = random_unitary(rng, 16)
    assert algebra_dimension([q @ cyc @ dagger(q)]) == 16


def test_algebra_dimension_examples():
    eye = np.eye(2, dtype=complex)
    assert algebra_dimension([eye]) == 1
    assert algebra_dimension([np.diag([1.0, -1.0]).astype(complex)]) == 2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert algebra_dimension([sx, sz]) == 4


# --------------------------------------------------------- bounded transform

def eigh_damping_oracle(d):
    """Independent route: apply x/(1+x^2) to the spectrum."""
    vals, vecs = np.linalg.eigh(d)
    return vecs @ np.diag(vals / (1.0 + vals ** 2)) @ dagger(vecs)


def test_bounded_transform_zero_and_reflection():
    z = np.zeros((3, 3), dtype=complex)
    assert np.array_equal(bounded_transform(z), z)
    d = np.diag([1.0, -1.0]).astype(complex)
    assert opnorm(bounded_transform(d) - np.diag([0.5, -0.5])) < 1e-14


def test_bounded_transform_matches_spectral_oracle():
    for seed in range(10):
        rng = rng_for(500 + seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = (a + dagger(a)) / 2
        assert opnorm(bounded_transform(d) - eigh_damping_oracle(d)) < 1e-11


def test_bounded_transform_rejects_nonselfadjoint():
    with pytest.raises(NotSelfAdjoint):
        bounded_transform(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSelfAdjoint):
        bounded_transform(np.zeros((2, 3)))
