import numpy as np
import pytest

from holonet.bundle import (
    bundle_from_rep,
    evaluate_path,
    holonomy_rep,
    make_hilbert_bundle,
)
from holonet.cstar import StarIso, identity_iso
from holonet.errors import (
    FiberMismatch,
    InvalidNet,
    InvalidRepresentation,
    NotANetBundle,
    NotCovariant,
    PathOutsidePoset,
    RelatorNotSatisfied,
)
from holonet.linalg import dagger, random_unitary
from holonet.poset import (
    OneSimplex,
    Path,
    compose_paths,
    edge_simplex,
    make_path,
    opposite_path,
)
from holonet.randomgen import (
    homotopic_variant,
    random_hilbert_bundle,
    random_loop,
    random_path,
    random_poset_with_frame,
)
from holonet.representation import (
    BlockHom,
    NetOfAlgebras,
    NetRepresentation,
    apply_hom,
    as_net_bundle,
    check_path_compatibility,
    constant_net,
    covariantize,
    enveloping_normal_form,
    hom_from_iso,
    identity_hom,
    identity_representation,
    iso_from_hom,
    make_net,
    make_net_representation,
    net_of_bundle,
    netify,
    validate_net,
    validate_representation,
)
from conftest import pfp

TOL = 1e-10


# ---------------------------------------------------------------- BlockHom

def test_blockhom_rejects_non_unital():
    with pytest.raises(FiberMismatch):
        BlockHom((1, 2), (4,), ((1, 1),), (np.eye(4, dtype=complex),))


def test_blockhom_rejects_non_injective():
    with pytest.raises(FiberMismatch):
        BlockHom((1, 1), (2,), ((2, 0),), (np.eye(2, dtype=complex),))


def test_blockhom_rejects_bad_unit():
    with pytest.raises(FiberMismatch):
        BlockHom((1, 2), (3,), ((1, 1),), (np.eye(2, dtype=complex),))


def test_multiplicity_embedding_places_blocks():
    h = BlockHom((1, 2), (3,), ((1, 1),), (np.eye(3, dtype=complex),))
    x = (np.array([[5.0]], dtype=complex), np.diag([1.0, 2.0]).astype(complex))
    (y,) = apply_hom(h, x)
    assert np.array_equal(y, np.diag([5.0, 1.0, 2.0]))


def test_apply_hom_is_star_homomorphism():
    rng = np.random.default_rng(1)
    h = BlockHom((2, 1), (5,), ((2, 1),), (random_unitary(rng, 5),))
    x = tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k in (2, 1))
    y = tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k in (2, 1))
    xy = tuple(a @ b for a, b in zip(x, y))
    assert np.linalg.norm(apply_hom(h, xy)[0]
                          - apply_hom(h, x)[0] @ apply_hom(h, y)[0]) < 1e-12
    assert np.linalg.norm(apply_hom(h, tuple(dagger(a) for a in x))[0]
                          - dagger(apply_hom(h, x)[0])) < 1e-12


def test_hom_iso_roundtrip():
    rng = np.random.default_rng(2)
    iso = StarIso((2, 2, 1), (1, 0, 2),
                  (random_unitary(rng, 2), random_unitary(rng, 2),
                   random_unitary(rng, 1)))
    back = iso_from_hom(hom_from_iso(iso))
    assert back.src == iso.src
    assert all(np.array_equal(a, b) for a, b in zip(back.units, iso.units))


def test_iso_from_hom_rejects_multiplicity():
    h = BlockHom((1, 2), (3,), ((1, 1),), (np.eye(3, dtype=complex),))
    with pytest.raises(NotANetBundle):
        iso_from_hom(h)


# -------------------------------------------------------------------- nets

def test_constant_net_valid(hexagon):
    assert validate_net(constant_net(hexagon, (2, 1))).ok


def test_net_of_bundle_valid():
    rng = np.random.default_rng(3)
    poset, pres, frame = random_poset_with_frame(rng, 8)
    b = random_hilbert_bundle(poset, pres, frame, 3, rng)
    assert validate_net(net_of_bundle(b)).ok


def test_functoriality_action_violation_detected(chain3):
    rng = np.random.default_rng(4)
    sizes = (2,)
    incl = {e: identity_hom(sizes) for e in chain3.strict_pairs()}
    incl[("o1", "o3")] = BlockHom(sizes, sizes, ((1,),), (random_unitary(rng, 2),))
    report = validate_net(NetOfAlgebras(chain3, {o: sizes for o in chain3.elements}, incl))
    assert any(v.check == "functoriality-action" for v in report.violations)


def test_functoriality_mult_violation_detected(chain3):
    sizes = (1, 1)
    swap = BlockHom(sizes, sizes, ((0, 1), (1, 0)),
                    (np.eye(1, dtype=complex), np.eye(1, dtype=complex)))
    incl = {e: identity_hom(sizes) for e in chain3.strict_pairs()}
    incl[("o1", "o3")] = swap
    net = NetOfAlgebras(chain3, {o: sizes for o in chain3.elements}, incl)
    report = validate_net(net)
    assert any(v.check == "functoriality-mult" for v in report.violations)
    with pytest.raises(InvalidNet):
        make_net(chain3, net.fibers, incl)


def test_as_net_bundle_requires_constant_iso_fibers(chain3):
    fibers = {"o1": (1, 1), "o2": (2,), "o3": (2,)}
    diag = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    ident = identity_hom((2,))
    net = NetOfAlgebras(chain3, fibers,
                        {("o1", "o2"): diag, ("o1", "o3"): diag, ("o2", "o3"): ident})
    assert validate_net(net).ok
    with pytest.raises(NotANetBundle):
        as_net_bundle(net)


# --------------------------------------------------------- representations

def test_identity_representation_valid():
    for seed in range(8):
        rng = np.random.default_rng(10 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 9)
        b = random_hilbert_bundle(poset, pres, frame, 3, rng)
        assert validate_representation(identity_representation(b)).ok


def test_corrupted_pi_rejected(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(20)
    b = random_hilbert_bundle(poset, pres, frame, 2, rng)
    r = identity_representation(b)
    pi = dict(r.pi)
    pi[poset.elements[2]] = BlockHom((2,), (2,), ((1,),), (random_unitary(rng, 2),))
    with pytest.raises(InvalidRepresentation):
        make_net_representation(r.net, b, pi)


def test_covariantize_recovers_rotation(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(21)
    u = random_unitary(rng, 3)
    b = bundle_from_rep(poset, pres, frame, {1: u}, 3)
    pi_base, images = covariantize(identity_representation(b), pres, frame)
    assert np.array_equal(images[1], u)
    assert pi_base.src_sizes == (3,) and pi_base.dst_sizes == (3,)


def test_covariantize_constant_everything(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    b = make_hilbert_bundle(
        poset, 2, {e: np.eye(2, dtype=complex) for e in poset.strict_pairs()})
    pi_base, images = covariantize(identity_representation(b), pres, frame)
    assert np.array_equal(images[1], np.eye(2))


def test_covariantize_rejects_invalid(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(22)
    b = random_hilbert_bundle(poset, pres, frame, 2, rng)
    r = identity_representation(b)
    pi = dict(r.pi)
    pi[poset.elements[0]] = BlockHom((2,), (2,), ((1,),), (random_unitary(rng, 2),))
    bad = NetRepresentation(r.net, b, pi)
    with pytest.raises(InvalidRepresentation):
        covariantize(bad, pres, frame)


# ------------------------------------------------------------------ netify

def test_netify_trivial_v_gives_constant_bundle(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    eta = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    r = netify(eta, {1: np.eye(2, dtype=complex)}, poset, pres, frame)
    for e in poset.strict_pairs():
        assert np.array_equal(r.target.incl[e], np.eye(2))
    assert validate_representation(r).ok


def test_netify_phase_twist_roundtrip(hexagon_pfp):
    # with the trivial action V must commute with the image of eta,
    # so the twist is by a scalar phase
    poset, pres, frame = hexagon_pfp
    eta = identity_hom((2,))
    v = {1: np.exp(0.3j) * np.eye(2, dtype=complex)}
    r = netify(eta, v, poset, pres, frame)
    assert validate_representation(r).ok
    pi_base, images = covariantize(r, pres, frame)
    assert pi_base is eta
    assert np.array_equal(images[1], v[1])


def test_netify_with_nontrivial_action(hexagon_pfp):
    # the flip of two scalar blocks is implemented by a swap unitary
    poset, pres, frame = hexagon_pfp
    eta = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    swap_iso = StarIso((1, 1), (1, 0),
                       (np.eye(1, dtype=complex), np.eye(1, dtype=complex)))
    v = {1: np.array([[0, 1], [1, 0]], dtype=complex)}
    r = netify(eta, v, poset, pres, frame, action={1: swap_iso})
    assert validate_representation(r).ok
    for e in poset.strict_pairs():
        if e not in pres.tree_edges:
            assert as_net_bundle(r.net).u(*e).src == (1, 0)


def test_netify_rejects_noncovariant(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    eta = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    swap_iso = StarIso((1, 1), (1, 0),
                       (np.eye(1, dtype=complex), np.eye(1, dtype=complex)))
    with pytest.raises(NotCovariant):
        netify(eta, {1: np.eye(2, dtype=complex)}, poset, pres, frame,
               action={1: swap_iso})


def test_netify_rejects_action_breaking_relator(chain3):
    poset, pres, frame = pfp(chain3)
    assert len(pres.relators) == 1
    eta = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    swap_iso = StarIso((1, 1), (1, 0),
                       (np.eye(1, dtype=complex), np.eye(1, dtype=complex)))
    with pytest.raises(RelatorNotSatisfied):
        netify(eta, {1: np.array([[0, 1], [1, 0]], dtype=complex)},
               poset, pres, frame, action={1: swap_iso})


# ---------------------------------------------------- path compatibility

def test_path_compatibility_small_for_valid():
    for seed in range(8):
        rng = np.random.default_rng(30 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 9)
        b = random_hilbert_bundle(poset, pres, frame, 3, rng)
        r = identity_representation(b)
        start = poset.elements[int(rng.integers(len(poset.elements)))]
        p = random_path(poset, rng, start, int(rng.integers(1, 5)))
        assert check_path_compatibility(r, p) < TOL


def test_path_compatibility_reports_corruption(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(40)
    b = random_hilbert_bundle(poset, pres, frame, 2, rng)
    r = identity_representation(b)
    pi = dict(r.pi)
    p = random_path(poset, rng, poset.elements[0], 3)
    pi[p.end] = BlockHom((2,), (2,), ((1,),), (random_unitary(rng, 2),))
    assert check_path_compatibility(NetRepresentation(r.net, b, pi), p) > 1e-3


def test_path_compatibility_needs_net_bundle(chain3):
    fibers = {"o1": (1, 1), "o2": (2,), "o3": (2,)}
    diag = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    ident = identity_hom((2,))
    net = NetOfAlgebras(chain3, fibers,
                        {("o1", "o2"): diag, ("o1", "o3"): diag, ("o2", "o3"): ident})
    b = make_hilbert_bundle(
        chain3, 2, {e: np.eye(2, dtype=complex) for e in chain3.strict_pairs()})
    pi = {"o1": diag, "o2": ident, "o3": ident}
    r = make_net_representation(net, b, pi)
    p = make_path(chain3, [edge_simplex(chain3, "o1", "o2")])
    with pytest.raises(NotANetBundle):
        check_path_compatibility(r, p)


# ----------------------------------------------------------- normal form

def test_normal_form_identity_path(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(50)
    b = random_hilbert_bundle(poset, pres, frame, 2, rng)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p = make_path(poset, [], at=poset.elements[0])
    assert np.array_equal(enveloping_normal_form(b, p, t), t)


def test_normal_form_absorption():
    for seed in range(8):
        rng = np.random.default_rng(60 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 9)
        b = random_hilbert_bundle(poset, pres, frame, 3, rng)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        o = poset.elements[int(rng.integers(len(poset.elements)))]
        supports = [s for s in poset.elements if poset.leq(o, s)]
        o1 = supports[int(rng.integers(len(supports)))]
        hop = make_path(poset, [OneSimplex(o1, o1, o)])
        p = random_path(poset, rng, o1, 3)
        lhs = enveloping_normal_form(b, compose_paths(poset, p, hop), t)
        rhs = enveloping_normal_form(b, p, enveloping_normal_form(b, hop, t))
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_normal_form_homotopy_invariant():
    for seed in range(8):
        rng = np.random.default_rng(70 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 9)
        b = random_hilbert_bundle(poset, pres, frame, 3, rng)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        o = poset.elements[int(rng.integers(len(poset.elements)))]
        p = random_path(poset, rng, o, 4)
        q = homotopic_variant(poset, p, rng, moves=8)
        assert np.linalg.norm(enveloping_normal_form(b, p, t)
                              - enveloping_normal_form(b, q, t)) < TOL


def test_normal_form_group_action(hexagon_pfp):
    # acting by a loop first equals acting by its holonomy on the result
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(80)
    b = random_hilbert_bundle(poset, pres, frame, 2, rng)
    images = holonomy_rep(b, pres, frame)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p = random_path(poset, rng, poset.elements[2], 3)
    to_base = compose_paths(poset, opposite_path(frame.to(p.end)), p)
    nf = enveloping_normal_form(b, to_base, t)
    g = random_loop(poset, frame, rng, 4)
    lhs = enveloping_normal_form(b, compose_paths(poset, g, to_base), t)
    ug = evaluate_path(b, g)
    assert np.linalg.norm(lhs - ug @ nf @ dagger(ug)) < TOL


def test_normal_form_outside_poset(chain3):
    b = make_hilbert_bundle(
        chain3, 2, {e: np.eye(2, dtype=complex) for e in chain3.strict_pairs()})
    foreign = Path((OneSimplex("U1", "U1", "V12"),), "V12", "U1")
    with pytest.raises(PathOutsidePoset):
        enveloping_normal_form(b, foreign, np.eye(2))


def test_normal_form_fiber_mismatch(chain3):
    b = make_hilbert_bundle(
        chain3, 2, {e: np.eye(2, dtype=complex) for e in chain3.strict_pairs()})
    p = make_path(chain3, [edge_simplex(chain3, "o1", "o2")])
    with pytest.raises(FiberMismatch):
        enveloping_normal_form(b, p, np.eye(3))


def test_normal_form_cstar_case(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    from holonet.bundle import make_cstar_bundle
    swap = StarIso((1, 1), (1, 0),
                   (np.eye(1, dtype=complex), np.eye(1, dtype=complex)))
    incl = {e: (identity_iso((1, 1)) if e in pres.tree_edges else swap)
            for e in poset.strict_pairs()}
    cb = make_cstar_bundle(poset, (1, 1), incl)
    t = (np.array([[2.0]], dtype=complex), np.array([[3.0]], dtype=complex))
    e = next(iter(set(poset.strict_pairs()) - pres.tree_edges))
    p = make_path(poset, [OneSimplex(e[1], e[1], e[0])])
    got = enveloping_normal_form(cb, p, t)
    assert got[0][0, 0] == 3.0 and got[1][0, 0] == 2.0
