import numpy as np
import pytest

from holonet.bundle import HilbertNetBundle, bundle_from_rep, validate_bundle
from holonet.errors import (
    FiberMismatch,
    InvalidRepresentation,
    NotANetBundle,
    NotCovariant,
    RelatorNotSatisfied,
)
from holonet.linalg import dagger, random_unitary
from holonet.randomgen import random_hilbert_bundle, random_poset_with_frame
from holonet.representation import (
    BlockHom,
    NetOfAlgebras,
    NetRepresentation,
    apply_hom,
    covariantize,
    identity_hom,
    identity_representation,
    validate_representation,
)
from conftest import block_permutation, netify, pfp


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


def test_block_permutation_source_blocks():
    rng = np.random.default_rng(2)
    h = block_permutation((1, 0, 2), (random_unitary(rng, 2), random_unitary(rng, 2),
                                      random_unitary(rng, 1)))
    assert h.src == (1, 0, 2)
    assert h.H.src == (1, 0, 2) and (h @ h).src == (0, 1, 2)
    assert identity_hom((2, 2, 1)).src == (0, 1, 2)


def test_multiplicity_is_not_a_block_permutation():
    h = BlockHom((1, 2), (3,), ((1, 1),), (np.eye(3, dtype=complex),))
    with pytest.raises(NotANetBundle):
        h.src


# -------------------------------------------------------------------- nets

def varying_net(chain3):
    fibers = {"o1": (1, 1), "o2": (2,), "o3": (2,)}
    diag = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    ident = identity_hom((2,))
    return NetOfAlgebras(chain3, fibers,
                         {("o1", "o2"): diag, ("o1", "o3"): diag, ("o2", "o3"): ident})


def test_net_identity_requires_constant_fibers(chain3):
    net = varying_net(chain3)
    assert net.u("o1", "o2") is net.incl[("o1", "o2")]
    with pytest.raises(NotANetBundle, match="fibers are not constant"):
        net.ident
    with pytest.raises(NotANetBundle, match="fibers are not constant"):
        net.u("o2", "o2")
    constant = NetOfAlgebras(chain3, {o: (2,) for o in chain3.elements}, {})
    assert constant.u("o1", "o1") is constant.ident is constant.ident


def test_covariantize_requires_a_net_bundle_before_any_holonomy(chain3):
    """A varying net and a net with a multiplicity inclusion are both
    rejected before the target's holonomy, whose relator fails here."""
    poset, pres, frame = pfp(chain3)
    assert len(pres.relators) == 1
    rng = np.random.default_rng(23)
    target = HilbertNetBundle(poset, 2, {e: random_unitary(rng, 2)
                                         for e in poset.strict_pairs()})
    net = varying_net(poset)
    pi = {o: identity_hom((2,)) if net.fibers[o] == (2,) else
          BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
          for o in poset.elements}
    r = NetRepresentation(net, target, pi)
    with pytest.raises(InvalidRepresentation):
        covariantize(r, pres, frame)
    # the same net with its inclusions carried by the target, so that it
    # validates: a morphism that fails only as a net bundle
    incl = {e: BlockHom(h.src_sizes, h.dst_sizes, h.mult,
                        (target.incl[e] @ h.units[0],))
            for e, h in net.incl.items()}
    r = NetRepresentation(NetOfAlgebras(poset, net.fibers, incl), target, pi)
    assert validate_representation(r).ok
    with pytest.raises(NotANetBundle, match="fibers are not constant"):
        covariantize(r, pres, frame)


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
    assert not validate_representation(NetRepresentation(r.net, b, pi)).ok


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
    b = HilbertNetBundle(
        poset, 2, {e: np.eye(2, dtype=complex) for e in poset.strict_pairs()})
    assert validate_bundle(b).ok
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
    swap = block_permutation((1, 0), (np.eye(1, dtype=complex),) * 2)
    v = {1: np.array([[0, 1], [1, 0]], dtype=complex)}
    r = netify(eta, v, poset, pres, frame, action={1: swap})
    assert validate_representation(r).ok
    for e in poset.strict_pairs():
        if e not in pres.tree_edges:
            assert r.net.u(*e).src == (1, 0)
    pi_base, images = covariantize(r, pres, frame)
    assert pi_base is eta
    assert images.keys() == v.keys() and np.array_equal(images[1], v[1])


def test_netify_rejects_noncovariant(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    eta = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    swap = block_permutation((1, 0), (np.eye(1, dtype=complex),) * 2)
    with pytest.raises(NotCovariant):
        netify(eta, {1: np.eye(2, dtype=complex)}, poset, pres, frame,
               action={1: swap})


def test_netify_rejects_action_breaking_relator(chain3):
    poset, pres, frame = pfp(chain3)
    assert len(pres.relators) == 1
    eta = BlockHom((1, 1), (2,), ((1, 1),), (np.eye(2, dtype=complex),))
    swap = block_permutation((1, 0), (np.eye(1, dtype=complex),) * 2)
    with pytest.raises(RelatorNotSatisfied):
        netify(eta, {1: np.array([[0, 1], [1, 0]], dtype=complex)},
               poset, pres, frame, action={1: swap})
