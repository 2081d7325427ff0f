from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from holonet.bundle import (
    HilbertNetBundle,
    bundle_from_rep,
    carrier_transports,
    compute_sections,
    evaluate_path,
    hilbert_section_dimension_oracle,
    holonomy_images,
    holonomy_rep,
    roundtrip_iso,
    section_defect,
    validate_bundle,
)
from holonet.errors import (
    FiberMismatch,
    NotANetBundle,
    RelatorNotSatisfied,
    UnknownElement,
)
from holonet.fredholm import SampledRep, build_shift_module
from holonet.homotopy import (
    Word,
    build_path_frame,
    frame_transports,
    fundamental_presentation,
)
from holonet.linalg import dagger, opnorm, random_unitary
from holonet.operators import adj, evaluate_word_ops, transport_step
from holonet.randomgen import (
    random_hilbert_bundle,
    random_poset_with_frame,
    random_representation,
)
from holonet.reports import CHECK_TOL
from holonet.representation import (
    BlockHom,
    NetOfAlgebras,
    apply_hom,
    basis_stack,
    covariantize,
    identity_hom,
    identity_representation,
)
from holonet.shift_calculus import ShiftOp, op_equal, stripe_op
from holonet.standard import chain_poset, hexagon_poset, with_top
from conftest import (
    block_permutation,
    edge_loop_path,
    homotopic_variant,
    nearly_flat_bundle,
    pfp,
    random_block_permutation,
    random_loop,
)

TOL = 1e-10


def trivial_bundle(poset, dim):
    eye = np.eye(dim, dtype=complex)
    return HilbertNetBundle(poset, dim, {e: eye.copy() for e in poset.strict_pairs()})


# ------------------------------------------------------ block permutations

def test_star_iso_validates_shapes():
    with pytest.raises(FiberMismatch):
        BlockHom((2, 1), (2, 1), ((1, 0), (0, 1)),
                 (np.eye(3, dtype=complex), np.eye(1, dtype=complex)))


def sources(h):
    """The source block of each target block, read off the multiplicities."""
    return tuple(row.index(1) for row in h.mult)


def reference_product(outer, inner):
    """outer after inner, spelled out: target block k receives source block
    inner's source of outer's source of k, by the product of the units."""
    src = sources(outer)
    return block_permutation(tuple(sources(inner)[s] for s in src),
                             [outer.units[k] @ inner.units[s] for k, s in enumerate(src)])


def reference_inverse(h):
    """The inverse spelled out: block src[k] goes back to k by units[k]*."""
    src, units = [0] * len(h.mult), [None] * len(h.mult)
    for k, s in enumerate(sources(h)):
        src[s], units[s] = k, dagger(h.units[k])
    return block_permutation(tuple(src), units)


def word_reference(letters, images, sizes):
    """The word product over block permutations spelled out with the
    reference product and inverse, last letter first."""
    out = identity_hom(sizes)
    for l in reversed(letters):
        m = images[abs(l)]
        out = reference_product(m if l > 0 else reference_inverse(m), out)
    return out


def random_elements(rng, sizes):
    """The matrix units as one stacked element, and a random element."""
    return (basis_stack(sizes),
            tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                  for k in sizes))


def assert_close(x, y):
    for p, q in zip(x, y, strict=True):
        assert np.max(np.abs(p - q)) < 1e-14


def test_iso_compose_inverse_roundtrip():
    rng = np.random.default_rng(3)
    sizes = (2, 2, 1)
    for t in random_elements(rng, sizes):
        for _ in range(10):
            a = random_block_permutation(rng, sizes)
            assert_close(apply_hom(a.H @ a, t), t)
            assert_close(apply_hom(a @ a.H, t), t)


def test_block_permutations_compose_as_maps():
    rng = np.random.default_rng(5)
    sizes = (2, 2, 1)
    for t in random_elements(rng, sizes):
        for _ in range(10):
            a, b = random_block_permutation(rng, sizes), random_block_permutation(rng, sizes)
            assert_close(apply_hom(a @ b, t), apply_hom(a, apply_hom(b, t)))


def test_star_iso_protocol_matches_compose_and_inverse():
    rng = np.random.default_rng(7)
    sizes = (2, 2, 1)
    for _ in range(10):
        a, b = random_block_permutation(rng, sizes), random_block_permutation(rng, sizes)
        assert same_bits(a @ b, reference_product(a, b))
        assert same_bits(adj(a), reference_inverse(a))
        assert same_bits(a.H, reference_inverse(a))
    images = {g: random_block_permutation(rng, sizes) for g in (1, 2, 3)}
    for _ in range(20):
        letters = tuple(int(g) * int(s) for g, s in
                        zip(rng.integers(1, 4, size=rng.integers(0, 7)),
                            rng.choice([-1, 1], size=7)))
        assert same_bits(evaluate_word_ops(letters, images, identity_hom(sizes)),
                         word_reference(letters, images, sizes))


def test_apply_iso_is_star_homomorphism():
    rng = np.random.default_rng(4)
    sizes = (2, 2)
    iso = block_permutation((1, 0), (random_unitary(rng, 2), random_unitary(rng, 2)))
    x = tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k in sizes)
    y = tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k in sizes)
    xy = tuple(a @ b for a, b in zip(x, y))
    rhs = tuple(a @ b for a, b in zip(apply_hom(iso, x), apply_hom(iso, y)))
    for p, q in zip(apply_hom(iso, xy), rhs):
        assert opnorm(p - q) < 1e-12
    star = apply_hom(iso, tuple(dagger(a) for a in x))
    for p, q in zip(star, apply_hom(iso, x)):
        assert opnorm(p - dagger(q)) < 1e-12


def test_only_block_permutations_compose_and_invert():
    eye = np.eye(2, dtype=complex)
    double = BlockHom((1,), (2,), ((2,),), (eye,))
    spread = BlockHom((1, 2), (3,), ((1, 1),), (np.eye(3, dtype=complex),))
    for h in (double, spread):
        with pytest.raises(NotANetBundle, match="sizes differ"):
            h.H
        with pytest.raises(NotANetBundle, match="sizes differ"):
            h @ h
        with pytest.raises(NotANetBundle, match="sizes differ"):
            identity_hom(h.dst_sizes) @ h
    swap = block_permutation((1, 0), (np.eye(1, dtype=complex),) * 2)
    with pytest.raises(NotANetBundle, match="different block algebras"):
        BlockHom((2,), (2,), ((1,),), (eye,)) @ swap


# ------------------------------------------------------------- validation

def test_trivial_bundle_is_valid(hexagon):
    b = trivial_bundle(hexagon, 2)
    assert validate_bundle(b).ok


def test_validation_catches_nonunitary(chain3):
    incl = {e: np.eye(2, dtype=complex) for e in chain3.strict_pairs()}
    incl[("o1", "o2")] = 2.0 * np.eye(2, dtype=complex)
    report = validate_bundle(HilbertNetBundle(chain3, 2, incl))
    assert not report.ok
    assert any(v.check == "inclusion-unitarity" for v in report.violations)


def test_validation_catches_incoherent_chain(chain3):
    rng = np.random.default_rng(7)
    incl = {e: np.eye(2, dtype=complex) for e in chain3.strict_pairs()}
    incl[("o1", "o3")] = random_unitary(rng, 2)
    report = validate_bundle(HilbertNetBundle(chain3, 2, incl))
    bad = [v for v in report.violations if v.check == "chain-coherence"]
    assert bad and bad[0].location == "o1<o2<o3"


def test_validation_catches_missing_and_extra_edges(chain3):
    incl = {("o1", "o2"): np.eye(2, dtype=complex),
            ("o2", "o1"): np.eye(2, dtype=complex)}
    report = validate_bundle(HilbertNetBundle(chain3, 2, incl))
    checks = {v.check for v in report.violations}
    assert "inclusion-coverage" in checks and "inclusion-indexing" in checks


def test_validation_rejects_a_stretched_inclusion(chain3):
    incl = {e: np.eye(2, dtype=complex) for e in chain3.strict_pairs()}
    incl[("o1", "o2")][0, 0] = 1.5
    assert not validate_bundle(HilbertNetBundle(chain3, 2, incl)).ok


def test_unknown_inclusion_raises(chain3):
    b = trivial_bundle(chain3, 2)
    with pytest.raises(UnknownElement):
        b.u("o2", "o1")


# -------------------------------------------------------- path evaluation

def test_trivial_bundle_evaluates_loops_to_identity(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    b = trivial_bundle(poset, 2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        loop = random_loop(poset, frame, rng, int(rng.integers(1, 7)))
        assert np.linalg.norm(evaluate_path(b, loop) - np.eye(2)) < TOL


def test_evaluate_word_conventions():
    rng = np.random.default_rng(13)
    a, b = random_unitary(rng, 3), random_unitary(rng, 3)
    images = {1: a, 2: b}
    # letters[-1] acts first: (1, 2) evaluates to a b
    eye = np.eye(3, dtype=complex)
    got = evaluate_word_ops(Word((1, 2)).letters, images, eye)
    assert np.linalg.norm(got - a @ b) < 1e-14
    got = evaluate_word_ops(Word((-2, 1)).letters, images, eye)
    assert np.linalg.norm(got - dagger(b) @ a) < 1e-14
    assert np.array_equal(evaluate_word_ops(Word(()).letters, images, eye), np.eye(3))


def test_path_evaluation_is_homotopy_invariant():
    # elementary moves on a loop do not change its evaluation
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        poset, pres, frame = random_poset_with_frame(rng, 9)
        b = random_hilbert_bundle(poset, pres, frame, 3, rng)
        loop = random_loop(poset, frame, rng, int(rng.integers(1, 6)))
        variant = homotopic_variant(poset, loop, rng, moves=10)
        u, v = evaluate_path(b, loop), evaluate_path(b, variant)
        assert np.linalg.norm(u - v) < TOL
        if loop.simplices != variant.simplices:
            hits += 1
    assert hits > 20


def same_bits(a, b) -> bool:
    if isinstance(a, BlockHom):
        return (a.src_sizes == b.src_sizes and a.dst_sizes == b.dst_sizes
                and a.mult == b.mult
                and all(same_bits(x, y) for x, y in zip(a.units, b.units)))
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def net_step_reference(net):
    """The transport step of a net of block permutations, spelled out
    with the reference product and inverse."""
    return lambda t, s: reference_product(
        reference_product(reference_inverse(net.u(s.face0, s.support)),
                          net.u(s.face1, s.support)), t)


def random_net(rng, poset, sizes=(1, 1, 2)) -> NetOfAlgebras:
    """A random block permutation on every strict pair."""
    return NetOfAlgebras(poset, {o: sizes for o in poset.elements},
                         {e: random_block_permutation(rng, sizes)
                          for e in poset.strict_pairs()})


def test_frame_transports_match_path_evaluation_bitwise():
    # generic carriers: a random unitary (or block permutation) on every
    # edge, so no frame transport is the identity
    for seed in range(6):
        rng = np.random.default_rng(seed + 90)
        poset, pres, frame = random_poset_with_frame(rng, 14)
        hilbert = HilbertNetBundle(poset, 3, {e: random_unitary(rng, 3)
                                              for e in poset.strict_pairs()})
        net = random_net(rng, poset)
        for b in (hilbert, net):
            t = frame_transports(poset, frame, b.ident, partial(transport_step, b))
            assert set(t) == set(poset.elements)
            for o in poset.elements:
                assert same_bits(t[o], evaluate_path(b, frame.to(o)))
        step = net_step_reference(net)
        loops = [edge_loop_path(poset, frame, *e) for e in pres.generators]
        for p in [frame.to(o) for o in poset.elements] + loops:
            want = identity_hom((1, 1, 2))
            for s in p.simplices:
                want = step(want, s)
            assert same_bits(evaluate_path(net, p), want)


# ------------------------------------------------- holonomy and roundtrip

def test_rep_to_bundle_to_holonomy_is_exact():
    # tree edges reconstruct to exact identities, generator edges to the
    # verbatim images, so the holonomy returns bit-identical matrices
    for seed in range(20):
        rng = np.random.default_rng(seed)
        poset, pres, frame = random_poset_with_frame(rng, 10)
        images = random_representation(pres, 4, rng)
        if not images:
            continue
        b = bundle_from_rep(poset, pres, frame, images, 4)
        back = holonomy_rep(b, pres, frame)
        assert set(back) == set(images)
        for idx in images:
            assert np.array_equal(back[idx], images[idx])


def test_holonomy_rep_rejects_broken_relators():
    # random edge operators on a 3-chain break its one relator
    poset, pres, frame = pfp(chain_poset(3))
    assert len(pres.relators) == 1
    rng = np.random.default_rng(19)
    b = HilbertNetBundle(poset, 2, {e: random_unitary(rng, 2)
                                    for e in poset.strict_pairs()})
    with pytest.raises(RelatorNotSatisfied, match="has defect"):
        holonomy_rep(b, pres, frame)


def test_bundle_from_rep_rejects_nonunitary_and_broken_relators(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    from holonet.errors import InvalidRepresentation
    with pytest.raises(InvalidRepresentation):
        bundle_from_rep(poset, pres, frame, {1: 2 * np.eye(2, dtype=complex)}, 2)
    chain = chain_poset(3)
    cpos, cpres, cframe = pfp(chain)
    assert len(cpres.relators) == 1
    rng = np.random.default_rng(17)
    with pytest.raises(RelatorNotSatisfied):
        bundle_from_rep(cpos, cpres, cframe, {1: random_unitary(rng, 3)}, 3)


def test_bundle_from_rep_rejects_missing_generator_images():
    poset, pres, frame = pfp(with_top(hexagon_poset()))
    assert len(pres.generators) > 1
    with pytest.raises(FiberMismatch, match="missing generator images"):
        bundle_from_rep(poset, pres, frame, {1: np.eye(2, dtype=complex)}, 2)


def test_roundtrip_intertwines_random_bundles():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 10)
        b = random_hilbert_bundle(poset, pres, frame, 3, rng)
        rt = roundtrip_iso(b, pres, frame)
        assert rt.defect < TOL
        assert validate_bundle(rt.reconstructed, 1e-10).ok


def test_reconstructed_bundle_trivializes_frame_paths(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(23)
    images = random_representation(pres, 3, rng)
    b = bundle_from_rep(poset, pres, frame, images, 3)
    for o in poset.elements:
        assert np.array_equal(evaluate_path(b, frame.to(o)), np.eye(3))


def test_holonomy_images_follow_edge_loops(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = np.random.default_rng(29)
    b = random_hilbert_bundle(poset, pres, frame, 2, rng)
    images = holonomy_rep(b, pres, frame)
    for e, idx in pres.gen_index.items():
        loop = edge_loop_path(poset, frame, e[0], e[1])
        assert loop.start == loop.end == frame.base
        assert np.linalg.norm(images[idx] - evaluate_path(b, loop)) == 0.0


def test_holonomy_images_match_the_edge_loop_paths_bitwise():
    """Images read off the frame transports equal the evaluation of each
    generator's edge loop as a path, bit for bit: on a generic Hilbert
    bundle and net of block permutations, a dense sampled representation, and the shift-class
    representations of a shift module (flat, and gauged by a colour
    unitary on every edge)."""
    checked = 0
    for seed in range(8):
        rng = np.random.default_rng(seed + 300)
        poset, pres, frame = random_poset_with_frame(rng, 12)
        if not pres.generators:
            continue
        u_images = random_representation(pres, 2, rng)
        shift = build_shift_module(poset, pres, frame, u_images).rep
        carriers = [
            HilbertNetBundle(poset, 3, {e: random_unitary(rng, 3)
                                        for e in poset.strict_pairs()}),
            random_net(rng, poset),
            SampledRep(poset, pres, frame,
                       {e: random_unitary(rng, 2) for e in poset.strict_pairs()},
                       {}, np.eye(2, dtype=complex)),
            shift,
            replace(shift, u_incl={e: stripe_op(0, random_unitary(rng, 4)) @ u
                                   for e, u in shift.u_incl.items()}),
        ]
        for x in carriers:
            got = holonomy_images(x, pres, frame)
            assert sorted(got) == sorted(pres.gen_index.values())
            for (o, o1), idx in pres.gen_index.items():
                want = evaluate_path(x, edge_loop_path(poset, frame, o, o1))
                if isinstance(want, ShiftOp):
                    assert op_equal(got[idx], want)
                else:
                    assert same_bits(got[idx], want)
            checked += 1
    assert checked >= 25


# ---------------------------------------------------------------- sections

def test_trivial_bundle_has_full_section_space(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    b = trivial_bundle(poset, 3)
    secs = compute_sections(b, pres, frame)
    assert len(secs) == 3
    for s in secs:
        assert section_defect(b, s) < TOL


def test_twisted_hexagon_has_one_section(hexagon_pfp):
    # generator image diag(1, phase): only the first coordinate is fixed
    poset, pres, frame = hexagon_pfp
    img = np.diag([1.0, np.exp(0.7j)]).astype(complex)
    b = bundle_from_rep(poset, pres, frame, {1: img}, 2)
    secs = compute_sections(b, pres, frame)
    assert len(secs) == 1
    assert section_defect(b, secs[0]) < TOL
    assert hilbert_section_dimension_oracle(b, pres, frame) == 1


def test_section_count_matches_spectral_oracle():
    for seed in range(25):
        rng = np.random.default_rng(200 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 10)
        b = random_hilbert_bundle(poset, pres, frame, 4, rng)
        secs = compute_sections(b, pres, frame)
        assert len(secs) == hilbert_section_dimension_oracle(b, pres, frame)
        for s in secs:
            assert section_defect(b, s) < TOL
        if secs:
            mat = np.column_stack([s.values[frame.base] for s in secs])
            assert np.linalg.matrix_rank(mat) == len(secs)


# ------------------------------------------------------------ nets of algebras

def test_cstar_conjugation_holonomy():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 2)
    iso = block_permutation((0,), (u,))
    poset = hexagon_poset()
    _, pres, frame = pfp(poset)
    net = NetOfAlgebras(poset, {o: (2,) for o in poset.elements},
                        {e: identity_hom((2,)) if e in pres.tree_edges else iso
                         for e in poset.strict_pairs()})
    images = holonomy_images(net, pres, frame)
    t = basis_stack((2,))
    assert np.max(np.abs(apply_hom(images[1], t)[0] - apply_hom(iso, t)[0])) < 1e-14


def test_a_given_tolerance_reaches_the_relator_check():
    poset, pres, frame, b = nearly_flat_bundle()
    assert len(pres.relators) == 22
    checks = (partial(compute_sections, b, pres, frame),
              partial(hilbert_section_dimension_oracle, b, pres, frame))
    for check in checks:
        check(tol=1e-6)
        with pytest.raises(RelatorNotSatisfied, match="has defect"):
            check()
    with pytest.raises(RelatorNotSatisfied, match="has defect"):
        covariantize(identity_representation(b), pres, frame)


# ------------------------------------------------------------ carrier memo

def outcome(f, *args):
    """What a holonomy call gives: its images as bytes, or the type and
    message of the error it raises."""
    try:
        images = f(*args)
    except RelatorNotSatisfied as e:
        return type(e), str(e)
    return {g: v.tobytes() for g, v in images.items()}


def memo_carriers(seed):
    """(pres, frame, carriers): a bundle, a net of block permutations and
    the sampled representation of a shift module over one random poset."""
    rng = np.random.default_rng(seed)
    poset, pres, frame = random_poset_with_frame(rng, 12)
    assert pres.generators
    return pres, frame, [
        random_hilbert_bundle(poset, pres, frame, 2, rng),
        random_net(rng, poset),
        build_shift_module(poset, pres, frame, random_representation(pres, 2, rng)).rep]


def equal_bits(a, b) -> bool:
    return op_equal(a, b) if isinstance(a, ShiftOp) else same_bits(a, b)


def test_the_memo_judges_each_call_at_its_own_tolerance():
    # the relators hold to about 1e-8: a call at 1e-6 passes and one at
    # CHECK_TOL raises, whichever of them filled the memo
    _, pres, frame, b = nearly_flat_bundle()
    tols = (1e-6, CHECK_TOL)
    fresh = {tol: outcome(holonomy_rep, replace(b), pres, frame, tol) for tol in tols}
    assert isinstance(fresh[1e-6], dict)
    assert fresh[CHECK_TOL][0] is RelatorNotSatisfied
    for order in (tols, tols[::-1]):
        c = replace(b)
        for tol in order + order:
            assert outcome(holonomy_rep, c, pres, frame, tol) == fresh[tol]


def test_editing_a_returned_dict_leaves_the_next_result():
    pres, frame, carriers = memo_carriers(310)
    b = carriers[0]
    for f in (holonomy_images, holonomy_rep):
        want = outcome(f, replace(b), pres, frame)
        got = f(b, pres, frame)
        got.clear()
        got[0] = np.zeros((2, 2), dtype=complex)
        assert outcome(f, b, pres, frame) == want


def test_the_shared_arrays_refuse_an_edit_in_place():
    # every later holonomy, section and relator verdict of the carrier
    # reads these objects
    pres, frame, carriers = memo_carriers(317)
    b = carriers[0]
    t = carrier_transports(b, frame)
    with pytest.raises(TypeError):
        t[frame.base] = b.ident
    for a in [*t.values(), *holonomy_rep(b, pres, frame).values()]:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


def test_a_fresh_carrier_with_equal_fields_gives_the_same_bits():
    for seed in (311, 312):
        pres, frame, carriers = memo_carriers(seed)
        for x in carriers:
            t, images = carrier_transports(x, frame), holonomy_images(x, pres, frame)
            assert carrier_transports(x, frame) is t
            y = replace(x)
            t_y, images_y = carrier_transports(y, frame), holonomy_images(y, pres, frame)
            assert t_y is not t
            assert t_y.keys() == t.keys() and images_y.keys() == images.keys()
            assert all(equal_bits(t_y[o], t[o]) for o in t)
            assert all(equal_bits(images_y[g], images[g]) for g in images)


def test_a_carrier_keeps_one_value_per_presentation_and_frame():
    # the holonomy at a second base point, read after the first, is the
    # one a fresh carrier gives there
    pres, frame, carriers = memo_carriers(316)
    poset = carriers[0].poset
    other = max(sorted(poset.elements), key=lambda o: len(frame.to(o).simplices))
    pres2, frame2 = fundamental_presentation(poset, other), build_path_frame(poset, other)
    b = carriers[0]
    holonomy_rep(b, pres, frame)
    for f in (holonomy_images, holonomy_rep):
        assert outcome(f, b, pres2, frame2) == outcome(f, replace(b), pres2, frame2)
    t2 = carrier_transports(replace(b), frame2)
    assert all(same_bits(carrier_transports(b, frame2)[o], t2[o]) for o in t2)


def test_replace_gives_a_carrier_with_an_empty_memo():
    # from_cycle rebuilds its flat representation by `replace`: a carrier
    # rebuilt with other edge operators reads none of the old values
    pres, frame, carriers = memo_carriers(313)
    b, _, rep = carriers
    rng = np.random.default_rng(314)
    other = random_hilbert_bundle(b.poset, pres, frame, 2, rng)
    want = outcome(holonomy_rep, HilbertNetBundle(b.poset, 2, other.incl), pres, frame)
    assert outcome(holonomy_rep, b, pres, frame) != want
    assert outcome(holonomy_rep, replace(b, incl=other.incl), pres, frame) == want
    holonomy_images(rep, pres, frame)
    gauged = {e: stripe_op(0, random_unitary(rng, 4)) @ u for e, u in rep.u_incl.items()}
    got = holonomy_images(replace(rep, u_incl=gauged), pres, frame)
    want = holonomy_images(SampledRep(rep.poset, pres, frame, gauged, rep.samples,
                                      rep.ident, rep.grading), pres, frame)
    assert got.keys() == want.keys()
    assert all(op_equal(got[g], want[g]) for g in got)


def test_a_filled_memo_changes_neither_equality_nor_fields():
    pres, frame, carriers = memo_carriers(315)
    for x in carriers:
        y = replace(x)
        before = x == y, y == x, fields(x)
        assert before[0] and before[1]
        holonomy_images(x, pres, frame)
        if isinstance(x, HilbertNetBundle):
            holonomy_rep(x, pres, frame)
        assert (x == y, y == x, fields(x)) == before
