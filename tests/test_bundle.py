from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from holonet.bundle import (
    CStarNetBundle,
    HilbertNetBundle,
    bundle_from_rep,
    compute_sections,
    evaluate_path,
    hilbert_section_dimension_oracle,
    holonomy_images,
    holonomy_rep,
    roundtrip_iso,
    section_defect,
    validate_bundle,
)
from holonet.cstar import (
    StarIso,
    apply_iso,
    compose_iso,
    element_norm,
    element_sub,
    identity_iso,
    inverse_iso,
    iso_map_defect,
)
from holonet.errors import (
    FiberMismatch,
    RelatorNotSatisfied,
    UnknownElement,
)
from holonet.fredholm import SampledRep, build_shift_module
from holonet.homotopy import Word, frame_transports
from holonet.linalg import dagger, random_unitary
from holonet.operators import adj, evaluate_word_ops, transport_step
from holonet.randomgen import (
    random_hilbert_bundle,
    random_poset_with_frame,
    random_representation,
)
from holonet.representation import covariantize, identity_representation
from holonet.shift_calculus import ShiftOp, op_equal, stripe_op
from holonet.standard import chain_poset, hexagon_poset, with_top
from conftest import edge_loop_path, homotopic_variant, nearly_flat_bundle, pfp, random_loop

TOL = 1e-10


def trivial_bundle(poset, dim):
    eye = np.eye(dim, dtype=complex)
    return HilbertNetBundle(poset, dim, {e: eye.copy() for e in poset.strict_pairs()})


# ---------------------------------------------------------------- StarIso

def test_star_iso_validates_shapes():
    with pytest.raises(Exception):
        StarIso((2, 1), (0, 1), (np.eye(3, dtype=complex), np.eye(1, dtype=complex)))


def test_iso_compose_inverse_roundtrip():
    rng = np.random.default_rng(3)
    sizes = (2, 2, 1)
    iso = StarIso(sizes, (1, 0, 2), (random_unitary(rng, 2),
                                     random_unitary(rng, 2),
                                     random_unitary(rng, 1)))
    both = compose_iso(inverse_iso(iso), iso)
    assert iso_map_defect(both, identity_iso(sizes), sizes) < 1e-14


def word_iso_reference(letters, images, sizes):
    """The word product over *-isomorphisms spelled out with
    compose_iso and inverse_iso, last letter first."""
    out = identity_iso(sizes)
    for l in reversed(letters):
        m = images[abs(l)]
        out = compose_iso(m if l > 0 else inverse_iso(m), out)
    return out


def test_star_iso_protocol_matches_compose_and_inverse():
    rng = np.random.default_rng(7)
    sizes = (2, 2, 1)

    def random_iso():
        return StarIso(sizes, tuple(int(i) for i in rng.permutation(2)) + (2,),
                       tuple(random_unitary(rng, k) for k in sizes))

    for _ in range(10):
        a, b = random_iso(), random_iso()
        assert same_bits(a @ b, compose_iso(a, b))
        assert same_bits(adj(a), inverse_iso(a))
        assert same_bits(a.H, inverse_iso(a))
    images = {1: random_iso(), 2: random_iso(), 3: random_iso()}
    for _ in range(20):
        letters = tuple(int(g) * int(s) for g, s in
                        zip(rng.integers(1, 4, size=rng.integers(0, 7)),
                            rng.choice([-1, 1], size=7)))
        assert same_bits(evaluate_word_ops(letters, images, identity_iso(sizes)),
                         word_iso_reference(letters, images, sizes))


def test_apply_iso_is_star_homomorphism():
    rng = np.random.default_rng(4)
    sizes = (2, 2)
    iso = StarIso(sizes, (1, 0), (random_unitary(rng, 2), random_unitary(rng, 2)))
    x = tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k in sizes)
    y = tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k in sizes)
    xy = tuple(a @ b for a, b in zip(x, y))
    lhs = apply_iso(iso, xy)
    rhs = tuple(a @ b for a, b in zip(apply_iso(iso, x), apply_iso(iso, y)))
    assert element_norm(element_sub(lhs, rhs)) < 1e-12
    star = apply_iso(iso, tuple(dagger(a) for a in x))
    assert element_norm(element_sub(
        star, tuple(dagger(a) for a in apply_iso(iso, x)))) < 1e-12


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
    if isinstance(a, StarIso):
        return (a.sizes == b.sizes and a.src == b.src
                and all(same_bits(x, y) for x, y in zip(a.units, b.units)))
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def cstar_step_reference(b):
    """The C* transport step spelled out with compose_iso and inverse_iso."""
    return lambda t, s: compose_iso(
        compose_iso(inverse_iso(b.u(s.face0, s.support)), b.u(s.face1, s.support)), t)


def test_frame_transports_match_path_evaluation_bitwise():
    # generic bundles: a random unitary (or *-isomorphism) on every edge,
    # so no frame transport is the identity
    for seed in range(6):
        rng = np.random.default_rng(seed + 90)
        poset, pres, frame = random_poset_with_frame(rng, 14)
        hilbert = HilbertNetBundle(poset, 3, {e: random_unitary(rng, 3)
                                              for e in poset.strict_pairs()})
        sizes = (1, 1, 2)
        cstar = CStarNetBundle(poset, sizes, {
            e: StarIso(sizes, tuple(rng.permutation(2)) + (2,),
                       tuple(random_unitary(rng, k) for k in sizes))
            for e in poset.strict_pairs()})
        for b in (hilbert, cstar):
            t = frame_transports(poset, frame, b.ident, partial(transport_step, b))
            assert set(t) == set(poset.elements)
            for o in poset.elements:
                assert same_bits(t[o], evaluate_path(b, frame.to(o)))
        step = cstar_step_reference(cstar)
        loops = [edge_loop_path(poset, frame, *e) for e in pres.generators]
        for p in [frame.to(o) for o in poset.elements] + loops:
            want = identity_iso(sizes)
            for s in p.simplices:
                want = step(want, s)
            assert same_bits(evaluate_path(cstar, p), want)


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
    sizes = (1, 2)
    hilbert = HilbertNetBundle(poset, 2, {e: random_unitary(rng, 2)
                                          for e in poset.strict_pairs()})
    cstar = CStarNetBundle(poset, sizes, {
        e: StarIso(sizes, (0, 1), tuple(random_unitary(rng, k) for k in sizes))
        for e in poset.strict_pairs()})
    for b in (hilbert, cstar):
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
    generator's edge loop as a path, bit for bit: on generic Hilbert and
    C* bundles, a dense sampled representation, and the shift-class
    representations of a shift module (flat, and gauged by a colour
    unitary on every edge)."""
    checked = 0
    for seed in range(8):
        rng = np.random.default_rng(seed + 300)
        poset, pres, frame = random_poset_with_frame(rng, 12)
        if not pres.generators:
            continue
        sizes = (1, 1, 2)
        u_images = random_representation(pres, 2, rng)
        shift = build_shift_module(poset, pres, frame, u_images).rep
        carriers = [
            HilbertNetBundle(poset, 3, {e: random_unitary(rng, 3)
                                        for e in poset.strict_pairs()}),
            CStarNetBundle(poset, sizes, {
                e: StarIso(sizes, tuple(int(k) for k in rng.permutation(2)) + (2,),
                           tuple(random_unitary(rng, k) for k in sizes))
                for e in poset.strict_pairs()}),
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


# -------------------------------------------------------------- C* bundles

def test_cstar_conjugation_holonomy():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 2)
    iso = StarIso((2,), (0,), (u,))
    poset = hexagon_poset()
    _, pres, frame = pfp(poset)
    b = CStarNetBundle(poset, (2,), {e: identity_iso((2,)) if e in pres.tree_edges else iso
                                     for e in poset.strict_pairs()})
    images = holonomy_rep(b, pres, frame)
    assert iso_map_defect(images[1], iso, (2,)) < 1e-14


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
