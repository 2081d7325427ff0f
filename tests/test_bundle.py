import numpy as np
import pytest

from holonet.bundle import (
    CStarNetBundle,
    HilbertNetBundle,
    Section,
    bundle_from_rep,
    compute_sections,
    edge_loop_path,
    evaluate_path,
    evaluate_word,
    hilbert_section_dimension_oracle,
    holonomy_rep,
    make_cstar_bundle,
    make_hilbert_bundle,
    roundtrip_iso,
    section_defect,
    transport_rule,
    validate_bundle,
)
from holonet.cstar import (
    StarIso,
    apply_iso,
    basis_elements,
    compose_iso,
    element_norm,
    element_sub,
    identity_element,
    identity_iso,
    inverse_iso,
    iso_map_defect,
    iso_matrix,
)
from holonet.errors import InvalidBundle, RelatorNotSatisfied, UnknownElement
from holonet.homotopy import Word, frame_transports
from holonet.linalg import dagger, random_unitary
from holonet.randomgen import (
    homotopic_variant,
    random_hilbert_bundle,
    random_loop,
    random_poset_with_frame,
    random_representation,
)
from holonet.standard import chain_poset, hexagon_poset
from conftest import pfp

TOL = 1e-10


def trivial_bundle(poset, dim):
    eye = np.eye(dim, dtype=complex)
    return make_hilbert_bundle(
        poset, dim, {e: eye.copy() for e in poset.strict_pairs()})


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


def test_iso_matrix_is_unitary_up_to_block_scaling():
    # the vectorized action permutes blocks and conjugates, so it maps the
    # orthonormal matrix-unit basis to another orthonormal family
    rng = np.random.default_rng(5)
    sizes = (2, 1)
    iso = StarIso(sizes, (0, 1), (random_unitary(rng, 2), random_unitary(rng, 1)))
    m = iso_matrix(iso, sizes)
    n = sum(k * k for k in sizes)
    assert np.linalg.norm(m @ dagger(m) - np.eye(n)) < 1e-12


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


def test_make_hilbert_bundle_rejects_invalid(chain3):
    incl = {e: np.eye(2, dtype=complex) for e in chain3.strict_pairs()}
    incl[("o1", "o2")][0, 0] = 1.5
    with pytest.raises(InvalidBundle):
        make_hilbert_bundle(chain3, 2, incl)


def test_grading_validation(chain3):
    eye = np.eye(2, dtype=complex)
    g = np.diag([1.0, -1.0]).astype(complex)
    incl = {e: eye.copy() for e in chain3.strict_pairs()}
    grading = {o: g.copy() for o in chain3.elements}
    b = make_hilbert_bundle(chain3, 2, incl, grading)
    assert validate_bundle(b).ok
    # breaking one fiber's grading shows up as a transport defect
    grading["o2"] = np.diag([-1.0, 1.0]).astype(complex)
    report = validate_bundle(HilbertNetBundle(chain3, 2, incl, grading))
    assert any(v.check == "grading-transport" for v in report.violations)


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
    got = evaluate_word(Word((1, 2)), images, 3)
    assert np.linalg.norm(got - a @ b) < 1e-14
    got = evaluate_word(Word((-2, 1)), images, 3)
    assert np.linalg.norm(got - dagger(b) @ a) < 1e-14
    assert np.array_equal(evaluate_word(Word(()), images, 3), np.eye(3))


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
            t = frame_transports(poset, frame, *transport_rule(b))
            assert set(t) == set(poset.elements)
            for o in poset.elements:
                assert same_bits(t[o], evaluate_path(b, frame.to(o)))


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
        assert loop.is_loop and loop.start == frame.base
        assert np.linalg.norm(images[idx] - evaluate_path(b, loop)) == 0.0


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

def cstar_hexagon(iso_for_generator):
    poset = hexagon_poset()
    base = min(poset.elements)
    _, pres, frame = pfp(poset)
    sizes = iso_for_generator.sizes
    incl = {}
    for e in poset.strict_pairs():
        if e in pres.tree_edges:
            incl[e] = identity_iso(sizes)
        else:
            incl[e] = iso_for_generator
    return make_cstar_bundle(poset, sizes, incl), pres, frame


def test_cstar_identity_bundle_sections():
    sizes = (2, 1)
    b, pres, frame = cstar_hexagon(identity_iso(sizes))
    secs = compute_sections(b, pres, frame)
    assert len(secs) == sum(k * k for k in sizes)


def test_cstar_block_swap_fixes_diagonal():
    # swapping two size-1 blocks leaves only the symmetric combination
    swap = StarIso((1, 1), (1, 0), (np.eye(1, dtype=complex),
                                    np.eye(1, dtype=complex)))
    b, pres, frame = cstar_hexagon(swap)
    assert len(pres.generators) == 1
    secs = compute_sections(b, pres, frame)
    assert len(secs) == 1
    assert section_defect(b, secs[0]) < TOL
    v = secs[0].values[frame.base]
    assert abs(abs(v[0][0, 0]) - abs(v[1][0, 0])) < TOL


def test_cstar_conjugation_holonomy():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 2)
    iso = StarIso((2,), (0,), (u,))
    b, pres, frame = cstar_hexagon(iso)
    images = holonomy_rep(b, pres, frame)
    assert iso_map_defect(images[1], iso, (2,)) < 1e-14
    # fixed elements are exactly the commutant of u in the block
    secs = compute_sections(b, pres, frame)
    assert len(secs) == 2


def test_make_cstar_bundle_rejects_wrong_sizes(chain3):
    incl = {e: identity_iso((2,)) for e in chain3.strict_pairs()}
    incl[("o1", "o2")] = identity_iso((3,))
    with pytest.raises(InvalidBundle):
        make_cstar_bundle(chain3, (2,), incl)


def test_cstar_chain_coherence_checked():
    chain = chain_poset(3)
    rng = np.random.default_rng(37)
    incl = {e: identity_iso((2,)) for e in chain.strict_pairs()}
    incl[("o1", "o3")] = StarIso((2,), (0,), (random_unitary(rng, 2),))
    report = validate_bundle(CStarNetBundle(chain, (2,), incl))
    assert any(v.check == "chain-coherence" for v in report.violations)
