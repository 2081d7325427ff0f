import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonet.bundle import edge_loop_path, evaluate_word
from holonet.errors import (
    NotALoopAtBase,
    NotComparable,
    NotConnected,
    UnknownElement,
)
from holonet.homotopy import (
    GroupPresentation,
    Word,
    abelianization_rank,
    build_path_frame,
    edge_loop_word,
    fundamental_presentation,
    path_to_word,
    simplify_presentation,
    smith_diagonal,
)
from holonet.poset import build_poset, compose_paths, edge_simplex, make_path
from holonet.randomgen import (
    homotopic_variant,
    random_loop,
    random_poset_with_frame,
    random_representation,
)
from holonet.standard import chain_poset, circle_poset, hexagon_poset, with_top
from conftest import pfp

TOL = 1e-10


# oracle: brute-force check that a word is killed by every representation
# of the presentation obtained from random relator-respecting assignments

def word_dies_under_random_reps(pres, word, seeds=range(5), dim=3):
    for s in seeds:
        rng = np.random.default_rng(s)
        images = random_representation(pres, dim, rng)
        if not images:
            continue
        m = evaluate_word(word, images, dim)
        if np.linalg.norm(m - np.eye(dim)) > 1e-8:
            return False
    return True


def test_word_free_reduction():
    w = Word((1, 2, -2, -1, 3))
    assert w.letters == (3,)
    assert Word(()).is_empty
    assert (Word((1, 2)) * Word((-2, 1))).letters == (1, 1)
    assert Word((1, 2)).inverse.letters == (-2, -1)


@given(st.lists(st.integers(-4, 4).filter(lambda x: x != 0), max_size=30))
def test_word_times_inverse_is_empty(letters):
    w = Word(tuple(letters))
    assert (w * w.inverse).is_empty
    assert (w.inverse * w).is_empty


@given(st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=20),
       st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=20))
@settings(max_examples=50)
def test_word_concatenation_associative(a, b):
    wa, wb = Word(tuple(a)), Word(tuple(b))
    assert ((wa * wb) * wb.inverse).letters == wa.letters


def test_hexagon_presentation_is_infinite_cyclic():
    p = hexagon_poset()
    pres = fundamental_presentation(p, "U1")
    assert len(pres.generators) == 1
    assert len(pres.relators) == 0
    assert abelianization_rank(pres) == 1
    _, verdict = simplify_presentation(pres)
    assert verdict == "Nontrivial"


def test_chain_presentation_trivial():
    pres = fundamental_presentation(chain_poset(3), "o1")
    # one non-tree edge and the 2-chain relator killing it
    assert len(pres.generators) == 1
    assert len(pres.relators) == 1
    simp, verdict = simplify_presentation(pres)
    assert verdict == "Trivial"
    assert not simp.generators


def test_greatest_element_poset_trivial():
    p = with_top(hexagon_poset())
    pres = fundamental_presentation(p, "U1")
    _, verdict = simplify_presentation(pres)
    assert verdict == "Trivial"
    assert abelianization_rank(pres) == 0
    # oracle: every generator must die under any valid representation
    for i in range(1, len(pres.generators) + 1):
        assert word_dies_under_random_reps(pres, Word((i,)))


def test_larger_circle_poset_still_cyclic():
    p = circle_poset(5)
    pres = fundamental_presentation(p, min(p.elements))
    assert abelianization_rank(pres) == 1
    _, verdict = simplify_presentation(pres)
    assert verdict == "Nontrivial"


def test_disconnected_poset_rejected():
    p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(NotConnected):
        fundamental_presentation(p, "a")
    with pytest.raises(NotConnected):
        build_path_frame(p, "a")


def test_relators_die_under_accepted_representations():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        poset, pres, frame = random_poset_with_frame(rng, 10)
        dim = int(rng.integers(2, 5))
        images = random_representation(pres, dim, rng)
        for r in pres.relators:
            m = evaluate_word(r, images, dim)
            assert np.linalg.norm(m - np.eye(dim)) < TOL


def test_path_frame_paths_run_from_base(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    for o in poset.elements:
        p = frame.to(o)
        assert p.start == frame.base and p.end == o
        # tree paths collapse to the empty word
        loop = compose_paths(poset, p, p, reverse_q=True)
        # loop based at o, not the base, unless o is the base
        if o == frame.base:
            assert path_to_word(pres, poset, loop).is_empty


def test_full_hexagon_loop_is_a_generator(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    cyc = ["U1", "V12", "U2", "V23", "U3", "V31", "U1"]
    simplices = [edge_simplex(poset, a, b) for a, b in zip(cyc, cyc[1:])]
    loop = make_path(poset, simplices, at="U1")
    w = path_to_word(pres, poset, loop)
    assert len(w) == 1 and abs(w.letters[0]) == 1
    opp = path_to_word(pres, poset, make_path(
        poset, [b.opposite for b in reversed(simplices)], at="U1"))
    assert opp == w.inverse


def test_path_to_word_rejects_non_loops(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    p = make_path(poset, [edge_simplex(poset, "U1", "V12")])
    with pytest.raises(NotALoopAtBase):
        path_to_word(pres, poset, p)


def test_word_invariant_under_elementary_moves():
    hits = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        poset, pres, frame = random_poset_with_frame(rng, 9)
        loop = random_loop(poset, frame, rng, int(rng.integers(1, 7)))
        w = path_to_word(pres, poset, loop)
        variant = homotopic_variant(poset, loop, rng, moves=10)
        assert path_to_word(pres, poset, variant) == w
        hits += 0 if w.is_empty else 1
    assert hits > 5  # the sweep saw nontrivial words, not just empty ones


def test_edge_loop_word_triangle_identity():
    # edge words compose along 2-chains modulo relators: verified under
    # every accepted representation
    for seed in range(8):
        rng = np.random.default_rng(seed + 50)
        poset, pres, frame = random_poset_with_frame(rng, 9)
        dim = 3
        images = random_representation(pres, dim, rng)
        for o, o1, o2 in poset.two_chains():
            lhs = evaluate_word(edge_loop_word(pres, poset, frame, o1, o2), images, dim) @ \
                evaluate_word(edge_loop_word(pres, poset, frame, o, o1), images, dim)
            rhs = evaluate_word(edge_loop_word(pres, poset, frame, o, o2), images, dim)
            assert np.linalg.norm(lhs - rhs) < TOL


def test_edge_loop_word_of_generator_edge(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    (gen_edge,) = pres.generators
    w = edge_loop_word(pres, poset, frame, gen_edge[0], gen_edge[1])
    assert w.letters == (1,)
    assert edge_loop_word(pres, poset, frame, "U1", "U1").is_empty
    for e in pres.tree_edges:
        assert edge_loop_word(pres, poset, frame, e[0], e[1]).is_empty


def _posets_with_frames():
    for seed in range(50):
        yield random_poset_with_frame(np.random.default_rng(seed + 700), 12)
    for n in (2, 3, 8):
        yield pfp(circle_poset(n))


def test_edge_loop_word_is_the_word_of_the_edge_loop():
    for poset, pres, frame in _posets_with_frames():
        for o, o1 in poset.strict_pairs():
            for a, b in ((o, o1), (o1, o)):
                w = edge_loop_word(pres, poset, frame, a, b)
                ref = path_to_word(pres, poset, edge_loop_path(poset, frame, a, b))
                assert w == ref and len(w) <= 1


def test_frame_paths_extend_their_parent_path():
    # each frame path is the validated composite of its parent's path and
    # one hop, as a path built by compose_paths would be
    for poset, pres, frame in _posets_with_frames():
        assert frame.to(frame.base) == make_path(poset, [], at=frame.base)
        seen = {frame.base}
        for o, p in frame.paths.items():
            if o == frame.base:
                continue
            hop = p.simplices[-1]
            assert hop.face1 in seen  # parents come first
            seen.add(o)
            prefix = frame.to(hop.face1)
            assert p == compose_paths(
                poset, make_path(poset, [edge_simplex(poset, hop.face1, o)]), prefix)
        assert seen == set(poset.elements)


def test_edge_loop_word_rejects_bad_input(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    with pytest.raises(UnknownElement):
        edge_loop_word(pres, poset, frame, "U1", "nowhere")
    with pytest.raises(NotComparable):
        edge_loop_word(pres, poset, frame, "U1", "U2")
    other = build_path_frame(poset, "V23")
    with pytest.raises(NotALoopAtBase):
        edge_loop_word(pres, poset, other, "V12", "U1")


def test_simplify_commutator_presentation_nontrivial():
    pres = GroupPresentation("a", (("g1", "g1u"), ("g2", "g2u")),
                             (Word((1, 2, -1, -2)),))
    simp, verdict = simplify_presentation(pres)
    assert verdict == "Nontrivial"
    assert abelianization_rank(pres) == 2


def test_simplify_detects_torsion_abelianization():
    pres = GroupPresentation("a", (("g", "gu"),), (Word((1, 1)),))
    _, verdict = simplify_presentation(pres)
    assert verdict == "Nontrivial"  # Z/2 via Smith form
    assert smith_diagonal([[2]]) == [2]


def test_simplify_unknown_for_trivial_abelianization():
    # binary icosahedral group: perfect and nontrivial, so abelianization
    # cannot settle it and no generator occurs exactly once; the verdict
    # must stay Unknown rather than guessing
    pres = GroupPresentation("a", (("g1", "u1"), ("g2", "u2")),
                             (Word((1, 2, 1, 2, -1, -1, -1)),
                              Word((1, 1, 1, -2, -2, -2, -2, -2))))
    _, verdict = simplify_presentation(pres)
    assert verdict == "Unknown"


def test_smith_diagonal_examples():
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([]) == []
