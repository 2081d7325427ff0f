import signal
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holonet.randomgen
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
    relator_exponent_matrix,
    simplify_presentation,
    smith_diagonal,
)
from holonet.operators import evaluate_word_ops
from holonet.poset import build_poset, edge_simplex
from holonet.randomgen import random_connected_poset, random_poset_with_frame, random_representation
from holonet.standard import chain_poset, circle_poset, hexagon_poset, with_top
from conftest import (
    compose_paths,
    edge_loop_path,
    homotopic_variant,
    make_path,
    opposite_path,
    path_to_word,
    pfp,
    random_loop,
)

TOL = 1e-10


# oracle: brute-force check that a word is killed by every representation
# of the presentation obtained from random relator-respecting assignments

def word_dies_under_random_reps(pres, word, seeds=range(5), dim=3):
    for s in seeds:
        rng = np.random.default_rng(s)
        images = random_representation(pres, dim, rng)
        if not images:
            continue
        m = evaluate_word_ops(word.letters, images, np.eye(dim, dtype=complex))
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
            m = evaluate_word_ops(r.letters, images, np.eye(dim, dtype=complex))
            assert np.linalg.norm(m - np.eye(dim)) < TOL


def test_path_frame_paths_run_from_base(hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    for o in poset.elements:
        p = frame.to(o)
        assert p.start == frame.base and p.end == o
        # tree paths collapse to the empty word
        loop = compose_paths(poset, p, opposite_path(p))
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
            eye = np.eye(dim, dtype=complex)
            lhs = evaluate_word_ops(edge_loop_word(pres, poset, frame, o1, o2).letters,
                                    images, eye) @ \
                evaluate_word_ops(edge_loop_word(pres, poset, frame, o, o1).letters,
                                  images, eye)
            rhs = evaluate_word_ops(edge_loop_word(pres, poset, frame, o, o2).letters,
                                    images, eye)
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


def rational_rank_reference(rows):
    """Rank over Q by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def exact_det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    m = [row[:] for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        piv = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def maximal_minor_gcd(rows, rank):
    """gcd of the rank x rank minors: the order of the torsion of the
    cokernel, which a diagonal form of the matrix preserves."""
    out = 0
    for r in combinations(range(len(rows)), rank):
        for c in combinations(range(len(rows[0])), rank):
            out = gcd(out, exact_det([[rows[i][j] for j in c] for i in r]))
            if out == 1:
                return 1
    return out


def test_smith_diagonal_finishes_on_a_dense_matrix():
    """The first-nonzero pivot did not finish on this matrix within 2 s;
    the alarm turns such a regression into a failure."""
    rows = [[0, 0, 5, -4, 5, 0], [4, -2, -4, 3, -2, -3], [-5, 1, 1, 0, 0, -1],
            [-4, 0, 5, 1, 0, 0], [0, -6, 0, 0, 2, 0], [-2, 5, 0, 6, 0, 1],
            [-4, -5, 2, 5, -1, -4]]

    def timeout(*_):
        raise TimeoutError("smith_diagonal took more than 2 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(2)
    try:
        diag = smith_diagonal(rows)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert diag == [1, 1, 1, 1, 1, 3]


def test_smith_diagonal_keeps_rank_and_torsion_of_random_matrices():
    """Length is the rational rank; the product of the entries is the
    gcd of the maximal nonzero minors.  Every other matrix is sparse, so
    that deficient ranks occur too."""
    rng = np.random.default_rng(17)
    ranks = set()
    for k in range(300):
        a = rng.integers(-6, 7, size=(7, 6))
        if k % 2:
            a = a * (rng.random((7, 6)) < 0.3)
        rows = a.tolist()
        diag = smith_diagonal(rows)
        rank = rational_rank_reference(rows)
        ranks.add(rank)
        assert len(diag) == rank, rows
        assert prod(diag) == (maximal_minor_gcd(rows, rank) if rank else 1), rows
    assert len(ranks) > 2


def test_abelianization_rank_matches_rational_elimination():
    sizes = []
    for seed in range(120):
        rng = np.random.default_rng(seed + 700)
        poset, pres, _ = random_poset_with_frame(rng, 30 if seed % 3 == 0 else 12)
        sizes.append(len(poset.elements))
        rank = len(pres.generators) - rational_rank_reference(relator_exponent_matrix(pres))
        assert abelianization_rank(pres) == rank
        # the verdict from the rational rank and the Smith diagonal
        simp, verdict = simplify_presentation(pres)
        rows = relator_exponent_matrix(simp)
        if not simp.generators:
            want = "Trivial"
        elif (len(simp.generators) > rational_rank_reference(rows)
              or any(d not in (0, 1) for d in smith_diagonal(rows))):
            want = "Nontrivial"
        else:
            want = "Unknown"
        assert verdict == want
    assert max(sizes) >= 28


def sparse_rational_rank(rows):
    """Rank over Q: each row reduced, by integer row operations, against
    the sparse pivot rows kept so far, each keyed by its first column."""
    pivots = {}
    for row in rows:
        r = {c: x for c, x in enumerate(row) if x}
        while r:
            c = min(r)
            if c not in pivots:
                pivots[c] = r
                break
            p = pivots[c]
            a, b = p[c], r[c]
            r = {k: v for k in r.keys() | p.keys()
                 if (v := a * r.get(k, 0) - b * p.get(k, 0))}
    return len(pivots)


def test_abelianization_rank_of_large_random_posets():
    """The rank is read off the simplified presentation; here it meets
    the rational rank of the full relator matrix, up to 180 elements and
    thousands of relators.  Tietze moves remove every relator of these
    presentations, so each gets three more relators on three of its
    generators, none of which occurs only once in them."""
    sizes, kept = [], 0
    for seed in range(50):
        rng = np.random.default_rng(seed + 4000)
        _, pres, _ = random_poset_with_frame(rng, 180)
        gens = rng.choice(len(pres.generators), size=min(3, len(pres.generators)),
                          replace=False) + 1
        extra = tuple(Word(tuple(int(g) * s for g in gens for s in rng.choice([-1, 1], 2)))
                      for _ in range(3))
        pres = GroupPresentation(pres.base, pres.generators, pres.relators + extra,
                                 pres.tree_edges)
        sizes.append(len(pres.relators))
        rank = len(pres.generators) - sparse_rational_rank(relator_exponent_matrix(pres))
        assert abelianization_rank(pres) == rank
        kept += bool(simplify_presentation(pres)[0].relators)
    assert max(sizes) > 2000 and kept > 25


def fraction_kernel(rows):
    """Integer kernel basis by Gauss-Jordan over Fraction: per free
    column, the kernel vector that is 1 there and 0 at the other free
    columns, scaled by the lcm of its denominators."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        denom = 1
        for x in v:
            denom = denom * x.denominator // np.gcd(denom, x.denominator)
        basis.append([int(x * denom) for x in v])
    return basis


def test_random_representation_matches_the_fraction_kernel(monkeypatch):
    assert not hasattr(holonet.randomgen, "Fraction")
    kernels = 0
    for seed in range(200):
        _, pres, _ = random_poset_with_frame(np.random.default_rng(seed + 5000),
                                             30 if seed % 8 == 0 else 12)
        rows = relator_exponent_matrix(pres)
        kernel = fraction_kernel(rows)
        assert holonet.randomgen._rational_kernel(rows) == kernel
        kernels += bool(rows)
        got = random_representation(pres, 2, np.random.default_rng(seed))
        with monkeypatch.context() as m:
            m.setattr(holonet.randomgen, "_rational_kernel", lambda _: kernel)
            want = random_representation(pres, 2, np.random.default_rng(seed))
        assert got.keys() == want.keys()
        assert all(got[g].tobytes() == want[g].tobytes() for g in got)
    assert kernels > 100


# ------------------------------- the worklist Tietze pass against the rescan

def reference_tietze(pres):
    """The rescanning Tietze loop: after every elimination, scan the
    relators again from the first.  Returns the kept generator indices
    and the remaining relator letters in the old numbering."""
    def cyclic(w):
        ls = list(w.letters)
        while len(ls) >= 2 and ls[0] == -ls[-1]:
            ls = ls[1:-1]
        return Word(tuple(ls))

    def substitute(word, g, repl):
        out = []
        for l in word.letters:
            if l == g:
                out.extend(repl)
            elif l == -g:
                out.extend(-x for x in reversed(repl))
            else:
                out.append(l)
        return Word(tuple(out))

    relators = [cyclic(r) for r in pres.relators if not r.is_empty]
    alive = set(range(1, len(pres.generators) + 1))
    changed = True
    while changed:
        changed = False
        for ri, r in enumerate(relators):
            counts = {}
            for l in r.letters:
                counts[abs(l)] = counts.get(abs(l), 0) + 1
            single = next((g for g, c in counts.items() if c == 1 and g in alive), None)
            if single is None:
                continue
            ls = list(r.letters)
            k = next(i for i, l in enumerate(ls) if abs(l) == single)
            head, rest = ls[k], tuple(ls[k + 1:] + ls[:k])
            repl = tuple(-x for x in reversed(rest)) if head > 0 else rest
            alive.discard(single)
            relators = [w for j, other in enumerate(relators) if j != ri
                        for w in [cyclic(substitute(other, single, repl))]
                        if not w.is_empty]
            changed = True
            break
    return sorted(alive), [r.letters for r in relators]


def random_presentations(count):
    """Derandomized presentations: every tenth from a random poset, the
    others up to 30 generators and 180 letters in relators of 1 to 6."""
    rng = np.random.default_rng(2024)
    for k in range(count):
        if k % 10 == 0:
            poset = random_connected_poset(rng, 24)
            yield fundamental_presentation(poset, min(poset.elements))
            continue
        n = int(rng.integers(1, 31))
        relators = []
        budget = int(rng.integers(8, 181))
        while budget > 0:
            length = min(int(rng.integers(1, 7)), budget)
            budget -= length
            letters = rng.integers(1, n + 1, length) * rng.choice([-1, 1], length)
            relators.append(Word(tuple(int(l) for l in letters)))
        yield GroupPresentation("b", tuple((f"x{i}", f"y{i}") for i in range(n)),
                                tuple(relators))


def test_simplify_presentation_matches_the_rescanning_loop():
    eliminated = kept_relators = 0
    for pres in random_presentations(200):
        out, _ = simplify_presentation(pres)
        kept, relators = reference_tietze(pres)
        remap = {g: i + 1 for i, g in enumerate(kept)}
        assert out.generators == tuple(pres.generators[g - 1] for g in kept)
        assert [r.letters for r in out.relators] == \
            [tuple((1 if l > 0 else -1) * remap[abs(l)] for l in r) for r in relators]
        eliminated += len(pres.generators) - len(kept)
        kept_relators += len(relators)
    assert eliminated > 2000 and kept_relators > 200
