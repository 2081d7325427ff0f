from fractions import Fraction

import numpy as np
import pytest

from holonet.bundle import HilbertNetBundle, bundle_from_rep
from holonet.errors import (
    FiberMismatch,
    HolonetError,
    NotALoopAtBase,
    NotCovariant,
    RelatorNotSatisfied,
)
from holonet.fredholm import VirtualRep, sample_words
from holonet.homotopy import (
    GroupPresentation,
    PathFrame,
    Word,
    _hop_letters,
    build_path_frame,
    edge_loop_word,
    fundamental_presentation,
)
from holonet.linalg import dagger, first_over, opnorms, random_unitary
from holonet.operators import evaluate_word_ops
from holonet.poset import OneSimplex, Path, Poset, check_simplex, edge_simplex
from holonet.randomgen import random_hilbert_bundle, random_poset_with_frame
from holonet.reports import CHECK_TOL, INDEX_TOL
from holonet.representation import (
    BlockHom,
    NetOfAlgebras,
    NetRepresentation,
    apply_hom,
    basis_stack,
    identity_hom,
)
from holonet.shift_calculus import finite_op, stripe_op
from holonet.standard import chain_poset, hexagon_poset, with_top


@pytest.fixture
def hexagon():
    return hexagon_poset()


@pytest.fixture
def hexagon_pfp(hexagon):
    """(poset, presentation, frame) for the hexagon at its smallest element."""
    base = min(hexagon.elements)
    return hexagon, fundamental_presentation(hexagon, base), build_path_frame(hexagon, base)


@pytest.fixture
def chain3():
    return chain_poset(3)


@pytest.fixture
def topped(hexagon):
    return with_top(hexagon)


def pfp(poset):
    base = min(poset.elements)
    return poset, fundamental_presentation(poset, base), build_path_frame(poset, base)


def rng_for(seed):
    return np.random.default_rng(seed)


def nearly_flat_bundle():
    """(poset, presentation, frame, bundle): a random rank-2 bundle over
    a poset with 22 relators, one generator edge rotated by 1e-8, so its
    relators and chain coherence hold to about 1e-8 only."""
    rng = rng_for(3)
    poset, pres, frame = random_poset_with_frame(rng, 12)
    b = random_hilbert_bundle(poset, pres, frame, 2, rng)
    e = next(iter(pres.gen_index))
    c, s = np.cos(1e-8), np.sin(1e-8)
    incl = dict(b.incl)
    incl[e] = incl[e] @ np.array([[c, -s], [s, c]])
    return poset, pres, frame, HilbertNetBundle(poset, 2, incl)


def dense_window(op, window):
    """The dense window of the first `window` columns, with every row
    they reach, unpeeled: the window `windowed_kernel` took before
    pass-through pairs were peeled."""
    up = max((k for k, _ in op.stripes if k > 0), default=0)
    return op.materialize(max(window + up, op.finite_extent), window)


def random_scalar_color_op(rng, d):
    """A ShiftOp on d colours whose colour matrices are all multiples of
    I_d: a unit-modulus co-shift stripe (offset -1 or -2), up to two
    smaller stripes with offsets -2..2, rational phases throughout, and
    up to three finite blocks c * I_d on the first four sites."""
    eye = np.eye(d, dtype=complex)

    def scalar(scale=1.0):
        return scale * complex(rng.standard_normal(), rng.standard_normal())

    def phase():
        return Fraction(int(rng.integers(0, 6)), int(rng.integers(1, 7)))

    op = stripe_op(-int(rng.integers(1, 3)), np.exp(2j * np.pi * rng.random()) * eye,
                   phase())
    for _ in range(int(rng.integers(0, 3))):
        op = op + stripe_op(int(rng.integers(-2, 3)), scalar(0.2) * eye, phase())
    blocks = {(int(rng.integers(4)), int(rng.integers(4))): scalar() * eye
              for _ in range(int(rng.integers(0, 4)))}
    return op + finite_op(blocks, d)


# ------------------------------------------------------ path assembly

class EndpointMismatch(HolonetError):
    """Path segments, or two composed paths, do not meet."""


def make_path(poset: Poset, simplices: list[OneSimplex], at: str | None = None) -> Path:
    """Assemble a path, validating supports and endpoint chaining.

    An empty simplex list needs `at` to fix the (stationary) basepoint.
    """
    if not simplices:
        if at is None:
            raise EndpointMismatch("empty path needs an explicit basepoint")
        poset.require(at)
        return Path((), at, at)
    for b in simplices:
        check_simplex(poset, b)
    for b, c in zip(simplices, simplices[1:]):
        if b.face0 != c.face1:
            raise EndpointMismatch(f"segments {b} and {c} do not chain")
    p = Path(tuple(simplices), simplices[0].face1, simplices[-1].face0)
    if at is not None and p.start != at:
        raise EndpointMismatch(f"path starts at {p.start!r}, expected {at!r}")
    return p


def opposite_path(p: Path) -> Path:
    return Path(tuple(b.opposite for b in reversed(p.simplices)), p.end, p.start)


def compose_paths(poset: Poset, p: Path, q: Path) -> Path:
    """The composite p * q: q is traversed first, then p."""
    if q.end != p.start:
        raise EndpointMismatch(
            f"cannot compose: first factor ends at {q.end!r}, second starts at {p.start!r}"
        )
    return make_path(poset, list(q.simplices) + list(p.simplices), at=q.start)


def edge_loop_path(poset: Poset, frame: PathFrame, o: str, o1: str) -> Path:
    """The loop frame(o1)^-1 * (hop o -> o1) * frame(o) at the frame base,
    the reference for `holonomy_images`."""
    hop = make_path(poset, [edge_simplex(poset, o, o1)])
    out = compose_paths(poset, hop, frame.to(o))
    return compose_paths(poset, opposite_path(frame.to(o1)), out)


# ------------------------------------------------------ random paths and loops

def random_simplex_from(poset: Poset, rng: np.random.Generator, at: str) -> OneSimplex:
    """A random 1-simplex whose traversal starts at `at`."""
    supports = [s for s in poset.elements if poset.leq(at, s)]
    s = supports[int(rng.integers(len(supports)))]
    under = sorted(x for x in poset.elements if poset.leq(x, s))
    f0 = under[int(rng.integers(len(under)))]
    return OneSimplex(s, f0, at)


def random_path(poset: Poset, rng: np.random.Generator, start: str,
                length: int) -> Path:
    at = start
    simplices = []
    for _ in range(length):
        b = random_simplex_from(poset, rng, at)
        simplices.append(b)
        at = b.face0
    return make_path(poset, simplices, at=start)


def random_loop(poset: Poset, frame: PathFrame, rng: np.random.Generator,
                length: int) -> Path:
    """A loop at the frame base: random walk out, tree path back."""
    p = random_path(poset, rng, frame.base, length)
    back = opposite_path(frame.to(p.end))
    return compose_paths(poset, back, p)


def homotopic_variant(poset: Poset, p: Path, rng: np.random.Generator,
                      moves: int = 8) -> Path:
    """Apply random elementary moves: insert/cancel a segment followed by
    its opposite, and expand/collapse a segment through its support."""
    simplices = list(p.simplices)

    def point_at(i: int) -> str:
        return p.start if i == 0 else simplices[i - 1].face0

    for _ in range(moves):
        kind = int(rng.integers(4))
        if kind == 0:  # insert b then opposite(b)
            i = int(rng.integers(len(simplices) + 1))
            b = random_simplex_from(poset, rng, point_at(i))
            simplices[i:i] = [b, b.opposite]
        elif kind == 1:  # cancel an adjacent opposite pair
            spots = [i for i in range(len(simplices) - 1)
                     if simplices[i + 1] == simplices[i].opposite]
            if spots:
                i = spots[int(rng.integers(len(spots)))]
                del simplices[i:i + 2]
        elif kind == 2:  # expand b into (up into support, down to face0)
            if simplices:
                i = int(rng.integers(len(simplices)))
                b = simplices[i]
                up = OneSimplex(b.support, b.support, b.face1)
                down = OneSimplex(b.support, b.face0, b.support)
                simplices[i:i + 1] = [up, down]
        else:  # collapse an (up, down) pair with common support
            spots = [
                i for i in range(len(simplices) - 1)
                if simplices[i].support == simplices[i + 1].support
                and simplices[i].face0 == simplices[i].support
                and simplices[i + 1].face1 == simplices[i + 1].support
            ]
            if spots:
                i = spots[int(rng.integers(len(spots)))]
                merged = OneSimplex(simplices[i].support,
                                    simplices[i + 1].face0, simplices[i].face1)
                simplices[i:i + 2] = [merged]
    return make_path(poset, simplices, at=p.start)


def path_to_word(pres: GroupPresentation, poset: Poset, p: Path) -> Word:
    """Freely reduced word of a loop at the base, the reference for
    `edge_loop_word`.

    Each 1-simplex contributes its up-hop into the support followed by the
    inverse of the other face's up-hop; tree edges contribute nothing.
    """
    if not (p.start == p.end == pres.base):
        raise NotALoopAtBase(f"{p} is not a loop at {pres.base!r}")
    letters: list[int] = []
    for b in reversed(p.simplices):
        letters.extend(_hop_letters(pres, poset, b.support, b.face0))
        letters.extend(_hop_letters(pres, poset, b.face1, b.support))
    return Word(tuple(letters))


# ------------------------------------------------------ covariant C* nets

def block_permutation(src: tuple[int, ...], units) -> BlockHom:
    """The block permutation whose target block k receives source block
    src[k], conjugated by units[k]."""
    sizes = tuple(u.shape[0] for u in units)
    mult = tuple(tuple(int(j == s) for j in range(len(src))) for s in src)
    return BlockHom(sizes, sizes, mult, tuple(units))


def random_block_permutation(rng, sizes=(1, 1, 2)) -> BlockHom:
    """The first two blocks (of equal size) kept or swapped at random,
    random units."""
    src = tuple(int(k) for k in rng.permutation(2)) + (2,)
    return block_permutation(src, [random_unitary(rng, k) for k in sizes])


def netify(eta: BlockHom, v_images: dict[int, np.ndarray], poset: Poset,
           pres: GroupPresentation, frame: PathFrame,
           action: dict[int, BlockHom] | None = None,
           tol: float = CHECK_TOL) -> NetRepresentation:
    """Spread a covariant pair (eta, V) out over the poset.

    The loop group acts on the source algebra by `action`, block
    permutations (identity by default, the Hilbert-space representation
    case); the target bundle is rebuilt from V, the net from the action,
    and eta is installed as the fiber homomorphism everywhere.  Each
    relator of the action is measured on the matrix units: its defect is
    the largest block norm by which it moves a unit.  covariantize
    inverts this construction on the nose.
    """
    if len(eta.dst_sizes) != 1:
        raise FiberMismatch("eta must land in a single matrix block")
    dim = eta.dst_sizes[0]
    sizes = eta.src_sizes
    if action is None:
        action = {idx: identity_hom(sizes) for idx in v_images}
    if set(action) != set(v_images):
        raise NotCovariant("action and V must cover the same generators")
    t = basis_stack(sizes)
    for r in pres.relators:
        w = apply_hom(evaluate_word_ops(r.letters, action, identity_hom(sizes)), t)
        d = float(np.max([opnorms(a - b) for a, b in zip(w, t)], initial=0.0))
        if not d <= tol:
            raise RelatorNotSatisfied(f"relator {r} has defect {d:.3e}")
    eta_t = apply_hom(eta, t)[0]
    for idx, u in v_images.items():
        d = opnorms(apply_hom(eta, apply_hom(action[idx], t))[0] - u @ eta_t @ dagger(u))
        k = first_over(d, tol)
        if k is not None:
            raise NotCovariant(
                f"eta does not intertwine generator {idx} (defect {d[k]:.3e})")
    target = bundle_from_rep(poset, pres, frame, v_images, dim, tol)
    incl = {}
    for e in poset.strict_pairs():
        w = edge_loop_word(pres, poset, frame, e[0], e[1])
        incl[e] = evaluate_word_ops(w.letters, action, identity_hom(sizes))
    net = NetOfAlgebras(poset, {o: sizes for o in poset.elements}, incl)
    pi = {o: eta for o in poset.elements}
    return NetRepresentation(net, target, pi)


# ------------------------------------------------------------ spectral triples

def superderivation(d: np.ndarray, grading: np.ndarray, t) -> np.ndarray:
    """delta(t) = D t - (Gamma t Gamma) D, the graded commutator with D."""
    return d @ t - grading @ t @ grading @ d


# ------------------------------------------------------------ index values

def virtual_reps_match(a: VirtualRep, b: VirtualRep) -> bool:
    """Character comparison on generators plus the fixed word sample."""
    if len(a.group.generators) != len(b.group.generators):
        return False
    if a.dim != b.dim:
        return False
    return all(abs(a.character(w) - b.character(w)) <= INDEX_TOL
               for w in sample_words(a.group))
