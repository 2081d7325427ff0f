from fractions import Fraction

import numpy as np
import pytest

from holonet.bundle import HilbertNetBundle
from holonet.homotopy import build_path_frame, fundamental_presentation
from holonet.randomgen import random_hilbert_bundle, random_poset_with_frame
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
