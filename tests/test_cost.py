"""Counted work: deterministic counts of the work a layer does, taken
with test-local counters at two sizes of random nets.  Unlike a wall
time, a count does not depend on the host, so a layer whose work grows
with the number of edges where it should not fails here."""

from functools import cache

import numpy as np
import pytest

from holonet.bundle import holonomy_images, holonomy_rep, roundtrip_iso, validate_bundle
from holonet.fredholm import from_cycle
from holonet.poset import Path
from holonet.randomgen import random_hilbert_bundle, random_poset_with_frame
from holonet.spectral import EquivariantTriple, from_equivariant, validate_triple

# seeds of random_poset_with_frame(rng, 30): 24 and 111 strict pairs,
# 11 and 87 generators, 12 and 274 relators
SIZES = {"small": 9, "large": 3}


@cache
def random_net(seed):
    rng = np.random.default_rng(seed)
    poset, pres, frame = random_poset_with_frame(rng, 30)
    b = random_hilbert_bundle(poset, pres, frame, 3, rng)
    return poset, pres, frame, b, holonomy_rep(b, pres, frame)


def triple_of(poset, pres, frame, images):
    """The random-nets triple: D = [[0, M], [M, 0]] with M commuting
    with nothing in particular, and images that commute with D."""
    m = np.diag([0.5, 1.0, 2.0]).astype(complex)
    e = EquivariantTriple(np.kron(np.diag([1.0, -1.0]), np.eye(3)),
                          {g: np.kron(np.eye(2), np.eye(3)) for g in images},
                          {"one": np.eye(6, dtype=complex)},
                          np.kron(np.array([[0, 1], [1, 0]], dtype=complex), m), pres)
    return from_equivariant(e, poset, pres, frame)


def cycle_args(poset, pres, frame, images):
    """The random-nets dense cycle: its index is the holonomy."""
    d = 3
    f_plus = np.kron(np.eye(d), np.array([[1.0, 0.0]]))
    phi = np.block([[np.zeros((2 * d, 2 * d)), f_plus.conj().T],
                    [f_plus, np.zeros((d, d))]]).astype(complex)
    v_images = {g: np.block([[np.kron(u, np.eye(2)), np.zeros((2 * d, d))],
                             [np.zeros((d, 2 * d)), u]]) for g, u in images.items()}
    grading = np.diag([1.0] * (2 * d) + [-1.0] * d).astype(complex)
    return ({"one": np.eye(3 * d, dtype=complex)}, v_images, phi, poset, pres, frame,
            grading)


def counted(monkeypatch, owner, names, f, *args):
    """Calls of owner.<name> for each name while f(*args) runs."""
    calls = []
    with monkeypatch.context() as m:
        for name in names:
            def wrapper(*a, _f=getattr(owner, name), **k):
                calls.append(name)
                return _f(*a, **k)
            m.setattr(owner, name, wrapper)
        f(*args)
    return len(calls)


def svd_calls(monkeypatch, f, *args):
    """`np.linalg.norm(., 2)` and `np.linalg.svd` calls; each stack of
    matrices is one call."""
    return counted(monkeypatch, np.linalg, ("norm", "svd"), f, *args)


@pytest.mark.parametrize("stage", ["validate_bundle", "roundtrip_iso",
                                   "validate_triple", "from_cycle"])
def test_svd_calls_do_not_grow_with_the_edges(monkeypatch, stage):
    counts = {}
    for size, seed in SIZES.items():
        poset, pres, frame, b, images = random_net(seed)
        if stage == "validate_bundle":
            run = (validate_bundle, b)
        elif stage == "roundtrip_iso":
            run = (roundtrip_iso, b, pres, frame, images)
        elif stage == "validate_triple":
            run = (validate_triple, triple_of(poset, pres, frame, images))
        else:
            run = (from_cycle, *cycle_args(poset, pres, frame, images))
        counts[size] = svd_calls(monkeypatch, *run)
    assert counts["small"] == counts["large"] <= 3, counts


def test_holonomy_images_build_no_path(monkeypatch):
    for seed in SIZES.values():
        poset, pres, frame, b, _ = random_net(seed)
        assert counted(monkeypatch, Path, ("__init__",), holonomy_images,
                       b, pres, frame) == 0
