"""Counted work: deterministic counts of the work a layer does, taken
with test-local counters at two sizes of random nets and of sector
windows.  Unlike a wall time, a count does not depend on the host, so a
layer whose work grows where it should not fails here."""

import sys
from collections import Counter
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

import holonet.bundle
import holonet.fredholm
import holonet.reports
import holonet.shift_calculus
from holonet.bundle import (
    compute_sections,
    hilbert_section_dimension_oracle,
    holonomy_images,
    holonomy_rep,
    roundtrip_iso,
    validate_bundle,
)
from holonet.fredholm import (
    FredholmModule,
    build_sector_module,
    build_shift_module,
    equivariant_cycle,
    extend_localized,
    from_cycle,
    localize,
    pi_index,
    validate_module,
)
from holonet.linalg import dagger, random_unitary
from holonet.poset import Path
from holonet.randomgen import random_hilbert_bundle, random_poset_with_frame
from holonet.representation import (
    BlockHom,
    NetOfAlgebras,
    covariantize,
    identity_representation,
)
from holonet.shift_calculus import ShiftOp
from holonet.spectral import EquivariantTriple, from_equivariant, validate_triple
from holonet.standard import circle_poset
from conftest import pfp, random_block_permutation

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
            run = (roundtrip_iso, replace(b), pres, frame, images)
        elif stage == "validate_triple":
            run = (validate_triple, triple_of(poset, pres, frame, images))
        else:
            run = (from_cycle, *cycle_args(poset, pres, frame, images))
        counts[size] = svd_calls(monkeypatch, *run)
    assert counts["small"] == counts["large"] <= 3, counts


def svd_matrices(monkeypatch, f, *args):
    """Matrices that reach `np.linalg.svd` or `np.linalg.norm(., 2)`; a
    stack counts its slices."""
    sizes = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counted_svd(a, *rest, **kwargs):
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *rest, **kwargs)

    def counted_norm(x, ord=None, *rest, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            sizes.append(1)
        return norm(x, ord, *rest, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", counted_svd)
        m.setattr(np.linalg, "norm", counted_norm)
        f(*args)
    return sum(sizes)


def test_validate_triple_measures_a_few_matrices_per_edge_unitary(monkeypatch):
    """D-transport is one matrix and the superderivation covariance bound
    six per distinct edge unitary (the D and grading relations of the
    shared fibers add two); a residual per matrix unit of the 6 x 6
    fibers would add 36."""
    for seed in SIZES.values():
        poset, pres, frame, b, images = random_net(seed)
        t = triple_of(poset, pres, frame, images)
        distinct = len({id(u) for u in t.rep.u_incl.values()})
        count = svd_matrices(monkeypatch, lambda: validate_triple(t).ok)
        assert count <= 8 * distinct + 8, (count, distinct)


def test_holonomy_images_build_no_path(monkeypatch):
    for seed in SIZES.values():
        poset, pres, frame, b, _ = random_net(seed)
        # a fresh carrier: the cached one already holds its holonomy
        assert counted(monkeypatch, Path, ("__init__",), holonomy_images,
                       replace(b), pres, frame) == 0


def test_net_holonomy_validates_no_block_permutation(monkeypatch):
    """Products and inverses of validated block permutations are block
    permutations, so the net holonomy builds them unvalidated; each one
    still passes the validation it skipped."""
    for seed in SIZES.values():
        poset, pres, frame, _, _ = random_net(seed)
        rng = np.random.default_rng(seed)
        sizes = (1, 1, 2)
        net = NetOfAlgebras(poset, {o: sizes for o in poset.elements},
                            {e: random_block_permutation(rng, sizes)
                             for e in sorted(poset.strict_pairs())})
        images = {}
        assert counted(monkeypatch, BlockHom, ("__post_init__",),
                       lambda: images.update(holonomy_images(net, pres, frame))) == 0
        assert len(images) == len(pres.generators)
        for h in images.values():
            BlockHom(h.src_sizes, h.dst_sizes, h.mult, h.units)


def test_one_frame_walk_per_carrier_and_one_relator_stack_per_bundle(monkeypatch):
    """The circle-transport calls on one bundle and one shift module walk
    the frame once per carrier (the bundle, its reconstruction and the
    module's representation) and measure the bundle's relators once per
    presentation and frame; `covariantize` after `holonomy_rep` walks
    only the net it builds, not the bundle again."""
    poset, pres, frame = pfp(circle_poset(16))
    rng = np.random.default_rng(7)
    b = random_hilbert_bundle(poset, pres, frame, 4, rng)
    m = build_shift_module(poset, pres, frame, {1: random_unitary(rng, 4)})
    far = max(sorted(poset.elements), key=lambda o: len(frame.to(o).simplices))
    walks, stacks = Counter(), Counter()
    frame_transports, relator_defects = (holonet.bundle.frame_transports,
                                         holonet.bundle.relator_defects)

    def counted_walk(poset, frame, start, step):
        walks[id(start), id(frame)] += 1  # start is the carrier's ident
        return frame_transports(poset, frame, start, step)

    def counted_stack(pres, images, ident):
        stacks[id(pres), id(ident)] += 1
        return relator_defects(pres, images, ident)

    monkeypatch.setattr(holonet.bundle, "frame_transports", counted_walk)
    monkeypatch.setattr(holonet.bundle, "relator_defects", counted_stack)
    holonomy_rep(b, pres, frame)
    holonomy_rep(b, pres, frame)
    compute_sections(b, pres, frame)
    hilbert_section_dimension_oracle(b, pres, frame)
    rt = roundtrip_iso(b, pres, frame)
    assert isinstance(extend_localized(localize(m, far)), FredholmModule)
    equivariant_cycle(localize(m, frame.base))
    idents = (b.ident, rt.reconstructed.ident, m.rep.ident)
    assert walks == Counter({(id(i), id(frame)): 1 for i in idents})
    assert stacks == Counter({(id(pres), id(b.ident)): 1})
    walks.clear()
    r = identity_representation(b)
    covariantize(r, pres, frame)
    assert walks == Counter({(id(r.net.ident), id(frame)): 1})
    assert stacks == Counter({(id(pres), id(b.ident)): 1})


# ------------------------------------------------------------ sector index

def sector_2_1(hexagon_pfp, w_index):
    """The sector-index bench's pinned (2, 1) sector: a 2 x 2 block with
    two distinct eigenphases and a 1 x 1 block, at cyclic index w_index."""
    poset, pres, frame = hexagon_pfp
    v = random_unitary(np.random.default_rng(7), 2)
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = v @ np.diag(np.exp(2j * np.pi * np.array([0.1, 0.45]))) @ dagger(v)
    rho[2, 2] = np.exp(2j * np.pi * 0.8)
    sec = build_sector_module(poset, pres, frame, (2, 1), {1: rho}, w_index=w_index)
    return sec.module, equivariant_cycle(localize(sec.module, frame.base))


@pytest.mark.parametrize("w_index", [32, 128])
def test_one_site_block_assembly_per_windowed_kernel(monkeypatch, hexagon_pfp, w_index):
    # one assembly of the widest window serves all three windows (w0,
    # w0 + 1, w0 + 2); assembling each window apart made three
    _, cycle = sector_2_1(hexagon_pfp, w_index)
    per_call = []
    assemblies = []
    site_blocks = ShiftOp.site_blocks
    windowed_kernel = holonet.fredholm.windowed_kernel

    def counted_site_blocks(op, cols):
        assemblies.append(cols)
        return site_blocks(op, cols)

    def counted_windowed_kernel(op):
        before = len(assemblies)
        out = windowed_kernel(op)
        per_call.append(len(assemblies) - before)
        return out

    monkeypatch.setattr(ShiftOp, "site_blocks", counted_site_blocks)
    monkeypatch.setattr(holonet.fredholm, "windowed_kernel", counted_windowed_kernel)
    pi_index(cycle)
    assert per_call == [1, 1]


def test_sector_window_assembly_does_not_grow_with_w_index(monkeypatch, hexagon_pfp):
    """The columns that `windowed_kernel` hands to `site_blocks` on a
    sector corner are its touched columns (the pinned sites and their
    neighbours) and one representative bulk column: the same number at
    every `w_index`, where the full window has w_index + 4 columns."""
    site_blocks = ShiftOp.site_blocks
    windowed_kernel = holonet.fredholm.windowed_kernel
    columns = {}
    for w_index in (32, 128, 1018):
        _, cycle = sector_2_1(hexagon_pfp, w_index)
        per_call, inside = [], []

        def counted_site_blocks(op, cols):
            cols = list(cols)
            if inside:
                per_call[-1] += len(cols)
            return site_blocks(op, cols)

        def counted_windowed_kernel(op):
            per_call.append(0)
            inside.append(op)
            try:
                return windowed_kernel(op)
            finally:
                inside.pop()

        with monkeypatch.context() as m:
            m.setattr(ShiftOp, "site_blocks", counted_site_blocks)
            m.setattr(holonet.fredholm, "windowed_kernel", counted_windowed_kernel)
            pi_index(cycle)
        columns[w_index] = per_call
    assert columns[32] == columns[128] == columns[1018], columns
    assert len(columns[32]) == 2 and max(columns[32]) <= 8, columns


@pytest.mark.parametrize("w_index", [32, 128])
def test_sector_arithmetic_builds_results_unvalidated(monkeypatch, hexagon_pfp, w_index):
    """Every validating construction during `validate_module` and
    `pi_index` comes from the constructors `stripe_op` and `finite_op`
    (an identity, say), none from arithmetic; and the number of ShiftOp
    products is the one the constructor-based arithmetic made."""
    module, cycle = sector_2_1(hexagon_pfp, w_index)
    callers, products = [], []
    init, matmul = ShiftOp.__init__, ShiftOp.__matmul__

    def counted_init(op, *args, **kwargs):
        code = sys._getframe(1).f_code
        if code.co_filename == holonet.shift_calculus.__file__:
            callers.append(code.co_name)
        init(op, *args, **kwargs)

    def counted_matmul(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(ShiftOp, "__init__", counted_init)
    monkeypatch.setattr(ShiftOp, "__matmul__", counted_matmul)
    counts = {}
    for stage, arg in ((validate_module, module), (pi_index, cycle)):
        callers.clear()
        products.clear()
        stage(arg)
        assert set(callers) <= {"stripe_op", "finite_op"}, (stage.__name__, callers)
        counts[stage.__name__] = len(products)
    assert counts == {"validate_module": 38, "pi_index": 0}


# ------------------------------------------------------ report bookkeeping

def test_validate_module_measures_shared_relations_once(monkeypatch):
    """A shift module on a circle shares its F, grading, samples and edge
    colours among all fibers and edges: the residuals measured do not
    grow with the circle, while the checks do.  Reading `ok`,
    `max_defect` and `count` builds no `CheckEntry`."""
    measured, built = [], []
    residual_defects, entry = holonet.reports.residual_defects, holonet.reports.CheckEntry

    def counted_residual_defects(residuals):
        measured.append(len(residuals))
        return residual_defects(residuals)

    def counted_entry(*args):
        built.append(1)
        return entry(*args)

    monkeypatch.setattr(holonet.reports, "residual_defects", counted_residual_defects)
    monkeypatch.setattr(holonet.reports, "CheckEntry", counted_entry)
    counts = {}
    for n_arcs in (16, 64):
        poset, pres, frame = pfp(circle_poset(n_arcs))
        module = build_shift_module(poset, pres, frame,
                                    {1: random_unitary(np.random.default_rng(7), 4)})
        measured.clear()
        built.clear()
        report = validate_module(module)
        assert report.ok and report.max_defect <= 1e-10
        counts[n_arcs] = sum(measured), report.count
        assert built == []
        assert len(report.entries) == report.count == len(built)
    assert counts[16][0] == counts[64][0], counts
    assert counts[16][1] < counts[64][1], counts
