"""Fiber-basis and relator checks measured in one stack per relation:
bitwise equal to the per-unit loops they replace, NaN-propagating, and
one linalg call per checked location instead of one per matrix unit."""

import numpy as np
import pytest

import holonet.representation
from holonet.bundle import (
    HilbertNetBundle,
    Section,
    bundle_from_rep,
    holonomy_images,
    holonomy_rep,
    roundtrip_iso,
    section_defect,
    validate_bundle,
)
from holonet.cli import _report_summary
from holonet.errors import (
    HolonetError,
    InvalidRepresentation,
    NotCovariant,
    RelatorNotSatisfied,
)
from holonet.homotopy import edge_loop_word
from holonet.linalg import dagger, first_over, opnorm, opnorms, random_unitary
from holonet.operators import evaluate_word_ops, require_relators, zero_defect
from holonet.randomgen import (
    random_hilbert_bundle,
    random_poset_with_frame,
    random_representation,
)
from holonet.reports import CHECK_TOL, ValidationReport
from holonet.representation import (
    BlockHom,
    NetOfAlgebras,
    NetRepresentation,
    apply_hom,
    block_diag,
    covariantize,
    identity_hom,
    identity_representation,
    validate_representation,
)
from holonet.spectral import EquivariantTriple, from_equivariant, validate_triple
from holonet.standard import chain_poset
from conftest import netify

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


# --------------------------------------------- the per-unit reference loops

def basis_elements(sizes):
    """Matrix units of the block algebra, one block element each."""
    out = []
    for k, n in enumerate(sizes):
        for i in range(n):
            for j in range(n):
                blocks = [np.zeros((m, m), dtype=complex) for m in sizes]
                blocks[k][i, j] = 1.0
                out.append(tuple(blocks))
    return out


def reference_map_defect(a, b, sizes):
    """Largest block norm by which the block permutations a and b differ
    on a matrix unit."""
    worst = 0.0
    for t in basis_elements(sizes):
        worst = max(worst, max((opnorm(x - y) for x, y in
                                zip(apply_hom(a, t), apply_hom(b, t))), default=0.0))
    return worst


def reference_morphisms(r):
    out = []
    for o, o1 in sorted(r.net.poset.strict_pairs()):
        u = r.target.u(o, o1)
        h = r.net.u(o, o1)
        worst = 0.0
        for t in basis_elements(r.net.fibers[o]):
            lhs = u @ r.pi_matrix(o, t) @ dagger(u)
            rhs = r.pi_matrix(o1, apply_hom(h, t))
            worst = max(worst, opnorm(lhs - rhs))
        out.append((f"{o}<{o1}", worst))
    return out


def reference_require_relators(pres, images, ident, tol, error):
    for r in pres.relators:
        w = evaluate_word_ops(r.letters, images, ident)
        if isinstance(w, BlockHom):
            d = reference_map_defect(w, ident, ident.src_sizes)
        else:
            d = zero_defect(w - ident)
        if d > tol:
            raise error(f"relator {r} has defect {d:.3e}")


def reference_covariantize(r, pres, frame, tol):
    """covariantize with its per-unit generator loop (validation itself is
    compared with the loop in `test_validate_representation_matches_the_unit_loop`)."""
    report = validate_representation(r, tol)
    if not report.ok:
        raise InvalidRepresentation(str(report))
    r.net.ident  # NotANetBundle unless the fibers are constant
    for h in r.net.incl.values():
        h.src  # NotANetBundle unless h is a block permutation
    images = holonomy_images(r.target, pres, frame)
    reference_require_relators(pres, images, r.target.ident, tol, RelatorNotSatisfied)
    pi_base = r.pi[pres.base]
    for idx, act in holonomy_images(r.net, pres, frame).items():
        u = images[idx]
        for t in basis_elements(r.net.fibers[pres.base]):
            lhs = apply_hom(pi_base, apply_hom(act, t))[0]
            rhs = u @ apply_hom(pi_base, t)[0] @ dagger(u)
            if opnorm(lhs - rhs) > tol:
                raise InvalidRepresentation(
                    f"covariance fails on generator {idx} "
                    f"(defect {opnorm(lhs - rhs):.3e})")
    return pi_base, images


def reference_netify(eta, v_images, poset, pres, frame, action, tol):
    """netify with its per-unit loop and the relator loop."""
    sizes = eta.src_sizes
    reference_require_relators(pres, action, identity_hom(sizes), tol, RelatorNotSatisfied)
    for idx, u in v_images.items():
        for t in basis_elements(sizes):
            lhs = apply_hom(eta, apply_hom(action[idx], t))[0]
            rhs = u @ apply_hom(eta, t)[0] @ dagger(u)
            if opnorm(lhs - rhs) > tol:
                raise NotCovariant(
                    f"eta does not intertwine generator {idx} "
                    f"(defect {opnorm(lhs - rhs):.3e})")
    target = bundle_from_rep(poset, pres, frame, v_images, eta.dst_sizes[0], tol)
    incl = {e: evaluate_word_ops(edge_loop_word(pres, poset, frame, *e).letters,
                                 action, identity_hom(sizes))
            for e in poset.strict_pairs()}
    return NetRepresentation(NetOfAlgebras(poset, {o: sizes for o in poset.elements}, incl),
                             target, {o: eta for o in poset.elements})


def outcome(f, *args):
    """None when f returns, else the error class name and message."""
    try:
        f(*args)
    except HolonetError as exc:
        return type(exc).__name__, str(exc)
    return None


def hexes(pairs):
    return [(loc, float(d).hex()) for loc, d in pairs]


# ------------------------------------------------------------ random inputs

def level_net(rng, poset, perturb: bool) -> NetOfAlgebras:
    """Fibers (2, 1) on minimal elements and (4, 2) above them, so every
    inclusion out of a minimal element is a multiplicity-2 embedding.
    Units built from per-element block frames make the net functorial up
    to rounding; `perturb` replaces one inclusion by a random one."""
    minimal = {o for o in poset.elements if not any(poset.lt(x, o) for x in poset.elements)}
    fibers = {o: (2, 1) if o in minimal else (4, 2) for o in poset.elements}
    frames = {o: tuple(random_unitary(rng, n) for n in fibers[o]) for o in poset.elements}
    incl = {}
    for o, o1 in sorted(poset.strict_pairs()):
        mult = ((2, 0), (0, 2)) if o in minimal else ((1, 0), (0, 1))
        units = tuple(frames[o1][i] @ block_diag([dagger(frames[o][j])
                                                  for j, m in enumerate(row)
                                                  for _ in range(m)])
                      for i, row in enumerate(mult))
        incl[(o, o1)] = BlockHom(fibers[o], fibers[o1], mult, units)
    if perturb:
        e = sorted(incl)[int(rng.integers(len(incl)))]
        h = incl[e]
        incl[e] = BlockHom(h.src_sizes, h.dst_sizes, h.mult,
                           tuple(random_unitary(rng, n) for n in h.dst_sizes))
    return NetOfAlgebras(poset, fibers, incl)


def covariant_pair(rng, pres):
    """eta: (2, 1) -> (5,) with multiplicities (2, 1), a block action
    that satisfies the relators, and V implementing it through eta."""
    w = random_unitary(rng, 5)
    eta = BlockHom((2, 1), (5,), ((2, 1),), (w,))
    mult_space = random_representation(pres, 2, rng)
    inner = random_representation(pres, 2, rng)
    phase = random_representation(pres, 1, rng)
    action = {g: BlockHom((2, 1), (2, 1), ((1, 0), (0, 1)),
                          (inner[g], np.eye(1, dtype=complex)))
              for g in inner}
    v = {g: w @ block_diag([np.kron(mult_space[g], inner[g]), phase[g]]) @ dagger(w)
         for g in inner}
    return eta, action, v


def regauged(rng, r):
    """r conjugated fiberwise by random unitaries: the same representation
    in another gauge, whose rounding grows along loops."""
    w = {o: random_unitary(rng, r.target.dim) for o in r.net.poset.elements}
    target = HilbertNetBundle(r.target.poset, r.target.dim,
                              {e: w[e[1]] @ u @ dagger(w[e[0]])
                               for e, u in r.target.incl.items()})
    pi = {o: BlockHom(h.src_sizes, h.dst_sizes, h.mult, (w[o] @ h.units[0],))
          for o, h in r.pi.items()}
    return NetRepresentation(r.net, target, pi)


def random_cases(count, max_elements=9):
    for seed in range(count):
        rng = np.random.default_rng(700 + seed)
        poset, pres, frame = random_poset_with_frame(rng, max_elements)
        if pres.generators:
            yield rng, poset, pres, frame


# ------------------------------------------------------------------- tests

def test_opnorms_equal_the_opnorm_loop_bitwise():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for k in (1, 2, 7, 36):
            stack = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
            stack[0] *= 1e-13
            assert [float(x).hex() for x in opnorms(stack)] == \
                [float(opnorm(a)).hex() for a in stack]
    assert opnorms(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
    assert np.array_equal(opnorms(np.zeros((2, 0, 0))), [0.0, 0.0])


def test_validate_representation_matches_the_unit_loop():
    cases = 0
    for rng, poset, pres, frame in random_cases(12):
        eta, action, v = covariant_pair(rng, pres)
        good = netify(eta, v, poset, pres, frame, action=action)
        pi = dict(good.pi)
        pi[poset.elements[-1]] = BlockHom((2, 1), (5,), ((2, 1),), (random_unitary(rng, 5),))
        broken = NetRepresentation(good.net, good.target, pi)
        # a non-constant net: (2, 1) below, (4, 2) above, both into C^6
        net = level_net(rng, poset, False)
        target = HilbertNetBundle(poset, 6, {e: random_unitary(rng, 6)
                                             for e in poset.strict_pairs()})
        pis = {o: BlockHom(net.fibers[o], (6,), ((2, 2),) if net.fibers[o] == (2, 1)
                           else ((1, 1),), (random_unitary(rng, 6),))
               for o in poset.elements}
        for r in (good, broken, NetRepresentation(net, target, pis)):
            report = validate_representation(r)
            got = [(e.location, e.defect) for e in report.entries]
            assert hexes(got) == hexes(reference_morphisms(r))
            cases += 1
        assert validate_representation(good).ok
        assert not validate_representation(broken).ok
    assert cases >= 18


def test_covariantize_outcomes_match_the_unit_loop(monkeypatch):
    """Tolerances between the rounding of the edges and that of the loops
    make the generator check fail on units past the first.  covariantize
    checks at CHECK_TOL, so the sweep sets that constant."""
    seen = set()
    for rng, poset, pres, frame in random_cases(16):
        eta, action, v = covariant_pair(rng, pres)
        r = netify(eta, v, poset, pres, frame, action=action)
        r_hilbert = identity_representation(random_hilbert_bundle(poset, pres, frame, 3, rng))
        for rep in (r, regauged(rng, r), r_hilbert):
            edge = validate_representation(rep).max_defect
            for tol in (CHECK_TOL, edge, 2 * edge, 4 * edge):
                with monkeypatch.context() as m:
                    m.setattr(holonet.representation, "CHECK_TOL", tol)
                    got = outcome(covariantize, rep, pres, frame)
                assert got == outcome(reference_covariantize, rep, pres, frame, tol)
                seen.add(got[1].split(" ")[0] if got else None)
    assert {None, "covariance"} <= seen


def test_netify_outcomes_match_the_unit_loop():
    seen = set()
    for rng, poset, pres, frame in random_cases(12):
        eta, action, v = covariant_pair(rng, pres)
        g = 1 + int(rng.integers(len(v)))
        v_bad = dict(v)
        v_bad[g] = v[g] + 1e-9 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        for images in (v, v_bad):
            for tol in (CHECK_TOL, 1e-15, 3e-10, 1e-9):
                got = outcome(netify, eta, images, poset, pres, frame, action, tol)
                want = outcome(reference_netify, eta, images, poset, pres, frame, action, tol)
                assert got == want
                seen.add(got[0] if got else None)
    assert {None, "NotCovariant", "RelatorNotSatisfied"} <= seen


def test_require_relators_outcomes_match_the_relator_loop():
    """The first relator over tolerance is named, with the loop's defect."""
    seen = 0
    for rng, poset, pres, frame in random_cases(16):
        if len(pres.relators) < 2:
            continue
        dense = random_representation(pres, 3, rng)
        g = 1 + int(rng.integers(len(dense)))
        dense[g] = dense[g] + 1e-11 * rng.standard_normal((3, 3))
        ident = np.eye(3, dtype=complex)
        defects = sorted(zero_defect(evaluate_word_ops(r.letters, dense, ident) - ident)
                         for r in pres.relators)
        for tol in (CHECK_TOL, defects[len(defects) // 2], defects[-1], 10.0):
            got = outcome(require_relators, pres, dense, ident, tol, RelatorNotSatisfied)
            want = outcome(reference_require_relators, pres, dense, ident, tol,
                           RelatorNotSatisfied)
            assert got == want
            seen += got is not None
    assert seen > 0


# ------------------------------------------------------------- NaN defects

@pytest.mark.parametrize("defects", [[1e-12, float("nan")], [float("nan"), 1e-12]])
def test_max_defect_is_nan_whatever_the_order(defects):
    report = ValidationReport()
    for k, d in enumerate(defects):
        report.add("check", str(k), d, 1e-10)
    assert np.isnan(report.max_defect)
    assert not report.ok
    summary = _report_summary(report)
    assert summary["max_defect"] is None and summary["max_defect_nonfinite"] is True


def test_batched_reductions_keep_nan():
    stack = np.stack([np.eye(2, dtype=complex)] * 3)
    stack[1, 0, 0] = np.inf
    norms = opnorms(stack)
    assert np.isnan(norms[1]) and np.isnan(norms.max(initial=0.0))
    assert first_over(norms, 10.0) == 1
    assert first_over(np.array([0.0, 1e-12]), 1e-10) is None


def test_overflowing_unit_makes_the_morphism_defect_nan():
    """A unit whose transport overflows used to drop out of the loop's
    running max (max(0.0, nan) is 0.0); it now makes the entry NaN."""
    poset = chain_poset(2)
    big = np.diag([1e200, 1.0]).astype(complex)
    target = HilbertNetBundle(poset, 2, {e: big for e in poset.strict_pairs()})
    net = NetOfAlgebras(poset, {o: (2,) for o in poset.elements},
                        {e: identity_hom((2,)) for e in poset.strict_pairs()})
    r = NetRepresentation(net, target, {o: net.u(o, o) for o in poset.elements})
    with np.errstate(over="ignore", invalid="ignore"):
        (loop,) = reference_morphisms(r)
        (entry,) = validate_representation(r).entries
    assert np.isfinite(loop[1])
    assert np.isnan(entry.defect) and not entry.ok


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_slice_has_norm_nan_and_leaves_the_others_bitwise(bad):
    stack = np.stack([random_unitary(np.random.default_rng(k), 3) for k in range(4)])
    finite = opnorms(stack)
    stack[2, 1, 0] = bad
    got = opnorms(stack)
    assert np.isnan(got[2]) and np.isnan(opnorm(stack[2]))
    assert got[[0, 1, 3]].tobytes() == finite[[0, 1, 3]].tobytes()
    assert np.isnan(opnorms(stack[2:3])).all()


def test_a_non_finite_inclusion_gives_a_nan_report_for_both_bundle_kinds():
    """An SVD of a NaN matrix raised `LinAlgError` out of validate_bundle."""
    rng = np.random.default_rng(3)
    poset, pres, frame = random_poset_with_frame(rng, 8)
    b = random_hilbert_bundle(poset, pres, frame, 3, rng)
    e = min(b.incl)
    u = b.incl[e].copy()
    u[1, 2] = np.inf
    with np.errstate(invalid="ignore"):
        report = validate_bundle(HilbertNetBundle(poset, 3, {**b.incl, e: u}))
    assert not report.ok and np.isnan(report.max_defect)


def test_a_nan_section_value_makes_the_section_defect_nan():
    poset = chain_poset(3)
    flat = HilbertNetBundle(poset, 2, {e: np.eye(2, dtype=complex)
                                       for e in poset.strict_pairs()})
    values = {o: np.array([1.0, 0.0], dtype=complex) for o in poset.elements}
    assert section_defect(flat, Section(values)) == 0.0
    values[max(poset.elements)] = np.array([np.nan, 0.0], dtype=complex)
    assert np.isnan(section_defect(flat, Section(values)))


def test_a_non_finite_inclusion_makes_the_roundtrip_defect_nan():
    rng = np.random.default_rng(3)
    poset, pres, frame = random_poset_with_frame(rng, 8)
    b = random_hilbert_bundle(poset, pres, frame, 3, rng)
    images = holonomy_rep(b, pres, frame)
    e = max(set(b.incl) - set(pres.tree_edges))
    u = b.incl[e].copy()
    u[0, 1] = np.inf
    with np.errstate(invalid="ignore"):
        rt = roundtrip_iso(HilbertNetBundle(poset, 3, {**b.incl, e: u}), pres, frame, images)
    assert np.isnan(rt.defect)


# ------------------------------------------------------ linalg call counts

def test_triple_and_covariantize_make_one_linalg_call_per_location(monkeypatch):
    """validate_triple measures all of its residuals in one grouped stack:
    per distinct edge unitary one D-transport matrix and the six factors
    of the superderivation covariance bound, no matrix-unit basis.
    covariantize costs one call per strict pair (morphism), one per
    generator and one for the relators.  A per-unit loop of calls in
    either adds 35 calls per location here."""
    rng = np.random.default_rng(0)
    poset, pres, frame = random_poset_with_frame(rng, 12)
    images = random_representation(pres, 3, rng)
    b = bundle_from_rep(poset, pres, frame, images, 3)
    e = EquivariantTriple(np.kron(SZ, np.eye(3)),
                          {g: np.kron(np.eye(2), u) for g, u in images.items()},
                          {"one": np.eye(6, dtype=complex)},
                          np.kron(SX, np.eye(3, dtype=complex)), pres)
    t = from_equivariant(e, poset, pres, frame)
    r = identity_representation(b)
    pairs, gens = len(poset.strict_pairs()), len(pres.generators)
    assert (pairs, gens) == (29, 19)
    calls = []
    for name in ("norm", "svd"):
        def counted(*args, _f=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert validate_triple(t).ok
    covariantize(r, pres, frame)
    assert len(calls) <= pairs + 3 * gens + 8
