"""Relations measured in stacks: `residual_defects` and the validators
and gates built on it give the defects of the single-item loops they
replace, bit for bit (compared in `float.hex`), and raise the same error
on the same first item."""

import numpy as np
import pytest

from holonet.bundle import (
    HilbertNetBundle,
    holonomy_rep,
    roundtrip_iso,
    validate_bundle,
)
from holonet.errors import NotCovariant, RelationDefect
from holonet.fredholm import from_cycle
from holonet.linalg import opnorm, opnorms, random_unitary
from holonet.operators import (
    adj,
    commutator,
    identity_like,
    require_unitary,
    residual_defects,
    zero_defect,
)
from holonet.randomgen import (
    random_hilbert_bundle,
    random_poset_with_frame,
    random_representation,
)
from holonet.reports import CONSTRUCTION_TOL, ValidationReport
from holonet.shift_calculus import finite_op, stripe_op
from holonet.standard import chain_poset
from conftest import pfp


def entry_bits(report):
    return [(e.check, e.location, float(e.defect).hex(), e.tolerance)
            for e in report.entries]


def outcome(f, *args):
    """The result of f, or the error class name and message it raised."""
    try:
        return f(*args)
    except (np.linalg.LinAlgError, NotCovariant, RelationDefect) as exc:
        return type(exc).__name__, str(exc)


def random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


# ------------------------------------------------ the single-item loops

def reference_validate_bundle(b, tol=CONSTRUCTION_TOL):
    """validate_bundle with every relation measured on its own."""
    rep = ValidationReport()
    pairs = set(b.poset.strict_pairs())
    for e in b.incl:
        if e not in pairs:
            rep.add("inclusion-indexing", f"{e}", float("inf"), tol)
    for e in sorted(pairs):
        if e not in b.incl:
            rep.add("inclusion-coverage", f"{e}", float("inf"), tol)
    for e, u in sorted(b.incl.items()):
        if u.shape != (b.dim, b.dim):
            rep.add("inclusion-shape", f"{e}", float("inf"), tol)
            continue
        rep.add("inclusion-unitarity", f"{e}",
                zero_defect(adj(u) @ u - identity_like(u)), tol)
    for o, o1, o2 in b.poset.two_chains():
        if any((x, y) not in b.incl for x, y in [(o, o2), (o1, o2), (o, o1)]):
            continue
        rep.add("chain-coherence", f"{o}<{o1}<{o2}",
                zero_defect(b.u(o, o2) - b.u(o1, o2) @ b.u(o, o1)), tol)
    return rep


def reference_require_unitary(images, tol, error):
    for g, v in sorted(images.items()):
        d = zero_defect(adj(v) @ v - identity_like(v))
        if not d <= tol:
            raise error(f"generator {g} image is not unitary ({d:.3e})")


def reference_grading_gate(grading, phi, v_images, samples, tol):
    """from_cycle's grading gate as the max of single defects."""
    d = max([zero_defect(grading - adj(grading)),
             zero_defect(grading @ grading - identity_like(grading)),
             zero_defect(grading @ phi + phi @ grading)]
            + [zero_defect(commutator(grading, x))
               for x in (*v_images.values(), *samples.values())])
    if d > tol:
        raise RelationDefect(f"grading relations fail: defect {d:.3e}")


# ------------------------------------------------------------------ inputs

def bundle_cases():
    """Generic and mixed real/complex Hilbert bundles, and bundles with a
    misshapen or an infinite inclusion."""
    for seed in range(5):
        rng = np.random.default_rng(800 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 12)
        b = random_hilbert_bundle(poset, pres, frame, 3, rng)
        yield "random", b
        mixed = {e: random_orthogonal(rng, 3) if k % 2 else u
                 for k, (e, u) in enumerate(sorted(b.incl.items()))}
        yield "mixed", HilbertNetBundle(poset, 3, mixed)
        in_chains = {e for o, o1, o2 in poset.two_chains()
                     for e in ((o, o1), (o1, o2), (o, o2))}
        for e in sorted(set(b.incl) - in_chains)[:1]:
            yield "misshapen", HilbertNetBundle(poset, 3, {**b.incl, e: np.eye(2)})
    # positive real entries and one infinite one: every residual through
    # the infinite inclusion is finite or infinite, never NaN, so its
    # norm is NaN in both measurements
    poset = chain_poset(3)
    a, b_, c = sorted(poset.elements)
    ones = np.ones((2, 2))
    yield "infinite", HilbertNetBundle(poset, 2, {
        (a, b_): ones, (b_, c): 0.5 * ones, (a, c): np.array([[1.0, np.inf], [1.0, 1.0]])})


# ------------------------------------------------------------------- tests

def test_residual_defects_equal_the_single_measurements():
    rng = np.random.default_rng(3)
    residuals = []
    for k in range(40):
        kind = k % 6
        if kind == 0:
            residuals.append(rng.standard_normal((3, 3)))
        elif kind == 1:
            residuals.append(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        elif kind == 2:
            residuals.append(1e-13 * random_unitary(rng, 6))
        elif kind == 3:
            residuals.append(rng.standard_normal((int(rng.integers(0, 5)), 3, 3)) + 0j)
        elif kind == 4:
            residuals.append(stripe_op(1, random_unitary(rng, 2))
                             + finite_op({(0, 0): rng.standard_normal((2, 2))}, 2))
        else:
            residuals.append(float(rng.random()))
    residuals[3] = np.zeros((0, 3, 3), dtype=complex)
    residuals[7] = residuals[7].copy()
    residuals[7][1, 2] = np.inf
    want = [opnorms(r).max(initial=0.0) if isinstance(r, np.ndarray) and r.ndim == 3
            else r if isinstance(r, float) else zero_defect(r) for r in residuals]
    got = residual_defects(residuals)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
    assert np.isnan(got[7])
    assert residual_defects([]).shape == (0,)


@pytest.mark.parametrize("kind", ["random", "mixed", "misshapen", "infinite"])
def test_validate_bundle_matches_the_single_item_loop(kind):
    cases = [b for name, b in bundle_cases() if name == kind]
    assert cases
    for b in cases:
        assert entry_bits(validate_bundle(b)) == entry_bits(reference_validate_bundle(b))
    if kind == "infinite":
        nan = [e.check for e in validate_bundle(cases[0]).entries if np.isnan(e.defect)]
        assert nan == ["inclusion-unitarity", "chain-coherence"]


def test_validate_bundle_with_a_nan_residual_fails_like_the_loop():
    rng = np.random.default_rng(12)
    poset, pres, frame = random_poset_with_frame(rng, 10)
    b = random_hilbert_bundle(poset, pres, frame, 3, rng)
    incl = dict(b.incl)
    u = incl[sorted(incl)[-1]].copy()
    u[0, 1] = np.inf
    incl[sorted(incl)[-1]] = u
    bad = HilbertNetBundle(poset, 3, incl)
    with np.errstate(invalid="ignore"):
        got = validate_bundle(bad)
        assert entry_bits(got) == entry_bits(reference_validate_bundle(bad))
    # a NaN norm is a NaN defect, not an SVD error
    assert not got.ok and np.isnan(got.max_defect)


def test_roundtrip_defect_matches_the_single_item_loop():
    nonzero = 0
    for seed in range(8):
        rng = np.random.default_rng(900 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 12)
        b = random_hilbert_bundle(poset, pres, frame, 2 + seed % 3, rng)
        images = holonomy_rep(b, pres, frame)
        rt = roundtrip_iso(b, pres, frame, images)
        worst = 0.0
        for o, o1 in poset.strict_pairs():
            worst = max(worst, opnorm(rt.intertwiner[o1] @ rt.reconstructed.u(o, o1)
                                      - b.u(o, o1) @ rt.intertwiner[o]))
        assert float(rt.defect).hex() == float(worst).hex()
        nonzero += worst > 0.0
    assert nonzero >= 4


def test_require_unitary_outcomes_match_the_generator_loop():
    seen = set()
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        poset, pres, frame = random_poset_with_frame(rng, 10)
        images = random_representation(pres, 3, rng)
        if len(images) < 2:
            continue
        g = sorted(images)
        images[g[0]] = random_orthogonal(rng, 3)
        images[g[-1]] = images[g[-1]] + 1e-10 * rng.standard_normal((3, 3))
        shift = {k: stripe_op(0, v) for k, v in images.items()}
        for imgs in (images, shift):
            for tol in (1e-15, 1e-12, 1e-10, 1e-9, 1.0):
                got = outcome(require_unitary, imgs, tol, NotCovariant)
                assert got == outcome(reference_require_unitary, imgs, tol, NotCovariant)
                seen.add(got and got[1].split(" (")[0])
    assert len(seen) >= 3


def test_from_cycle_grading_gate_matches_the_max_of_single_defects():
    """The dense cycle of the random-nets chain, with its grading
    perturbed by eps: the stacked gate raises exactly when the loop's
    max does, with the same message."""
    poset, pres, frame = pfp(chain_poset(3))
    rng = np.random.default_rng(21)
    d = 2
    f_plus = np.kron(np.eye(d), np.array([[1.0, 0.0]]))
    phi = np.block([[np.zeros((2 * d, 2 * d)), f_plus.conj().T],
                    [f_plus, np.zeros((d, d))]]).astype(complex)
    samples = {"one": np.eye(3 * d, dtype=complex)}
    assert len(pres.generators) == 1
    v_images = {1: np.eye(3 * d, dtype=complex)}
    seen = set()
    for eps in (0.0, 1e-12, 3e-11, 1e-10, 1e-8):
        grading = np.diag([1.0] * (2 * d) + [-1.0] * d).astype(complex)
        grading = grading + eps * rng.standard_normal(grading.shape)
        for tol in (1e-10, 1e-9):
            got = outcome(from_cycle, samples, v_images, phi, poset, pres, frame,
                          grading, "even", tol)
            want = outcome(reference_grading_gate, grading, phi, v_images, samples, tol)
            got = None if not isinstance(got, tuple) else got
            assert got == want
            seen.add(got is None)
    assert seen == {True, False}
