"""Exact phase arithmetic, classes of loop reps, classes recovered from
module indices, and the sum/tensor combination rules.

The tensor tests use an independent oracle: eigenvalues of a Kronecker
product are pairwise products, so the class of a tensor rep is computed
directly from the pairwise phase sums and compared, exactly, with the
rank-weighted combination formula.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import pfp, rng_for
from holonet.charclass import (
    CCSClass,
    ExactPhase,
    ccs_of_module,
    ccs_of_rep,
    combine,
    irrational_basis,
    phase,
)
from holonet.errors import (
    BasisMismatch,
    InexactPhase,
    NotInfiniteCyclic,
    PhaseRecoveryFailed,
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
)
from holonet.homotopy import GroupPresentation, Word
from holonet.standard import chain_poset

GOLDEN = 0.6180339887498949
LOG2 = 0.6931471805599453


@pytest.fixture
def basis():
    return irrational_basis(a1=GOLDEN, a2=LOG2)


def random_phase(rng, basis):
    rat = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
    coeffs = {}
    for name in basis.names:
        if rng.integers(0, 2):
            coeffs[name] = Fraction(int(rng.integers(-3, 4)),
                                    int(rng.integers(1, 5)))
    return phase(basis, rat, **coeffs)


# ---------------------------------------------------------------- phases


def test_phase_sum_and_scale_are_exact(basis):
    p = phase(basis, Fraction(1, 3), a1=Fraction(2, 5))
    q = phase(basis, Fraction(1, 2), a2=Fraction(-1, 7))
    s = p + q
    assert s.rat == Fraction(5, 6)
    assert dict(s.irr) == {"a1": Fraction(2, 5), "a2": Fraction(-1, 7)}
    assert p.scale(3) == p + p + p
    assert -p == p.scale(-1)
    assert p - p == phase(basis)


def test_phase_normalization_drops_zero_coordinates(basis):
    assert phase(basis, Fraction(1, 2), a1=0) == phase(basis, Fraction(1, 2))
    p = phase(basis, 0, a1=Fraction(1, 3))
    assert (p + p.scale(-1)).irr == ()


def test_phase_reductions(basis):
    p = phase(basis, Fraction(7, 3), a1=Fraction(1, 2))
    assert p.mod_q() == phase(basis, 0, a1=Fraction(1, 2))


def test_phase_float_value(basis):
    p = phase(basis, Fraction(1, 2), a1=Fraction(2))
    assert p.float_value() == 0.5 + 2 * GOLDEN


def test_phase_basis_discipline(basis):
    other = irrational_basis(a1=GOLDEN)
    with pytest.raises(BasisMismatch):
        phase(basis, 0, a1=1) + phase(other, 0, a1=1)
    with pytest.raises(BasisMismatch):
        phase(basis, 0, nope=1)
    assert "a1" in str(phase(basis, 0, a1=1))


# ------------------------------------------------------------ rep classes


def test_trivial_rep_class_is_rank_only(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    c = ccs_of_rep([phase(basis)] * 3, pres)
    assert c == CCSClass(3, (), basis)


def test_rational_phases_have_no_odd_part(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    phases = [phase(basis, Fraction(1, 3)), phase(basis, Fraction(-2, 7))]
    assert ccs_of_rep(phases, pres) == CCSClass(2, (), basis)


def test_irrational_phase_survives_mod_q(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    c = ccs_of_rep([phase(basis, Fraction(3, 4), a1=1)], pres)
    assert c == CCSClass(1, (("a1", Fraction(1)),), basis)


def test_rep_class_requires_exact_phases(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    with pytest.raises(InexactPhase):
        ccs_of_rep([0.5], pres)
    with pytest.raises(InexactPhase):
        ccs_of_rep([], pres)


def test_rep_class_requires_infinite_cyclic_group(basis):
    free2 = GroupPresentation("b", (("x", "y"), ("p", "q")), ())
    with pytest.raises(NotInfiniteCyclic):
        ccs_of_rep([phase(basis)], free2)
    # a presentation that only simplifies to Z is accepted
    killed = GroupPresentation("b", (("x", "y"), ("p", "q")),
                               (Word((2,)),))
    assert ccs_of_rep([phase(basis)], killed).rank == 1


def test_rep_class_rejects_contractible_loop_group(basis, topped):
    _, pres, _ = pfp(topped)
    with pytest.raises(NotInfiniteCyclic):
        ccs_of_rep([phase(basis)], pres)


# ----------------------------------------------------------- combination


def test_additivity_is_exact(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    for seed in range(5):
        rng = rng_for(seed)
        a = [random_phase(rng, basis) for _ in range(int(rng.integers(1, 5)))]
        b = [random_phase(rng, basis) for _ in range(int(rng.integers(1, 5)))]
        lhs = ccs_of_rep(a + b, pres)
        rhs = combine(ccs_of_rep(a, pres), ccs_of_rep(b, pres), "sum")
        assert lhs == rhs


def test_tensor_identity_against_pairwise_sums(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    for seed in range(5):
        rng = rng_for(100 + seed)
        a = [random_phase(rng, basis) for _ in range(int(rng.integers(1, 4)))]
        b = [random_phase(rng, basis) for _ in range(int(rng.integers(1, 4)))]
        # eigenphases of a Kronecker product are the pairwise sums
        oracle = ccs_of_rep([p + q for p in a for q in b], pres)
        got = combine(ccs_of_rep(a, pres), ccs_of_rep(b, pres), "tensor")
        assert got == oracle
        assert got.rank == len(a) * len(b)


def test_tensor_with_trivial_line_is_identity(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    c = ccs_of_rep([phase(basis, 0, a1=1), phase(basis, Fraction(1, 5), a2=2)],
                   pres)
    unit = ccs_of_rep([phase(basis)], pres)
    assert combine(c, unit, "tensor") == c
    assert combine(unit, c, "tensor") == c


def test_combine_rejects_bad_inputs(basis):
    c = CCSClass(1, (), basis)
    with pytest.raises(ValueError):
        combine(c, c, "cup")
    with pytest.raises(BasisMismatch):
        combine(c, CCSClass(1, (), irrational_basis(a1=GOLDEN)), "sum")
    with pytest.raises(BasisMismatch):
        combine(c, 3, "sum")


# --------------------------------------------------------- module classes


def shift_module_with_phases(hexagon_pfp, floats):
    poset, pres, frame = hexagon_pfp
    u = np.diag(np.exp(2j * np.pi * np.asarray(floats)))
    return build_shift_module(poset, pres, frame, {1: u})


def test_module_class_matches_rep_class(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    declared = [phase(basis, 0, a1=1)]
    m = shift_module_with_phases(hexagon_pfp, [GOLDEN])
    assert ccs_of_module(m, declared) == ccs_of_rep(declared, pres)


def test_module_class_mixed_phases(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    declared = [phase(basis, 0, a1=1), phase(basis, 0, a2=1),
                phase(basis, Fraction(1, 3))]
    m = shift_module_with_phases(hexagon_pfp, [GOLDEN, LOG2, 1.0 / 3.0])
    c = ccs_of_module(m, declared)
    assert c == CCSClass(3, (("a1", Fraction(1)), ("a2", Fraction(1))), basis)
    assert c == ccs_of_rep(declared, pres)


def test_module_class_composition_randomized(basis, hexagon_pfp):
    _, pres, _ = hexagon_pfp
    for seed in range(4):
        rng = rng_for(200 + seed)
        declared = [random_phase(rng, basis)
                    for _ in range(int(rng.integers(1, 4)))]
        m = shift_module_with_phases(
            hexagon_pfp, [p.float_value() for p in declared])
        assert ccs_of_module(m, declared) == ccs_of_rep(declared, pres)


def test_module_class_from_a_given_index(basis, hexagon_pfp):
    declared = [phase(basis, 0, a1=1), phase(basis, 0, a2=1)]
    m = shift_module_with_phases(hexagon_pfp, [GOLDEN, LOG2])
    idx = pi_index(equivariant_cycle(localize(m, m.rep.frame.base)))
    assert ccs_of_module(m, declared, index=idx) == ccs_of_module(m, declared)


def test_module_class_recovery_tolerance(basis, hexagon_pfp):
    declared = [phase(basis, 0, a1=1)]
    near = shift_module_with_phases(hexagon_pfp, [GOLDEN + 2e-10])
    assert ccs_of_module(near, declared).odd == (("a1", Fraction(1)),)
    far = shift_module_with_phases(hexagon_pfp, [GOLDEN + 1e-6])
    with pytest.raises(PhaseRecoveryFailed):
        ccs_of_module(far, declared)


def test_module_class_recovery_failures(basis, hexagon_pfp):
    m = shift_module_with_phases(hexagon_pfp, [0.123456789])
    with pytest.raises(PhaseRecoveryFailed):
        ccs_of_module(m, [phase(basis, 0, a1=1)])
    with pytest.raises(PhaseRecoveryFailed):
        ccs_of_module(m, [])
    with pytest.raises(InexactPhase):
        ccs_of_module(m, [0.123456789])


def test_module_class_sees_grading_sign(basis, hexagon_pfp):
    m = shift_module_with_phases(hexagon_pfp, [GOLDEN])
    flipped_rep = replace(
        m.rep, grading={o: g * (-1.0) for o, g in m.rep.grading.items()})
    flipped = FredholmModule(flipped_rep, m.F, "even")
    c = ccs_of_module(flipped, [phase(basis, 0, a1=1)])
    assert c == CCSClass(-1, (("a1", Fraction(-1)),), basis)


def test_sector_module_class(basis, hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rho = np.diag(np.exp(2j * np.pi * np.array([GOLDEN, LOG2])))
    sec = build_sector_module(poset, pres, frame, (1, 1), {1: rho})
    c = ccs_of_module(sec.module,
                      [phase(basis, 0, a1=1), phase(basis, 0, a2=1)])
    assert c == CCSClass(2, (("a1", Fraction(1)), ("a2", Fraction(1))), basis)


def test_zero_index_module_has_zero_class(basis, hexagon_pfp):
    poset, pres, frame = hexagon_pfp
    rng = rng_for(11)
    theta = 2 * np.pi * rng.random(2)
    u = np.kron(np.eye(2), np.diag(np.exp(1j * theta)))
    phi = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)).astype(complex)
    grading = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
    loc = from_cycle({"one": np.eye(4, dtype=complex)}, {1: u}, phi,
                     poset, pres, frame, grading=grading)
    mod = extend_localized(loc)
    assert isinstance(mod, FredholmModule)
    c = ccs_of_module(mod, [phase(basis, 0, a1=1)])
    assert c == CCSClass(0, (), basis)


def test_module_class_needs_single_free_generator(basis):
    poset, pres, frame = pfp(chain_poset(3))
    images = {g + 1: np.eye(1, dtype=complex)
              for g in range(len(pres.generators))}
    m = build_shift_module(poset, pres, frame, images)
    with pytest.raises(NotInfiniteCyclic):
        ccs_of_module(m, [phase(basis)])
