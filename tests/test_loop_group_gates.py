"""Every constructor that takes loop-group images gates them: a missing
image, a non-unitary image and images that break the relators each
raise the constructor's HolonetError subtype, before any net is built."""

import numpy as np
import pytest

from conftest import pfp
from holonet.bundle import bundle_from_rep
from holonet.errors import (
    FiberMismatch,
    InvalidRepresentation,
    NotCovariant,
    RelatorNotSatisfied,
)
from holonet.fredholm import build_sector_module, build_shift_module, from_cycle
from holonet.operators import relator_defects
from holonet.spectral import EquivariantTriple, from_equivariant
from holonet.standard import hexagon_poset, with_top

EYE = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def _triple(poset, pres, frame, images):
    e = EquivariantTriple(SZ, images, {"one": EYE}, np.zeros((2, 2), dtype=complex), pres)
    return from_equivariant(e, poset, pres, frame)


# each constructor on 2 x 2 images, and its errors for a missing image,
# a non-unitary image and a relator-breaking representation
GATES = {
    "bundle_from_rep": (lambda p, g, f, v: bundle_from_rep(p, g, f, v, 2),
                        (FiberMismatch, InvalidRepresentation, RelatorNotSatisfied)),
    "build_shift_module": (build_shift_module,
                           (FiberMismatch, InvalidRepresentation, RelatorNotSatisfied)),
    "build_sector_module": (lambda p, g, f, v: build_sector_module(p, g, f, (1, 1), v),
                            (FiberMismatch, InvalidRepresentation, RelatorNotSatisfied)),
    "from_cycle": (lambda p, g, f, v: from_cycle({"one": EYE}, v, SX, p, g, f, parity="odd"),
                   (FiberMismatch, NotCovariant, NotCovariant)),
    "from_equivariant": (_triple,
                         (FiberMismatch, InvalidRepresentation, RelatorNotSatisfied)),
}


def _witnesses():
    """(poset, presentation, frame, images) of the three witnesses:
    no image on the hexagon, 2 I on the hexagon, and i I for every
    generator of the topped hexagon, which breaks all of its relators."""
    hexagon, topped = pfp(hexagon_poset()), pfp(with_top(hexagon_poset()))
    n = len(topped[1].generators)
    return [(*hexagon, {}), (*hexagon, {1: 2.0 * EYE}),
            (*topped, {g: 1j * EYE for g in range(1, n + 1)})]


@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("witness", range(3), ids=["missing", "non-unitary", "relators"])
def test_loop_group_gate_rejects_its_witness(gate, witness):
    build, errors = GATES[gate]
    poset, pres, frame, images = _witnesses()[witness]
    with pytest.raises(errors[witness]):
        build(poset, pres, frame, images)


@pytest.mark.parametrize("gate", sorted(GATES))
def test_loop_group_gate_accepts_a_unitary_representation(gate):
    build, _ = GATES[gate]
    poset, pres, frame = pfp(with_top(hexagon_poset()))
    build(poset, pres, frame, {g: EYE for g in range(1, len(pres.generators) + 1)})


def test_the_relator_witness_breaks_every_relator():
    poset, pres, frame, images = _witnesses()[2]
    assert len(pres.relators) == 6
    assert np.all(relator_defects(pres, images, EYE) > 1.0)
