"""Stock posets: chains, circle covers, and tops."""

from __future__ import annotations

from .poset import Poset, build_poset


def chain_poset(n: int) -> Poset:
    """Total order o1 < o2 < ... < on."""
    els = [f"o{i+1}" for i in range(n)]
    pairs = [(els[i], els[i + 1]) for i in range(n - 1)]
    return build_poset(els, pairs)


def circle_poset(n_arcs: int = 3) -> Poset:
    """Nerve-like poset of a circle covered by n_arcs arcs.

    Arcs U1..Un and overlaps V12, V23, ..., Vn1 with Vij below Ui and Uj;
    the comparability graph is a 2n-cycle.  For n_arcs = 3 this is the
    hexagon poset whose loop group is infinite cyclic.
    """
    if n_arcs < 2:
        raise ValueError("need at least two arcs")
    us = [f"U{i+1}" for i in range(n_arcs)]
    vs = [f"V{i+1}{(i+1) % n_arcs + 1}" for i in range(n_arcs)]
    pairs = []
    for i in range(n_arcs):
        pairs.append((vs[i], us[i]))
        pairs.append((vs[i], us[(i + 1) % n_arcs]))
    return build_poset(us + vs, pairs)


def hexagon_poset() -> Poset:
    return circle_poset(3)


def with_top(poset: Poset) -> Poset:
    """Adjoin a greatest element TOP; the result is simply connected."""
    els = list(poset.elements) + ["TOP"]
    pairs = [(x, y) for (x, y) in poset.relation if x != y]
    pairs += [(x, "TOP") for x in poset.elements]
    return build_poset(els, pairs)
