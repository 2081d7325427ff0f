"""Finite posets, their singular 1-simplices and paths.

A 1-simplex b = (|b|; d0(b), d1(b)) is a segment from the element d1(b)
to the element d0(b) travelling inside the support |b|, where both faces
lie below the support.  A path is a chain of 1-simplices, traversed
first to last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import (
    CycleInOrder,
    DuplicateElement,
    NotComparable,
    PathOutsidePoset,
    UnknownElement,
)


@dataclass(frozen=True)
class Poset:
    """A finite partially ordered set with string element ids.

    The relation is stored as the full reflexive-transitive closure.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.relation

    def lt(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.relation

    @cached_property
    def _members(self) -> frozenset[str]:
        return frozenset(self.elements)

    def require(self, *xs: str) -> None:
        for x in xs:
            if x not in self._members:
                raise UnknownElement(f"element {x!r} is not in the poset")

    def strict_pairs(self) -> list[tuple[str, str]]:
        """All pairs (x, y) with x < y, sorted."""
        return sorted((x, y) for (x, y) in self.relation if x != y)

    def two_chains(self) -> list[tuple[str, str, str]]:
        """All chains x < y < z, sorted."""
        above: dict[str, list[str]] = {}
        for y, z in self.relation:
            if y != z:
                above.setdefault(y, []).append(z)
        return sorted((x, y, z) for x, y in self.relation if x != y
                      for z in above.get(y, ()))


def build_poset(elements: list[str], pairs: list[tuple[str, str]]) -> Poset:
    """Build a poset from elements and generating relation pairs (x <= y).

    The reflexive-transitive closure is taken; a closure violating
    antisymmetry raises CycleInOrder.
    """
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElement(f"duplicate element {e!r}")
        seen.add(e)
    for x, y in pairs:
        if x not in seen:
            raise UnknownElement(f"pair references unknown element {x!r}")
        if y not in seen:
            raise UnknownElement(f"pair references unknown element {y!r}")

    succ: dict[str, set[str]] = {e: {e} for e in elements}
    for x, y in pairs:
        succ[x].add(y)
    # Warshall closure, fine at this scale
    changed = True
    while changed:
        changed = False
        for x in elements:
            new = set()
            for y in succ[x]:
                new |= succ[y]
            if not new <= succ[x]:
                succ[x] |= new
                changed = True
    rel = frozenset((x, y) for x in elements for y in succ[x])
    for x, y in combinations(elements, 2):
        if (x, y) in rel and (y, x) in rel:
            raise CycleInOrder(f"elements {x!r} and {y!r} are mutually below each other")
    return Poset(tuple(elements), rel)


@dataclass(frozen=True)
class OneSimplex:
    """Segment inside `support` from face1 to face0, both below the support."""

    support: str
    face0: str
    face1: str

    @property
    def opposite(self) -> "OneSimplex":
        return OneSimplex(self.support, self.face1, self.face0)

    def __str__(self) -> str:
        return f"({self.support}; {self.face0}, {self.face1})"


def edge_simplex(poset: Poset, source: str, target: str) -> OneSimplex:
    """The 1-simplex from source to target supported on the larger of the two."""
    poset.require(source, target)
    if poset.leq(source, target):
        return OneSimplex(target, target, source)
    if poset.leq(target, source):
        return OneSimplex(source, target, source)
    raise NotComparable(f"{source!r} and {target!r} are not comparable")


def check_simplex(poset: Poset, b: OneSimplex) -> None:
    poset.require(b.support, b.face0, b.face1)
    if not (poset.leq(b.face0, b.support) and poset.leq(b.face1, b.support)):
        raise PathOutsidePoset(f"faces of {b} do not lie below its support")


@dataclass(frozen=True)
class Path:
    """A composable chain of 1-simplices.

    simplices[0] is traversed first; the path runs from
    simplices[0].face1 to simplices[-1].face0.
    """

    simplices: tuple[OneSimplex, ...]
    start: str
    end: str

    def __len__(self) -> int:
        return len(self.simplices)

    def __str__(self) -> str:
        return f"path {self.start} -> {self.end} ({len(self)} segments)"


def comparability_adjacency(poset: Poset) -> dict[str, list[str]]:
    """Neighbours in the comparability graph, each list sorted."""
    adj: dict[str, set[str]] = {e: set() for e in poset.elements}
    for x, y in poset.strict_pairs():
        adj[x].add(y)
        adj[y].add(x)
    return {e: sorted(ns) for e, ns in adj.items()}


def components(poset: Poset) -> list[list[str]]:
    """Components of the comparability graph, each sorted, in the order
    of their first element in `poset.elements`."""
    adj = comparability_adjacency(poset)
    seen: set[str] = set()
    comps = []
    for e in poset.elements:
        if e in seen:
            continue
        comp = [e]
        seen.add(e)
        stack = [e]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def check_connected(poset: Poset) -> bool:
    """Whether the comparability graph is connected (pathwise connectivity)."""
    return len(components(poset)) <= 1
