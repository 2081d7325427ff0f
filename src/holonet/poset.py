"""Finite posets, their singular 1-simplices and paths.

A 1-simplex b = (|b|; d0(b), d1(b)) is a segment from the element d1(b)
to the element d0(b) travelling inside the support |b|, where both faces
lie below the support.  A path is a chain of 1-simplices, written and
composed so that the rightmost factor is traversed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import (
    CycleInOrder,
    DuplicateElement,
    EndpointMismatch,
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

    def comparable(self, x: str, y: str) -> bool:
        return (x, y) in self.relation or (y, x) in self.relation

    def below(self, s: str) -> list[str]:
        """Elements x with x <= s, sorted by id."""
        return sorted(x for x in self.elements if self.leq(x, s))

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
        out = []
        for x, y in self.strict_pairs():
            for z in self.elements:
                if self.lt(y, z):
                    out.append((x, y, z))
        return sorted(out)


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

    @property
    def degenerate(self) -> bool:
        return self.face0 == self.face1

    def __str__(self) -> str:
        return f"({self.support}; {self.face0}, {self.face1})"


def degenerate_simplex(x: str) -> OneSimplex:
    return OneSimplex(x, x, x)


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


def enumerate_one_simplices(poset: Poset) -> list[OneSimplex]:
    """All 1-simplices (s; f0, f1) with f0 <= s and f1 <= s, in lexicographic order."""
    out = []
    for s in sorted(poset.elements):
        under = poset.below(s)
        for f0 in under:
            for f1 in under:
                out.append(OneSimplex(s, f0, f1))
    return out


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

    @property
    def is_loop(self) -> bool:
        return self.start == self.end

    def __str__(self) -> str:
        return f"path {self.start} -> {self.end} ({len(self)} segments)"


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


def compose_paths(poset: Poset, p: Path, q: Path, reverse_q: bool = False) -> Path:
    """The composite p * q: q is traversed first, then p.

    With reverse_q, q is replaced by its opposite before composing.
    """
    if reverse_q:
        q = opposite_path(q)
    if q.end != p.start:
        raise EndpointMismatch(
            f"cannot compose: first factor ends at {q.end!r}, second starts at {p.start!r}"
        )
    return make_path(poset, list(q.simplices) + list(p.simplices), at=q.start)


def comparability_adjacency(poset: Poset) -> dict[str, list[str]]:
    """Neighbours in the comparability graph, each list sorted."""
    adj: dict[str, set[str]] = {e: set() for e in poset.elements}
    for x, y in poset.strict_pairs():
        adj[x].add(y)
        adj[y].add(x)
    return {e: sorted(ns) for e, ns in adj.items()}

def check_connected(poset: Poset) -> bool:
    """Whether the comparability graph is connected (pathwise connectivity)."""
    if not poset.elements:
        return True
    adj = comparability_adjacency(poset)
    seen = {poset.elements[0]}
    stack = [poset.elements[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(poset.elements)
