"""Fundamental group of a poset, presented from its order complex.

Vertices of the order complex are poset elements, edges are strict
comparabilities, triangles are 2-chains o < o' < o''.  After collapsing
a breadth-first spanning tree of the comparability graph, the non-tree
edges generate and the triangles give the relators.  Homotopy classes
of loops are represented as freely reduced words in the generators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import NotALoopAtBase, NotComparable, NotConnected, UnknownElement
from .poset import (
    Path,
    Poset,
    check_connected,
    check_simplex,
    comparability_adjacency,
    edge_simplex,
)

Edge = tuple[str, str]  # strict comparability pair, stored as (lower, upper)


@dataclass(frozen=True)
class Word:
    """Freely reduced word; letters are signed 1-based generator indices.

    Letters are stored in product order: evaluating under a representation
    multiplies images left to right, so letters[-1] acts first on a vector.
    """

    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    @property
    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "*".join(f"g{l}" if l > 0 else f"g{-l}^-1" for l in self.letters)


def _free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if l == 0:
            raise ValueError("letter 0 is not allowed")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class PathFrame:
    """A base element with a tree path p_o : base -> o for every o.

    Each p_o is the path to o's tree parent followed by one hop, and
    `paths` lists every parent before its children.
    """

    base: str
    paths: dict[str, Path]

    def to(self, o: str) -> Path:
        if o not in self.paths:
            raise UnknownElement(f"no frame path to {o!r}")
        return self.paths[o]


@dataclass(frozen=True)
class GroupPresentation:
    """Generators (indexed from 1) and relators of the loop group at `base`.

    For poset-derived presentations the generators are the non-tree strict
    comparability edges; standalone presentations may use opaque labels.
    """

    base: str
    generators: tuple[Edge, ...]
    relators: tuple[Word, ...]
    tree_edges: frozenset[Edge] = frozenset()

    @cached_property
    def gen_index(self) -> dict[Edge, int]:
        return {e: i + 1 for i, e in enumerate(self.generators)}

    def __str__(self) -> str:
        gens = ", ".join(f"g{i+1}={e}" for i, e in enumerate(self.generators))
        rels = "; ".join(str(r) for r in self.relators)
        return f"<{gens or '-'} | {rels or '-'}>"


def _canonical_edge(poset: Poset, x: str, y: str) -> Edge:
    if poset.lt(x, y):
        return (x, y)
    if poset.lt(y, x):
        return (y, x)
    raise NotComparable(f"{x!r} and {y!r} are not a strict comparability edge")


def _spanning_tree(poset: Poset, base: str) -> tuple[frozenset[Edge], dict[str, str]]:
    """Breadth-first spanning tree from base, neighbours in id order."""
    adj = comparability_adjacency(poset)
    parent: dict[str, str] = {}
    seen = {base}
    frontier = [base]
    tree: set[Edge] = set()
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    tree.add(_canonical_edge(poset, x, y))
                    nxt.append(y)
        frontier = nxt
    return frozenset(tree), parent


def build_path_frame(poset: Poset, base: str) -> PathFrame:
    """Tree paths base -> o along the spanning tree, as 1-simplex chains.

    Each path extends its parent's path by the hop parent -> o, which
    starts where that path ends, so no path is validated twice.
    """
    poset.require(base)
    if not check_connected(poset):
        raise NotConnected("comparability graph is not connected")
    _, parent = _spanning_tree(poset, base)
    paths: dict[str, Path] = {base: Path((), base, base)}
    for o, p in parent.items():  # breadth-first: p already has its path
        hop = edge_simplex(poset, p, o)
        paths[o] = Path(paths[p].simplices + (hop,), base, o)
    return PathFrame(base, paths)


def frame_transports(poset: Poset, frame: PathFrame, start, step) -> dict[str, object]:
    """Transport along every frame path, one step per element.

    frame.to(o) is the path to o's parent followed by a hop s out of the
    parent, so T[o] = step(T[parent], s), from T[base] = start.  Folding
    `step` over the segments of frame.to(o) from `start` takes the same
    steps in the same order, so T[o] is that evaluation bit for bit.
    Each hop is checked against the poset once.
    """
    out = {frame.base: start}
    for o, p in frame.paths.items():
        if p.simplices:
            s = p.simplices[-1]
            check_simplex(poset, s)
            out[o] = step(out[s.face1], s)
    return out


def fundamental_presentation(poset: Poset, base: str) -> GroupPresentation:
    """Present the loop group at base from the order complex 2-skeleton.

    Generators: non-tree strict comparability edges, in lexicographic order.
    Relators: for each 2-chain o < o' < o'', the tree-collapsed word of
    edge(o,o'')^-1 * edge(o',o'') * edge(o,o'); empty relators are dropped.
    """
    poset.require(base)
    if not check_connected(poset):
        raise NotConnected("comparability graph is not connected")
    tree, _ = _spanning_tree(poset, base)
    gens = tuple(e for e in poset.strict_pairs() if e not in tree)
    index = {e: i + 1 for i, e in enumerate(gens)}

    def letter(e: Edge) -> tuple[int, ...]:
        return (index[e],) if e in index else ()

    relators = []
    for o, o1, o2 in poset.two_chains():
        w = Word(letter((o, o2))).inverse * Word(letter((o1, o2))) * Word(letter((o, o1)))
        if not w.is_empty:
            relators.append(w)
    return GroupPresentation(base, gens, tuple(relators), tree)


def _hop_letters(pres: GroupPresentation, poset: Poset, source: str, target: str) -> tuple[int, ...]:
    """Word (product order) of a single comparability-graph hop."""
    if source == target:
        return ()
    e = _canonical_edge(poset, source, target)
    if e in pres.tree_edges:
        return ()
    idx = pres.gen_index.get(e)
    if idx is None:
        raise NotComparable(f"edge {e} is neither a tree edge nor a generator")
    return (idx,) if source == e[0] else (-idx,)


def edge_loop_word(pres: GroupPresentation, poset: Poset, frame: PathFrame,
                   o: str, o1: str) -> Word:
    """Word of the loop (frame to o1)^-1 * hop(o -> o1) * (frame to o).

    The frame paths run along spanning-tree edges only, and tree edges
    contribute no letter, so the word is that of the hop alone: empty
    for a tree edge, the generator of (o, o1) or its inverse otherwise
    (relative to a maximal tree every non-tree edge is its own
    generator; Spanier, Algebraic Topology, 3.6).  This holds when the
    frame and the presentation share their base, hence their tree.
    """
    poset.require(o, o1)
    if o == o1:
        return Word(())
    letters = _hop_letters(pres, poset, o, o1)
    if frame.base != pres.base:
        raise NotALoopAtBase(
            f"frame at {frame.base!r} gives no loops at {pres.base!r}")
    return Word(letters)


# abelianization helpers


def relator_exponent_matrix(pres: GroupPresentation) -> list[list[int]]:
    """Integer matrix of relator letter exponents (rows = relators)."""
    n = len(pres.generators)
    rows = []
    for r in pres.relators:
        row = [0] * n
        for l in r.letters:
            row[abs(l) - 1] += 1 if l > 0 else -1
        rows.append(row)
    return rows


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Diagonal of an integer matrix brought to diagonal form by unimodular
    row and column operations.

    Every entry is a positive pivot, so the length is the rank and the
    cokernel is the product of the cyclic groups Z/d; the entries need
    not divide each other.
    """
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    for k in range(min(nr, nc)):
        # euclidean steps, each on the nonzero entry of least magnitude in
        # the remaining block (the first one row by row): a heuristic that
        # keeps the entries small, not a bound on their growth
        while True:
            piv = min(((abs(m[i][j]), i, j) for i in range(k, nr) for j in range(k, nc)
                       if m[i][j] != 0), default=None)
            if piv is None:
                return diag
            _, i, j = piv
            m[k], m[i] = m[i], m[k]
            for row in m:
                row[k], row[j] = row[j], row[k]
            p = m[k][k]
            for i in range(k + 1, nr):
                if m[i][k] != 0:
                    q = m[i][k] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[k])]
            for j in range(k + 1, nc):
                if m[k][j] != 0:
                    q = m[k][j] // p
                    for row in m:
                        row[j] -= q * row[k]
            if not any(m[i][k] for i in range(k + 1, nr)) and not any(m[k][k + 1:]):
                break
        diag.append(abs(m[k][k]))
    return diag


def abelianization_rank(pres: GroupPresentation) -> int:
    """Free rank of the abelianized group (exact), read off the simplified
    presentation: Tietze moves keep the group."""
    simple, _ = simplify_presentation(pres)
    return len(simple.generators) - len(smith_diagonal(relator_exponent_matrix(simple)))


def _cyclically_reduced(letters: tuple[int, ...]) -> tuple[int, ...]:
    """A freely reduced word with its cancelling end letters stripped."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i, j = i + 1, j - 1
    return letters[i:j + 1]


def _single_position(letters: tuple[int, ...]) -> int | None:
    """Position of the first letter whose generator occurs only there."""
    counts = Counter(map(abs, letters))
    return next((k for k, l in enumerate(letters) if counts[abs(l)] == 1), None)


def simplify_presentation(pres: GroupPresentation) -> tuple[GroupPresentation, str]:
    """Tietze-style simplification with a three-valued triviality verdict.

    Takes the first relator, in presentation order, in which a generator
    occurs once, solves it for the first such generator, substitutes that
    into the other relators and drops both (Magnus-Karrass-Solitar,
    Combinatorial Group Theory, 1.5); empty relators are dropped.
    Relators are cyclically reduced letter tuples.  A worklist of the
    relators with a single-occurrence generator, and an index from each
    generator to the relators holding it, confine an elimination to the
    relators it rewrites.  The verdict ("Trivial", "Nontrivial",
    "Unknown") is settled via the abelianization when generators remain.
    """
    rels = {i: _cyclically_reduced(r.letters) for i, r in enumerate(pres.relators)
            if r.letters}
    occurs: dict[int, set[int]] = {g: set() for g in range(1, len(pres.generators) + 1)}
    for i, ls in rels.items():
        for l in ls:
            occurs[abs(l)].add(i)
    queue = {i: k for i, ls in rels.items() if (k := _single_position(ls)) is not None}
    while queue:
        ri = min(queue)
        ls, k = rels.pop(ri), queue.pop(ri)
        # head * rest = 1 with head the single occurrence of g: g = rest^-1
        head, rest = ls[k], ls[k + 1:] + ls[:k]
        g = abs(head)
        repl = tuple(-x for x in reversed(rest)) if head > 0 else rest
        inv = tuple(-x for x in reversed(repl))
        for l in ls:
            occurs[abs(l)].discard(ri)
        for j in occurs.pop(g):
            old = rels.pop(j)
            queue.pop(j, None)
            for h in {abs(l) for l in old} - {g}:
                occurs[h].discard(j)
            out: list[int] = []
            for l in old:
                out.extend(repl if l == g else inv if l == -g else (l,))
            new = _cyclically_reduced(_free_reduce(tuple(out)))
            if new:
                rels[j] = new
                for l in new:
                    occurs[abs(l)].add(j)
                if (k := _single_position(new)) is not None:
                    queue[j] = k

    kept = sorted(occurs)
    remap = {g: i + 1 for i, g in enumerate(kept)}
    new_gens = tuple(pres.generators[g - 1] for g in kept)
    new_relators = tuple(
        Word(tuple((1 if l > 0 else -1) * remap[abs(l)] for l in rels[i]))
        for i in sorted(rels)
    )
    out = GroupPresentation(pres.base, new_gens, new_relators, pres.tree_edges)

    if not out.generators:
        return out, "Trivial"
    diag = smith_diagonal(relator_exponent_matrix(out))
    if len(diag) < len(out.generators) or any(d != 1 for d in diag):
        return out, "Nontrivial"
    return out, "Unknown"
