"""Fundamental group of a poset, presented from its order complex.

Vertices of the order complex are poset elements, edges are strict
comparabilities, triangles are 2-chains o < o' < o''.  After collapsing
a breadth-first spanning tree of the comparability graph, the non-tree
edges generate and the triangles give the relators.  Homotopy classes
of loops are represented as freely reduced words in the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def cyclically_reduced(self) -> "Word":
        ls = list(self.letters)
        while len(ls) >= 2 and ls[0] == -ls[-1]:
            ls = ls[1:-1]
        return Word(tuple(ls))

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


def path_to_word(pres: GroupPresentation, poset: Poset, p: Path) -> Word:
    """Freely reduced word of a loop at the base.

    Each 1-simplex contributes its up-hop into the support followed by the
    inverse of the other face's up-hop; tree edges contribute nothing.
    """
    if not (p.is_loop and p.start == pres.base):
        raise NotALoopAtBase(f"{p} is not a loop at {pres.base!r}")
    letters: list[int] = []
    for b in reversed(p.simplices):
        letters.extend(_hop_letters(pres, poset, b.support, b.face0))
        letters.extend(_hop_letters(pres, poset, b.face1, b.support))
    return Word(tuple(letters))


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


def _rational_rank(rows: list[list[int]]) -> int:
    """Exact rank over Q by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonnegative diagonal of the Smith normal form of an integer matrix."""
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    r = c = 0
    while r < nr and c < nc:
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(r, nr):
            for j in range(c, nc):
                if m[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[c], row[j] = row[j], row[c]
        # clear the pivot row and column by euclidean steps
        while True:
            again = False
            for i in range(r + 1, nr):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        m[r], m[i] = m[i], m[r]
                        again = True
            for j in range(c + 1, nc):
                if m[r][j] != 0:
                    q = m[r][j] // m[r][c]
                    for row in m:
                        row[j] -= q * row[c]
                    if m[r][j] != 0:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        again = True
            if not again:
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    return diag


def abelianization_rank(pres: GroupPresentation) -> int:
    """Free rank of the abelianized group (exact)."""
    rows = relator_exponent_matrix(pres)
    if not rows:
        return len(pres.generators)
    return len(pres.generators) - _rational_rank(rows)


def simplify_presentation(pres: GroupPresentation) -> tuple[GroupPresentation, str]:
    """Tietze-style simplification with a three-valued triviality verdict.

    Eliminates generators occurring exactly once in some relator, drops
    empty relators, and settles the verdict ("Trivial", "Nontrivial",
    "Unknown") via the abelianization when generators remain.
    """
    gens = list(pres.generators)
    relators = [r.cyclically_reduced() for r in pres.relators if not r.is_empty]

    def substitute(word: Word, g: int, repl: tuple[int, ...]) -> Word:
        out: list[int] = []
        for l in word.letters:
            if l == g:
                out.extend(repl)
            elif l == -g:
                out.extend(-x for x in reversed(repl))
            else:
                out.append(l)
        return Word(tuple(out))

    changed = True
    alive = {i + 1 for i in range(len(gens))}
    while changed:
        changed = False
        relators = [r.cyclically_reduced() for r in relators if not r.is_empty]
        for ri, r in enumerate(relators):
            counts: dict[int, int] = {}
            for l in r.letters:
                counts[abs(l)] = counts.get(abs(l), 0) + 1
            single = next((g for g, c in counts.items() if c == 1 and g in alive), None)
            if single is None:
                continue
            # rotate the single occurrence to the front and solve for it
            ls = list(r.letters)
            k = next(i for i, l in enumerate(ls) if abs(l) == single)
            ls = ls[k:] + ls[:k]
            head, rest = ls[0], tuple(ls[1:])
            # head * rest = 1  =>  head = rest^-1
            repl = tuple(-x for x in reversed(rest)) if head > 0 else rest
            # repl expresses g = single (positive letter) in the others
            alive.discard(single)
            new_rel = []
            for j, other in enumerate(relators):
                if j == ri:
                    continue
                new_rel.append(substitute(other, single, repl).cyclically_reduced())
            relators = [w for w in new_rel if not w.is_empty]
            changed = True
            break

    kept = sorted(alive)
    remap = {g: i + 1 for i, g in enumerate(kept)}
    new_gens = tuple(pres.generators[g - 1] for g in kept)
    new_relators = tuple(
        Word(tuple((1 if l > 0 else -1) * remap[abs(l)] for l in r.letters))
        for r in relators
    )
    out = GroupPresentation(pres.base, new_gens, new_relators, pres.tree_edges)

    if not out.generators:
        return out, "Trivial"
    rows = relator_exponent_matrix(out)
    if abelianization_rank(out) > 0:
        return out, "Nontrivial"
    if rows and any(d not in (0, 1) for d in smith_diagonal(rows)):
        return out, "Nontrivial"
    return out, "Unknown"
