from itertools import product

import numpy as np
import pytest

from holonet.errors import (
    CycleInOrder,
    DuplicateElement,
    NotComparable,
    PathOutsidePoset,
    UnknownElement,
)
from holonet.poset import (
    OneSimplex,
    build_poset,
    check_connected,
    check_simplex,
    components,
    edge_simplex,
)
from holonet.randomgen import random_connected_poset
from holonet.standard import chain_poset, circle_poset, hexagon_poset, with_top
from conftest import EndpointMismatch, compose_paths, make_path, opposite_path, random_path


# oracle: enumerate simplices by filtering all element triples

def brute_force_simplices(poset):
    out = []
    for s in poset.elements:
        for f0 in poset.elements:
            for f1 in poset.elements:
                if poset.leq(f0, s) and poset.leq(f1, s):
                    out.append((s, f0, f1))
    return sorted(out)


def admitted_simplices(poset):
    """The triples (support, face0, face1) that `check_simplex` accepts,
    in lexicographic order."""
    out = []
    for s, f0, f1 in product(sorted(poset.elements), repeat=3):
        try:
            check_simplex(poset, OneSimplex(s, f0, f1))
        except PathOutsidePoset:
            continue
        out.append((s, f0, f1))
    return out


# oracle: connectivity by union-find on comparability edges

def union_find_connected(poset):
    parent = {e: e for e in poset.elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in poset.strict_pairs():
        parent[find(x)] = find(y)
    roots = {find(e) for e in poset.elements}
    return len(roots) <= 1


def components_reference(poset):
    """Comparability components by depth-first search, each sorted, in
    the order of their first element."""
    adj = {e: set() for e in poset.elements}
    for x, y in poset.strict_pairs():
        adj[x].add(y)
        adj[y].add(x)
    seen, comps = set(), []
    for e in poset.elements:
        if e in seen:
            continue
        comp, stack = [e], [e]
        seen.add(e)
        while stack:
            for y in sorted(adj[stack.pop()]):
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def test_build_poset_closure_and_order():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert p.lt("a", "c")
    assert not p.leq("c", "a")
    assert [x for x in p.elements if p.leq(x, "c")] == ["a", "b", "c"]


def test_build_poset_errors():
    with pytest.raises(DuplicateElement):
        build_poset(["a", "a"], [])
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "b")])
    with pytest.raises(CycleInOrder):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_two_element_chain_has_five_simplices():
    p = chain_poset(2)
    got = admitted_simplices(p)
    assert len(got) == 5  # frozen from the brute-force oracle
    assert got == brute_force_simplices(p)
    expected = {
        ("o1", "o1", "o1"),
        ("o2", "o2", "o2"),
        ("o2", "o1", "o2"),
        ("o2", "o2", "o1"),
        ("o2", "o1", "o1"),
    }
    assert set(got) == expected


def test_hexagon_simplex_count_matches_oracle():
    p = hexagon_poset()
    got = admitted_simplices(p)
    assert got == brute_force_simplices(p)
    # frozen from the oracle: each arc has 3 elements below it (itself and
    # two overlaps), each overlap only itself: 3*9 + 3*1
    assert len(got) == 30
    assert sum(1 for s, f0, f1 in got if s == f0 == f1) == 6


@pytest.mark.parametrize("seed", range(15))
def test_enumeration_matches_oracle_on_random_posets(seed):
    rng = np.random.default_rng(seed)
    p = random_connected_poset(rng, 9)
    assert admitted_simplices(p) == brute_force_simplices(p)


def test_opposite_simplex_swaps_faces():
    b = OneSimplex("s", "x", "y")
    assert b.opposite == OneSimplex("s", "y", "x")
    assert OneSimplex("s", "s", "s").opposite == OneSimplex("s", "s", "s")


def test_edge_simplex_supports_on_upper_element():
    p = chain_poset(2)
    up = edge_simplex(p, "o1", "o2")
    assert (up.support, up.face0, up.face1) == ("o2", "o2", "o1")
    down = edge_simplex(p, "o2", "o1")
    assert (down.support, down.face0, down.face1) == ("o2", "o1", "o2")
    with pytest.raises(NotComparable):
        edge_simplex(hexagon_poset(), "U1", "U2")


def test_make_path_checks_chaining():
    p = chain_poset(3)
    b1 = edge_simplex(p, "o1", "o2")
    b2 = edge_simplex(p, "o2", "o3")
    path = make_path(p, [b1, b2])
    assert path.start == "o1" and path.end == "o3"
    with pytest.raises(EndpointMismatch):
        make_path(p, [b2, b1])


def test_compose_with_reversal_gives_loop():
    p = chain_poset(3)
    b1 = edge_simplex(p, "o1", "o2")
    b2 = edge_simplex(p, "o2", "o3")
    path = make_path(p, [b1, b2])
    loop = compose_paths(p, path, opposite_path(path))
    assert loop.start == loop.end
    assert len(loop) == 4


def test_compose_appends_degenerate_segment():
    p = chain_poset(2)
    b1 = edge_simplex(p, "o1", "o2")
    path = make_path(p, [b1])
    iota = make_path(p, [OneSimplex("o1", "o1", "o1")])
    out = compose_paths(p, path, iota)
    assert len(out) == 2
    assert out.simplices[0] == OneSimplex("o1", "o1", "o1")
    assert out.start == "o1" and out.end == "o2"


def test_compose_endpoint_mismatch():
    p = chain_poset(3)
    path = make_path(p, [edge_simplex(p, "o1", "o2")])
    with pytest.raises(EndpointMismatch):
        compose_paths(p, path, path)


def test_opposite_path_reverses():
    rng = np.random.default_rng(3)
    p = random_connected_poset(rng, 8)
    q = random_path(p, rng, p.elements[0], 6)
    opp = opposite_path(q)
    assert opp.start == q.end and opp.end == q.start
    assert opposite_path(opp) == q


def test_hexagon_half_loops_compose_to_full_loop():
    p = hexagon_poset()
    half1 = make_path(p, [
        edge_simplex(p, "U1", "V12"),
        edge_simplex(p, "V12", "U2"),
        edge_simplex(p, "U2", "V23"),
    ])
    half2 = make_path(p, [
        edge_simplex(p, "V23", "U3"),
        edge_simplex(p, "U3", "V31"),
        edge_simplex(p, "V31", "U1"),
    ])
    full = compose_paths(p, half2, half1)
    assert full.start == full.end == "U1"
    assert len(full) == 6


@pytest.mark.parametrize("seed", range(20))
def test_connectivity_matches_union_find(seed):
    rng = np.random.default_rng(seed + 100)
    n = int(rng.integers(2, 9))
    els = [f"x{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                pairs.append((els[i], els[j]))
    p = build_poset(els, pairs)
    assert check_connected(p) == union_find_connected(p)
    assert components(p) == components_reference(p)


def test_standard_posets_connected():
    assert check_connected(hexagon_poset())
    assert check_connected(chain_poset(5))
    assert check_connected(circle_poset(5))
    assert check_connected(with_top(hexagon_poset()))


@pytest.mark.parametrize("seed", range(20))
def test_two_chains_match_the_triple_filter(seed):
    p = random_connected_poset(np.random.default_rng(300 + seed), 14)
    for poset in (p, with_top(p)):
        els = poset.elements
        want = sorted((x, y, z) for x in els for y in els for z in els
                      if poset.lt(x, y) and poset.lt(y, z))
        assert poset.two_chains() == want
