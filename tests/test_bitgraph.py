"""LocalGraph / degeneracy order / bitmask subproblem unit tests."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.catalog import GRAPH_NAMES, edges_for
from repro.mce.bitgraph import (
    LocalGraph,
    build_subproblem,
    degeneracy_order,
    iter_bits,
)
from tests.conftest import KNOWN_GRAPHS, random_edges


def test_from_edges_basic():
    g = LocalGraph.from_edges([(0, 1), (1, 2), (1, 0), (2, 2)])
    assert g.n == 3 and g.m == 2
    assert g.adj[1] == {0, 2}
    assert g.max_degree() == 2


def test_edges_roundtrip():
    e = [(0, 1), (1, 2), (0, 2)]
    g = LocalGraph.from_edges(e)
    assert sorted(g.edges()) == sorted(e)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b1011)) == [0, 1, 3]
    big = (1 << 200) | (1 << 3)
    assert list(iter_bits(big)) == [3, 200]


@pytest.mark.parametrize("name", list(KNOWN_GRAPHS))
def test_degeneracy_order_validity_known(name):
    g = LocalGraph.from_edges(np.array(KNOWN_GRAPHS[name]))
    order, core, lam = degeneracy_order(g)
    _check_order(g, order, lam)
    assert set(order) == set(g.adj)
    assert max(core.values()) == lam
    assert (order, core, lam) == _reference_order(g)


# The bench-scale graphs build the thousands-of-vertices degree-1 and
# degree-2 buckets that unit scale never reaches.
@pytest.mark.parametrize(
    "name,scale",
    [pytest.param(name, "unit", id=name) for name in GRAPH_NAMES]
    + [
        pytest.param(name, "bench", id=f"{name}-bench")
        for name in ("email-EuAll", "wiki-Talk", "roadNet-CA")
    ],
)
def test_degeneracy_order_validity_catalog(name, scale):
    g = LocalGraph.from_edges(edges_for(name, scale))
    order, core, lam = degeneracy_order(g)
    _check_order(g, order, lam)


def _reference_order(g: LocalGraph) -> tuple[list[int], dict[int, int], int]:
    """Naive batch peel: when no residual vertex has degree ≤ k, k becomes
    the minimum residual degree; then every residual vertex of degree ≤ k
    is removed at once, sorted by id, with core number k."""
    deg = {v: len(nb) for v, nb in g.adj.items()}
    order: list[int] = []
    core: dict[int, int] = {}
    k = 0
    while deg:
        if min(deg.values()) > k:
            k = min(deg.values())
        batch = sorted(v for v, d in deg.items() if d <= k)
        for v in batch:
            core[v] = k
            del deg[v]
        order += batch
        for v in batch:
            for u in g.adj[v]:
                if u in deg:
                    deg[u] -= 1
    return order, core, k


def _check_order(g: LocalGraph, order: list[int], lam: int) -> None:
    rank = {v: i for i, v in enumerate(order)}
    worst = 0
    for v in order:
        later = sum(1 for u in g.adj[v] if rank[u] > rank[v])
        worst = max(worst, later)
    assert worst <= lam, "some vertex has more than λ later neighbors"
    # λ is tight: some vertex must reach it (λ = max core number)
    assert worst == lam or g.n == 0


def test_degeneracy_known_values():
    assert degeneracy_order(LocalGraph.from_edges(KNOWN_GRAPHS["k5"]))[2] == 4
    assert degeneracy_order(LocalGraph.from_edges(KNOWN_GRAPHS["cycle5"]))[2] == 2
    assert degeneracy_order(LocalGraph.from_edges(KNOWN_GRAPHS["star5"]))[2] == 1
    assert degeneracy_order(LocalGraph.from_edges(KNOWN_GRAPHS["path4"]))[2] == 1


def test_degeneracy_deterministic():
    e = random_edges(30, 0.2, 42)
    o1 = degeneracy_order(LocalGraph.from_edges(e))[0]
    o2 = degeneracy_order(LocalGraph.from_edges(e))[0]
    assert o1 == o2


def test_core_numbers_match_definition():
    # k4 + pendant: k4 vertices core 3, pendant core 1
    g = LocalGraph.from_edges(KNOWN_GRAPHS["k4_plus_pendant"])
    _, core, lam = degeneracy_order(g)
    assert lam == 3
    assert core[4] == 1
    assert all(core[v] == 3 for v in range(4))


def test_build_subproblem_shape():
    # triangle 0-1-2 plus forbidden vertex 3 adjacent to 1
    g = LocalGraph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3)])
    sub = build_subproblem(g, 0, [1, 2], [3])
    assert sub.ids == [1, 2, 3]
    assert sub.p == 2
    assert sub.p_mask == 0b011
    assert sub.x_mask == 0b100
    # candidate adjacency: 1-2 edge; forbidden 3 adjacent to candidate 1 only
    assert sub.adj[0] & 0b010  # 1 adj 2
    assert sub.adj[2] == 0b001  # x=3 adj {1}
    assert sub.adj[0] & 0b100  # 1 sees x


def test_build_subproblem_no_xx_edges():
    # forbidden vertices adjacent to each other must NOT produce X-X bits
    g = LocalGraph.from_edges([(0, 1), (0, 2), (0, 3), (2, 3), (1, 2), (1, 3)])
    sub = build_subproblem(g, 0, [1], [2, 3])
    xi2, xi3 = 1, 2
    assert not (sub.adj[xi2] >> 1) & (1 << (xi3 - 1)), "X-X adjacency leaked"
    assert sub.adj[xi2] == 0b001 and sub.adj[xi3] == 0b001


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.floats(0.05, 0.9), st.integers(0, 10_000))
def test_degeneracy_order_validity_hypothesis(n, p, seed):
    e = random_edges(n, p, seed)
    if len(e) == 0:
        return
    g = LocalGraph.from_edges(e)
    order, core, lam = degeneracy_order(g)
    _check_order(g, order, lam)
    assert sorted(order) == sorted(g.adj)
    assert (order, core, lam) == _reference_order(g)


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_degeneracy_tie_break_catalog(name):
    g = LocalGraph.from_edges(edges_for(name, "unit"))
    assert degeneracy_order(g) == _reference_order(g)


@pytest.mark.parametrize("kind", ["negative", "sparse", "huge"])
@pytest.mark.parametrize("name", ["paper_fig2", "petersen", "ca-CondMat", "wiki-Talk"])
def test_degeneracy_tie_break_relabelled(name, kind):
    if name in KNOWN_GRAPHS:
        e = np.array(KNOWN_GRAPHS[name], dtype=np.int64)
    else:
        e = edges_for(name, "unit")
    n = int(e.max()) + 1
    # A permutation, so ties in degree land on ids in a different order.
    perm = np.random.default_rng(n).permutation(n).astype(np.int64)
    ids = {
        "negative": perm - n // 2,
        "sparse": perm * 7919 + 13,
        "huge": perm * 1_000_003 + 2**40 + 5,
    }[kind]
    g = LocalGraph.from_edges(ids[e])
    assert degeneracy_order(g) == _reference_order(g)


@pytest.mark.parametrize(
    "adj", [{}, {7: set(), 3: set()}, {9: {4}, 4: {9}, 7: set(), -2: set()}]
)
def test_degeneracy_tie_break_empty_and_isolated(adj):
    g = LocalGraph(adj)
    assert degeneracy_order(g) == _reference_order(g)
