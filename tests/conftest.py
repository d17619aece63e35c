"""Shared helpers for the test suite (composes with the root conftest)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.mce.bitgraph import LocalGraph


def random_edges(n: int, p: float, seed: int) -> np.ndarray:
    """Dense-ish G(n, p) edge array for small-graph correctness tests."""
    rng = np.random.default_rng(seed)
    rows = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return np.array(rows, dtype=np.int64) if rows else np.empty((0, 2), dtype=np.int64)


def reduction_core(g: LocalGraph) -> set[tuple[int, int]]:
    """Canonical edges of H*, the greatest fixpoint of global reduction: the
    largest subgraph with every degree ≥ 3 and every edge in a triangle.
    Computed naively, independently of both engines: drop every vertex of
    degree ≤ 2 and every edge of support 0 until nothing changes."""
    adj = {v: set(nb) for v, nb in g.adj.items()}
    while True:
        low = {v for v, nb in adj.items() if len(nb) <= 2}
        bare = [(u, v) for u, nb in adj.items() for v in nb if u < v and nb.isdisjoint(adj[v])]
        if not low and not bare:
            return {(u, v) for u, nb in adj.items() for v in nb if u < v}
        for u, v in bare:
            adj[u].discard(v)
            adj[v].discard(u)
        adj = {v: nb - low for v, nb in adj.items() if v not in low}


def assert_reduction_fixpoint(reduced: LocalGraph, g: LocalGraph) -> None:
    """Global reduction's fixpoint: no vertex of degree ≤ 2 (Lemmas 1-3)
    and no edge of support 0 (Lemma 4) is left, and ``reduced`` is the
    unique such residual of ``g``, ``reduction_core(g)``."""
    adj = reduced.adj
    low = [v for v, nb in adj.items() if len(nb) <= 2]
    assert not low, f"vertices of degree <= 2 left: {low[:5]}"
    bare = [(u, v) for u, nb in adj.items() for v in nb if u < v and nb.isdisjoint(adj[v])]
    assert not bare, f"edges of support 0 left: {bare[:5]}"
    core = reduction_core(g)
    got = set(reduced.edges())
    assert got == core, (
        f"residual != H*: extra {sorted(got - core)[:5]}, missing {sorted(core - got)[:5]}"
    )


def ignore_ids_by_definition(g: LocalGraph, order: list[int], rank: dict[int, int]):
    """Algorithm 8's ``(ignoreId, dominator)`` straight from the rules'
    set definitions, for every pair ``(v, u ∈ N⁺(v))`` with ``P = N⁺(v)``:
    rule A (``P∖{u} ⊆ N⁺(u)``) offers ``u`` as dominator of ``v``; else
    rule B (``N⁺(u) ⊆ P∖{u}``) offers ``v`` as dominator of ``u``. Each
    vertex keeps its min-rank dominator, and ``len(order)`` without one."""
    nplus = {v: {u for u in g.adj[v] if rank[u] > rank[v]} for v in order}
    offers = {v: [] for v in order}
    for v in order:
        p = nplus[v]
        for u in p:
            if p - {u} <= nplus[u]:
                offers[v].append(u)
            elif nplus[u] <= p - {u}:
                offers[u].append(v)
    ignore_id, dom = {}, {}
    for w, doms in offers.items():
        ignore_id[w] = len(order)
        if doms:
            dom[w] = min(doms, key=rank.__getitem__)
            ignore_id[w] = rank[dom[w]]
    return ignore_id, dom


# Named small graphs with hand-checkable clique structure.
KNOWN_GRAPHS: dict[str, list[tuple[int, int]]] = {
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "path4": [(0, 1), (1, 2), (2, 3)],
    "cycle5": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
    "star5": [(0, i) for i in range(1, 6)],
    "k4": [(i, j) for i in range(4) for j in range(i + 1, 4)],
    "k5": [(i, j) for i in range(5) for j in range(i + 1, 5)],
    "two_triangles_shared_edge": [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)],
    "k4_plus_pendant": [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(3, 4)],
    "bowtie": [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
    "petersen": [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ],
    "paper_fig2": [  # the toy graph of Figure 2 (u1..u10 -> 1..10)
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 8),
        (2, 3), (2, 4), (2, 5), (2, 6), (2, 8),
        (3, 4), (3, 5), (3, 7), (3, 8),
        (4, 5), (4, 10), (6, 8), (7, 8), (8, 9), (9, 2),
    ],
}

# The 10-vertex graph on which Algorithm 8's drop rule erases every witness
# of the non-maximal clique {7,9} via the dominance cycle 3 -> 0 -> 2 -> 3
# (discovered by fuzzing; see DESIGN.md §2.3).
CYCLE_COUNTEREXAMPLE = [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 9),
    (1, 2), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9),
    (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9),
    (3, 4), (3, 7), (3, 9),
    (4, 6), (4, 8),
    (5, 6), (5, 9),
    (6, 7), (6, 8),
    (7, 8), (7, 9),
]

# Expected maximal cliques (size >= 2) for a subset of KNOWN_GRAPHS.
KNOWN_CLIQUES: dict[str, set[tuple[int, ...]]] = {
    "triangle": {(0, 1, 2)},
    "path4": {(0, 1), (1, 2), (2, 3)},
    "cycle5": {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
    "star5": {(0, i) for i in range(1, 6)},
    "k4": {(0, 1, 2, 3)},
    "k5": {(0, 1, 2, 3, 4)},
    "two_triangles_shared_edge": {(0, 1, 2), (1, 2, 3)},
    "k4_plus_pendant": {(0, 1, 2, 3), (3, 4)},
    "bowtie": {(0, 1, 2), (2, 3, 4)},
}


@pytest.fixture(scope="session")
def fuzz_graphs() -> list[LocalGraph]:
    """A battery of random graphs reused across correctness tests."""
    out = []
    seed = 0
    for n in (5, 8, 11, 14):
        for p in (0.15, 0.35, 0.6):
            for k in range(3):
                e = random_edges(n, p, seed := seed + 1)
                if len(e):
                    out.append(LocalGraph.from_edges(e))
    return out


@pytest.fixture(scope="module")
def few_partitions(spark):
    """8 shuffle partitions for a module: the Spark tests' graphs are small,
    and the session's default would schedule mostly empty tasks. Module
    scope makes the module's own module-scoped fixtures run with it too."""
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)
