"""Local graph representation and bitmask subproblem construction.

``LocalGraph`` is the adjacency-set view used by the driver-side engine and
inside Spark tasks. Per-vertex BK subproblems are re-indexed into a compact
local universe (candidates first, then forbidden vertices) with Python-int
bitmask adjacency: set intersection is ``&`` and cardinality is
``int.bit_count()``, both C-speed — the Python analog of the bitset adjacency
used by the paper's C++ implementations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LocalGraph:
    """Undirected simple graph over arbitrary int vertex ids."""

    def __init__(self, adj: dict[int, set[int]]):
        self.adj = adj

    @classmethod
    def from_edges(cls, edges: np.ndarray | list[tuple[int, int]]) -> "LocalGraph":
        """Build from an (m, 2) edge array; dedupes, ignores self-loops."""
        adj: dict[int, set[int]] = {}
        for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
            u, v = int(u), int(v)
            if u == v:
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls(adj)

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self.adj.values()) // 2

    def max_degree(self) -> int:
        return max((len(nb) for nb in self.adj.values()), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nb in self.adj.items() for v in nb if u < v]


def degeneracy_order(g: LocalGraph) -> tuple[list[int], dict[int, int], int]:
    """Batch min-degree peeling, the order ``gx.kcore`` computes in Spark.

    Returns ``(order, core_number, degeneracy)``. Each round removes every
    residual vertex of degree ≤ k, sorted by id; neighbours whose degree
    falls to k form the next round's batch, and when a round leaves none, k
    jumps to the minimum residual degree. ``order`` ranks vertices by
    ``(round, id)``, a valid degeneracy order (each vertex has ≤ λ later
    neighbours), and a vertex's core number is the k at which it is removed.
    Each edge is touched once, each round is sorted, and each value of k
    costs one scan of the residual degrees.
    """
    adj = g.adj
    deg = {v: len(nb) for v, nb in adj.items()}
    order: list[int] = []
    core: dict[int, int] = {}
    k = 0
    batch: list[int] = []
    while deg:
        if not batch:
            k = min(deg.values())
            batch = [v for v, d in deg.items() if d == k]
        batch.sort()
        for v in batch:
            del deg[v]  # the whole round leaves before any degree drops
            core[v] = k
        order += batch
        nxt = []
        for v in batch:
            for u in adj[v]:
                d = deg.get(u)
                if d is not None:
                    deg[u] = d - 1
                    if d - 1 == k:
                        nxt.append(u)
        batch = nxt
    return order, core, k


@dataclass
class Subproblem:
    """A per-vertex BK subproblem in local bitmask form.

    Universe = candidates (indices ``0..p-1``, in ascending degeneracy-rank
    order) followed by forbidden vertices (indices ``p..p+q-1``). ``adj[i]``
    is a bitmask over the universe; X–X adjacency is intentionally absent (it
    is never consulted by any recursion or reduction — see DESIGN.md §2.2).
    """

    root: int  # the vertex inducing this subproblem (goes into R)
    ids: list[int]  # local index -> global vertex id
    adj: list[int]  # local adjacency bitmasks
    p: int  # number of candidate vertices

    @property
    def p_mask(self) -> int:
        return (1 << self.p) - 1

    @property
    def x_mask(self) -> int:
        return ((1 << len(self.ids)) - 1) ^ self.p_mask


def build_subproblem(
    g: LocalGraph, v: int, cands: list[int], forb: list[int]
) -> Subproblem:
    """Assemble the bitmask subproblem for root ``v`` with candidate list
    ``cands`` (``N⁺(v)`` in rank order) and forbidden list ``forb``."""
    ids = list(cands) + list(forb)
    pos = {u: i for i, u in enumerate(cands)}
    pos_keys = pos.keys()
    p = len(cands)
    adj = [0] * len(ids)
    gadj = g.adj
    for i, a in enumerate(cands):
        for b in gadj[a] & pos_keys:  # C-level set∩dict-view intersection
            j = pos[b]
            if j > i:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for k, x in enumerate(forb):
        xi = p + k
        xbit = 1 << xi
        m = 0
        for b in gadj[x] & pos_keys:
            j = pos[b]
            m |= 1 << j
            adj[j] |= xbit
        adj[xi] = m
    return Subproblem(root=v, ids=ids, adj=adj, p=p)


def iter_bits(mask: int):
    """Yield set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
