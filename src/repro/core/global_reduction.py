"""Global reduction (paper §4): low-degree vertex reduction (Algorithm 5)
and non-triangle edge reduction (Algorithm 6), local driver-side form.

Both rule families satisfy ``mc(G) = mc(G') + reported`` individually, so
they compose in any order. The paper's Example 4 relies on the cascade from
edges to vertices: deleting non-triangle edges exposes new degree-≤2
vertices. The cascade never runs the other way:

**No-cascade lemma.** Deleting a support-0 edge ``(u, v)`` (Lemma 4) lowers
no other edge's support: ``(u, v)`` counts towards the support of ``(u, x)``
only if ``x`` is a common neighbor of ``u`` and ``v``, and there is none.
A Lemma 1–3 rewrite lowers no support either, except that of the one edge
``(u, w)`` between a degree-2 vertex's neighbors, which it keeps with
support ≥ 1 or deletes. So after one full edge pass no edge has support 0,
and no later vertex pass creates one.

``global_reduce_local`` therefore runs exactly vertex pass → edge pass →
vertex pass: the first leaves no degree-≤2 vertex, the edge pass leaves no
support-0 edge, and the last leaves neither — the fixpoint.

The Spark implementation of the same rules lives in
``repro.core.spark_global`` and is tested for *semantic* equivalence (same
completeness decomposition; the surviving graph may differ on rule-order-
dependent boundary cases of Lemma 3).

Convention: singleton cliques are never reported (Lemma 1 / DESIGN.md).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..mce.bitgraph import LocalGraph


@dataclass
class ReductionStats:
    """Before/after accounting for the Figure-8 experiment."""

    n_before: int
    m_before: int
    n_after: int
    m_after: int
    cliques_reported: int

    @property
    def vertex_ratio(self) -> float:
        """Fraction of vertices deleted by global reduction."""
        return 1.0 - self.n_after / self.n_before if self.n_before else 0.0

    @property
    def edge_ratio(self) -> float:
        """Fraction of edges deleted by global reduction."""
        return 1.0 - self.m_after / self.m_before if self.m_before else 0.0


def _vertex_pass(adj: dict[int, set[int]], report) -> None:
    """Algorithm 5: queue-driven degree ≤ 2 reduction. Mutates ``adj``."""
    q = deque(v for v, nb in adj.items() if len(nb) <= 2)
    inq = set(q)

    def enqueue(t: int) -> None:
        if t in adj and len(adj[t]) <= 2 and t not in inq:
            q.append(t)
            inq.add(t)

    while q:
        v = q.popleft()
        inq.discard(v)
        if v not in adj:
            continue
        d = len(adj[v])
        if d == 0:
            del adj[v]  # Lemma 1: no report (singleton)
        elif d == 1:
            (u,) = adj[v]
            report((v, u))  # Lemma 2
            adj[u].discard(v)
            del adj[v]
            enqueue(u)
        elif d == 2:
            u, w = sorted(adj[v])
            if w not in adj[u]:
                # Lemma 3 case 1: two maximal 2-cliques.
                report((v, u))
                report((v, w))
            else:
                # Lemma 3 cases 2-3: maximal triangle {v,u,w}; drop (u,w)
                # as well iff u,w share no *other* common neighbor.
                report((v, u, w))
                small, big = (adj[u], adj[w]) if len(adj[u]) <= len(adj[w]) else (adj[w], adj[u])
                if not any(t != v and t in big for t in small):
                    adj[u].discard(w)
                    adj[w].discard(u)
            adj[u].discard(v)
            adj[w].discard(v)
            del adj[v]
            enqueue(u)
            enqueue(w)


def _edge_pass(adj: dict[int, set[int]], report) -> None:
    """Algorithm 6: delete every non-triangle edge. Tests all edges on the
    input graph, then deletes the support-0 ones; by the no-cascade lemma
    this equals deleting each as soon as it is found. Mutates ``adj``.

    The paper's visited-marking (skip both sibling edges of a witnessed
    triangle) is intentionally NOT implemented: it models C++ costs, and in
    Python the marking bookkeeping costs ~3× more than the early-exiting
    C-level ``set.isdisjoint`` checks it avoids (measured on the flickr
    analog). The semantics are identical. ``isdisjoint`` iterates the
    smaller of the two sets."""
    dead = [
        (u, v)
        for u, nb in adj.items()
        for v in nb
        if u < v and nb.isdisjoint(adj[v])
    ]
    for u, v in dead:
        report((u, v))  # Lemma 4
        adj[u].discard(v)
        adj[v].discard(u)


def global_reduce_local(
    g: LocalGraph,
) -> tuple[LocalGraph, list[tuple[int, ...]], ReductionStats]:
    """Apply global reduction to fixpoint. ``g`` is not modified.

    Returns ``(reduced_graph, reported_cliques, stats)`` with
    ``mc(G) = mc(reduced) ∪ reported`` (disjointly).
    """
    adj = {v: set(nb) for v, nb in g.adj.items()}
    n0, m0 = g.n, g.m
    reported: list[tuple[int, ...]] = []

    def report(c: tuple[int, ...]) -> None:
        reported.append(tuple(sorted(c)))

    _vertex_pass(adj, report)
    _edge_pass(adj, report)
    _vertex_pass(adj, report)
    reduced = LocalGraph(adj)
    stats = ReductionStats(n0, m0, reduced.n, reduced.m, len(reported))
    return reduced, reported, stats
