"""Global reduction (paper §4): non-triangle edge reduction (Algorithm 6)
and low-degree vertex reduction (Algorithm 5), local driver-side form.

Every rule (Lemmas 1–4) satisfies ``mc(G) = mc(G') + reported``, so the
rules compose in any order, and every order ends at the same graph:

**Fixpoint lemma.** Let H* be the largest subgraph in which every vertex
has degree ≥ 3 and every edge lies in a triangle (a union of such
subgraphs is one). No rule deletes a vertex or edge of H*: while the graph
contains H*, each vertex of H* has degree ≥ 3 and each edge of H* has a
common neighbor in H*, which is not the degree-2 vertex of a Lemma 3
firing. A graph no rule applies to is such a subgraph, so it is H*. The
reported set is then ``mc(G) − mc(H*)``, unique as well.

**No-cascade lemma.** Deleting a support-0 edge ``(u, v)`` (Lemma 4) lowers
no other edge's support: ``(u, v)`` counts towards the support of ``(u, x)``
only if ``x`` is a common neighbor of ``u`` and ``v``, and there is none.
A Lemma 3 firing lowers no support either, except that of the one edge
``(u, w)`` between the degree-2 vertex's neighbors, which it keeps with
support ≥ 1 or deletes.

``global_reduce_local`` therefore runs one full edge pass, then the
degree-≤2 queue until it is empty. After the edge pass every edge lies in a
triangle, and by the no-cascade lemma every firing keeps it so; the queue
thus meets only degree 0 (Lemma 1) or degree 2 with adjacent neighbors
(Lemma 3's triangle case). Lemma 2 and Lemma 3's path case never fire:
Lemma 4 has reported and deleted those edges already. The Spark
implementation (``repro.core.spark_global``) runs the same schedule in
batches and, by the lemma, ends at the same graph with the same cliques.

Convention: singleton cliques are never reported (Lemma 1 / DESIGN.md).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..mce.bitgraph import LocalGraph


@dataclass
class ReductionStats:
    """Before/after sizes for the Figure-8 experiment, from either engine."""

    n_before: int
    m_before: int
    n_after: int
    m_after: int

    @property
    def vertex_ratio(self) -> float:
        """Fraction of vertices deleted by global reduction."""
        return 1.0 - self.n_after / self.n_before if self.n_before else 0.0

    @property
    def edge_ratio(self) -> float:
        """Fraction of edges deleted by global reduction."""
        return 1.0 - self.m_after / self.m_before if self.m_before else 0.0


def _vertex_pass(adj: dict[int, set[int]], report) -> None:
    """Algorithm 5 as a queue, on a graph whose every edge lies in a
    triangle: Lemma 1 and Lemma 3's triangle case. Mutates ``adj``."""
    q = deque(v for v, nb in adj.items() if len(nb) <= 2)
    seen = set(q)  # every popped vertex is deleted, never queued again
    while q:
        v = q.popleft()
        if adj[v]:  # degree 2
            # Lemma 3: maximal triangle {v,u,w}; drop (u,w) as well iff
            # u,w share no *other* common neighbor.
            u, w = sorted(adj[v])
            report((v, u, w))
            small, big = (adj[u], adj[w]) if len(adj[u]) <= len(adj[w]) else (adj[w], adj[u])
            if not any(t != v and t in big for t in small):
                adj[u].discard(w)
                adj[w].discard(u)
            adj[u].discard(v)
            adj[w].discard(v)
            for t in (u, w):
                if len(adj[t]) <= 2 and t not in seen:
                    q.append(t)
                    seen.add(t)
        del adj[v]  # now isolated: Lemma 1, no report (singleton)


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

    _edge_pass(adj, report)
    _vertex_pass(adj, report)
    reduced = LocalGraph(adj)
    stats = ReductionStats(n0, m0, reduced.n, reduced.m)
    return reduced, reported, stats
