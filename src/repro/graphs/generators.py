"""Deterministic synthetic graph generators.

The paper evaluates on 18 real graphs (SNAP / Network Repository) that are
not available offline, so each one is replaced by a synthetic analog from the
same structural *family* (see ``repro.graphs.catalog`` and DESIGN.md §3/§4).
All generators:

- are deterministic in ``seed`` (``numpy.random.default_rng``),
- return a canonical undirected simple edge list as an ``(m, 2)`` int64
  ndarray with ``src < dst``, no duplicates, no self-loops,
- use vertex ids ``0..n-1`` (isolated vertices may exist for some families;
  the MCE convention in this repo ignores singleton cliques, matching the
  paper's Lemma 1).
"""
from __future__ import annotations

import numpy as np


def _canonical(edges: np.ndarray) -> np.ndarray:
    """Canonicalize an edge array: src < dst, drop self-loops + duplicates."""
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64)
    e = e[e[:, 0] != e[:, 1]]
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    e = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return e


def barabasi_albert(
    n: int, m_attach: int, seed: int = 0, triad_p: float = 0.0
) -> np.ndarray:
    """Preferential attachment: each new vertex attaches to ``m_attach``
    existing vertices sampled proportional to degree (social-network analog:
    heavy-tailed degrees, high degeneracy relative to average degree).

    ``triad_p`` > 0 adds Holme–Kim triad formation: after each attachment
    edge (v, u), with that probability v also links to a random neighbor of
    u, closing a triangle. Real social/internet graphs have substantial
    clustering; without closure, most preferential-attachment edges are
    non-triangle edges and global reduction deletes far more of the analog
    than of the real graph.
    """
    g = np.random.default_rng(seed)
    m0 = m_attach + 1
    edges: list[tuple[int, int]] = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    adj: dict[int, list[int]] = {i: [j for j in range(m0) if j != i] for i in range(m0)}
    # Repeated-endpoint list implements degree-proportional sampling.
    targets = [v for e in edges for v in e]
    for v in range(m0, n):
        chosen: set[int] = set()
        while len(chosen) < m_attach:
            chosen.add(targets[g.integers(0, len(targets))])
        adj[v] = []
        for u in chosen:
            edges.append((u, v))
            targets.extend((u, v))
            adj[u].append(v)
            adj[v].append(u)
            if triad_p > 0.0 and g.random() < triad_p and adj[u]:
                w = adj[u][g.integers(0, len(adj[u]))]
                if w != v and w not in chosen:
                    edges.append((w, v))
                    targets.extend((w, v))
                    adj[w].append(v)
                    adj[v].append(w)
    return _canonical(np.array(edges, dtype=np.int64))


def chung_lu(
    n: int,
    avg_deg: float,
    exponent: float = 2.5,
    seed: int = 0,
    closure: float = 0.0,
) -> np.ndarray:
    """Expected-degree (Chung–Lu) power-law graph: weights ``w_i ∝ i^{-1/(γ-1)}``,
    edges sampled by weight-proportional endpoint draws (web / citation /
    star-heavy analogs depending on γ).

    ``closure`` > 0 runs a wedge-closing post-pass: that fraction of
    vertices (of degree ≥ 2) gains one edge between two random neighbors,
    raising the clustering coefficient toward real web/citation graphs
    (see ``barabasi_albert`` on why this matters for global reduction).
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (exponent - 1.0))
    p = w / w.sum()
    m_target = int(n * avg_deg / 2)
    k = int(m_target * 1.5) + 16
    src = g.choice(n, size=k, p=p)
    dst = g.choice(n, size=k, p=p)
    e = _canonical(np.stack([src, dst], axis=1))
    if len(e) > m_target:
        e = e[g.choice(len(e), size=m_target, replace=False)]
        e = e[np.lexsort((e[:, 1], e[:, 0]))]
    if closure > 0.0:
        adj: dict[int, list[int]] = {}
        for a, b in e:
            adj.setdefault(int(a), []).append(int(b))
            adj.setdefault(int(b), []).append(int(a))
        extra = []
        for v, nbrs in adj.items():
            if len(nbrs) >= 2 and g.random() < closure:
                i, j = g.choice(len(nbrs), size=2, replace=False)
                if nbrs[i] != nbrs[j]:
                    extra.append((nbrs[i], nbrs[j]))
        if extra:
            e = _canonical(np.concatenate([e, np.array(extra, dtype=np.int64)]))
    return e


def grid_road(rows: int, cols: int, spur_fraction: float = 0.15, seed: int = 0) -> np.ndarray:
    """Road-network analog: a 2-D lattice (triangle-free, so *every* edge is a
    non-triangle edge and global reduction deletes the whole graph, matching
    the paper's inf-road-usa / roadNet-CA observation) plus degree-1 spur
    vertices imitating dead-end streets."""
    g = np.random.default_rng(seed)
    idx = lambda r, c: r * cols + c  # noqa: E731
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    n_grid = rows * cols
    n_spur = int(n_grid * spur_fraction)
    anchors = g.integers(0, n_grid, size=n_spur)
    for i, a in enumerate(anchors):
        edges.append((int(a), n_grid + i))
    return _canonical(np.array(edges, dtype=np.int64))


def triangulated_grid(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """Delaunay-triangulation analog: a 2-D lattice with one diagonal per cell.
    Every edge sits in a triangle and interior degrees are ≥ 4, so global
    reduction removes (almost) nothing — matching the paper's sc-delaunay_n23
    observation. Degeneracy is 3 (paper: 4)."""
    idx = lambda r, c: r * cols + c  # noqa: E731
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                edges.append((idx(r, c), idx(r + 1, c + 1)))
    return _canonical(np.array(edges, dtype=np.int64))


def planted_cliques(
    n: int,
    n_cliques: int,
    clique_size_lo: int = 4,
    clique_size_hi: int = 10,
    background_m: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Collaboration-network analog (ca-CondMat / com-dblp): overlapping
    planted cliques (papers' author lists) over a sparse random background."""
    g = np.random.default_rng(seed)
    edges = []
    for _ in range(n_cliques):
        k = int(g.integers(clique_size_lo, clique_size_hi + 1))
        members = g.choice(n, size=k, replace=False)
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((int(members[i]), int(members[j])))
    e = np.array(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
    if background_m > 0:
        e = np.concatenate([e, g.integers(0, n, size=(background_m, 2))])
    return _canonical(e)


def star_heavy(
    n: int, n_hubs: int, core_m: int, leaf_fraction: float = 0.5, seed: int = 0
) -> np.ndarray:
    """Message-graph analog (wiki-Talk / email-EuAll): a few huge hubs, a thin
    random core, and a large population of degree-1 leaves hanging off hubs —
    most of the graph disappears under degree-1 + non-triangle-edge reduction."""
    g = np.random.default_rng(seed)
    n_leaf = int(n * leaf_fraction)
    n_core = n - n_leaf
    hubs = np.arange(n_hubs)
    edges = []
    # Thin power-law core over 0..n_core-1 (includes hubs).
    core = chung_lu(n_core, avg_deg=2 * core_m / max(n_core, 1), exponent=2.3, seed=seed + 1)
    edges.append(core)
    # Hubs connect to a random slab of core vertices (forms the dense part).
    for h in hubs:
        fan = g.choice(n_core, size=max(4, n_core // (3 * n_hubs)), replace=False)
        edges.append(np.stack([np.full(len(fan), h), fan], axis=1))
    # Leaves attach to hubs (degree-1 ⇒ reducible).
    owner = hubs[g.integers(0, n_hubs, size=n_leaf)]
    leaves = np.arange(n_core, n)
    edges.append(np.stack([owner, leaves], axis=1))
    return _canonical(np.concatenate(edges))


def dense_community(
    n: int, m_attach: int, n_communities: int, comm_size: int, seed: int = 0
) -> np.ndarray:
    """Dense-social analog (flickr / com-orkut / large_twitch): preferential
    attachment plus planted dense communities that push the degeneracy up."""
    g = np.random.default_rng(seed)
    base = barabasi_albert(n, m_attach, seed=seed)
    extra = []
    for _ in range(n_communities):
        members = g.choice(n, size=comm_size, replace=False)
        for i in range(comm_size):
            for j in range(i + 1, comm_size):
                if g.random() < 0.85:
                    extra.append((int(members[i]), int(members[j])))
    if extra:
        base = np.concatenate([base, np.array(extra, dtype=np.int64)])
    return _canonical(base)
