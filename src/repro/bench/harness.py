"""Timing/metrics harness for the jobs/ scripts.

All timing-sensitive comparisons run the *local* kernel — mirroring the
paper's single-machine C++ setting — because every configuration shares the
same kernel, so ratios between configurations are meaningful. The Spark
pipeline is exercised (and cross-checked for result equality) by the
dedicated Spark jobs/tests; its per-task Python and scheduling overhead
would otherwise drown sub-second algorithmic differences.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from ..graphs.catalog import GRAPH_NAMES, edges_for
from ..mce.bitgraph import LocalGraph
from ..mce.engine import EngineResult, algorithm_config, enumerate_cliques
from ..mce.metrics import Metrics


@dataclass
class RunRow:
    """One (graph, algorithm) measurement."""

    graph: str
    algorithm: str
    seconds: float
    metrics: Metrics


def load_graph(name: str, scale: str = "bench") -> LocalGraph:
    """Catalog analog as a LocalGraph."""
    return LocalGraph.from_edges(edges_for(name, scale))


def run_algorithm(
    g: LocalGraph, algorithm: str, repeats: int = 1, track_visits: bool = False
) -> tuple[float, EngineResult]:
    """Time ``algorithm`` (paper name) on ``g``; returns the best of
    ``repeats`` seconds and the last run's result.

    Each timed call starts with the previous result dropped and garbage
    collected, so no repeat pays for an earlier one's collection.
    """
    cfg = algorithm_config(algorithm)
    best = float("inf")
    res: EngineResult | None = None
    for _ in range(repeats):
        res = None
        gc.collect()
        t0 = time.perf_counter()
        res = enumerate_cliques(g, track_visits=track_visits, **cfg)
        best = min(best, time.perf_counter() - t0)
    assert res is not None
    return best, res


def sweep(
    algorithms: list[str],
    graphs: list[str] | None = None,
    scale: str = "bench",
    repeats: int = 1,
) -> dict[tuple[str, str], RunRow]:
    """Run every algorithm on every catalog graph, keyed by ``(graph,
    algorithm)``; raises unless all algorithms report the identical clique
    set per graph. Only each run's seconds and metrics are kept: a graph's
    clique sets are dropped before the next graph runs."""
    rows: dict[tuple[str, str], RunRow] = {}
    for name in graphs or GRAPH_NAMES:
        g = load_graph(name, scale)
        ref = None
        for algo in algorithms:
            seconds, res = run_algorithm(g, algo, repeats=repeats)
            if ref is None:
                ref = res.cliques
            elif res.cliques != ref:
                raise AssertionError(f"clique-set mismatch on {name}: {algorithms[0]} vs {algo}")
            rows[name, algo] = RunRow(name, algo, seconds, res.metrics)
        del ref, res
    return rows


def _mean_by_degree(g: LocalGraph, count: dict[int, int]) -> dict[int, float]:
    """Mean of ``count`` (0 where absent) over the vertices of each degree."""
    tot: dict[int, int] = {}
    cnt: dict[int, int] = {}
    for v in g.adj:
        d = len(g.adj[v])
        tot[d] = tot.get(d, 0) + count.get(v, 0)
        cnt[d] = cnt.get(d, 0) + 1
    return {d: tot[d] / cnt[d] for d in sorted(tot)}


def visits_by_degree(g: LocalGraph, res: EngineResult) -> dict[int, float]:
    """Average visit count per vertex, bucketed by original degree."""
    assert res.metrics.visits is not None, "run with track_visits=True"
    return _mean_by_degree(g, res.metrics.visits)


def cliques_by_degree(g: LocalGraph, cliques: set[tuple[int, ...]]) -> dict[int, float]:
    """Average #maximal cliques containing a vertex, bucketed by degree —
    the 'ground truth' curve of Figures 1/11."""
    per_vertex: dict[int, int] = {}
    for c in cliques:
        for v in c:
            per_vertex[v] = per_vertex.get(v, 0) + 1
    return _mean_by_degree(g, per_vertex)


def graph_stats_local(name: str, scale: str = "bench") -> dict:
    """Table 2 statistics of a catalog analog via the local substrate."""
    from ..mce.bitgraph import degeneracy_order

    g = load_graph(name, scale)
    _, _, lam = degeneracy_order(g)
    return {
        "graph": name,
        "n": g.n,
        "m": g.m,
        "d_max": g.max_degree(),
        "degeneracy": lam,
    }


__all__ = [
    "RunRow",
    "load_graph",
    "run_algorithm",
    "sweep",
    "visits_by_degree",
    "cliques_by_degree",
    "graph_stats_local",
]
