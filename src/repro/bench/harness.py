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


@dataclass
class RunRow:
    """One (graph, algorithm) measurement."""

    graph: str
    algorithm: str
    seconds: float
    n_cliques: int
    recursive_calls: int
    degeneracy: int
    result: EngineResult

    @property
    def r_vertex(self) -> float:
        return self.result.metrics.r_vertex

    @property
    def r_subproblem(self) -> float:
        return self.result.metrics.r_subproblem


def load_graph(name: str, scale: str = "bench") -> LocalGraph:
    """Catalog analog as a LocalGraph."""
    return LocalGraph.from_edges(edges_for(name, scale))


def run_algorithm(
    g: LocalGraph, algorithm: str, repeats: int = 1, track_visits: bool = False
) -> RunRow:
    """Time ``algorithm`` (paper name) on ``g``; keeps the best of ``repeats``.

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
    return RunRow(
        graph="",
        algorithm=algorithm,
        seconds=best,
        n_cliques=res.n_cliques,
        recursive_calls=res.metrics.recursive_calls,
        degeneracy=res.degeneracy,
        result=res,
    )


def sweep(
    algorithms: list[str],
    graphs: list[str] | None = None,
    scale: str = "bench",
    repeats: int = 1,
    verify: bool = True,
) -> list[RunRow]:
    """Run every algorithm on every catalog graph; optionally cross-verify
    that all algorithms report the identical clique set per graph."""
    rows: list[RunRow] = []
    for name in graphs or GRAPH_NAMES:
        g = load_graph(name, scale)
        per_graph: list[RunRow] = []
        for algo in algorithms:
            row = run_algorithm(g, algo, repeats=repeats)
            row.graph = name
            per_graph.append(row)
        if verify and len(per_graph) > 1:
            ref = per_graph[0].result.cliques
            for row in per_graph[1:]:
                if row.result.cliques != ref:
                    raise AssertionError(
                        f"clique-set mismatch on {name}: "
                        f"{per_graph[0].algorithm} vs {row.algorithm}"
                    )
        rows.extend(per_graph)
    return rows


def format_table(
    rows: list[RunRow], algorithms: list[str], value: str = "seconds"
) -> str:
    """Render sweep rows as a graph × algorithm markdown table."""
    by: dict[tuple[str, str], RunRow] = {(r.graph, r.algorithm): r for r in rows}
    graphs = list(dict.fromkeys(r.graph for r in rows))
    header = "| Graph | " + " | ".join(algorithms) + " |"
    sep = "|---" * (len(algorithms) + 1) + "|"
    lines = [header, sep]
    for gname in graphs:
        cells = []
        for a in algorithms:
            r = by.get((gname, a))
            if r is None:
                cells.append("-")
            elif value == "seconds":
                cells.append(f"{r.seconds:.3f}")
            else:
                cells.append(str(getattr(r, value)))
        lines.append(f"| {gname} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def visits_by_degree(g: LocalGraph, res: EngineResult) -> dict[int, float]:
    """Average visit count per vertex, bucketed by original degree."""
    assert res.metrics.visits is not None, "run with track_visits=True"
    tot: dict[int, int] = {}
    cnt: dict[int, int] = {}
    for v in g.adj:
        d = len(g.adj[v])
        tot[d] = tot.get(d, 0) + res.metrics.visits.get(v, 0)
        cnt[d] = cnt.get(d, 0) + 1
    return {d: tot[d] / cnt[d] for d in sorted(tot)}


def cliques_by_degree(g: LocalGraph, cliques: set[tuple[int, ...]]) -> dict[int, float]:
    """Average #maximal cliques containing a vertex, bucketed by degree —
    the 'ground truth' curve of Figures 1/11."""
    per_vertex: dict[int, int] = {}
    for c in cliques:
        for v in c:
            per_vertex[v] = per_vertex.get(v, 0) + 1
    tot: dict[int, int] = {}
    cnt: dict[int, int] = {}
    for v in g.adj:
        d = len(g.adj[v])
        tot[d] = tot.get(d, 0) + per_vertex.get(v, 0)
        cnt[d] = cnt.get(d, 0) + 1
    return {d: tot[d] / cnt[d] for d in sorted(tot)}


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
    "format_table",
    "visits_by_degree",
    "cliques_by_degree",
    "graph_stats_local",
    "GRAPH_NAMES",
]
