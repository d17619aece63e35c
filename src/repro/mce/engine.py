"""The unified MCE engine (local form).

One entry point covers every algorithm in the paper's evaluation:

========================  ==========================================
Configuration             Meaning
========================  ==========================================
reductions all off        BKdegen / BKrcd / BKfacen / BKrevised
                          (depending on ``recursion``)
reductions all on         RMCEdegen / RMCErcd / RMCEfacen / RMCErevised
global_reduction=False    Table 3 "Variant1"
dynamic=False             Table 3 "Variant2"
maxcheck=False            Table 3 "Variant3"
========================  ==========================================

The outer loop is the degeneracy decomposition shared by all four methods
(Algorithm 2 lines 1-3 / Algorithm 4): for each vertex ``v`` in degeneracy
order, solve the induced subproblem ``(R={v}, P=N⁺(v), X=N⁻(v))``. That
per-root step is ``solve_root``; the Spark kernel (``repro.core.spark_rmce``)
calls it on a task-local ``LocalGraph`` built from the task's payload.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.forbidden_reduction import reduce_forbidden, update_ignore_ids
from ..core.global_reduction import ReductionStats, global_reduce_local
from .bitgraph import LocalGraph, Subproblem, build_subproblem, degeneracy_order
from .metrics import Metrics
from .recursions import run_subproblem


@dataclass
class EngineResult:
    """Cliques plus instrumentation from one engine run."""

    cliques: set[tuple[int, ...]]
    reported: list[tuple[int, ...]] = field(default_factory=list)
    metrics: Metrics = field(default_factory=Metrics)
    degeneracy: int = 0
    reduction_stats: ReductionStats | None = None


def enumerate_cliques(
    graph: LocalGraph | np.ndarray,
    recursion: str = "pivot",
    global_reduction: bool = True,
    dynamic: bool = True,
    maxcheck: bool = True,
    track_visits: bool = False,
) -> EngineResult:
    """Enumerate all maximal cliques (size ≥ 2) of ``graph``.

    ``graph`` may be a ``LocalGraph`` or an ``(m, 2)`` edge array.
    """
    g = graph if isinstance(graph, LocalGraph) else LocalGraph.from_edges(graph)
    metrics = Metrics()
    if track_visits:
        metrics.enable_visits()
    reported: list[tuple[int, ...]] = []

    def report(vs) -> None:
        reported.append(tuple(sorted(vs)))

    red_stats: ReductionStats | None = None
    if global_reduction:
        g2, pre, red_stats = global_reduce_local(g)
        reported.extend(pre)
        metrics.reduction_cliques += len(pre)
    else:
        g2 = g

    order, _core, lam = degeneracy_order(g2)
    rank = {v: i for i, v in enumerate(order)}
    # N⁺ and N⁻ lists from one sweep in rank order: appending v to
    # later[u] for each earlier neighbor u, and to earlier[u] for each later
    # one, leaves every list rank-sorted.
    later: dict[int, list[int]] = {v: [] for v in order}
    earlier: dict[int, list[int]] = {v: [] for v in order}
    for i, v in enumerate(order):
        for u in g2.adj[v]:
            if rank[u] < i:
                later[u].append(v)
            else:
                earlier[u].append(v)
    n = len(order)
    ignore = ({v: n for v in order}, {}) if maxcheck else None

    for i, v in enumerate(order):
        sub = solve_root(
            g2, v, i, later[v], earlier[v], ignore, rank, recursion, dynamic, report, metrics
        )
        if ignore is not None and sub is not None:
            # Step i only sets values >= i, which no drop at step i reads.
            # A skipped frame has no candidates, so no rule to test.
            update_ignore_ids(*ignore, sub, i, rank, later)

    metrics.cliques = len(reported)
    return EngineResult(
        cliques=set(reported),
        reported=reported,
        metrics=metrics,
        degeneracy=lam,
        reduction_stats=red_stats,
    )


def solve_root(
    g: LocalGraph,
    v: int,
    i: int,
    p_ids: list[int],
    x_ids: list[int],
    ignore: tuple[dict[int, int], dict[int, int]] | None,
    rank: dict[int, int],
    recursion: str,
    dynamic: bool,
    report,
    metrics: Metrics,
) -> Subproblem | None:
    """Solve root ``v``'s subproblem ``({v}, p_ids, x_ids)`` at order ``i``
    and return its bitmask form, or ``None`` if the frame was skipped.

    ``p_ids`` is ``N⁺(v)`` and ``x_ids`` is ``N⁻(v)``, both in rank order:
    the pivot takes the first ``X`` vertex with the best count, so the
    order of ``x_ids`` moves ``recursive_calls``.
    ``ignore = (ignore_id, ignore_dom)`` turns on Algorithm 8's chain-sound
    drop of ``X``; ``rank`` must cover every ``X`` vertex and dominator.
    ``g`` needs only the edges among ``p_ids`` and between ``x_ids`` and
    ``p_ids``. Counts the subproblem and its ``X`` in ``metrics`` (Fig. 10);
    the recursion adds its own counters.
    """
    metrics.subproblems += 1
    metrics.x_before += len(x_ids)
    if ignore is not None:
        x_kept = reduce_forbidden(x_ids, i, *ignore, rank)
    else:
        x_kept = x_ids
    metrics.x_after += len(x_kept)
    if len(x_kept) < len(x_ids):
        metrics.subproblems_reduced += 1
    if not p_ids and x_kept:
        # No candidates and maximality already broken: skip the frame
        # entirely (still a subproblem for the Fig. 10 accounting above).
        return None
    sub = build_subproblem(g, v, p_ids, x_kept)
    run_subproblem(sub, recursion, dynamic, report, metrics)
    return sub


def algorithm_config(name: str) -> dict:
    """Map a paper algorithm name to engine kwargs.

    Accepts BKdegen/BKrcd/BKfacen/BKrevised, RMCEdegen/… and the Table 3
    Variant1/2/3 names (which are RMCEdegen minus one reduction).
    """
    name = name.strip()
    variants = {
        "Variant1": dict(recursion="pivot", global_reduction=False, dynamic=True, maxcheck=True),
        "Variant2": dict(recursion="pivot", global_reduction=True, dynamic=False, maxcheck=True),
        "Variant3": dict(recursion="pivot", global_reduction=True, dynamic=True, maxcheck=False),
    }
    if name in variants:
        return variants[name]
    suffix_map = {"degen": "pivot", "rcd": "rcd", "facen": "facen", "revised": "revised"}
    for prefix, reduced in (("RMCE", True), ("BK", False)):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix in suffix_map:
                return dict(
                    recursion=suffix_map[suffix],
                    global_reduction=reduced,
                    dynamic=reduced,
                    maxcheck=reduced,
                )
    raise ValueError(f"unknown algorithm name {name!r}")
