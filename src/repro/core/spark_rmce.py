"""Distributed RMCE: the full pipeline as a Spark dataflow.

Stages (each optional piece toggles exactly like the local engine, so the
same configuration grid covers BKx, RMCEx and the Table-3 variants):

1. **Global reduction** (``spark_global``, or the driver's
   ``global_reduce_local``): Lemmas 1-4 to fixpoint; emits pre-reported
   cliques. Stages 2–6 run only when it leaves an edge: on an empty
   residual graph its cliques are the whole answer, and the search
   counters and degeneracy are 0, as the full path would compute.
2. **Degeneracy order** (``gx.kcore``, or the driver's
   ``mce.bitgraph.degeneracy_order``).
3. **Oriented triangles** (``gx.triangles.triangles`` over the rank
   orientation): each triangle once as ``(task, a, b)`` with
   rank(task) < rank(a) < rank(b).
4. **ignoreId precompute**: Algorithm 8's two dominance rules depend only on
   the static ``N⁺`` sets, so the whole table — threshold *and* arg-min
   dominator — comes from the triangle table and the out-degrees by the
   pair test the local engine applies to each root's bitmask
   (``forbidden_reduction.update_ignore_ids``); a test asserts both equal
   the rules' set definitions.
5. **Subproblem materialization**: every ranked vertex ``v`` is a task,
   like every root of the local loop: one root row with its rank,
   candidate rows (``N⁺(v)`` with ranks), forbidden rows (``N⁻(v)`` with
   rank/ignoreId/dominator), and edge rows from the triangle table.
   Triangle ``(task, a, b)`` sends edge ``a–b`` to ``task`` (two
   candidates) and edge ``task–b`` to ``a`` (a forbidden vertex and a
   candidate); these are all the edges the recursion needs, nothing
   hub-sized.
6. **Kernel**: ``groupBy(task).applyInPandas`` turns each task's rows into
   a task-local ``LocalGraph`` and calls the local engine's ``solve_root``
   (chain-sound forbidden-set drop included), then emits clique rows plus
   one row of ``Metrics`` counters per task.

Stages 1 and 2 are whole-graph passes. The graph goes to the driver at
most once, at a stage boundary, if it fits ``gx.graph.driver_edge_budget``:
an input that fits is collected and both stages run on it there; else
stage 1 runs in Spark, and its residual is collected if it fits. The
driver hands its results back through Arrow. H* and the reported set are
unique, and the peel's ``(round, id)`` order is the driver's, so every
path gives the same result.

Output cliques are canonical comma-joined id strings (matching
``spark_global``), unioned with the reduction's pre-reported cliques. Each
table is materialized once: the output is a select and union over the
kernel's checkpoint and the reduction's, so it is not checkpointed again.
"""
from __future__ import annotations

from dataclasses import dataclass
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..gx.graph import arrow_df, collect_graph, driver_edge_budget, symmetrize
from ..gx.kcore import degeneracy_order_spark
from ..gx.triangles import triangles
from ..mce.bitgraph import LocalGraph, degeneracy_order
from ..mce.engine import EngineResult, solve_root
from ..mce.metrics import Metrics
from .global_reduction import global_reduce_local
from .spark_global import SparkReductionResult, global_reduce_spark, read_cliques

# Payload row kinds shipped to each task group.
_ROOT, _CAND, _X, _EDGE = 0, 1, 2, 3
# ``ignoreId`` of an X row without an Algorithm 8 entry: never below a rank.
_NO_ENTRY = 1 << 62
# The per-task ``Metrics`` counters, summed over all tasks.
_COUNTERS = ("recursive_calls", "subproblems", "x_before", "x_after", "subproblems_reduced")

_OUT_SCHEMA = T.StructType(
    [T.StructField("clique", T.StringType())]
    + [T.StructField(f, T.LongType()) for f in _COUNTERS]
)


@dataclass
class SparkMCEResult:
    """Distributed enumeration outcome."""

    cliques: DataFrame  # (clique: string), search + reduction reports
    degeneracy: int
    recursive_calls: int
    subproblems: int
    x_before: int
    x_after: int
    subproblems_reduced: int
    reduction: SparkReductionResult | None = None


def local_mismatches(res: SparkMCEResult, local: EngineResult) -> dict[str, tuple]:
    """``{name: (spark, local)}`` for what differs between the Spark run
    ``res`` and the local run ``local`` of one configuration: the clique
    set, clique rows (each clique emitted once), λ, the ``_COUNTERS``, and
    global reduction's presence, ``ReductionStats`` and reported cliques."""
    pairs = {
        "cliques": (read_cliques(res.cliques), local.cliques),
        "clique rows": (res.cliques.count(), len(local.cliques)),
        "degeneracy": (res.degeneracy, local.degeneracy),
        **{f: (getattr(res, f), getattr(local.metrics, f)) for f in _COUNTERS},
        "reduction": (res.reduction is not None, local.reduction_stats is not None),
    }
    if res.reduction is not None and local.reduction_stats is not None:
        pairs["reduction stats"] = (res.reduction.stats, local.reduction_stats)
        pairs["reduction cliques"] = (
            read_cliques(res.reduction.cliques),
            set(local.reported[: local.metrics.reduction_cliques]),
        )
    return {k: ab for k, ab in pairs.items() if ab[0] != ab[1]}


def _orient(sym: DataFrame, ranks: DataFrame) -> DataFrame:
    """``(v, u, rv, ru)``: every edge of the symmetrized table ``sym``
    directed from lower to higher rank; ``ranks`` is ``(v, rank)``."""
    return (
        sym.join(ranks.withColumnRenamed("v", "src").withColumnRenamed("rank", "r_src"), "src")
        .join(ranks.withColumnRenamed("v", "dst").withColumnRenamed("rank", "r_dst"), "dst")
        .where(F.col("r_src") < F.col("r_dst"))
        .select(
            F.col("src").alias("v"),
            F.col("dst").alias("u"),
            F.col("r_src").cast("long").alias("rv"),
            F.col("r_dst").cast("long").alias("ru"),
        )
    )


def _ignore_table(oriented: DataFrame, tri: DataFrame) -> DataFrame:
    """Algorithm 8's ``(v, ignore_id, dom)`` for vertices with an entry.
    ``oriented`` is ``(v, u, rv, ru)`` with rank(v) < rank(u) and ``tri``
    is its triangle table ``(task, a, b)``: the rows with ``task = v,
    a = u`` are ``N⁺(v) ∩ N⁺(u)``, counted as ``cshared``. The pair test of
    ``forbidden_reduction.update_ignore_ids``: ``cshared == |N⁺(v)| − 1``
    is rule A, else ``cshared == |N⁺(u)|`` is rule B; each vertex keeps
    its min-rank dominator."""
    cnt = tri.groupBy(F.col("task").alias("v"), F.col("a").alias("u")).agg(
        F.count("*").alias("cshared")
    )
    dplus = oriented.groupBy("v").agg(F.count("*").alias("dplus"))
    enriched = (
        # Left join: a pair with no shared out-neighbour still fires rule A
        # when |N⁺(v)| = 1.
        oriented.join(cnt, ["v", "u"], "left")
        .fillna({"cshared": 0})
        .join(dplus.withColumnRenamed("dplus", "dv"), "v")
        .join(
            dplus.select(F.col("v").alias("u"), F.col("dplus").alias("du")),
            "u",
            "left",
        )
        .fillna({"du": 0})
    )
    rule_a = F.col("cshared") == F.col("dv") - 1
    rule_b = (~rule_a) & (F.col("cshared") == F.col("du"))
    entries = enriched.where(rule_a).select(
        F.col("v").alias("target"), F.col("ru").alias("thr"), F.col("u").alias("dom")
    ).union(
        enriched.where(rule_b).select(
            F.col("u").alias("target"), F.col("rv").alias("thr"), F.col("v").alias("dom")
        )
    )
    best = entries.groupBy("target").agg(F.min(F.struct("thr", "dom")).alias("best"))
    return best.select(
        F.col("target").alias("v"),
        F.col("best.thr").alias("ignore_id"),
        F.col("best.dom").alias("dom"),
    )


def _make_kernel(recursion: str, dynamic: bool):
    """Build the applyInPandas kernel (closure carries the configuration).

    Each task group is one root: its payload becomes a task-local
    ``LocalGraph`` (candidates and X rows are its vertices, edge rows its
    edges) that ``solve_root`` solves at the root row's rank exactly as
    the local engine does. With maxcheck off every X row carries
    ``_NO_ENTRY``, so the drop keeps all of ``X``.
    """

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        root = int(pdf["task"].iloc[0])
        adj: dict[int, set[int]] = {}
        rank: dict[int, int] = {}
        ignore_id: dict[int, int] = {}
        ignore_dom: dict[int, int] = {}
        p_ids: list[int] = []
        x_ids: list[int] = []
        cols = (pdf[c].tolist() for c in ("kind", "a", "b", "c", "d"))
        for kind, a, b, c, d in zip(*cols):
            if kind == _ROOT:
                i = b
            elif kind == _CAND:
                p_ids.append(a)
                rank[a] = b
                adj.setdefault(a, set())
            elif kind == _X:
                x_ids.append(a)
                rank[a] = b
                ignore_id[a] = c
                ignore_dom[a] = d
                adj.setdefault(a, set())
            else:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
        # Rank order, as the local engine's lists: row order is the shuffle's.
        p_ids.sort(key=rank.__getitem__)
        x_ids.sort(key=rank.__getitem__)
        metrics = Metrics()
        cliques: list[str] = []

        def report(vs) -> None:
            cliques.append(",".join(str(t) for t in sorted(vs)))

        solve_root(
            LocalGraph(adj), root, i, p_ids, x_ids, (ignore_id, ignore_dom),
            rank, recursion, dynamic, report, metrics,
        )
        zeros = (0,) * len(_COUNTERS)
        rows = [(cl, *zeros) for cl in cliques]
        rows.append((None, *(getattr(metrics, f) for f in _COUNTERS)))
        return pd.DataFrame(rows, columns=["clique", *_COUNTERS])

    return kernel


def enumerate_cliques_spark(
    spark: SparkSession,
    edges: DataFrame,
    recursion: str = "pivot",
    global_reduction: bool = True,
    dynamic: bool = True,
    maxcheck: bool = True,
) -> SparkMCEResult:
    """Distributed maximal clique enumeration (size ≥ 2) over ``edges``, a
    canonical edge table (``src < dst``, distinct, loop-free) as
    ``gx.graph.edges_df`` builds it."""
    reduction: SparkReductionResult | None = None
    pre: DataFrame | None = None
    # The one hand-off to the driver: the input, if it fits (never at
    # budget 0, which keeps both loops in Spark).
    budget = driver_edge_budget(spark)
    g = collect_graph(edges) if budget and edges.count() <= budget else None
    if not global_reduction:
        edges = edges.localCheckpoint(eager=True)
    elif g is None:
        # global_reduce_spark reads its input in one materialized pass.
        reduction = global_reduce_spark(spark, edges)
    else:
        g, reported, stats = global_reduce_local(g)
        kept = g.edges()
        reduction = SparkReductionResult(
            edges=arrow_df(
                spark,
                src=pa.array([u for u, _ in kept], pa.int64()),
                dst=pa.array([w for _, w in kept], pa.int64()),
            ),
            cliques=arrow_df(
                spark, clique=pa.array([",".join(map(str, c)) for c in reported], pa.string())
            ),
            stats=stats,
            rounds=0,
        )
    if reduction is not None:
        if not reduction.stats.m_after:
            # Nothing left to search: the reduction's cliques are all of them.
            return SparkMCEResult(
                cliques=reduction.cliques,
                degeneracy=0,
                reduction=reduction,
                **dict.fromkeys(_COUNTERS, 0),
            )
        edges, pre = reduction.edges, reduction.cliques
        # Else the residual, if it fits.
        if g is None and reduction.stats.m_after <= budget:
            g = collect_graph(edges)

    if g is None:
        order_df, lam = degeneracy_order_spark(spark, edges)
        ranks = order_df.select("v", "rank")
    else:
        # The peel's (round, id) order: a vertex's rank is its position.
        order, _, lam = degeneracy_order(g)
        ranks = arrow_df(
            spark, v=pa.array(order, pa.int64()), rank=pa.array(range(len(order)), pa.int64())
        )
    oriented = _orient(symmetrize(edges), ranks).localCheckpoint(eager=True)
    # Three readers (Algorithm 8's pair counts and both halves of the edge
    # rows): materialized once, so the listing's joins run once.
    tri = triangles(
        oriented.select(F.col("v").alias("src"), F.col("u").alias("dst"))
    ).localCheckpoint(eager=True)
    ignore = _ignore_table(oriented, tri) if maxcheck else None

    zero = F.lit(0).cast("long")
    root_rows = ranks.select(
        F.col("v").alias("task"),
        F.lit(_ROOT).alias("kind"),
        F.col("v").alias("a"),
        F.col("rank").cast("long").alias("b"),
        zero.alias("c"),
        zero.alias("d"),
    )
    cand_rows = oriented.select(
        F.col("v").alias("task"),
        F.lit(_CAND).alias("kind"),
        F.col("u").alias("a"),
        F.col("ru").alias("b"),
        zero.alias("c"),
        zero.alias("d"),
    )
    xbase = oriented.select(
        F.col("u").alias("task"), F.col("v").alias("x"), F.col("rv").alias("rx")
    )
    if ignore is not None:
        xinfo = xbase.join(ignore.withColumnRenamed("v", "x"), "x", "left")
        ig = F.coalesce("ignore_id", F.lit(_NO_ENTRY))
        dm = F.coalesce("dom", F.lit(-1))
    else:
        xinfo, ig, dm = xbase, F.lit(_NO_ENTRY), F.lit(-1)
    x_rows = xinfo.select(
        "task",
        F.lit(_X).alias("kind"),
        F.col("x").alias("a"),
        F.col("rx").alias("b"),
        ig.cast("long").alias("c"),
        dm.cast("long").alias("d"),
    )
    # Triangle (task, a, b): a–b joins two candidates of task, and task–b
    # joins a forbidden vertex of a to one of a's candidates.
    edge_rows = tri.union(
        tri.select(F.col("a").alias("task"), F.col("task").alias("a"), "b")
    ).select(
        "task", F.lit(_EDGE).alias("kind"), "a", "b", zero.alias("c"), zero.alias("d")
    )
    payload = root_rows.union(cand_rows).union(x_rows).union(edge_rows)

    kernel = _make_kernel(recursion, dynamic)
    out = (
        payload.groupBy("task")
        .applyInPandas(kernel, schema=_OUT_SCHEMA)
        .localCheckpoint(eager=True)
    )
    cliques = out.where(F.col("clique").isNotNull()).select("clique")
    if pre is not None:
        cliques = cliques.union(pre)
    agg = (
        out.where(F.col("clique").isNull())
        .agg(*(F.sum(f).alias(f) for f in _COUNTERS))
        .collect()[0]
    )
    return SparkMCEResult(
        cliques=cliques,
        degeneracy=lam,
        reduction=reduction,
        **{f: int(agg[f] or 0) for f in _COUNTERS},
    )
