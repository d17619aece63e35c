"""Global reduction as a distributed dataflow (paper §4 on Spark).

The schedule is the local engine's (Algorithm 6, then Algorithm 5), in
batches, over one table of canonical edges with their *support*, the
number of common neighbors of their endpoints (``gx.triangles.
edge_support``). The table is counted once and then kept up to date, as
truss decomposition does (Wang & Cheng 2012): a round subtracts what it
deletes and never recounts.

1. **Non-triangle edges** (Lemma 4), once, before the loop: the edges of
   support 0 are independent maximal 2-clique rewrites, and deleting one
   lowers no other edge's support (a common neighbor of ``(u, x)`` that
   ``(u, v)`` provides would be a common neighbor of ``u`` and ``v``), so
   deleting all of them at once is sound and leaves every support as it
   was. This subsumes the degree-1 rule (Lemma 2): an edge with a degree-1
   endpoint has no common neighbor.
2. **Degree-2 batch** (Lemma 3), once per round: *every* degree-2 vertex
   ``v`` fires, with its neighbor pair ``(u, w)``. Every residual edge has
   support ≥ 1, so ``u`` and ``w`` are adjacent: the firing reports
   ``{v, u, w}`` and deletes ``(v, u)`` and ``(v, w)``. A triangle with
   several degree-2 members is reported by each of them, so the round's
   clique rows are deduplicated. Then ``support(u, w)`` drops by the
   number of firings with pair ``(u, w)``, and every edge whose support
   reaches 0 is deleted without a report: its one clique was a fired
   triangle.

The subtraction is exact. A fired vertex has degree 2, so it is a common
neighbor of its own pair only, and the only triangle through its deleted
edges is its own. An edge deleted at support 0 has no common neighbor
left, so deleting it lowers no support either (the no-cascade lemma of
``repro.core.global_reduction``). So after every round each kept support
is the residual's common-neighbor count, every residual edge has support
≥ 1, and Lemma 4 never fires again.

The batch is sound. After Lemma 4 every degree is 0 or at least 2, and
firing the round's degree-2 set ``D`` one vertex at a time, in any order,
does what the batch does. If a member ``x`` of ``D`` loses an edge before
its turn, a ``D``-neighbor ``y`` of ``x`` fired first, and that firing
also deleted ``x``'s other edge, because ``y`` was the only possible common
neighbor of its pair; ``x`` is left isolated with its triangle reported.
And ``(u, w)`` loses its last common neighbor exactly when all of its
common neighbors are in ``D``, which is when its support reaches 0. So by
the fixpoint lemma of ``repro.core.global_reduction`` the run ends at its
graph H*: it leaves the same edges and reports the same cliques as
``global_reduce_local``. No triangle is reported in two rounds, since the
round that reports it deletes one of its vertices.

The loop needs no cap. Every round fires at least one vertex and deletes
its two edges, so it ends within m/2 rounds. Once Lemma 4 has run every
edge lies in a triangle, so a residual with no degree-2 vertex has every
degree ≥ 3: it is H*, and the loop stops there, as it does once no edge
remains. Round 1 is Lemma 4 plus the first degree-2 batch, so a graph
that Lemma 4 alone reduces to H* takes one round.

The support table is materialized once (``localCheckpoint``); nothing
else reads the input, so the input is not materialized on its own. Its
2-cliques (support 0), its residual (support > 0) and one aggregate over
each vertex's full and residual degree (the input's vertices and edges,
and the residual's vertices, edges and degree-2 vertices) all read that
checkpoint. Each degree-2 batch's firing table and the edge table it
leaves are materialized once; its clique rows, deletions and subtractions
read the firing checkpoint, and one aggregate counts the new residual. A
degree-2 vertex always fires, so a batch needs no count of its own.

Every round runs in Spark. ``core.spark_rmce`` decides once, before this
loop would start, whether it runs at all: an input that fits
``gx.graph.driver_edge_budget`` is reduced on the driver by
``global_reduce_local``, which ends at the same H* with the same reports.

Degree-0 vertices vanish implicitly (edge-table representation; Lemma 1
reports nothing). Cliques are emitted as canonical comma-joined id strings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..gx.graph import remove_vertices, symmetrize
from ..gx.triangles import edge_support
from .global_reduction import ReductionStats


def _clique2(a, b):
    return F.concat_ws(",", F.least(a, b).cast("string"), F.greatest(a, b).cast("string"))


def _clique3(a, b, c):
    arr = F.array_sort(F.array(a.cast("long"), b.cast("long"), c.cast("long")))
    return F.array_join(F.transform(arr, lambda x: x.cast("string")), ",")


def read_cliques(cliques: DataFrame) -> set[tuple[int, ...]]:
    """Collect a ``(clique: string)`` table as a set of id tuples."""
    return {tuple(int(t) for t in row["clique"].split(",")) for row in cliques.collect()}


@dataclass
class SparkReductionResult:
    """Outcome of distributed global reduction."""

    edges: DataFrame  # surviving canonical edges
    cliques: DataFrame  # (clique: string) reported by the reduction
    stats: ReductionStats
    rounds: int


def _firings(edges: DataFrame) -> DataFrame:
    """Every degree-2 vertex's firing ``(v, u, w)``, u < w."""
    return (
        symmetrize(edges)
        .groupBy(F.col("src").alias("v"))
        .agg(F.count("*").alias("degree"), F.min("dst").alias("u"), F.max("dst").alias("w"))
        .where(F.col("degree") == 2)
        .drop("degree")
    )


def _after_firing(edges: DataFrame, fire: DataFrame) -> DataFrame:
    """``edges`` ``(src, dst, support)`` without the fired vertices' edges,
    each pair's support lowered by its firings, and support-0 edges gone."""
    hits = fire.groupBy(F.col("u").alias("src"), F.col("w").alias("dst")).agg(
        F.count("*").alias("hits")
    )
    support = F.col("support") - F.coalesce(F.col("hits"), F.lit(0))
    return (
        remove_vertices(edges, fire.select("v"))
        .join(hits, ["src", "dst"], "left")
        .select("src", "dst", support.alias("support"))
        .where(F.col("support") > 0)
    )


def _sizes(table: DataFrame) -> tuple[int, int, int, int, int]:
    """Vertices and edges of ``table`` ``(src, dst, support)``, then the
    vertices, edges and degree-2 vertices of its support > 0 edges, in
    one aggregate over each vertex's full and residual degree."""
    tri = F.col("support") > 0
    ends = table.select(F.col("src").alias("v"), tri.alias("tri")).union(
        table.select(F.col("dst").alias("v"), tri.alias("tri"))
    )
    deg = ends.groupBy("v").agg(
        F.count("*").alias("full"), F.count(F.when(F.col("tri"), 1)).alias("degree")
    )
    n_all, deg_all, n, deg_sum, n2 = deg.agg(
        F.count("*"),
        F.coalesce(F.sum("full"), F.lit(0)),
        F.count(F.when(F.col("degree") > 0, 1)),
        F.coalesce(F.sum("degree"), F.lit(0)),
        F.count(F.when(F.col("degree") == 2, 1)),
    ).first()
    return n_all, deg_all // 2, n, deg_sum // 2, n2


def global_reduce_spark(spark: SparkSession, edges: DataFrame) -> SparkReductionResult:
    """Run global reduction to its fixpoint H*. Returns surviving edges +
    cliques; round 1 is Lemma 4 plus the first degree-2 batch."""
    # Only the support pass reads the input, so the input is not
    # materialized on its own.
    table = edge_support(edges).localCheckpoint(eager=True)
    n0, m0, n, m, n2 = _sizes(table)
    clique_parts = [
        table.where(F.col("support") == 0).select(
            _clique2(F.col("src"), F.col("dst")).alias("clique")
        )
    ]
    edges = table.where(F.col("support") > 0)
    rounds = 0
    # localCheckpoint after every batch: stacking batches on raw lineage
    # would grow the logical plan with every round.
    while n2:
        fire = _firings(edges).localCheckpoint(eager=True)
        clique_parts.append(
            fire.select(
                _clique3(F.col("v"), F.col("u"), F.col("w")).alias("clique")
            ).distinct()
        )
        edges = _after_firing(edges, fire).localCheckpoint(eager=True)
        _, _, n, m, n2 = _sizes(edges)
        rounds += 1
    return SparkReductionResult(
        edges=edges.select("src", "dst"),
        # Each part reads a checkpoint: the union is not materialized.
        cliques=reduce(DataFrame.union, clique_parts),
        stats=ReductionStats(n0, m0, n, m),
        # Round 1 is Lemma 4 plus the first batch, if there is one.
        rounds=max(rounds, int(m0 > 0)),
    )
