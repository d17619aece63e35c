"""Global reduction as a distributed dataflow (paper §4 on Spark).

The schedule is the local engine's (Algorithm 6, then Algorithm 5), in
batches:

1. **Non-triangle edges** (Lemma 4), once, before the loop: support-0
   edges are independent maximal 2-clique rewrites, and deleting one
   lowers no other edge's support (a common neighbor of ``(u, x)`` that
   ``(u, v)`` provides would be a common neighbor of ``u`` and ``v``), so
   deleting all of them at once is sound and leaves no support-0 edge.
   This subsumes the degree-1 rule (Lemma 2): an edge with a degree-1
   endpoint has no common neighbor. A Lemma 3 firing lowers no support
   either, except that of its ``(u, w)``, which it keeps with support ≥ 1
   or deletes; so no later round has a support-0 edge to delete (the
   no-cascade lemma of ``repro.core.global_reduction``).
2. **Degree-2 batch** (Lemma 3), once per round: *every* degree-2 vertex
   ``v`` fires, with its neighbor pair ``(u, w)``. Every edge left by
   Lemma 4 lies in a triangle of surviving edges, so ``u`` and ``w`` are
   adjacent: the firing reports ``{v, u, w}``, deletes ``(v, u)`` and
   ``(v, w)``, and deletes ``(u, w)`` iff every common neighbor of ``u``
   and ``w`` fires in this round (the number of firings with pair
   ``(u, w)`` equals ``|N(u) ∩ N(w)|``). A triangle with several degree-2
   members is reported by each of them, so the round's clique rows are
   deduplicated.

Round 1 is Lemma 4 plus the first degree-2 batch, so a graph that Lemma 4
alone reduces to H* takes one round, and ``max_rounds`` caps the batches.

The batch is sound. After Lemma 4 every degree is 0 or at least 2, and
firing the round's degree-2 set ``D`` one vertex at a time, in any order,
does what the batch does. If a member ``x`` of ``D`` loses an edge before
its turn, a ``D``-neighbor ``y`` of ``x`` fired first, and that firing
also deleted ``x``'s other edge, because ``y`` was the only possible common
neighbor of its pair; ``x`` is left isolated with its triangle reported.
And ``(u, w)`` loses its last common neighbor exactly when all of its
common neighbors are in ``D``. So by the fixpoint lemma of
``repro.core.global_reduction`` a converged run ends at its graph H*: it
leaves the same edges and reports the same cliques as
``global_reduce_local``. No triangle is reported in two rounds, since the
round that reports it deletes one of its vertices.

Lemma 4 is one flagged pass: ``gx.triangles.flag_triangle_edges`` marks
each input edge with whether it lies in a triangle, and that table is
materialized once (``localCheckpoint``); nothing else reads the input, so
the input is not materialized on its own. Its 2-cliques (``~tri``), its
residual (``tri``) and one aggregate over each vertex's full and
triangle-edge degree (the input's vertices and edges, and the residual's
vertices, edges and degree-2 vertices) all read that checkpoint; there is
no separate count or edge deletion. Each degree-2 batch's firing table and
the edge table it leaves are materialized once; its clique rows and edge
deletions read the firing checkpoint, and one aggregate counts the new
residual. Once Lemma 4 has run, every edge lies in a triangle, so a
residual with no degree-2 vertex has every degree ≥ 3: it is H*, and the
loop stops there, as it does once no edge remains. A degree-2 vertex
always fires, so a batch needs no count of its own.

Degree-0 vertices vanish implicitly (edge-table representation; Lemma 1
reports nothing). Cliques are emitted as canonical comma-joined id strings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..gx.graph import remove_edges, symmetrize
from ..gx.triangles import flag_triangle_edges


def _edge(a: str, b: str) -> list:
    return [F.least(a, b).alias("src"), F.greatest(a, b).alias("dst")]


def _clique2(a, b):
    return F.concat_ws(",", F.least(a, b).cast("string"), F.greatest(a, b).cast("string"))


def _clique3(a, b, c):
    arr = F.array_sort(F.array(a.cast("long"), b.cast("long"), c.cast("long")))
    return F.array_join(F.transform(arr, lambda x: x.cast("string")), ",")


@dataclass
class SparkReductionResult:
    """Outcome of distributed global reduction."""

    edges: DataFrame  # surviving canonical edges
    cliques: DataFrame  # (clique: string) reported by the reduction
    n_before: int
    m_before: int
    n_after: int
    m_after: int
    rounds: int
    converged: bool  # False: stopped at max_rounds, short of the fixpoint

    @property
    def vertex_ratio(self) -> float:
        return 1.0 - self.n_after / self.n_before if self.n_before else 0.0

    @property
    def edge_ratio(self) -> float:
        return 1.0 - self.m_after / self.m_before if self.m_before else 0.0


def _firings(edges: DataFrame) -> DataFrame:
    """Every degree-2 vertex's firing ``(v, u, w, drop_uw)``, u < w.

    Assumes every edge lies in a triangle (Lemma 4 ran first, and no
    firing leaves an edge with support 0).
    """
    sym = symmetrize(edges)
    pair = (
        sym.groupBy(F.col("src").alias("v"))
        .agg(F.count("*").alias("degree"), F.min("dst").alias("u"), F.max("dst").alias("w"))
        .where(F.col("degree") == 2)
        .drop("degree")
    )
    # Common neighbors of each distinct pair; its firing vertices are among them.
    n1 = sym.select(F.col("src").alias("u"), F.col("dst").alias("t"))
    n2 = sym.select(F.col("src").alias("w"), F.col("dst").alias("t"))
    drop = (
        pair.groupBy("u", "w")
        .agg(F.count("*").alias("n_fire"))
        .join(n1, "u")
        .join(n2, ["w", "t"])
        .groupBy("u", "w", "n_fire")
        .agg((F.count("*") == F.col("n_fire")).alias("drop_uw"))
    )
    return pair.join(drop, ["u", "w"]).select("v", "u", "w", "drop_uw")


def _sizes(flagged: DataFrame) -> tuple[int, int, int, int, int]:
    """Vertices and edges of ``flagged`` ``(src, dst, tri)``, then the
    vertices, edges and degree-2 vertices of its ``tri`` edges, in one
    aggregate over each vertex's full and ``tri`` degree."""
    ends = flagged.select(F.col("src").alias("v"), "tri").union(
        flagged.select(F.col("dst").alias("v"), "tri")
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


def global_reduce_spark(
    spark: SparkSession, edges: DataFrame, max_rounds: int = 200
) -> SparkReductionResult:
    """Run global reduction to fixpoint. Returns surviving edges + cliques.

    Round 1 is Lemma 4 plus the first degree-2 batch; ``max_rounds`` ≥ 1.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1: Lemma 4 is round 1")
    # Only the flagged pass reads the input, so the input is not
    # materialized on its own.
    flagged = flag_triangle_edges(edges).localCheckpoint(eager=True)
    n0, m0, n, m, n2 = _sizes(flagged)
    clique_parts = [
        flagged.where(~F.col("tri")).select(_clique2(F.col("src"), F.col("dst")).alias("clique"))
    ]
    edges = flagged.where("tri").select("src", "dst")
    rounds = 0
    # localCheckpoint after every batch: the degree-2 plan self-joins the
    # adjacency several times, so stacking batches on raw lineage explodes
    # the logical plan.
    while m and n2 and rounds < max_rounds:
        fire = _firings(edges).localCheckpoint(eager=True)
        clique_parts.append(
            fire.select(
                _clique3(F.col("v"), F.col("u"), F.col("w")).alias("clique")
            ).distinct()
        )
        drops = (
            fire.select(*_edge("v", "u"))
            .union(fire.select(*_edge("v", "w")))
            .union(fire.where("drop_uw").select(*_edge("u", "w")))
        )
        edges = remove_edges(edges, drops).localCheckpoint(eager=True)
        _, _, n, m, n2 = _sizes(edges.withColumn("tri", F.lit(True)))
        rounds += 1
    return SparkReductionResult(
        edges=edges,
        # Each part reads a checkpoint: the union is not materialized.
        cliques=reduce(DataFrame.union, clique_parts),
        n_before=n0,
        m_before=m0,
        n_after=n,
        m_after=m,
        # Round 1 is Lemma 4 plus the first batch, if there is one.
        rounds=max(rounds, int(m0 > 0)),
        converged=not (m and n2),
    )
