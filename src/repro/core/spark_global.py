"""Global reduction as a distributed dataflow (paper §4 on Spark).

Each fixpoint round applies up to two batches, each on the snapshot its
predecessor left:

1. **Non-triangle edge batch** (Lemma 4), in round 1 only: support-0 edges
   are independent maximal 2-clique rewrites, and deleting one lowers no
   other edge's support (a common neighbor of ``(u, x)`` that ``(u, v)``
   provides would be a common neighbor of ``u`` and ``v``), so deleting
   all of them at once is sound and leaves no support-0 edge. This
   subsumes the degree-1 rule (Lemma 2): an edge with a degree-1 endpoint
   has no common neighbor. A Lemma 3 firing lowers no support either,
   except that of its ``(u, w)``, which it keeps with support ≥ 1 or
   deletes; so later rounds find no support-0 edge and skip the batch
   (the no-cascade lemma of ``repro.core.global_reduction``).
2. **Degree-2 batch** (Lemma 3), restricted to a *distance-2 independent
   set* of the degree-2 candidates (a candidate fires only if its id is
   below that of every other candidate adjacent to it or sharing a neighbor
   with it): concurrent firings then touch disjoint edge sets and
   cannot invalidate each other's common-neighbor tests, making the batch
   equivalent to some sequential application order. The min-id candidate
   always fires, so rounds make progress; random ids give geometric
   convergence. Every edge left by batch 1 lies in a triangle of surviving
   edges, so a candidate ``v``'s neighbors ``u, w`` are adjacent: each
   firing reports ``{v, u, w}``, deletes ``(v, u)`` and ``(v, w)``, and
   deletes ``(u, w)`` too when ``v`` is their only common neighbor.

Each batch's rewrite is materialized once (``localCheckpoint``); its count,
clique rows and edge deletions all read that checkpoint. The surviving edge
count is tracked, not recounted: support-0 edges are distinct, and the
deletions of distance-2 independent firings are disjoint edges of the
snapshot, so a round removes exactly ``n_nte + 2·n_fire + n_drop_uw`` edges.
The loop stops once no edge remains or a round changes nothing. A converged
run ends at the graph H* of the fixpoint lemma in
``repro.core.global_reduction``: it leaves the same edges and reports the
same cliques as ``global_reduce_local``.

Degree-0 vertices vanish implicitly (edge-table representation; Lemma 1
reports nothing). Cliques are emitted as canonical comma-joined id strings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..gx.graph import degrees, remove_edges, symmetrize, vertices
from ..gx.triangles import non_triangle_edges

_CLIQUE_SCHEMA = T.StructType([T.StructField("clique", T.StringType())])


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
    """Distance-2 independent degree-2 firings ``(v, u, w, drop_uw)``, u < w.

    Assumes every edge lies in a triangle (Lemma 4 ran in round 1, and no
    later firing leaves an edge with support 0).
    """
    cand = degrees(edges).where(F.col("degree") == 2).select("v")
    sym = symmetrize(edges)
    # Incident rows of candidates: exactly two per candidate.
    inc = sym.join(cand.withColumnRenamed("v", "src"), "src", "left_semi").select(
        F.col("src").alias("v"), F.col("dst").alias("nbr")
    )
    # Conflict ids: candidate ids within distance ≤ 2 (shared neighbor).
    one_hop = inc.join(
        cand.withColumnRenamed("v", "nbr"), "nbr", "left_semi"
    ).select("v", F.col("nbr").alias("other"))
    two_hop = (
        inc.join(
            sym.select(F.col("src").alias("nbr"), F.col("dst").alias("other")),
            "nbr",
        )
        .where(F.col("other") != F.col("v"))
        .join(cand.withColumnRenamed("v", "other"), "other", "left_semi")
        .select("v", "other")
    )
    conflict = one_hop.union(two_hop).groupBy("v").agg(F.min("other").alias("min_other"))
    fire = (
        cand.join(conflict, "v", "left")
        .where(F.col("min_other").isNull() | (F.col("v") < F.col("min_other")))
        .select("v")
    )
    pair = (
        inc.join(fire, "v", "left_semi")
        .groupBy("v")
        .agg(F.min("nbr").alias("u"), F.max("nbr").alias("w"))
    )
    # Common neighbors of u and w; v is always one, so no firing is lost.
    n1 = sym.select(F.col("src").alias("u"), F.col("dst").alias("t"))
    n2 = sym.select(F.col("src").alias("w"), F.col("dst").alias("t"))
    return (
        pair.join(n1, "u")
        .join(n2, ["w", "t"])
        .groupBy("v", "u", "w")
        .agg((F.count("*") == 1).alias("drop_uw"))
    )


def global_reduce_spark(
    spark: SparkSession, edges: DataFrame, max_rounds: int = 200
) -> SparkReductionResult:
    """Run global reduction to fixpoint. Returns surviving edges + cliques."""
    edges = edges.localCheckpoint(eager=True)
    n0, deg_sum = degrees(edges).agg(
        F.count("*"), F.coalesce(F.sum("degree"), F.lit(0))
    ).first()
    m = m0 = deg_sum // 2
    clique_parts: list[DataFrame] = []
    rounds = 0
    changed = True
    # localCheckpoint after every batch: the degree-2 plan self-joins the
    # adjacency several times, so stacking batches on raw lineage explodes
    # the logical plan.
    while m and changed and rounds < max_rounds:
        n_nte = 0
        if not rounds:
            nte = non_triangle_edges(edges).localCheckpoint(eager=True)
            n_nte = nte.count()
            if n_nte:
                clique_parts.append(
                    nte.select(_clique2(F.col("src"), F.col("dst")).alias("clique"))
                )
                edges = remove_edges(edges, nte).localCheckpoint(eager=True)
                m -= n_nte
        n_fire = 0
        if m:
            fire = _firings(edges).localCheckpoint(eager=True)
            n_fire, n_drop_uw = fire.agg(
                F.count("*"), F.count(F.when(F.col("drop_uw"), 1))
            ).first()
            if n_fire:
                clique_parts.append(
                    fire.select(_clique3(F.col("v"), F.col("u"), F.col("w")).alias("clique"))
                )
                drops = (
                    fire.select(*_edge("v", "u"))
                    .union(fire.select(*_edge("v", "w")))
                    .union(fire.where("drop_uw").select(*_edge("u", "w")))
                )
                edges = remove_edges(edges, drops).localCheckpoint(eager=True)
                m -= 2 * n_fire + n_drop_uw
        rounds += 1
        changed = bool(n_nte or n_fire)
    return SparkReductionResult(
        edges=edges,
        # Each part reads a batch checkpoint: the union is not materialized.
        cliques=(
            reduce(DataFrame.union, clique_parts)
            if clique_parts
            else spark.createDataFrame([], _CLIQUE_SCHEMA)
        ),
        n_before=n0,
        m_before=m0,
        n_after=vertices(edges).count() if m else 0,
        m_after=m,
        rounds=rounds,
        converged=m == 0 or not changed,
    )
