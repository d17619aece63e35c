"""Distributed k-core peeling: core numbers, degeneracy, degeneracy order.

The sequential algorithm removes *one* minimum-degree vertex per step; the
iterative vertex-program formulation removes **all** vertices of residual
degree ≤ k per round (stages k = 0, 1, 2, …), which preserves validity:

    A vertex removed in a batch at stage k has ≤ k neighbors among vertices
    removed in the same round or later, so ordering vertices by removal
    stamp ``(stage, round, id)`` gives every vertex at most λ later
    neighbors — a valid degeneracy order — and the stage at removal is
    exactly the vertex's core number (the graph surviving stage k is the
    (k+1)-core).

The local engine's ``mce.bitgraph.degeneracy_order`` computes the same
order, so both engines solve the same subproblems in the same ranks.

Each round is a handful of DataFrame ops; ``localCheckpoint`` truncates the
growing lineage (standard iterative-Spark hygiene).
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .graph import degrees, remove_vertices

_STAMP_SCHEMA = T.StructType(
    [
        T.StructField("v", T.LongType()),
        T.StructField("core", T.LongType()),
        T.StructField("round", T.LongType()),
    ]
)


def peel(spark: SparkSession, edges: DataFrame) -> tuple[DataFrame, int]:
    """Batch-peel ``edges``; returns ``(stamps, degeneracy)``.

    ``stamps`` has one row per vertex: ``(v, core, round)`` where ``core``
    is the k-core number and ``round`` the global removal round. Isolated
    vertices never appear in the edge table and so are absent (they play no
    role in MCE under the ≥2-clique convention).
    """
    from .graph import vertices

    cur = edges.localCheckpoint(eager=True)
    # Track the vertex set explicitly: a vertex whose last edge is removed
    # becomes invisible in the edge table but still needs a removal stamp.
    verts = vertices(cur).localCheckpoint(eager=True)
    stamp_batches: list[DataFrame] = []
    k = 0
    rnd = 0
    lam = 0
    n = verts.count()
    while n > 0:
        deg = degrees(cur)
        low = (
            verts.join(deg, "v", "left")
            .select("v", F.coalesce("degree", F.lit(0)).alias("degree"))
            .where(F.col("degree") <= k)
            .select("v")
            .localCheckpoint(eager=True)  # consumed by count/stamp/remove
        )
        n_low = low.count()
        if n_low == 0:
            k += 1
            continue
        lam = max(lam, k)
        stamp_batches.append(
            low.select(
                "v",
                F.lit(k).cast("long").alias("core"),
                F.lit(rnd).cast("long").alias("round"),
            )
        )
        rnd += 1
        cur = remove_vertices(cur, low).localCheckpoint(eager=True)
        verts = verts.join(low, "v", "left_anti")
        if rnd % 4 == 0:  # bound the anti-join lineage without a
            verts = verts.localCheckpoint(eager=True)  # checkpoint per round
        n -= n_low
    # Each batch reads the checkpoint of its round: the union is not
    # materialized again.
    if not stamp_batches:
        return spark.createDataFrame([], _STAMP_SCHEMA), lam
    return reduce(DataFrame.union, stamp_batches), lam


def degeneracy_order_df(stamps: DataFrame) -> DataFrame:
    """Attach the degeneracy-order rank: ``(v, core, round, rank)``.

    Rank is the row number in ``(round, v)`` order. ``core`` is not part
    of the key: removal is monotone in ``round``, so ordering by round
    already orders by core. Ties inside a round are ordered by id, which
    the batch-peeling argument allows.
    """
    from pyspark.sql import Window

    w = Window.orderBy("round", "v")
    return stamps.withColumn("rank", F.row_number().over(w) - F.lit(1))


def degeneracy_order_spark(
    spark: SparkSession, edges: DataFrame
) -> tuple[DataFrame, int]:
    """Convenience: peel + rank. Returns ``(order_df, degeneracy)``."""
    stamps, lam = peel(spark, edges)
    return degeneracy_order_df(stamps), lam
