"""Distributed k-core peeling: core numbers, degeneracy, degeneracy order.

The sequential algorithm removes *one* minimum-degree vertex per step; the
iterative vertex-program formulation removes **all** vertices of residual
degree ≤ k per round, with k = max(k, minimum residual degree):

    A vertex removed in round r has ≤ k neighbors among the vertices
    removed in round r or later, so ordering vertices by ``(round, id)``
    gives every vertex at most λ (the final k) later neighbors — a valid
    degeneracy order. Each time k rises, the residual graph is the k-core,
    and a vertex of residual degree ≤ k is not in the (k+1)-core, so the k
    at removal is the vertex's core number.

The local engine's ``mce.bitgraph.degeneracy_order`` computes the same
order, so both engines solve the same subproblems in the same ranks; on a
graph that fits ``gx.graph.driver_edge_budget``, ``core.spark_rmce`` calls
it instead of this peel. Every round runs in Spark and
``localCheckpoint``s the residual edge and degree tables to truncate their
lineage (standard iterative-Spark hygiene).
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

    ``edges`` is read as given: round 0 reads it twice (its degree table
    and its first residual), so callers pass a materialized table.
    """
    cur = edges
    # One row per residual vertex: a vertex whose last edge is removed stays
    # at degree 0 until its round stamps it.
    deg = degrees(cur).localCheckpoint(eager=True)
    stamp_batches: list[DataFrame] = []
    k = 0
    n, dmin = deg.agg(F.count("*"), F.min("degree")).first()
    while n > 0:
        k = max(k, dmin)
        low = deg.where(F.col("degree") <= k).select("v")
        stamp_batches.append(
            low.select(
                "v",
                F.lit(k).cast("long").alias("core"),
                F.lit(len(stamp_batches)).cast("long").alias("round"),
            )
        )
        cur = remove_vertices(cur, low).localCheckpoint(eager=True)
        deg = (
            deg.where(F.col("degree") > k)
            .select("v")
            .join(degrees(cur), "v", "left")
            .select("v", F.coalesce("degree", F.lit(0)).alias("degree"))
            .localCheckpoint(eager=True)
        )
        n, dmin = deg.agg(F.count("*"), F.min("degree")).first()
    # Each batch filters the degree checkpoint of its round: the union is
    # not materialized again.
    if not stamp_batches:
        return spark.createDataFrame([], _STAMP_SCHEMA), k
    return reduce(DataFrame.union, stamp_batches), k


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
