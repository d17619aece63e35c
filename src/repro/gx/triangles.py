"""Triangle listing — the one triangle primitive of the Spark engine.

``triangles`` lists over an acyclic orientation of the graph, as the
forward algorithm does (Schank & Wagner 2005; Chiba & Nishizeki 1985):
every triangle has exactly one vertex with arcs to the other two, and
exactly one arc between those two, so it is listed exactly once. It joins
each 2-path ``task → a → b`` with its closing arc ``task → b``. A vertex
``a`` opens |N⁻(a)|·|N⁺(a)| 2-paths, at most λ·deg(a) in a degeneracy
orientation, and none if it has no in-arc or no out-arc.

Global reduction passes the id orientation of the canonical edge table
(``src → dst``) to count each edge's *support*, its number of triangles
(the paper's *non-triangle edges*, Definition 8 and Lemma 4, are the edges
of support 0); the search stage passes the degeneracy-rank orientation to
build each root's subproblem.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def triangles(arcs: DataFrame) -> DataFrame:
    """Each triangle once as ``(task, a, b)``, with arcs ``task → a``,
    ``task → b`` and ``a → b`` in ``arcs``: an acyclic ``(src, dst)``
    orientation of the graph's edges."""
    out1 = arcs.select(F.col("src").alias("task"), F.col("dst").alias("a"))
    out2 = arcs.select(F.col("src").alias("a"), F.col("dst").alias("b"))
    closing = arcs.select(F.col("src").alias("task"), F.col("dst").alias("b"))
    return out1.join(out2, "a").join(closing, ["task", "b"], "left_semi").select(
        "task", "a", "b"
    )


def edge_support(edges: DataFrame) -> DataFrame:
    """Canonical edges as ``(src, dst, support)``: ``support`` is the
    edge's number of triangles, its endpoints' common neighbors; 0 exactly
    for the maximal 2-cliques of Lemma 4.

    Under the id orientation a triangle ``(task, a, b)`` has task < a < b,
    so its three sides are canonical edges of ``edges``: one aggregate over
    the edges and the sides counts every edge exactly once. The sides are
    exploded from one pass over the listing, not a union of three selects,
    which would run the listing's joins three times."""
    side = F.explode(
        F.array(
            F.struct(F.col("task").alias("src"), F.col("a").alias("dst")),
            F.struct(F.col("task").alias("src"), F.col("b").alias("dst")),
            F.struct(F.col("a").alias("src"), F.col("b").alias("dst")),
        )
    ).alias("side")
    sides = triangles(edges).select(side).select("side.src", "side.dst", F.lit(1))
    return (
        edges.select("src", "dst", F.lit(0))
        .union(sides)
        .toDF("src", "dst", "support")
        .groupBy("src", "dst")
        .agg(F.sum("support").alias("support"))
    )
