"""Triangle-support joins — the edge-centric substrate for global reduction.

An edge's *support* is its number of triangle witnesses (common neighbors of
its endpoints). The classic DataFrame formulation joins the symmetrized
adjacency twice: for canonical edge (u, v), count w with (u, w) and (v, w).
Edges of support 0 are the paper's *non-triangle edges* (Definition 8).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import symmetrize


def edge_support(edges: DataFrame) -> DataFrame:
    """Per canonical edge: ``(src, dst, support)`` with support ≥ 0."""
    sym = symmetrize(edges)
    n1 = sym.select(F.col("src").alias("u"), F.col("dst").alias("w"))
    n2 = sym.select(F.col("src").alias("v"), F.col("dst").alias("w"))
    tri = (
        edges.join(n1, edges.src == n1.u)
        .join(n2, (edges.dst == n2.v) & (n1.w == n2.w))
        .groupBy("src", "dst")
        .agg(F.count("*").alias("support"))
    )
    return (
        edges.join(tri, ["src", "dst"], "left")
        .select("src", "dst", F.coalesce("support", F.lit(0)).alias("support"))
    )


def non_triangle_edges(edges: DataFrame) -> DataFrame:
    """Edges whose endpoints share no neighbor (maximal 2-cliques, Lemma 4)."""
    return edge_support(edges).where(F.col("support") == 0).select("src", "dst")
