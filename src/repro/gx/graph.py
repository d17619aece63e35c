"""GraphX-lite: an undirected simple graph as Spark DataFrames.

PySpark ships no GraphX binding, so this package provides the subset the
reproduction needs, DataFrame-native so Catalyst plans every step:

- canonical edge table ``(src < dst)``, deduplicated, loop-free,
- symmetrized view for neighborhood joins,
- degree computation via ``groupBy``,
- induced subgraphs via semi-joins.

All columns are ``long``. Vertex ids are arbitrary (not required dense).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def edges_df(spark: SparkSession, edges: np.ndarray) -> DataFrame:
    """Create a canonical edge DataFrame from an ``(m, 2)`` ndarray."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pdf = pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]})
    # Explicit schema: an empty array has no rows to infer one from.
    return canonicalize(spark.createDataFrame(pdf, "src long, dst long"))


def canonicalize(df: DataFrame) -> DataFrame:
    """Normalize an arbitrary edge DataFrame: src < dst, distinct, no loops."""
    lo = F.least("src", "dst").alias("src")
    hi = F.greatest("src", "dst").alias("dst")
    return (
        df.select(lo, hi)
        .where(F.col("src") != F.col("dst"))
        .distinct()
    )


def symmetrize(edges: DataFrame) -> DataFrame:
    """Both orientations of every canonical edge — the adjacency relation."""
    return edges.select("src", "dst").union(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex degree: ``(v, degree)``. Vertices with no edges absent."""
    return (
        symmetrize(edges)
        .groupBy(F.col("src").alias("v"))
        .agg(F.count("*").alias("degree"))
    )


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct endpoint set ``(v)`` of the edge table."""
    return (
        edges.select(F.col("src").alias("v"))
        .union(edges.select(F.col("dst").alias("v")))
        .distinct()
    )


def induced_subgraph(edges: DataFrame, keep: DataFrame) -> DataFrame:
    """Edges with *both* endpoints in ``keep`` (a ``(v)`` DataFrame)."""
    return (
        edges.join(keep.withColumnRenamed("v", "src"), "src", "left_semi")
        .join(keep.withColumnRenamed("v", "dst"), "dst", "left_semi")
        .select("src", "dst")
    )


def remove_vertices(edges: DataFrame, drop: DataFrame) -> DataFrame:
    """Edges with *neither* endpoint in ``drop`` (a ``(v)`` DataFrame)."""
    return (
        edges.join(drop.withColumnRenamed("v", "src"), "src", "left_anti")
        .join(drop.withColumnRenamed("v", "dst"), "dst", "left_anti")
        .select("src", "dst")
    )


def remove_edges(edges: DataFrame, drop: DataFrame) -> DataFrame:
    """Canonical-edge anti-join: edges minus ``drop`` (same canonical form)."""
    return edges.join(drop.select("src", "dst"), ["src", "dst"], "left_anti")
