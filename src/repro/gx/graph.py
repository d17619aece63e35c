"""GraphX-lite: an undirected simple graph as Spark DataFrames.

PySpark ships no GraphX binding, so this package provides the subset the
reproduction needs, DataFrame-native so Catalyst plans every step:

- canonical edge table ``(src < dst)``, deduplicated, loop-free,
- symmetrized view for neighborhood joins,
- degree computation via ``groupBy``,
- vertex deletion via anti-joins,
- the driver hand-off: the most edges the pipeline collects to the driver
  (``driver_edge_budget``), and Arrow transfers both ways.

All columns are ``long``. Vertex ids are arbitrary (not required dense).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..mce.bitgraph import LocalGraph

# Peak driver bytes per collected edge of the driver hand-off: the Arrow
# table, the ``LocalGraph`` adjacency sets, the local pass's working copy
# and the table handed back. tracemalloc plus Arrow's pool read at most
# 385 on the four largest bench analogs (global reduction; the peel 241).
_EDGE_BYTES = 400
# The hand-off may fill this fraction of ``spark.driver.memory``.
_DRIVER_SHARE = 1 / 8
_UNITS = {"k": 10, "m": 20, "g": 30, "t": 40, "p": 50}


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


def remove_vertices(edges: DataFrame, drop: DataFrame) -> DataFrame:
    """Edges with *neither* endpoint in ``drop`` (a ``(v)`` DataFrame),
    with every column of ``edges``."""
    return (
        edges.join(drop.withColumnRenamed("v", "src"), "src", "left_anti")
        .join(drop.withColumnRenamed("v", "dst"), "dst", "left_anti")
        .select(*edges.columns)
    )


def driver_edge_budget(spark: SparkSession) -> int:
    """The most edges the pipeline collects to run a stage on the driver:
    what ``_EDGE_BYTES`` per edge fits in ``_DRIVER_SHARE`` of
    ``spark.driver.memory`` (Spark's default 1g when unset; a bare number
    is MiB, as Spark reads it)."""
    raw = spark.conf.get("spark.driver.memory", "1g").strip().lower().removesuffix("b")
    shift = _UNITS.get(raw[-1:])
    size = int(raw[:-1]) << shift if shift is not None else int(raw) << 20
    return int(size * _DRIVER_SHARE) // _EDGE_BYTES


def collect_graph(edges: DataFrame) -> LocalGraph:
    """The canonical edge table ``edges`` as a driver ``LocalGraph``,
    collected through Arrow."""
    adj: dict[int, set[int]] = {}
    t = edges.select("src", "dst").toArrow()
    for u, w in zip(t["src"].to_pylist(), t["dst"].to_pylist()):
        adj.setdefault(u, set()).add(w)
        adj.setdefault(w, set()).add(u)
    return LocalGraph(adj)


def arrow_df(spark: SparkSession, **columns: pa.Array) -> DataFrame:
    """Hand driver columns back to Spark as one DataFrame.

    ``createDataFrame`` of a ``pyarrow.Table`` takes the Arrow path whether
    or not ``spark.sql.execution.arrow.pyspark.enabled`` is set; a pandas
    frame without that setting goes through a Python RDD, whose first read
    costs hundreds of milliseconds more."""
    return spark.createDataFrame(pa.table(columns))
