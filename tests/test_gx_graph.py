"""GraphX-lite substrate vs the DuckDB oracle (query-shaped results)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.catalog import edges_for
from repro.gx.graph import (
    canonicalize,
    degrees,
    edges_df,
    remove_vertices,
    symmetrize,
)
from repro.oracle import assert_equivalent

GRAPHS = ["ca-CondMat", "inf-road-usa", "wiki-Talk"]


pytestmark = pytest.mark.usefixtures("few_partitions")


def _pdf(e: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]})


@pytest.mark.parametrize("name", GRAPHS)
def test_degrees_vs_oracle(spark, name):
    e = edges_for(name, "unit")
    df = edges_df(spark, e)
    assert_equivalent(
        degrees(df),
        """
        SELECT v, COUNT(*) AS degree FROM (
            SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
        ) GROUP BY v
        """,
        edges=_pdf(e),
    )


def test_canonicalize_vs_oracle(spark):
    raw = pd.DataFrame({"src": [1, 2, 2, 3, 4, 4], "dst": [2, 1, 3, 2, 4, 5]})
    got = canonicalize(spark.createDataFrame(raw))
    assert_equivalent(
        got,
        """
        SELECT DISTINCT LEAST(src, dst) AS src, GREATEST(src, dst) AS dst
        FROM raw WHERE src <> dst
        """,
        raw=raw,
    )


def test_symmetrize_doubles(spark):
    e = edges_for("ca-CondMat", "unit")
    df = edges_df(spark, e)
    assert symmetrize(df).count() == 2 * df.count()


def test_remove_vertices_vs_oracle(spark):
    e = edges_for("inf-road-usa", "unit")
    drop_ids = sorted({int(x) for x in e[:, 0]})[:25]
    df = edges_df(spark, e)
    drop = spark.createDataFrame(pd.DataFrame({"v": drop_ids}))
    assert_equivalent(
        remove_vertices(df, drop),
        "SELECT src, dst FROM edges WHERE src NOT IN (SELECT v FROM drop) AND dst NOT IN (SELECT v FROM drop)",
        edges=_pdf(e),
        drop=pd.DataFrame({"v": drop_ids}),
    )


def test_degrees_max_matches_local(spark):
    from repro.mce.bitgraph import LocalGraph

    e = edges_for("wiki-Talk", "unit")
    got = degrees(edges_df(spark, e)).agg(F.max("degree")).collect()[0][0]
    assert got == LocalGraph.from_edges(e).max_degree()
