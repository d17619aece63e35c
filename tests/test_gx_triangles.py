"""Triangle-support joins vs the DuckDB oracle and the local substrate."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df
from repro.gx.triangles import edge_support, non_triangle_edges
from repro.mce.bitgraph import LocalGraph
from repro.oracle import assert_equivalent

_SUPPORT_SQL = """
WITH sym AS (
    SELECT src AS u, dst AS w FROM edges
    UNION ALL SELECT dst AS u, src AS w FROM edges
),
tri AS (
    SELECT e.src, e.dst, COUNT(*) AS c
    FROM edges e
    JOIN sym s1 ON s1.u = e.src
    JOIN sym s2 ON s2.u = e.dst AND s2.w = s1.w
    GROUP BY e.src, e.dst
)
SELECT e.src, e.dst, COALESCE(t.c, 0) AS support
FROM edges e LEFT JOIN tri t ON t.src = e.src AND t.dst = e.dst
"""


@pytest.fixture(autouse=True)
def _few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


def _pdf(e: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]})


@pytest.mark.parametrize("name", ["ca-CondMat", "sc-delaunay_n23", "wiki-Talk"])
def test_edge_support_vs_oracle(spark, name):
    e = edges_for(name, "unit")
    assert_equivalent(edge_support(edges_df(spark, e)), _SUPPORT_SQL, edges=_pdf(e))


def test_road_all_edges_non_triangle(spark):
    e = edges_for("inf-road-usa", "unit")
    df = edges_df(spark, e)
    assert non_triangle_edges(df).count() == df.count()


def test_delaunay_no_non_triangle_edges(spark):
    e = edges_for("sc-delaunay_n23", "unit")
    assert non_triangle_edges(edges_df(spark, e)).count() == 0


def test_non_triangle_matches_local(spark):
    e = edges_for("ca-CondMat", "unit")
    g = LocalGraph.from_edges(e)
    expect = {
        tuple(sorted((u, v)))
        for u, v in g.edges()
        if not (g.adj[u] & g.adj[v])
    }
    got = {(r["src"], r["dst"]) for r in non_triangle_edges(edges_df(spark, e)).collect()}
    assert got == expect
