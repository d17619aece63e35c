"""Triangle listing and edge support (Lemma 4's non-triangle edges are the
support-0 ones) vs the DuckDB oracle and the local substrate."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.spark_global import global_reduce_spark
from repro.graphs.catalog import edges_for
from repro.gx import triangles as triangles_module
from repro.gx.graph import edges_df
from repro.gx.triangles import edge_support, triangles
from repro.mce.bitgraph import LocalGraph
from repro.oracle import assert_equivalent

ORACLE_GRAPHS = ["ca-CondMat", "sc-delaunay_n23", "wiki-Talk"]

# Out-neighbour pairs closed by an arc: a different join from
# ``triangles``' 2-paths, listing the same triangles under any acyclic
# orientation.
_TRIANGLES_SQL = """
SELECT t.src AS task, t.dst AS a, u.dst AS b
FROM arcs t
JOIN arcs u ON u.src = t.src
JOIN arcs c ON c.src = t.dst AND c.dst = u.dst
"""

# Each edge's common neighbors, counted by a join of the adjacency with
# itself rather than by listing triangles.
_SUPPORT_SQL = """
WITH sym AS (
    SELECT src AS u, dst AS w FROM edges
    UNION ALL SELECT dst AS u, src AS w FROM edges
)
SELECT e.src, e.dst, COUNT(s2.u) AS support FROM edges e
JOIN sym s1 ON s1.u = e.src
LEFT JOIN sym s2 ON s2.u = e.dst AND s2.w = s1.w
GROUP BY e.src, e.dst
"""

_NON_TRIANGLE_SQL = """
WITH sym AS (
    SELECT src AS u, dst AS w FROM edges
    UNION ALL SELECT dst AS u, src AS w FROM edges
)
SELECT e.src, e.dst FROM edges e
WHERE NOT EXISTS (
    SELECT 1 FROM sym s1 JOIN sym s2 ON s2.w = s1.w
    WHERE s1.u = e.src AND s2.u = e.dst
)
"""

_TRIANGLE_EDGES_SQL = f"SELECT src, dst FROM edges EXCEPT ({_NON_TRIANGLE_SQL})"


pytestmark = pytest.mark.usefixtures("few_partitions")


def _arcs_by_rank(g: LocalGraph, seed: int = 0) -> pd.DataFrame:
    """Every edge of ``g`` directed from lower to higher rank, the ranks a
    random permutation of the vertices: an orientation unrelated to ids."""
    perm = np.random.default_rng(seed).permutation(g.n).tolist()
    rank = dict(zip(g.adj, perm))
    arcs = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges()]
    return pd.DataFrame(arcs, columns=["src", "dst"])


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_triangles_vs_oracle(spark, name):
    """Each triangle exactly once, under the id orientation (canonical
    ``src < dst``) and under a rank orientation."""
    e = edges_for(name, "unit")
    g = LocalGraph.from_edges(e)
    n_tri = sum(len(g.adj[u] & g.adj[v]) for u, v in g.edges()) // 3
    by_id = edges_df(spark, e)
    by_rank = spark.createDataFrame(_arcs_by_rank(g), "src long, dst long")
    for arcs in (by_id, by_rank):
        tri = triangles(arcs)
        assert_equivalent(tri, _TRIANGLES_SQL, arcs=arcs)
        rows = [(r["task"], r["a"], r["b"]) for r in tri.collect()]
        assert len(rows) == len({frozenset(t) for t in rows}) == n_tri


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_edge_support_vs_oracle(spark, name):
    df = edges_df(spark, edges_for(name, "unit"))
    assert_equivalent(edge_support(df), _SUPPORT_SQL, edges=df)


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_non_triangle_edges_vs_oracle(spark, name):
    df = edges_df(spark, edges_for(name, "unit"))
    support = edge_support(df)
    assert_equivalent(
        support.where(F.col("support") == 0).select("src", "dst"), _NON_TRIANGLE_SQL, edges=df
    )
    assert_equivalent(
        support.where(F.col("support") > 0).select("src", "dst"), _TRIANGLE_EDGES_SQL, edges=df
    )


def test_road_all_edges_non_triangle(spark):
    df = edges_df(spark, edges_for("inf-road-usa", "unit"))
    assert edge_support(df).where(F.col("support") == 0).count() == df.count()


def test_delaunay_no_non_triangle_edges(spark):
    df = edges_df(spark, edges_for("sc-delaunay_n23", "unit"))
    support = edge_support(df)
    assert support.where(F.col("support") == 0).count() == 0
    assert support.where(F.col("support") > 0).count() == df.count()


def test_non_triangle_matches_local(spark):
    e = edges_for("ca-CondMat", "unit")
    g = LocalGraph.from_edges(e)
    expect = {tuple(sorted((u, v))): len(g.adj[u] & g.adj[v]) for u, v in g.edges()}
    rows = edge_support(edges_df(spark, e)).collect()
    got = {(r["src"], r["dst"]): r["support"] for r in rows}
    assert len(rows) == len(got) == g.m
    assert got == expect
    assert 0 < sum(s == 0 for s in got.values()) < g.m


def test_lemma4_lists_triangles_once(spark, monkeypatch):
    # Lemma 4 runs once, before the degree-2 rounds: one listing in all.
    calls = []

    def counting(arcs):
        calls.append(arcs)
        return triangles(arcs)

    monkeypatch.setattr(triangles_module, "triangles", counting)
    r = global_reduce_spark(spark, edges_df(spark, edges_for("wiki-Talk", "unit")))
    assert r.rounds > 1
    assert len(calls) == 1
