"""Distributed batch peeling vs the local engine's batch peeling."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df
from repro.gx.kcore import degeneracy_order_df, peel
from repro.mce.bitgraph import LocalGraph, degeneracy_order

GRAPHS = ["ca-CondMat", "inf-road-usa", "sc-delaunay_n23"]


@pytest.fixture(autouse=True)
def _few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


@pytest.fixture(scope="module")
def peeled(spark):
    out = {}
    for name in GRAPHS:
        e = edges_for(name, "unit")
        stamps, lam = peel(spark, edges_df(spark, e))
        out[name] = (e, stamps, lam)
    return out


@pytest.mark.parametrize("name", GRAPHS)
def test_degeneracy_matches_local(peeled, name):
    e, _stamps, lam = peeled[name]
    assert lam == degeneracy_order(LocalGraph.from_edges(e))[2]


@pytest.mark.parametrize("name", GRAPHS)
def test_core_numbers_match_local(peeled, name):
    e, stamps, _lam = peeled[name]
    _, core_local, _ = degeneracy_order(LocalGraph.from_edges(e))
    got = {r["v"]: r["core"] for r in stamps.collect()}
    assert set(got) == set(core_local)
    assert got == core_local


@pytest.mark.parametrize("name", GRAPHS)
def test_every_vertex_stamped_once(peeled, name):
    e, stamps, _ = peeled[name]
    g = LocalGraph.from_edges(e)
    assert stamps.count() == g.n
    assert stamps.select("v").distinct().count() == g.n


@pytest.mark.parametrize("name", GRAPHS)
def test_order_validity(peeled, name):
    e, stamps, lam = peeled[name]
    g = LocalGraph.from_edges(e)
    order_df = degeneracy_order_df(stamps)
    rank = {r["v"]: r["rank"] for r in order_df.collect()}
    worst = 0
    for v in g.adj:
        later = sum(1 for u in g.adj[v] if rank[u] > rank[v])
        worst = max(worst, later)
    assert worst <= lam, "distributed order exceeds λ later neighbors"
    # Both engines rank by (round, id): the local order is the same order.
    order, _, _ = degeneracy_order(g)
    assert rank == {v: i for i, v in enumerate(order)}


def test_rank_is_dense_permutation(peeled, spark):
    _, stamps, _ = peeled["ca-CondMat"]
    order_df = degeneracy_order_df(stamps)
    n = order_df.count()
    lo, hi = order_df.agg(F.min("rank"), F.max("rank")).collect()[0]
    assert (lo, hi) == (0, n - 1)
    assert order_df.select("rank").distinct().count() == n
