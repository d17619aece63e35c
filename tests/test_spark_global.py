"""Distributed global reduction: completeness decomposition + Fig-8 shapes."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.global_reduction import global_reduce_local
from repro.core.spark_global import global_reduce_spark
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df, vertices
from repro.mce.bitgraph import LocalGraph
from repro.mce.reference import is_maximal_clique, maximal_cliques_bruteforce
from tests.conftest import KNOWN_GRAPHS

GRAPHS = ["ca-CondMat", "inf-road-usa", "sc-delaunay_n23", "wiki-Talk"]
# Adversarial small graphs, fed through the same decomposition checks.
SMALL = {**KNOWN_GRAPHS, "empty": [], "single_edge": [(0, 1)]}
# A run cut short of its fixpoint must still be an exact decomposition.
CAPPED = "wiki-Talk/max_rounds=1"
ALL = GRAPHS + list(SMALL) + [CAPPED]


@pytest.fixture(autouse=True)
def _few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


@pytest.fixture(scope="module")
def reduced(spark):
    out = {}
    for name in ALL:
        if name in SMALL:
            e = np.array(SMALL[name], dtype=np.int64).reshape(-1, 2)
        else:
            e = edges_for(name.split("/")[0], "unit")
        kw = {"max_rounds": 1} if name == CAPPED else {}
        out[name] = (e, global_reduce_spark(spark, edges_df(spark, e), **kw))
    return out


@pytest.mark.parametrize("name", ALL)
def test_decomposition_preserves_cliques(reduced, name):
    e, r = reduced[name]
    g = LocalGraph.from_edges(e)
    # The surviving edge count is tracked arithmetically, not counted.
    assert (r.n_before, r.m_before) == (g.n, g.m)
    assert r.m_after == r.edges.count()
    assert r.n_after == vertices(r.edges).count()
    truth = maximal_cliques_bruteforce(g)
    surviving = LocalGraph.from_edges(
        [(row["src"], row["dst"]) for row in r.edges.collect()]
        or [(0, 0)]  # from_edges drops self-loops -> empty graph
    )
    rest = maximal_cliques_bruteforce(surviving)
    rep = {
        tuple(int(t) for t in row["clique"].split(","))
        for row in r.cliques.collect()
    }
    assert rep | rest == truth
    assert not (rep & rest)
    for c in rep:
        assert is_maximal_clique(g, c)


@pytest.mark.parametrize("name", ALL)
def test_no_duplicate_reports(reduced, name):
    _, r = reduced[name]
    assert r.cliques.count() == r.cliques.distinct().count()


def test_road_fully_reduced(reduced):
    _, r = reduced["inf-road-usa"]
    assert r.vertex_ratio == 1.0 and r.edge_ratio == 1.0
    assert r.edges.count() == 0
    assert r.rounds == 1


def test_round_cap_reported(reduced):
    assert not reduced[CAPPED][1].converged
    assert all(r.converged for name, (_, r) in reduced.items() if name != CAPPED)


def test_delaunay_barely_reduced(reduced):
    _, r = reduced["sc-delaunay_n23"]
    assert r.vertex_ratio < 0.15 and r.edge_ratio < 0.15


def test_star_heavily_reduced(reduced):
    _, r = reduced["wiki-Talk"]
    assert r.vertex_ratio > 0.4


@pytest.mark.parametrize("name", GRAPHS)
def test_ratios_close_to_local(reduced, name):
    # Batch order differs from the sequential queue, but the fixpoints land
    # in the same place for these families.
    e, r = reduced[name]
    _, _, st = global_reduce_local(LocalGraph.from_edges(e))
    assert abs(r.vertex_ratio - st.vertex_ratio) < 0.05
    assert abs(r.edge_ratio - st.edge_ratio) < 0.05
