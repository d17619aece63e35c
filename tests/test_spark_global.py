"""Distributed global reduction: completeness decomposition + Fig-8 shapes."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.global_reduction import global_reduce_local
from repro.core.spark_global import global_reduce_spark, read_cliques
from repro.graphs.catalog import edges_for
from repro.gx.graph import degrees, edges_df
from repro.mce.bitgraph import LocalGraph
from repro.mce.reference import is_maximal_clique, maximal_cliques_bruteforce
from tests.conftest import KNOWN_GRAPHS, assert_reduction_fixpoint

GRAPHS = ["ca-CondMat", "inf-road-usa", "sc-delaunay_n23", "wiki-Talk"]
# Adversarial small graphs, fed through the same decomposition checks.
# book6 and k4_fan6 give six degree-2 vertices one neighbor pair (0, 1);
# (0, 1) is dropped only when no other common neighbor is left. strip12 is
# a triangle strip, edges (i, i+1) and (i, i+2): each round fires only its
# two ends, so its rounds grow with its length.
SMALL = {
    **KNOWN_GRAPHS,
    "empty": [],
    "single_edge": [(0, 1)],
    "book6": [(0, 1)] + [(a, p) for p in range(2, 8) for a in (0, 1)],
    "k4_fan6": [(i, j) for i in range(4) for j in range(i + 1, 4)]
    + [(a, p) for p in range(4, 10) for a in (0, 1)],
    "strip12": [(i, i + 1) for i in range(11)] + [(i, i + 2) for i in range(10)],
}
ALL = GRAPHS + list(SMALL)


pytestmark = pytest.mark.usefixtures("few_partitions")


@pytest.fixture(scope="module")
def reduced(spark):
    out = {}
    for name in ALL:
        if name in SMALL:
            e = np.array(SMALL[name], dtype=np.int64).reshape(-1, 2)
        else:
            e = edges_for(name, "unit")
        out[name] = (e, global_reduce_spark(spark, edges_df(spark, e)))
    return out


@pytest.mark.parametrize("name", ALL)
def test_decomposition_preserves_cliques(reduced, name):
    e, r = reduced[name]
    g = LocalGraph.from_edges(e)
    # The reported sizes must match a recount of the surviving edge table.
    assert (r.stats.n_before, r.stats.m_before) == (g.n, g.m)
    assert r.stats.m_after == r.edges.count()
    assert r.stats.n_after == degrees(r.edges).count()
    truth = maximal_cliques_bruteforce(g)
    surviving = LocalGraph.from_edges(
        [(row["src"], row["dst"]) for row in r.edges.collect()]
        or [(0, 0)]  # from_edges drops self-loops -> empty graph
    )
    rest = maximal_cliques_bruteforce(surviving)
    rep = read_cliques(r.cliques)
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
    assert r.stats.vertex_ratio == 1.0 and r.stats.edge_ratio == 1.0
    assert r.edges.count() == 0
    assert r.rounds == 1


def test_shared_pair_fires_in_one_round(reduced):
    # Degree-2 vertices sharing a pair fire together, not one per round.
    assert reduced["book6"][1].rounds == 1
    assert reduced["k4_fan6"][1].rounds == 1


def test_strip_runs_until_fixpoint(reduced):
    # Each round fires the strip's two ends; in round 5 both ends have
    # pair (5, 6), whose support falls to 0, so no edge is left.
    _, r = reduced["strip12"]
    assert r.rounds == 5
    assert r.stats.m_after == r.stats.n_after == 0 and r.edges.count() == 0
    assert r.cliques.count() == 10


def test_converged_runs_reach_fixpoint(reduced):
    # Lemma 4 runs in round 1 only; every run still ends exactly at H*.
    for name, (e, r) in reduced.items():
        edges = [(row["src"], row["dst"]) for row in r.edges.collect()]
        assert_reduction_fixpoint(LocalGraph.from_edges(edges), LocalGraph.from_edges(e))


def test_delaunay_barely_reduced(reduced):
    _, r = reduced["sc-delaunay_n23"]
    assert r.stats.vertex_ratio < 0.15 and r.stats.edge_ratio < 0.15


def test_star_heavily_reduced(reduced):
    _, r = reduced["wiki-Talk"]
    assert r.stats.vertex_ratio > 0.4


@pytest.mark.parametrize("name", GRAPHS + list(SMALL))
def test_ratios_close_to_local(reduced, name):
    # Batch order differs from the sequential queue, but every order of the
    # rules ends at H* (the fixpoint lemma): residuals, reported cliques and
    # all four sizes are equal exactly.
    e, r = reduced[name]
    local, pre, st = global_reduce_local(LocalGraph.from_edges(e))
    assert {(row["src"], row["dst"]) for row in r.edges.collect()} == set(local.edges())
    rep = read_cliques(r.cliques)
    assert rep == set(pre)
    assert r.stats == st
