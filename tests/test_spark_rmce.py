"""End-to-end distributed RMCE vs the local engine (and brute force)."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.spark_rmce import (
    _COUNTERS,
    _ignore_table,
    _orient,
    enumerate_cliques_spark,
)
from repro.core.spark_global import read_cliques
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df, symmetrize
from repro.gx.kcore import degeneracy_order_spark
from repro.gx.triangles import triangles
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import enumerate_cliques
from repro.mce.recursions import RECURSIONS
from repro.mce.reference import maximal_cliques_bruteforce

from tests.conftest import CYCLE_COUNTEREXAMPLE, ignore_ids_by_definition


@pytest.mark.parametrize("name", ["ca-CondMat", "inf-road-usa"])
def test_rmce_pipeline_matches_local(spark, name):
    e = edges_for(name, "unit")
    local = enumerate_cliques(LocalGraph.from_edges(e), "pivot", True, True, True)
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", True, True, True)
    got = read_cliques(res.cliques)
    assert got == local.cliques
    assert res.cliques.count() == len(got), "duplicate clique rows"
    assert res.degeneracy == local.degeneracy


@pytest.mark.parametrize(
    "name, reduced",
    [("ca-CondMat", True), ("sc-delaunay_n23", True), ("email-EuAll", True),
     ("ca-CondMat", False)],
    ids=["ca-CondMat", "sc-delaunay_n23", "email-EuAll", "ca-CondMat-baseline"],
)
def test_every_residual_vertex_is_a_subproblem(spark, name, reduced):
    """Figure 9's and 10's counters mean what they mean locally: one
    subproblem per vertex of the searched graph, one X entry per edge, and,
    since both engines peel in the same order, every counter and λ equal."""
    e = edges_for(name, "unit")
    g = LocalGraph.from_edges(e)
    local = enumerate_cliques(g, "pivot", reduced, reduced, reduced)
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", reduced, reduced, reduced)
    r = res.reduction
    n, m = (r.stats.n_after, r.stats.m_after) if reduced else (g.n, g.m)
    assert res.subproblems == n
    assert res.x_before == m
    for f in _COUNTERS:
        assert getattr(res, f) == getattr(local.metrics, f), f
    assert res.degeneracy == local.degeneracy
    assert read_cliques(res.cliques) == local.cliques


@pytest.mark.parametrize("name", ["roadNet-CA", "inf-road-usa"])
def test_fully_reduced_skips_search(spark, monkeypatch, name):
    """Global reduction empties both road analogs: the pipeline answers from
    the reduction alone, with the local engine's cliques, λ and counters."""

    def no_search(*_args):
        raise AssertionError("search stage entered on an empty residual graph")

    monkeypatch.setattr("repro.core.spark_rmce.degeneracy_order_spark", no_search)
    e = edges_for(name, "unit")
    local = enumerate_cliques(LocalGraph.from_edges(e), "pivot", True, True, True)
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", True, True, True)
    got = read_cliques(res.cliques)
    assert res.reduction.stats.m_after == 0
    assert got == local.cliques
    assert res.cliques.count() == len(got), "duplicate clique rows"
    assert res.degeneracy == local.degeneracy
    for f in _COUNTERS:
        assert getattr(res, f) == getattr(local.metrics, f), f


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "baseline"])
@pytest.mark.parametrize(
    "edges",
    [[], [(3, 7)], [(7, 3), (3, 7), (5, 5)]],
    ids=["empty", "one-edge", "reversed-duplicate-and-loop"],
)
def test_tiny_graphs_in_pipeline(spark, edges, reduced):
    """The empty graph and a single edge; without global reduction the
    full search path runs, on empty tables for the empty graph. The third
    input is the single edge again, reversed, duplicated and with a
    self-loop: ``edges_df`` is the only place it is normalized."""
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = LocalGraph.from_edges(e)
    res = enumerate_cliques_spark(
        spark, edges_df(spark, e), "pivot", reduced, reduced, reduced
    )
    got = read_cliques(res.cliques)
    assert got == maximal_cliques_bruteforce(g)
    assert res.cliques.count() == len(got), "duplicate clique rows"
    local = enumerate_cliques(g, "pivot", reduced, reduced, reduced)
    assert res.degeneracy == local.degeneracy


def test_baseline_pipeline_matches_bruteforce(spark):
    e = edges_for("ca-CondMat", "unit")
    truth = maximal_cliques_bruteforce(LocalGraph.from_edges(e))
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", False, False, False)
    assert read_cliques(res.cliques) == truth


def test_rcd_recursion_in_pipeline(spark):
    e = edges_for("sc-delaunay_n23", "unit")
    truth = maximal_cliques_bruteforce(LocalGraph.from_edges(e))
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "rcd", True, True, True)
    assert read_cliques(res.cliques) == truth


# CYCLE_COUNTEREXAMPLE with ids -5..-1 and 2³¹+5..2³¹+9: -1 is a vertex,
# although the kernel's X rows use it as "no dominator".
_RELABEL = {v: v - 5 if v < 5 else v + 2**31 for v in range(10)}
CYCLE_RELABELLED = [(_RELABEL[u], _RELABEL[v]) for u, v in CYCLE_COUNTEREXAMPLE]


@pytest.mark.parametrize(
    "rec, edges",
    [(rec, CYCLE_COUNTEREXAMPLE) for rec in RECURSIONS]
    + [("pivot", CYCLE_RELABELLED)],
    ids=[*RECURSIONS, "pivot-relabelled"],
)
def test_cycle_counterexample_in_pipeline(spark, rec, edges):
    """The cyclic-dominance graph through the Spark kernel's chain-sound
    drop: exact clique set, each clique emitted once; once more with
    negative ids and ids above 2³¹."""
    e = np.array(edges)
    truth = maximal_cliques_bruteforce(LocalGraph.from_edges(e))
    res = enumerate_cliques_spark(spark, edges_df(spark, e), rec, False, False, True)
    got = read_cliques(res.cliques)
    assert got == truth
    assert res.cliques.count() == len(got), "duplicate clique rows"


def test_metrics_surface(spark):
    e = edges_for("ca-CondMat", "unit")
    base = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", False, False, False)
    rmce = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", True, True, True)
    assert rmce.recursive_calls <= base.recursive_calls
    assert rmce.x_after <= rmce.x_before
    assert base.reduction is None and rmce.reduction is not None


def test_ignore_table_matches_local(spark):
    """The join-based Algorithm 8 table must equal the rules' set
    definitions — same thresholds AND same arg-min dominators — when
    evaluated on the identical (distributed) degeneracy order."""
    for e in (edges_for("ca-CondMat", "unit"), np.array(CYCLE_COUNTEREXAMPLE)):
        df = edges_df(spark, e).localCheckpoint(eager=True)
        order_df, _ = degeneracy_order_spark(spark, df)
        ranks = order_df.select("v", "rank")
        rank = {r["v"]: r["rank"] for r in ranks.collect()}
        order = [v for v, _ in sorted(rank.items(), key=lambda kv: kv[1])]
        g = LocalGraph.from_edges(e)
        want_id, want_dom = ignore_ids_by_definition(g, order, rank)
        oriented = _orient(symmetrize(df), ranks)
        arcs = oriented.select(F.col("v").alias("src"), F.col("u").alias("dst"))
        table = _ignore_table(oriented, triangles(arcs))
        got = {r["v"]: (r["ignore_id"], r["dom"]) for r in table.collect()}
        n = len(order)
        for v in order:
            if v in got:
                assert want_id[v] == got[v][0], f"threshold mismatch at {v}"
                assert want_dom[v] == got[v][1], f"dominator mismatch at {v}"
            else:
                assert want_id[v] == n, f"{v} has an entry but no Spark row"
