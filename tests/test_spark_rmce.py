"""End-to-end distributed RMCE vs the local engine (and brute force).

The ``pipeline`` fixture runs each case below once, with its local run, and
every Spark ≡ local comparison goes through ``local_mismatches``."""
from __future__ import annotations

import functools
from dataclasses import replace

import pytest
from pyspark.sql import functions as F

from repro.core.spark_rmce import _ignore_table, _orient, enumerate_cliques_spark, local_mismatches
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df, symmetrize
from repro.gx.kcore import degeneracy_order_spark
from repro.gx.triangles import triangles
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import enumerate_cliques
from repro.mce.recursions import RECURSIONS
from repro.mce.reference import maximal_cliques_bruteforce

from tests.conftest import CYCLE_COUNTEREXAMPLE, ignore_ids_by_definition

# A case is (edges, recursion, (global reduction, dynamic, maxcheck)); edges
# given by name are that catalog analog at unit scale.
ON, OFF = (True,) * 3, (False,) * 3
UNIT = {n: (n, "pivot", ON) for n in ("ca-CondMat", "sc-delaunay_n23", "email-EuAll")}
# Global reduction empties both road analogs; the fixture runs them with
# both ordering paths patched to raise.
FULLY_REDUCED = {n: (n, "pivot", ON) for n in ("inf-road-usa", "roadNet-CA")}
UNIT |= FULLY_REDUCED | {
    "ca-CondMat-baseline": ("ca-CondMat", "pivot", OFF),
    "sc-delaunay_n23-rcd": ("sc-delaunay_n23", "rcd", ON),
}
# The empty graph and a single edge; without global reduction the full search
# path runs, on empty tables for the empty graph. The third input is the
# single edge again, reversed, duplicated and with a self-loop: ``edges_df``
# is the only place it is normalized.
TINY = {
    f"{gid}-{tid}": (edges, "pivot", toggles)
    for gid, edges in (
        ("empty", []), ("one-edge", [(3, 7)]),
        ("reversed-duplicate-and-loop", [(7, 3), (3, 7), (5, 5)]),
    )
    for tid, toggles in (("reduced", ON), ("baseline", OFF))
}
# The cyclic-dominance graph through the kernel's chain-sound drop, under
# every recursion; once more with ids -5..-1 and 2³¹+5..2³¹+9: -1 is a
# vertex, although the kernel's X rows use it as "no dominator".
_RELABEL = {v: v - 5 if v < 5 else v + 2**31 for v in range(10)}
CYCLES = {rec: (CYCLE_COUNTEREXAMPLE, rec, (False, False, True)) for rec in RECURSIONS}
CYCLES["pivot-relabelled"] = (
    [(_RELABEL[u], _RELABEL[v]) for u, v in CYCLE_COUNTEREXAMPLE], "pivot", (False, False, True)
)
CASES = UNIT | TINY | CYCLES
# Cases run once more at a budget of one edge below the input: global
# reduction runs in Spark and leaves a residual that fits.
BOUNDARY = ("ca-CondMat", "email-EuAll")


def _forbid(mp, names) -> None:
    """Patch each of ``spark_rmce``'s ``names`` to raise when called."""
    for name in names:
        def fail(*_args, name=name):
            raise AssertionError(f"{name} called")

        mp.setattr(f"repro.core.spark_rmce.{name}", fail)


@pytest.fixture(scope="module")
def pipeline(spark):
    """``pipeline(case, budget)`` is ``(res, local, g)``: the case's Spark
    and local results and its graph, each run once. ``budget`` is ``None``
    for ``driver_edge_budget``'s own, or the budget the run uses instead.
    Each budget leaves one path to the order, and the others raise: the
    default collects the input, 0 runs both loops in Spark, and any other
    budget orders the Spark residual on the driver."""

    @functools.cache
    def run(case, budget=None):
        edges, rec, toggles = CASES[case]
        e = edges_for(edges, "unit") if isinstance(edges, str) else edges
        with pytest.MonkeyPatch.context() as mp:
            if budget is None:
                _forbid(mp, ("global_reduce_spark", "degeneracy_order_spark"))
            elif budget == 0:
                _forbid(mp, ("collect_graph",))
            else:
                _forbid(mp, ("degeneracy_order_spark",))
            if budget is not None:
                mp.setattr("repro.core.spark_rmce.driver_edge_budget", lambda _: budget)
            if case in FULLY_REDUCED:
                _forbid(mp, ("degeneracy_order", "degeneracy_order_spark"))
            res = enumerate_cliques_spark(spark, edges_df(spark, e), rec, *toggles)
        g = LocalGraph.from_edges(e)
        return res, enumerate_cliques(g, rec, *toggles), g

    return run


def _assert_matches(res, local, g) -> None:
    assert local_mismatches(res, local) == {}
    assert local.cliques == maximal_cliques_bruteforce(g)


@pytest.mark.parametrize("case", UNIT)
def test_rmce_pipeline_matches_local(pipeline, case):
    _assert_matches(*pipeline(case))


@pytest.mark.parametrize("case", TINY)
def test_tiny_graphs_in_pipeline(pipeline, case):
    _assert_matches(*pipeline(case))


@pytest.mark.parametrize("case", CYCLES)
def test_cycle_counterexample_in_pipeline(pipeline, case):
    _assert_matches(*pipeline(case))


@pytest.mark.parametrize("case", CASES)
def test_every_residual_vertex_is_a_subproblem(pipeline, case):
    """Figure 9's and 10's counters mean what they mean locally: one
    subproblem per vertex of the searched graph, one X entry per edge."""
    res, _, g = pipeline(case)
    r = res.reduction
    n, m = (r.stats.n_after, r.stats.m_after) if r else (g.n, g.m)
    assert (res.subproblems, res.x_before) == (n, m)


@pytest.mark.parametrize("case", CASES)
def test_distributed_loops_match_local(pipeline, case):
    """Budget 0: both loops run every round in Spark, as Table 2's peel
    does, and the result is the same as the driver's."""
    res, local, g = pipeline(case, 0)
    _assert_matches(res, local, g)
    r = res.reduction
    n, m = (r.stats.n_after, r.stats.m_after) if r else (g.n, g.m)
    assert (res.subproblems, res.x_before) == (n, m)


@pytest.mark.parametrize("case", CASES)
def test_driver_finishes_small_graphs(pipeline, case):
    """At its default budget every test graph fits: the pipeline collects
    the input, and global reduction runs no Spark round."""
    res = pipeline(case)[0]
    assert res.reduction is None or res.reduction.rounds == 0


@pytest.mark.parametrize("case", BOUNDARY)
def test_stage_boundary_matches_local(pipeline, case):
    """One edge below the input: global reduction runs in Spark, and the
    driver orders the residual it leaves."""
    res, local, g = pipeline(case, pipeline(case)[2].m - 1)
    _assert_matches(res, local, g)
    assert res.reduction.rounds >= 1
    assert 0 < res.reduction.stats.m_after < g.m - 1


@pytest.mark.parametrize("case", FULLY_REDUCED)
def test_fully_reduced_skips_search(pipeline, case):
    assert pipeline(case)[0].reduction.stats.m_after == 0


def test_metrics_surface(pipeline):
    base, rmce = pipeline("ca-CondMat-baseline")[0], pipeline("ca-CondMat")[0]
    assert rmce.recursive_calls <= base.recursive_calls
    assert rmce.x_after <= rmce.x_before
    assert base.reduction is None and rmce.reduction is not None


def test_local_mismatches_reports_each_difference(pipeline):
    """Not vacuous: each fault, put into a Spark result, is reported alone."""
    res, local, _ = pipeline("ca-CondMat")
    x, lam, n = local.metrics.x_after, local.degeneracy, len(local.cliques)
    got = local_mismatches(replace(res, x_after=x + 1), local)
    assert got == {"x_after": (x + 1, x)}
    got = local_mismatches(replace(res, degeneracy=lam + 1), local)
    assert got == {"degeneracy": (lam + 1, lam)}
    got = local_mismatches(replace(res, cliques=res.cliques.union(res.cliques)), local)
    assert got == {"clique rows": (2 * n, n)}
    got = local_mismatches(replace(res, reduction=None), local)
    assert got == {"reduction": (False, True)}


def test_ignore_table_matches_local(spark):
    """The join-based Algorithm 8 table must equal the rules' set
    definitions — same thresholds AND same arg-min dominators — when
    evaluated on the identical (distributed) degeneracy order."""
    for e in (edges_for("ca-CondMat", "unit"), CYCLE_COUNTEREXAMPLE):
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
