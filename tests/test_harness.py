"""Bench harness + paper-number tables."""
from __future__ import annotations

import pytest

from repro.bench.harness import (
    cliques_by_degree,
    format_table,
    graph_stats_local,
    load_graph,
    run_algorithm,
    sweep,
    visits_by_degree,
)
from repro.bench.paper import (
    PAPER_FIG7_HEADLINES,
    PAPER_FIG9_MAX_RATIO,
    PAPER_TABLE2,
    PAPER_TABLE3,
    TABLE3_COLUMNS,
)
from repro.graphs.catalog import GRAPH_NAMES


def test_paper_tables_cover_all_graphs():
    assert set(PAPER_TABLE3) == set(GRAPH_NAMES) == set(PAPER_TABLE2)
    assert len(GRAPH_NAMES) == 18
    for row in PAPER_TABLE3.values():
        assert len(row) == 4 and all(t > 0 for t in row)
    assert set(PAPER_FIG9_MAX_RATIO) == {
        "RMCEdegen", "RMCErcd", "RMCEfacen", "RMCErevised",
    } == set(PAPER_FIG7_HEADLINES)


def test_run_algorithm_times_and_verifies():
    g = load_graph("ca-CondMat", "unit")
    row = run_algorithm(g, "RMCEdegen", repeats=2)
    assert row.seconds > 0
    assert row.n_cliques > 0
    assert row.recursive_calls >= 0


def test_sweep_cross_verifies():
    rows = sweep(list(TABLE3_COLUMNS), ["ca-CondMat", "wiki-Talk"], scale="unit")
    assert len(rows) == 8
    names = {r.graph for r in rows}
    assert names == {"ca-CondMat", "wiki-Talk"}


def test_sweep_detects_mismatch(monkeypatch):
    import repro.bench.harness as H

    real = H.run_algorithm

    def bad(g, algo, repeats=1, track_visits=False):
        row = real(g, algo, repeats=repeats)
        if algo == "Variant1":
            row.result.cliques = {(1, 2)}
        return row

    monkeypatch.setattr(H, "run_algorithm", bad)
    with pytest.raises(AssertionError, match="mismatch"):
        H.sweep(["RMCEdegen", "Variant1"], ["ca-CondMat"], scale="unit")


def test_format_table():
    rows = sweep(["BKdegen", "RMCEdegen"], ["inf-road-usa"], scale="unit")
    md = format_table(rows, ["BKdegen", "RMCEdegen"])
    assert "inf-road-usa" in md and md.count("|") > 6
    md2 = format_table(rows, ["BKdegen", "RMCEdegen"], value="recursive_calls")
    assert "| 0 |" in md2  # road analog needs zero recursive calls under RMCE


def test_graph_stats_local():
    s = graph_stats_local("sc-delaunay_n23", "unit")
    assert s["degeneracy"] == 3
    assert s["n"] > 0 and s["m"] > 0 and s["d_max"] > 0


def test_degree_histogram_and_curves():
    g = load_graph("ca-CondMat", "unit")
    degrees = {len(nb) for nb in g.adj.values()}
    row = run_algorithm(g, "BKdegen", track_visits=True)
    v = visits_by_degree(g, row.result)
    c = cliques_by_degree(g, row.result.cliques)
    assert set(v) == degrees == set(c)
    # visits dominate clique membership (the Fig. 1/11 gap)
    assert sum(v.values()) >= sum(c.values())
