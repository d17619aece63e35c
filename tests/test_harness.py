"""Bench harness + paper-number tables."""
from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.harness import (
    cliques_by_degree,
    graph_stats_local,
    load_graph,
    run_algorithm,
    sweep,
    visits_by_degree,
)
from repro.bench.paper import (
    PAPER_FIG7_HEADLINES,
    PAPER_FIG9_MAX_RATIO,
    PAPER_TABLE3,
    TABLE3_COLUMNS,
)
from repro.graphs.catalog import GRAPH_NAMES, PAPER_TABLE2


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
    seconds, res = run_algorithm(g, "RMCEdegen", repeats=2)
    assert seconds > 0
    assert len(res.cliques) > 0
    assert res.metrics.recursive_calls >= 0


def test_sweep_cross_verifies():
    rows = sweep(list(TABLE3_COLUMNS), ["ca-CondMat", "wiki-Talk"], scale="unit")
    assert set(rows) == {
        (g, a) for g in ("ca-CondMat", "wiki-Talk") for a in TABLE3_COLUMNS
    }
    assert all((r.graph, r.algorithm) == key for key, r in rows.items())


def test_sweep_runs_each_pair_repeats_times(monkeypatch):
    import repro.bench.harness as H

    real = H.enumerate_cliques
    calls = []

    def counted(g, track_visits=False, **cfg):
        calls.append((g, tuple(sorted(cfg.items()))))
        return real(g, track_visits=track_visits, **cfg)

    monkeypatch.setattr(H, "enumerate_cliques", counted)
    algos = ["BKdegen", "RMCEdegen", "Variant2"]
    H.sweep(algos, ["ca-CondMat", "inf-road-usa"], scale="unit", repeats=3)
    # ``calls`` holds every graph, so no two graphs share an id.
    per_pair = Counter((id(g), cfg) for g, cfg in calls)
    assert len(per_pair) == 2 * len(algos)
    assert set(per_pair.values()) == {3}


def test_sweep_detects_mismatch(monkeypatch):
    import repro.bench.harness as H

    real = H.run_algorithm

    def bad(g, algo, repeats=1, track_visits=False):
        seconds, res = real(g, algo, repeats=repeats)
        if algo == "Variant1":
            res.cliques = {(1, 2)}
        return seconds, res

    monkeypatch.setattr(H, "run_algorithm", bad)
    with pytest.raises(AssertionError, match="mismatch"):
        H.sweep(["RMCEdegen", "Variant1"], ["ca-CondMat"], scale="unit")


def test_road_analog_needs_no_recursion():
    rows = sweep(["BKdegen", "RMCEdegen"], ["inf-road-usa"], scale="unit")
    assert rows["inf-road-usa", "BKdegen"].metrics.recursive_calls > 0
    # global reduction deletes the road analog: RMCE needs zero recursive calls
    assert rows["inf-road-usa", "RMCEdegen"].metrics.recursive_calls == 0


def test_graph_stats_local():
    s = graph_stats_local("sc-delaunay_n23", "unit")
    assert s["degeneracy"] == 3
    assert s["n"] > 0 and s["m"] > 0 and s["d_max"] > 0


def test_degree_histogram_and_curves():
    g = load_graph("ca-CondMat", "unit")
    degrees = {len(nb) for nb in g.adj.values()}
    _, res = run_algorithm(g, "BKdegen", track_visits=True)
    v = visits_by_degree(g, res)
    c = cliques_by_degree(g, res.cliques)
    assert set(v) == degrees == set(c)
    # visits dominate clique membership (the Fig. 1/11 gap)
    assert sum(v.values()) >= sum(c.values())
