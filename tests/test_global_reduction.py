"""Global reduction (Algorithms 5-6, local form): lemma-level units plus the
mc(G) = mc(G') ⊎ reported completeness invariant."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.global_reduction import global_reduce_local
from repro.graphs.catalog import GRAPH_NAMES, edges_for
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import algorithm_config, enumerate_cliques
from repro.mce.reference import is_maximal_clique, maximal_cliques_bruteforce
from tests.conftest import KNOWN_GRAPHS, assert_reduction_fixpoint, random_edges


def _check_decomposition(g: LocalGraph):
    reduced, reported, stats = global_reduce_local(g)
    truth = maximal_cliques_bruteforce(g)
    rest = maximal_cliques_bruteforce(reduced)
    rep = set(reported)
    assert len(rep) == len(reported), "duplicate reports"
    assert rep | rest == truth, "clique set not preserved"
    assert not (rep & rest), "clique reported and still in reduced graph"
    for c in rep:
        assert is_maximal_clique(g, c), f"reported {c} not maximal in G"
    assert stats.n_after == reduced.n and stats.m_after == reduced.m
    return reduced, rep, stats


def test_degree_one_rule():
    # pendant: reported 2-clique, removed.
    reduced, rep, _ = _check_decomposition(LocalGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]))
    assert (2, 3) in rep


def test_degree_two_case1_nonadjacent():
    # path a-v-b: v degree-2, neighbors not adjacent -> two 2-cliques.
    reduced, rep, _ = _check_decomposition(LocalGraph.from_edges([(0, 1), (1, 2)]))
    assert rep == {(0, 1), (1, 2)}
    assert reduced.m == 0


def test_degree_two_case2_isolated_triangle():
    # isolated triangle: one 3-clique, everything deleted.
    reduced, rep, _ = _check_decomposition(LocalGraph.from_edges(KNOWN_GRAPHS["triangle"]))
    assert rep == {(0, 1, 2)}
    assert reduced.m == 0


def test_degree_two_case3_shared_edge():
    # two triangles sharing an edge: both 3-cliques reported, all removed
    # (after the first triangle's apex goes, the second is isolated).
    reduced, rep, _ = _check_decomposition(
        LocalGraph.from_edges(KNOWN_GRAPHS["two_triangles_shared_edge"])
    )
    assert rep == {(0, 1, 2), (1, 2, 3)}
    assert reduced.m == 0


def test_non_triangle_edge_rule():
    # K4 with a chord-free bridge to another K4: the bridge is non-triangle.
    k4a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k4b = [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]
    g = LocalGraph.from_edges(k4a + k4b + [(0, 4)])
    reduced, rep, _ = _check_decomposition(g)
    assert (0, 4) in rep


def test_road_analog_fully_reduced():
    # triangle-free lattice: everything deleted (paper: inf-road-usa, roadNet-CA).
    g = LocalGraph.from_edges(edges_for("inf-road-usa", "unit"))
    reduced, rep, stats = _check_decomposition(g)
    assert stats.vertex_ratio == 1.0
    assert stats.edge_ratio == 1.0
    assert len(rep) == len(maximal_cliques_bruteforce(g))


def test_delaunay_analog_barely_reduced():
    # triangulated grid: interior untouched (paper: sc-delaunay_n23 at 0%).
    g = LocalGraph.from_edges(edges_for("sc-delaunay_n23", "unit"))
    _, _, stats = global_reduce_local(g)
    assert stats.vertex_ratio < 0.15
    assert stats.edge_ratio < 0.15


def test_star_analog_heavily_reduced():
    g = LocalGraph.from_edges(edges_for("wiki-Talk", "unit"))
    _, _, stats = global_reduce_local(g)
    assert stats.vertex_ratio > 0.4


def test_cascade_example4():
    # Edge reduction exposing a new degree-2 vertex (paper Example 4 shape):
    # triangle (0,1,2) + path 2-3-4 where 3-4 is non-triangle.
    g = LocalGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    reduced, rep, stats = _check_decomposition(g)
    assert stats.m_after == 0  # cascade clears everything


@pytest.mark.parametrize("seed", range(20))
def test_decomposition_random(seed):
    e = random_edges(12, 0.25 + (seed % 5) * 0.12, 1000 + seed)
    if len(e) == 0:
        pytest.skip("empty draw")
    _check_decomposition(LocalGraph.from_edges(e))


@pytest.mark.parametrize("name", list(KNOWN_GRAPHS))
def test_decomposition_known(name):
    _check_decomposition(LocalGraph.from_edges(np.array(KNOWN_GRAPHS[name])))


def test_engine_equivalence_with_global_reduction(fuzz_graphs):
    for g in fuzz_graphs:
        truth = maximal_cliques_bruteforce(g)
        res = enumerate_cliques(g, "pivot", True, False, False)
        assert res.cliques == truth
        assert len(res.reported) == len(res.cliques)


@pytest.mark.parametrize("scale", ["unit", "bench"])
def test_fixpoint_on_analogs(scale):
    # Edge pass -> vertex pass lands exactly on H*.
    for name in GRAPH_NAMES:
        g = LocalGraph.from_edges(edges_for(name, scale))
        reduced, _, _ = global_reduce_local(g)
        assert_reduction_fixpoint(reduced, g)


def test_fixpoint_on_small_graphs():
    graphs = [np.array(e) for e in KNOWN_GRAPHS.values()]
    graphs += [random_edges(n, p, seed) for seed in range(60)
               for n, p in [(8, 0.3), (12, 0.35), (14, 0.5)]]
    for e in graphs:
        g = LocalGraph.from_edges(e)
        reduced, _, _ = global_reduce_local(g)
        assert_reduction_fixpoint(reduced, g)


def test_input_graph_not_mutated():
    # The benchmark enumerates one prebuilt graph again and again.
    for e in (KNOWN_GRAPHS["paper_fig2"], edges_for("wiki-Talk", "unit"),
              edges_for("ca-CondMat", "unit")):
        g = LocalGraph.from_edges(e)
        before = [(v, set(nb)) for v, nb in g.adj.items()]
        global_reduce_local(g)
        for cfg in ("RMCEdegen", "RMCErevised", "BKdegen", "Variant1"):
            enumerate_cliques(g, **algorithm_config(cfg))
        assert [(v, set(nb)) for v, nb in g.adj.items()] == before
