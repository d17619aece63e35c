"""Generator unit tests: canonical form, determinism, family structure."""
from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.catalog import GRAPH_NAMES, PAPER_TABLE2, edges_for, get_spec
from repro.mce.bitgraph import LocalGraph, degeneracy_order


def _assert_canonical(e: np.ndarray) -> None:
    assert e.ndim == 2 and e.shape[1] == 2
    assert e.dtype == np.int64
    assert (e[:, 0] < e[:, 1]).all(), "src < dst violated"
    assert len(np.unique(e, axis=0)) == len(e), "duplicate edges"


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_catalog_unit_canonical(name):
    _assert_canonical(edges_for(name, "unit"))


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_catalog_unit_deterministic(name):
    a = edges_for(name, "unit")
    b = edges_for(name, "unit")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_catalog_unit_nonempty(name):
    e = edges_for(name, "unit")
    g = LocalGraph.from_edges(e)
    assert g.n >= 20 and g.m >= 20


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_catalog_has_paper_stats(name):
    abbr, n, m, dmax, lam = PAPER_TABLE2[name]
    assert n > 0 and m > 0 and dmax > 0 and lam > 0
    assert len(abbr) == 2


def test_catalog_unknown_scale_rejected():
    with pytest.raises(ValueError):
        get_spec("flickr").edges("huge")


def test_barabasi_albert_degrees():
    e = gen.barabasi_albert(200, 3, seed=2)
    _assert_canonical(e)
    g = LocalGraph.from_edges(e)
    # every late vertex attaches to exactly m_attach earlier vertices
    assert g.m == pytest.approx(3 * 200, rel=0.1)
    assert g.max_degree() > 10  # hubs exist


def test_chung_lu_powerlaw_skew():
    e = gen.chung_lu(500, 6.0, exponent=2.2, seed=3)
    g = LocalGraph.from_edges(e)
    degs = sorted((len(nb) for nb in g.adj.values()), reverse=True)
    assert degs[0] > 5 * (sum(degs) / len(degs)), "expected heavy-tailed hub"


def test_grid_road_triangle_free_core():
    e = gen.grid_road(10, 10, spur_fraction=0.1, seed=4)
    g = LocalGraph.from_edges(e)
    # lattice + spurs: no triangles at all
    for u in g.adj:
        for v in g.adj[u]:
            assert not (g.adj[u] & g.adj[v]), "road analog must be triangle-free"


def test_grid_road_degeneracy():
    e = gen.grid_road(15, 15, seed=5)
    _, _, lam = degeneracy_order(LocalGraph.from_edges(e))
    assert lam == 2


def test_triangulated_grid_every_edge_in_triangle():
    e = gen.triangulated_grid(8, 8)
    g = LocalGraph.from_edges(e)
    for u in g.adj:
        for v in g.adj[u]:
            if u < v:
                assert g.adj[u] & g.adj[v], f"edge ({u},{v}) not in a triangle"


def test_triangulated_grid_degeneracy():
    e = gen.triangulated_grid(10, 10)
    _, _, lam = degeneracy_order(LocalGraph.from_edges(e))
    assert lam == 3


def test_planted_cliques_contains_cliques():
    e = gen.planted_cliques(100, 8, 4, 6, background_m=0, seed=6)
    g = LocalGraph.from_edges(e)
    # at least one planted clique of size >= 4 must survive as a clique
    from repro.mce.reference import maximal_cliques_bruteforce

    cliques = maximal_cliques_bruteforce(g)
    assert any(len(c) >= 4 for c in cliques)


def test_star_heavy_has_leaves():
    e = gen.star_heavy(400, 4, 200, leaf_fraction=0.5, seed=7)
    g = LocalGraph.from_edges(e)
    n_leaf = sum(1 for nb in g.adj.values() if len(nb) == 1)
    assert n_leaf > 0.25 * g.n, "star-heavy analog needs many degree-1 leaves"


def test_dense_community_raises_degeneracy():
    base = gen.barabasi_albert(150, 4, seed=8)
    dense = gen.dense_community(150, 4, 5, 10, seed=8)
    _, _, lam_base = degeneracy_order(LocalGraph.from_edges(base))
    _, _, lam_dense = degeneracy_order(LocalGraph.from_edges(dense))
    assert lam_dense > lam_base


@pytest.mark.parametrize(
    "family,names",
    [
        ("road", ["inf-road-usa", "roadNet-CA"]),
        ("triangulation", ["sc-delaunay_n23"]),
        ("star-heavy", ["email-EuAll", "wiki-Talk"]),
    ],
)
def test_catalog_families(family, names):
    for name in names:
        assert get_spec(name).family == family


def test_canonical_drops_self_loops_and_dups():
    e = gen._canonical(np.array([[1, 1], [2, 3], [3, 2], [2, 3]]))
    assert e.tolist() == [[2, 3]]
