"""Distributed batch peeling vs the local engine's batch peeling."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

import repro.gx.kcore as kcore
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df
from repro.gx.kcore import degeneracy_order_df, peel
from repro.mce.bitgraph import LocalGraph, degeneracy_order


def _relabelled(name: str, seed: int = 7) -> np.ndarray:
    """A unit analog under a random injective relabelling to sparse ids in
    ±2⁴⁰: negative ids and ids above 2³¹ both occur, and the id order no
    longer follows the generator's."""
    e = edges_for(name, "unit")
    ids = np.unique(e)
    rng = np.random.default_rng(seed)
    pool = np.unique(rng.integers(-(1 << 40), 1 << 40, size=2 * len(ids)))
    rng.shuffle(pool)
    new = pool[: len(ids)]
    assert new.min() < 0 and new.max() > 1 << 31
    return new[np.searchsorted(ids, e)]


K6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
INPUTS = {
    "ca-CondMat": lambda: edges_for("ca-CondMat", "unit"),
    "inf-road-usa": lambda: edges_for("inf-road-usa", "unit"),
    "sc-delaunay_n23": lambda: edges_for("sc-delaunay_n23", "unit"),
    "empty": lambda: np.empty((0, 2), dtype=np.int64),
    "K6": lambda: np.array(K6),
    "ca-CondMat-relabelled": lambda: _relabelled("ca-CondMat"),
}
GRAPHS = list(INPUTS)


@pytest.fixture(scope="module")
def peeled(spark):
    out = {}
    for name, make in INPUTS.items():
        e = make()
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


@pytest.mark.parametrize(
    "name, rounds, cores, lam", [("empty", 0, set(), 0), ("K6", 1, {5}, 5)]
)
def test_hand_checked_peels(peeled, name, rounds, cores, lam):
    _, stamps, got_lam = peeled[name]
    rows = stamps.collect()
    assert len({r["round"] for r in rows}) == rounds
    assert {r["core"] for r in rows} == cores
    assert got_lam == lam


def test_rank_is_dense_permutation(peeled, spark):
    _, stamps, _ = peeled["ca-CondMat"]
    order_df = degeneracy_order_df(stamps)
    n = order_df.count()
    lo, hi = order_df.agg(F.min("rank"), F.max("rank")).collect()[0]
    assert (lo, hi) == (0, n - 1)
    assert order_df.select("rank").distinct().count() == n


def test_degrees_once_per_round(spark, monkeypatch):
    """k jumps to the minimum residual degree instead of stepping through
    empty stages: K6 peels in one round, so the degree table is built once
    to start and once after that round (not once per stage k = 0…5)."""
    calls = []
    real = kcore.degrees

    def counted(edges):
        calls.append(1)
        return real(edges)

    monkeypatch.setattr(kcore, "degrees", counted)
    _, lam = peel(spark, edges_df(spark, K6))
    assert lam == 5
    assert len(calls) == 2
