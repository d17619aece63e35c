"""The Spark kernel on hand-built payloads: the order of a task's rows, which
is the shuffle's, does not change what the kernel returns."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.spark_rmce import _CAND, _EDGE, _NO_ENTRY, _ROOT, _X, _make_kernel
from repro.graphs.catalog import edges_for
from repro.mce.bitgraph import LocalGraph, degeneracy_order


def _payloads(g: LocalGraph):
    """One payload per root, as the search stage ships it with maxcheck
    off: the root row, ``N⁺`` and ``N⁻`` rows with ranks, and the edges
    among the candidates and from each forbidden vertex to them."""
    order, _, _ = degeneracy_order(g)
    rank = {v: i for i, v in enumerate(order)}
    for v in order:
        cands = {u for u in g.adj[v] if rank[u] > rank[v]}
        forb = g.adj[v] - cands
        rows = [(v, _ROOT, v, rank[v], 0, 0)]
        rows += [(v, _CAND, u, rank[u], 0, 0) for u in cands]
        rows += [(v, _X, x, rank[x], _NO_ENTRY, -1) for x in forb]
        rows += [(v, _EDGE, a, b, 0, 0) for a in cands for b in g.adj[a] & cands if a < b]
        rows += [(v, _EDGE, x, b, 0, 0) for x in forb for b in g.adj[x] & cands]
        yield pd.DataFrame(rows, columns=["task", "kind", "a", "b", "c", "d"])


@pytest.mark.parametrize("dynamic", [True, False])
@pytest.mark.parametrize("name", ["flickr", "large_twitch"])
def test_shuffled_x_rows_same_metrics_row(name, dynamic):
    # The pivot takes the first X vertex with the best count, so a kernel
    # that took X in row order would count other recursive calls for a
    # root of flickr, and of large_twitch without dynamic reduction.
    kernel = _make_kernel("pivot", dynamic)
    rng = np.random.default_rng(0)
    for pdf in _payloads(LocalGraph.from_edges(edges_for(name, "unit"))):
        x = pdf["kind"] == _X
        want = kernel(pdf)
        for xs in (
            pdf[x].sort_values("b"),
            pdf[x].sort_values("b", ascending=False),
            pdf[x].sample(frac=1.0, random_state=rng),
        ):
            got = kernel(pd.concat([pdf[~x], xs]))
            assert got.iloc[-1].tolist() == want.iloc[-1].tolist()
            assert sorted(got["clique"].dropna()) == sorted(want["clique"].dropna())
