"""Maximality-check reduction (Lemma 9 / Algorithm 8): soundness repair,
the bitmask pair test against the rules' set definitions, and engine-level
equality."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.forbidden_reduction import reduce_forbidden, update_ignore_ids
from repro.mce.bitgraph import LocalGraph, build_subproblem, degeneracy_order
from repro.mce.engine import enumerate_cliques
from repro.mce.recursions import RECURSIONS
from repro.mce.reference import maximal_cliques_bruteforce
from tests.conftest import (
    CYCLE_COUNTEREXAMPLE,
    KNOWN_GRAPHS,
    ignore_ids_by_definition,
    random_edges,
)


def test_paper_rule_nonchained_unsound():
    """Dropping every u with ignoreId[u] < i — Algorithm 8 lines 2-5 as
    printed — reports the non-maximal clique {7,9} on the counterexample.
    This documents why the chain-sound resolution exists."""
    g = LocalGraph.from_edges(np.array(CYCLE_COUNTEREXAMPLE))
    order, _, _ = degeneracy_order(g)
    rank = {v: i for i, v in enumerate(order)}
    ignore_id, _dom = ignore_ids_by_definition(g, order, rank)
    i7 = rank[7]
    x7 = [u for u in g.adj[7] if rank[u] < i7]
    naive_kept = [u for u in x7 if ignore_id[u] >= i7]
    # The branch on 9 inside 7's subproblem sees X ∩ N(9): naive dropping
    # erases every witness that {7,9} ⊂ {0,7,9}/{1,7,9}/{2,7,9}/{3,7,9} —
    # unsound.
    witnesses = [u for u in naive_kept if u in g.adj[9]]
    assert witnesses == [], "counterexample no longer triggers — regenerate"
    assert any(u in g.adj[9] for u in x7), "X must contain a real witness"


def test_chain_resolution_repairs_counterexample():
    g = LocalGraph.from_edges(np.array(CYCLE_COUNTEREXAMPLE))
    truth = maximal_cliques_bruteforce(g)
    for rec in RECURSIONS:
        res = enumerate_cliques(g, rec, False, False, True)
        assert res.cliques == truth, rec
    # and the chain resolver retains at least one dominator for vertex 7
    order, _, _ = degeneracy_order(g)
    rank = {v: i for i, v in enumerate(order)}
    ignore_id, dom = ignore_ids_by_definition(g, order, rank)
    i7 = rank[7]
    x7 = [u for u in g.adj[7] if rank[u] < i7]
    kept = reduce_forbidden(x7, i7, ignore_id, dom, rank)
    assert kept, "chain resolution must keep a maximality witness"


def test_ignore_ids_match_definition():
    """The engine's sweep, ``update_ignore_ids`` on every root's subproblem
    bitmask in order, equals the rules' set definitions."""
    graphs = [CYCLE_COUNTEREXAMPLE, KNOWN_GRAPHS["paper_fig2"]]
    graphs += [random_edges(n, p, 300 + seed) for seed in range(40)
               for n, p in [(9, 0.5), (13, 0.35), (14, 0.7)]]
    graphs += [random_edges(14, 0.4, 500 + seed) for seed in range(15)]
    rule_a = 0
    for e in graphs:
        if not len(e):
            continue
        g = LocalGraph.from_edges(np.array(e))
        order, _, _ = degeneracy_order(g)
        rank = {v: i for i, v in enumerate(order)}
        later = {
            v: sorted((u for u in g.adj[v] if rank[u] > rank[v]), key=rank.__getitem__)
            for v in order
        }
        ignore = ({v: len(order) for v in order}, {})
        for i, v in enumerate(order):
            sub = build_subproblem(g, v, later[v], [])
            update_ignore_ids(*ignore, sub, i, rank, later)
        want = ignore_ids_by_definition(g, order, rank)
        assert ignore == want
        rule_a += sum(rank[d] > rank[w] for w, d in want[1].items())
    assert rule_a, "no graph exercises rule A"


def test_dominators_always_in_forbidden_set():
    # chain edges must stay inside X of any subproblem that drops a vertex
    for seed in range(10):
        e = random_edges(12, 0.5, 900 + seed)
        if not len(e):
            continue
        g = LocalGraph.from_edges(e)
        order, _, _ = degeneracy_order(g)
        rank = {v: i for i, v in enumerate(order)}
        ignore_id, dom = ignore_ids_by_definition(g, order, rank)
        for i, v in enumerate(order):
            x = [u for u in g.adj[v] if rank[u] < i]
            xs = set(x)
            for u in x:
                if ignore_id[u] < i:
                    assert dom[u] in xs, (
                        f"dominator {dom[u]} of {u} missing from X of {v}"
                    )


def test_reduce_forbidden_keeps_unignorable():
    ignore_id = {1: 99, 2: 99}
    assert reduce_forbidden([1, 2], 5, ignore_id, {}, {1: 0, 2: 1}) == [1, 2]


def test_reduce_forbidden_simple_chain():
    # 1 dropped (dominator 2 retained); 3 dropped (dominator 1, chain to 2).
    ignore_id = {1: 0, 2: 99, 3: 0}
    dom = {1: 2, 3: 1}
    rank = {1: 0, 2: 1, 3: 2}
    assert reduce_forbidden([1, 2, 3], 5, ignore_id, dom, rank) == [2]


def test_reduce_forbidden_pure_cycle_keeps_one():
    ignore_id = {1: 0, 2: 0, 3: 0}
    dom = {1: 2, 2: 3, 3: 1}
    rank = {1: 5, 2: 7, 3: 6}
    kept = reduce_forbidden([1, 2, 3], 9, ignore_id, dom, rank)
    assert kept == [2], "cycle must retain exactly its max-rank member"


@pytest.mark.parametrize("rec", RECURSIONS)
@pytest.mark.parametrize("name", list(KNOWN_GRAPHS))
def test_maxcheck_on_known(rec, name):
    g = LocalGraph.from_edges(np.array(KNOWN_GRAPHS[name]))
    truth = maximal_cliques_bruteforce(g)
    res = enumerate_cliques(g, rec, False, False, True)
    assert res.cliques == truth
    assert len(res.reported) == len(res.cliques)


@pytest.mark.parametrize("rec", RECURSIONS)
def test_maxcheck_fuzz(rec, fuzz_graphs):
    for g in fuzz_graphs:
        truth = maximal_cliques_bruteforce(g)
        res = enumerate_cliques(g, rec, False, False, True)
        assert res.cliques == truth


def test_maxcheck_actually_prunes():
    # On a clique-dense graph the forbidden set must shrink somewhere.
    e = random_edges(18, 0.6, 77)
    g = LocalGraph.from_edges(e)
    res = enumerate_cliques(g, "pivot", False, False, True)
    m = res.metrics
    assert m.x_after < m.x_before
    assert 0 < m.r_vertex < 1
    assert m.r_subproblem > 0
