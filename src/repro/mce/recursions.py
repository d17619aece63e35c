"""The four inner BK recursions, instrumented and reduction-aware.

All operate on a bitmask ``Subproblem`` (see ``bitgraph``) and share one
frame wrapper that (a) counts recursive calls / vertex visits, (b) applies
dynamic reduction when enabled, and (c) handles the ``P = ∅`` base case with
the removed-vertex suppression rule from ``repro.core.dynamic_reduction``.

Recursion strategies (paper §2.2 / §7.1; `facen`/`revised` are simplified
analogs — DESIGN.md §3):

- ``pivot``   — Tomita pivot from P∪X maximizing |N(u)∩P| (BKdegen's inner).
- ``rcd``     — BKrcd: iteratively branch on the min-P-degree vertex until
  the remaining P is itself a clique, then one maximality check.
- ``facen``   — pivot restricted to P (max |N(u)∩P|) with a dense fast path
  that reports immediately when G[P] is complete.
- ``revised`` — Tomita pivot with Naudé-style early exit once an unbeatable
  pivot is found.
"""
from __future__ import annotations

from ..core.dynamic_reduction import dynamic_reduce
from .bitgraph import Subproblem, iter_bits
from .metrics import Metrics

RECURSIONS = ("pivot", "rcd", "facen", "revised")


def run_subproblem(
    sub: Subproblem,
    recursion: str,
    dynamic: bool,
    report,
    metrics: Metrics,
) -> None:
    """Enumerate all maximal cliques of ``sub`` (rooted at ``sub.root``)."""
    if recursion not in RECURSIONS:
        raise ValueError(f"unknown recursion {recursion!r}")
    adj = sub.adj
    ids = sub.ids
    visits = metrics.visits

    def frame(r: list[int], p: int, x: int) -> None:
        metrics.recursive_calls += 1
        if visits is not None:
            for b in iter_bits(p | x):
                visits[ids[b]] += 1
        rem = 0
        hoisted = 0
        if dynamic:
            r, p, x, rem, hoisted = dynamic_reduce(adj, ids, r, p, x, report)
        if p == 0:
            if x == 0 and len(r) >= 2:
                # Suppress if a removed candidate extends R∪D (it is adjacent
                # to all of R by the subproblem invariant).
                if not (rem and any((adj[t] & hoisted) == hoisted for t in iter_bits(rem))):
                    report(r)
            return
        if recursion == "rcd":
            _rcd_loop(r, p, x)
        elif recursion == "facen":
            _facen(r, p, x)
        else:
            _pivot_branch(r, p, x, early_exit=(recursion == "revised"))

    def _branch_all(r: list[int], p: int, x: int, ext: int) -> None:
        for w in iter_bits(ext):
            wb = 1 << w
            frame(r + [ids[w]], p & adj[w], x & adj[w])
            p &= ~wb
            x |= wb

    def _pivot_branch(r: list[int], p: int, x: int, early_exit: bool) -> None:
        limit = p.bit_count()  # |N(u)∩P| ≤ |P| (X pivots) / |P|-1 (P pivots)
        best = -1
        pivot_adj = 0
        for u in iter_bits(x):
            c = (adj[u] & p).bit_count()
            if c > best:
                best, pivot_adj = c, adj[u]
                if early_exit and best >= limit:
                    break
        if best < limit:
            for u in iter_bits(p):
                c = (adj[u] & p).bit_count()
                if c > best:
                    best, pivot_adj = c, adj[u]
                    if early_exit and best >= limit - 1:
                        break
        ext = p & ~pivot_adj
        _branch_all(r, p, x, ext)

    def _is_clique(p: int, pcnt: int) -> bool:
        return all((adj[u] & p).bit_count() == pcnt - 1 for u in iter_bits(p))

    def _report_clique_p(r: list[int], p: int, x: int) -> None:
        """Report R∪P when G[P] is complete and no forbidden vertex covers P."""
        if not any((adj[t] & p) == p for t in iter_bits(x)):
            full = r + [ids[u] for u in iter_bits(p)]
            if len(full) >= 2:
                report(full)

    def _rcd_loop(r: list[int], p: int, x: int) -> None:
        while True:
            pcnt = p.bit_count()
            if pcnt == 0:
                if x == 0 and len(r) >= 2:
                    report(r)
                return
            mind, argv = pcnt, -1
            for u in iter_bits(p):
                c = (adj[u] & p).bit_count()
                if c < mind:
                    mind, argv = c, u
            if mind == pcnt - 1:  # P is a clique: stop the descent
                _report_clique_p(r, p, x)
                return
            wb = 1 << argv
            frame(r + [ids[argv]], p & adj[argv], x & adj[argv])
            p &= ~wb
            x |= wb

    def _facen(r: list[int], p: int, x: int) -> None:
        pcnt = p.bit_count()
        if _is_clique(p, pcnt):  # dense fast path
            _report_clique_p(r, p, x)
            return
        best = -1
        pivot_adj = 0
        for u in iter_bits(p):
            c = (adj[u] & p).bit_count()
            if c > best:
                best, pivot_adj = c, adj[u]
        _branch_all(r, p, x, p & ~pivot_adj)

    frame([sub.root], sub.p_mask, sub.x_mask)
