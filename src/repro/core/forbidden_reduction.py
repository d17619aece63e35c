"""Maximality-check reduction (paper §6, Lemma 9 + Algorithm 8).

``ignoreId[v]`` records the earliest outer iteration after which ``v`` may be
dropped from a forbidden set, justified by neighborhood dominance
(Lemma 9). Both Algorithm 8 update rules read only the static ``N⁺`` sets
(rule A takes precedence via the paper's else-if):

- rule A (lines 7-9):   ``P∖{u} ⊆ N⁺(u)``  ⇒ ``ignoreId[v] ← min(·, ord(u))``
- rule B (lines 10-11): ``N⁺(u) ⊆ P∖{u}``  ⇒ ``ignoreId[u] ← min(·, ord(v))``

(The paper writes ``P ⊆ N⁺(u)`` with ``u ∈ P``, which is unsatisfiable since
``u ∉ N⁺(u)``; both rules are read with ``P∖{u}``.)

**Soundness repair (documented deviation, DESIGN.md §2.3).** Dropping every
``u ∈ X`` with ``ignoreId[u] < i`` — Algorithm 8 lines 2-5 verbatim — is
unsound: each entry is justified by a *dominator* whose restricted
neighborhood contains the dropped vertex's, but dominators can themselves be
dropped, and justification chains can be cyclic once neighborhoods collapse
to equality under restriction to the current candidate set (a 10-vertex
counterexample, ``CYCLE_COUNTEREXAMPLE`` in ``tests/conftest.py``, where
the cycle 3 → 0 → 2 → 3 erases every witness of the non-maximal clique
{7,9}). Repair: record the arg-min dominator with each entry and, per
subproblem, drop ``u`` only if its dominator chain reaches a **retained**
vertex; chains that close a cycle retain the cycle's max-rank member (the
rest may then drop). Every chain edge preserves ``N(a)∩S ⊆ N(b)∩S`` for
the later-than-root universe ``S`` and keeps the dominator inside ``X``
(adjacency to the root follows from the rule's containment), so
transitivity plus a retained terminal dominator re-establishes Lemma 9
exactly.
"""
from __future__ import annotations

from ..mce.bitgraph import Subproblem

_RETAIN, _DROP = 0, 1


def update_ignore_ids(
    ignore_id: dict[int, int],
    ignore_dom: dict[int, int],
    sub: Subproblem,
    i: int,
    rank: dict[int, int],
    nplus: dict[int, list[int]],
) -> None:
    """Algorithm 8 lines 6-11 for the subproblem ``sub`` of root ``v`` at
    order ``i``, read off its bitmask (``nplus`` maps each vertex to its
    ``N⁺``, in any order). Mutates ``ignore_id``/``ignore_dom``.

    Per candidate ``u`` at local index ``j``, the bits of ``P`` above ``j``
    are ``N⁺(u) ∩ P``; with ``shared`` their count and ``p = |P|``:
    ``shared == p − 1`` is rule A, else ``shared == |N⁺(u)|`` is rule B.
    This is the pair test the Spark pipeline evaluates in SQL, counting
    ``shared`` on its triangle table (``spark_rmce._ignore_table``). Only
    ``j = 0`` can reach ``p − 1``."""
    v = sub.root
    p = sub.p
    pmask = sub.p_mask
    for j in range(p):
        u = sub.ids[j]
        shared = ((sub.adj[j] & pmask) >> (j + 1)).bit_count()
        if shared == p - 1:
            # Rule A: v is dominated by u in every subproblem after ord(u).
            if rank[u] < ignore_id[v]:
                ignore_id[v] = rank[u]
                ignore_dom[v] = u
        elif shared == len(nplus[u]):
            # Rule B: u is dominated by v in every subproblem after i.
            if i < ignore_id[u]:
                ignore_id[u] = i
                ignore_dom[u] = v


def reduce_forbidden(
    x_ids: list[int],
    i: int,
    ignore_id: dict[int, int],
    ignore_dom: dict[int, int],
    rank: dict[int, int],
) -> list[int]:
    """Drop ignorable vertices from ``X`` with chain-sound resolution.

    A vertex with ``ignoreId[u] < i`` is dropped iff following dominators
    reaches a vertex retained in this subproblem; a dominance cycle keeps
    its max-rank member. Returns the retained ``X`` in original order.
    """
    status: dict[int, int] = {}

    def resolve(u: int) -> int:
        path: list[int] = []
        on_path: set[int] = set()
        cur = u
        while True:
            if ignore_id.get(cur, i) >= i and cur not in status:
                status[cur] = _RETAIN
            s = status.get(cur)
            if s is not None:
                # Terminal is retained, or already known to drop (and hence
                # transitively reaches a retained dominator): either way the
                # whole path has a retained dominator downstream → drop it.
                for p in path:
                    status[p] = _DROP
                return status[u]
            if cur in on_path:
                # Dominance cycle: keep the max-rank member, drop the rest.
                k = path.index(cur)
                cyc = path[k:]
                keep = max(cyc, key=rank.__getitem__)
                for p in cyc:
                    status[p] = _RETAIN if p == keep else _DROP
                for p in path[:k]:
                    status[p] = _DROP
                return status[u]
            path.append(cur)
            on_path.add(cur)
            cur = ignore_dom[cur]

    out: list[int] = []
    for u in x_ids:
        if ignore_id[u] >= i:
            out.append(u)
        elif resolve(u) == _RETAIN:
            out.append(u)
    return out
