"""Benchmark inputs: seeded relabelling of catalog graphs, pinned clique
counts and the correctness gate."""
from __future__ import annotations

import numpy as np

from repro.graphs.catalog import GRAPH_NAMES, edges_for

# Maximal-clique counts (size >= 2) of the catalog analogs. A relabelling
# keeps them unchanged, so every seed is checked against the same numbers.
PINNED_COUNTS: dict[tuple[str, str], int] = {
    ("bench", "as-skitter"): 26355,
    ("bench", "ca-CondMat"): 3164,
    ("bench", "com-orkut"): 41719,
    ("bench", "email-EuAll"): 10420,
    ("bench", "roadNet-CA"): 21300,
    ("bench", "sc-delaunay_n23"): 15842,
    ("bench", "wiki-Talk"): 12242,
    ("unit", "roadNet-CA"): 238,
}


def relabelled_edges(name: str, scale: str, seed: int) -> np.ndarray:
    """The catalog edge array of ``name`` with vertex ids permuted by a
    permutation drawn from ``(seed, catalog position)``.

    The permutation keeps every clique count and changes every
    id-dependent tie-break: degeneracy-order ties, the min-id firing of
    Lemma 3 in Spark global reduction, and Spark task hashing.
    """
    e = edges_for(name, scale)
    rng = np.random.default_rng([seed, GRAPH_NAMES.index(name)])
    perm = rng.permutation(int(e.max()) + 1 if e.size else 0)
    return perm[e]


class Gate:
    """Checks one graph's enumerations against its pinned count and a
    reference clique set, and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(
        self, graph: str, got, n_emitted: int, reference, pinned: int, error: str = ""
    ) -> None:
        """``got`` is the enumerated clique set (``None`` if the call raised
        ``error``), ``n_emitted`` the number of cliques the engine emitted."""
        self.attempted += 1
        if got is None:
            why = f"raised {error}"
        elif n_emitted != len(got):
            why = f"emitted {n_emitted} cliques, {len(got)} distinct"
        elif len(got) != pinned:
            why = f"{len(got)} cliques, pinned count is {pinned}"
        elif got != reference:
            why = "clique set differs from the reference"
        else:
            return
        self.failed += 1
        self.reasons.append(f"{graph}: {why}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
