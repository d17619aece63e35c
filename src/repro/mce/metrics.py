"""Instrumentation counters for the MCE engine.

The paper's detailed evaluation reports, beyond wall time:

- the number of recursive calls (Figure 9),
- per-vertex visit counts bucketed by degree (Figures 1 and 11),
- forbidden-set reduction ratios r_vertex and r_subproblem (Figure 10).

``Metrics`` accumulates all of these; per-vertex visit tracking is optional
because the dict updates dominate kernel time when enabled.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Metrics:
    """Counters filled in by one engine run (one graph, one configuration)."""

    recursive_calls: int = 0  # recursion frames entered (incl. per-vertex roots)
    cliques: int = 0  # maximal cliques reported (search + global reduction)
    # Global reduction's prefix of ``reported``. Dynamic reduction reports
    # through the search's ``report``, so its cliques count as search cliques.
    reduction_cliques: int = 0
    # Forbidden-set reduction accounting over outer subproblems (Fig. 10):
    x_before: int = 0  # Σ |X| before maximality-check reduction
    x_after: int = 0  # Σ |X'| after
    subproblems: int = 0  # outer (per-vertex) subproblems entered
    subproblems_reduced: int = 0  # outer subproblems with X' ⊂ X
    # Optional per-vertex visit counts (Fig. 11); vertex -> #appearances in
    # the P or X set of a recursion frame.
    visits: dict[int, int] | None = None

    def enable_visits(self) -> None:
        self.visits = defaultdict(int)

    @property
    def r_vertex(self) -> float:
        """Fig. 10 metric: fraction of forbidden-set slots surviving reduction."""
        return self.x_after / self.x_before if self.x_before else 1.0

    @property
    def r_subproblem(self) -> float:
        """Fig. 10 metric: fraction of outer subproblems where X shrank."""
        return self.subproblems_reduced / self.subproblems if self.subproblems else 0.0
