#!/usr/bin/env python
"""Reproduce Table 3 and Figures 7, 9 and 10 (as tables) from one sweep.

All four come from the same runs: the 4 BK baselines, the 4 RMCE
recursions and the 3 Table-3 variants on every catalog graph, timed on the
local kernel (the paper's single-machine setting — DESIGN.md §3). The
sweep cross-verifies that all 11 configurations report the identical
clique set per graph.

- ``table3.md``: RMCEdegen vs Variant1/2/3 runtimes (Variant1 disables
  global reduction, Variant2 dynamic reduction, Variant3 maximality-check
  reduction).
- ``fig7.md``: speedup of RMCEx over BKx for the four recursions.
- ``fig9.md``: recursive calls of each RMCE recursion over BKdegen's.
- ``fig10.md``: RMCEdegen's maximality-check reduction ratios, r_vertex =
  Σ|X′| / Σ|X| and r_subproblem = fraction of outer subproblems whose X
  shrank.

Usage::

    spark-submit jobs/local_sweep.py [--scale bench] [--repeats 3]
        [--out-dir results] [--graphs name1,name2]
"""
from __future__ import annotations

import argparse
import os

from repro.bench.harness import RunRow, sweep
from repro.bench.jobutil import emit
from repro.bench.paper import (
    PAPER_FIG7_HEADLINES,
    PAPER_FIG9_MAX_RATIO,
    PAPER_TABLE3,
    TABLE3_COLUMNS,
)
from repro.graphs.catalog import GRAPH_NAMES

PAIRS = [("BKdegen", "RMCEdegen"), ("BKrcd", "RMCErcd"),
         ("BKfacen", "RMCEfacen"), ("BKrevised", "RMCErevised")]
RMCE = [r for _, r in PAIRS]
VARIANTS = list(TABLE3_COLUMNS)  # RMCEdegen, Variant1, Variant2, Variant3
ALGOS = [b for b, _ in PAIRS] + RMCE + VARIANTS[1:]

Rows = dict[tuple[str, str], RunRow]


def table3(rows: Rows, names: list[str]) -> str:
    lines = [
        "## Table 3 — ablation study (seconds; paper → C++ on real graphs, "
        "ours → Python kernel on synthetic analogs)",
        "",
        "| Graph | " + " | ".join(f"paper {a}" for a in VARIANTS) + " | "
        + " | ".join(f"ours {a}" for a in VARIANTS) + " | paper best | ours best |",
        "|---" * (2 * len(VARIANTS) + 3) + "|",
    ]
    for name in names:
        paper = PAPER_TABLE3[name]
        ours = [rows[name, a].seconds for a in VARIANTS]
        pbest = VARIANTS[min(range(len(VARIANTS)), key=lambda i: paper[i])]
        obest = VARIANTS[min(range(len(VARIANTS)), key=lambda i: ours[i])]
        lines.append(
            f"| {name} | " + " | ".join(f"{p:.2f}" for p in paper) + " | "
            + " | ".join(f"{o:.3f}" for o in ours) + f" | {pbest} | {obest} |"
        )
    return "\n".join(lines)


def fig7(rows: Rows, names: list[str]) -> str:
    lines = [
        "## Figure 7 (as table) — speedup of RMCEx over BKx (time_BKx / time_RMCEx)",
        "",
        "| Graph | " + " | ".join(RMCE) + " |",
        "|---" * (len(PAIRS) + 1) + "|",
    ]
    best = {r: (0.0, "") for r in RMCE}
    for name in names:
        cells = []
        for b, r in PAIRS:
            sp = rows[name, b].seconds / max(rows[name, r].seconds, 1e-9)
            cells.append(f"{sp:.2f}x")
            if sp > best[r][0]:
                best[r] = (sp, name)
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("| Algorithm | paper max speedup (graph) | ours max speedup (graph) |")
    lines.append("|---|---|---|")
    for r in RMCE:
        p, pg = PAPER_FIG7_HEADLINES[r]
        o, og = best[r]
        lines.append(f"| {r} | {p}x ({pg}) | {o:.2f}x ({og}) |")
    return "\n".join(lines)


def fig9(rows: Rows, names: list[str]) -> str:
    lines = [
        "## Figure 9 (as table) — #recursive calls of RMCEx / #recursive calls of BKdegen",
        "",
        "| Graph | BKdegen calls | " + " | ".join(RMCE) + " |",
        "|---" * (len(RMCE) + 2) + "|",
    ]
    worst = {a: 0.0 for a in RMCE}
    for name in names:
        base = rows[name, "BKdegen"].metrics.recursive_calls
        cells = []
        for a in RMCE:
            calls = rows[name, a].metrics.recursive_calls
            ratio = calls / base if base else 0.0
            worst[a] = max(worst[a], ratio)
            cells.append(f"{ratio:.1%}")
        lines.append(f"| {name} | {base} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("| Algorithm | paper max ratio | ours max ratio |")
    lines.append("|---|---|---|")
    for a in RMCE:
        lines.append(f"| {a} | {PAPER_FIG9_MAX_RATIO[a]:.1%} | {worst[a]:.1%} |")
    return "\n".join(lines)


def fig10(rows: Rows, names: list[str]) -> str:
    lines = [
        "## Figure 10 (as table) — forbidden-set reduction ratios (RMCEdegen)",
        "",
        "| Graph | Σ\\|X\\| | Σ\\|X'\\| | pruned (1 - r_vertex) | r_subproblem |",
        "|---|---|---|---|---|",
    ]
    for name in names:
        m = rows[name, "RMCEdegen"].metrics
        lines.append(
            f"| {name} | {m.x_before} | {m.x_after} "
            f"| {1 - m.r_vertex:.1%} | {m.r_subproblem:.1%} |"
        )
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="bench", choices=["unit", "bench"])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--graphs", default=None)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()
    names = args.graphs.split(",") if args.graphs else GRAPH_NAMES

    rows = sweep(ALGOS, names, scale=args.scale, repeats=args.repeats)
    for stem, render in (("table3", table3), ("fig7", fig7), ("fig9", fig9), ("fig10", fig10)):
        out = os.path.join(args.out_dir, f"{stem}.md") if args.out_dir else None
        emit(out, render(rows, names))


if __name__ == "__main__":
    main()
