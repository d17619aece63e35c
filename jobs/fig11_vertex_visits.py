#!/usr/bin/env python
"""Reproduce Figure 11 (as a table): average vertex visits by degree for
BKdegen / BKrcd / RMCEdegen, plus the #maximal-cliques-per-vertex ground
truth, on the paper's four spotlight graphs.

Usage::

    spark-submit jobs/fig11_vertex_visits.py [--scale bench]
        [--out fig11.md] [--graphs web-Google,cit-Patents,soc-pokec,com-dblp]
"""
from __future__ import annotations

import argparse

from repro.bench.harness import cliques_by_degree, load_graph, run_algorithm, visits_by_degree
from repro.bench.jobutil import emit

DEFAULT = "web-Google,cit-Patents,soc-pokec,com-dblp"
ALGOS = ["BKdegen", "BKrcd", "RMCEdegen"]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="bench", choices=["unit", "bench"])
    ap.add_argument("--graphs", default=DEFAULT)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    lines = ["## Figure 11 (as table) — mean vertex visits by degree", ""]
    for name in args.graphs.split(","):
        g = load_graph(name, args.scale)
        curves = {}
        cliques = None
        for a in ALGOS:
            _, res = run_algorithm(g, a, track_visits=True)
            curves[a] = visits_by_degree(g, res)
            cliques = res.cliques
        truth = cliques_by_degree(g, cliques)
        degs = sorted(truth)
        pick = [d for i, d in enumerate(degs) if i % max(1, len(degs) // 12) == 0]
        lines.append(f"### {name}")
        lines.append("")
        lines.append("| degree | #maximal cliques (avg) | " + " | ".join(ALGOS) + " |")
        lines.append("|---" * (len(ALGOS) + 2) + "|")
        for d in pick:
            cells = [f"{curves[a].get(d, 0.0):.1f}" for a in ALGOS]
            lines.append(f"| {d} | {truth[d]:.1f} | " + " | ".join(cells) + " |")
        # Headline: reduction of visits vs both baselines, averaged over degrees.
        for base in ("BKdegen", "BKrcd"):
            tot_b = sum(curves[base].values())
            tot_r = sum(curves["RMCEdegen"].get(d, 0.0) for d in curves[base])
            red = 1 - tot_r / tot_b if tot_b else 0.0
            lines.append(f"- RMCEdegen reduces {red:.0%} of per-degree mean visits vs {base}")
        lines.append("")
        print(f"[fig11] {name} done", flush=True)
    emit(args.out, "\n".join(lines))


if __name__ == "__main__":
    main()
