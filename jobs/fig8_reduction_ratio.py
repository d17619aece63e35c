#!/usr/bin/env python
"""Reproduce Figure 8 (as a table): global-reduction deletion ratios.

Runs the *distributed* global reduction (``repro.core.spark_global``) on
every catalog analog and reports the fraction of vertices/edges deleted —
the paper's key observations being full deletion on the road graphs and
(near-)zero deletion on the delaunay analog.

Usage::

    spark-submit jobs/fig8_reduction_ratio.py [--scale bench]
        [--engine spark] [--out fig8.md] [--graphs name1,name2]
"""
from __future__ import annotations

import argparse

from repro.bench.jobutil import emit, job_session
from repro.core.global_reduction import global_reduce_local
from repro.core.spark_global import global_reduce_spark
from repro.graphs.catalog import GRAPH_NAMES, edges_for
from repro.gx.graph import edges_df
from repro.mce.bitgraph import LocalGraph


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="bench", choices=["unit", "bench"])
    ap.add_argument("--engine", default="spark", choices=["spark", "local"])
    ap.add_argument("--graphs", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    names = args.graphs.split(",") if args.graphs else GRAPH_NAMES

    spark = job_session("fig8") if args.engine == "spark" else None
    lines = [
        "## Figure 8 (as table) — global reduction ratios",
        "",
        "| Graph | deleted vertices | deleted edges | cliques pre-reported |",
        "|---|---|---|---|",
    ]
    for name in names:
        e = edges_for(name, args.scale)
        if spark is not None:
            r = global_reduce_spark(spark, edges_df(spark, e))
            if not r.converged:
                raise SystemExit(
                    f"[fig8] {name}: global reduction stopped after "
                    f"{r.rounds} rounds short of its fixpoint"
                )
            vr, er, nc = r.vertex_ratio, r.edge_ratio, r.cliques.count()
        else:
            _, pre, st = global_reduce_local(LocalGraph.from_edges(e))
            vr, er, nc = st.vertex_ratio, st.edge_ratio, len(pre)
        lines.append(f"| {name} | {vr:.1%} | {er:.1%} | {nc} |")
        print(f"[fig8] {name}: v={vr:.1%} e={er:.1%}", flush=True)
    emit(args.out, "\n".join(lines))
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
