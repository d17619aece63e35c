#!/usr/bin/env python
"""Reproduce Figure 8 (as a table): global-reduction deletion ratios.

Runs the *distributed* global reduction (``repro.core.spark_global``) on
every catalog analog and reports the fraction of vertices/edges deleted —
the paper's key observations being full deletion on the road graphs and
(near-)zero deletion on the delaunay analog. With ``--engine spark`` it also
reports each run's rounds and the Spark jobs ``global_reduce_spark``
launched (read from the run's job group), runs the local reduction on the
same edges and exits non-zero unless both leave the same edges and report
the same cliques (the fixpoint is unique).

Usage::

    spark-submit jobs/fig8_reduction_ratio.py [--scale bench]
        [--engine spark] [--out fig8.md] [--graphs name1,name2]
"""
from __future__ import annotations

import argparse
import time

from repro.bench.jobutil import emit, job_session
from repro.core.global_reduction import global_reduce_local
from repro.core.spark_global import global_reduce_spark, read_cliques
from repro.graphs.catalog import GRAPH_NAMES, edges_for
from repro.gx.graph import edges_df
from repro.mce.bitgraph import LocalGraph


def _jobs_in_group(sc, group: str) -> int:
    """Spark jobs launched under job group ``group`` so far."""
    # The status tracker hears of a job through the listener bus.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="bench", choices=["unit", "bench"])
    ap.add_argument("--engine", default="spark", choices=["spark", "local"])
    ap.add_argument("--graphs", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    names = args.graphs.split(",") if args.graphs else GRAPH_NAMES

    spark = job_session("fig8") if args.engine == "spark" else None
    cols = ["Graph", "deleted vertices", "deleted edges", "cliques pre-reported"]
    if spark is not None:
        cols += ["rounds", "Spark jobs"]
    lines = [
        "## Figure 8 (as table) — global reduction ratios",
        "",
        "| " + " | ".join(cols) + " |",
        "|---" * len(cols) + "|",
    ]
    if spark is not None:
        # One untimed run on a tiny graph (K4, a degree-2 vertex on one of
        # its edges, a pendant edge) starts the session's executors and
        # planner, so the first graph's seconds are comparable to the rest.
        warm = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (3, 5)]
        r = global_reduce_spark(spark, edges_df(spark, warm))
        r.cliques.collect()
        r.edges.collect()
    for name in names:
        e = edges_for(name, args.scale)
        local, pre, st = global_reduce_local(LocalGraph.from_edges(e))
        vr, er, nc = st.vertex_ratio, st.edge_ratio, len(pre)
        cells = []
        if spark is not None:
            sc = spark.sparkContext
            t0 = time.perf_counter()
            sc.setJobGroup(f"fig8-{name}", "global reduction")
            r = global_reduce_spark(spark, edges_df(spark, e))
            sc.setLocalProperty("spark.jobGroup.id", None)
            rows = read_cliques(r.cliques)
            residual = {(row["src"], row["dst"]) for row in r.edges.collect()}
            if residual != set(local.edges()) or rows != set(pre):
                raise SystemExit(
                    f"[fig8] {name}: Spark residual edges or reported cliques "
                    "differ from the local engine's"
                )
            vr, er, nc = r.vertex_ratio, r.edge_ratio, len(rows)
            jobs = _jobs_in_group(sc, f"fig8-{name}")
            cells += [str(r.rounds), str(jobs)]
            print(
                f"[fig8] {name}: {r.rounds} rounds, {jobs} jobs, "
                f"{time.perf_counter() - t0:.1f} s",
                flush=True,
            )
        lines.append("| " + " | ".join([name, f"{vr:.1%}", f"{er:.1%}", str(nc), *cells]) + " |")
        print(f"[fig8] {name}: v={vr:.1%} e={er:.1%}", flush=True)
    if spark is not None:
        lines += [
            "",
            "Spark residual edges and reported cliques equal the local engine's",
            "on every graph above (the job exits non-zero otherwise).",
        ]
    emit(args.out, "\n".join(lines))
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
