#!/usr/bin/env python
"""Reproduce Table 2 and Figure 8 (as tables) from one Spark session, and
check the whole distributed RMCE pipeline on every graph.

Both tables are per-graph statistics of the 18 catalog analogs. Each
graph's input edge table is materialized once, and three Spark passes
read it:

- ``table2.md``: n, m and d_max from one aggregate over the ``groupBy``
  degrees, λ and the peel rounds from distributed batch peeling
  (``repro.gx.kcore``), next to the paper's published numbers.
- ``fig8.md``: distributed global reduction (``repro.core.spark_global``):
  the fraction of vertices and edges it deletes, the cliques it reports
  and its rounds; and, for information only, the Spark jobs of one run of
  the whole pipeline (``repro.core.spark_rmce``; read from its own job
  group; the count varies between runs of the same code and is not
  checked). The pipeline reduces and orders on the driver any graph that
  fits its driver budget, so both Spark loops run here on their own, every
  round in Spark.

The job computes the same with the local engine and exits non-zero unless
Spark's n, m, d_max, λ, residual edges, reported cliques and sizes equal
the local engine's, and unless ``local_mismatches`` finds no difference
between the pipeline and local RMCEdegen (the reduction's fixpoint is
unique).

Usage::

    spark-submit jobs/spark_sweep.py [--scale bench] [--out-dir results]
        [--graphs name1,name2]
"""
from __future__ import annotations

import argparse
import os
import time

from pyspark.sql import functions as F

from repro.bench.harness import graph_stats_local
from repro.bench.jobutil import emit, job_session
from repro.core.global_reduction import global_reduce_local
from repro.core.spark_global import global_reduce_spark, read_cliques
from repro.core.spark_rmce import _COUNTERS, enumerate_cliques_spark, local_mismatches
from repro.graphs.catalog import GRAPH_NAMES, PAPER_TABLE2, edges_for
from repro.gx.graph import degrees, edges_df
from repro.gx.kcore import peel
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import enumerate_cliques

_STATS = ("n", "m", "d_max", "degeneracy")


def _header(title: str, cols: list[str]) -> list[str]:
    return [title, "", "| " + " | ".join(cols) + " |", "|---" * len(cols) + "|"]


def _jobs_in_group(sc, group: str) -> int:
    """Spark jobs launched under job group ``group`` so far."""
    # The status tracker hears of a job through the listener bus.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def graph_stats_spark(spark, df) -> dict:
    """Table 2 statistics of the materialized edge table ``df``, plus the
    peel rounds."""
    n, deg_sum, d_max = degrees(df).agg(
        F.count("*"),
        F.coalesce(F.sum("degree"), F.lit(0)),
        F.coalesce(F.max("degree"), F.lit(0)),
    ).first()
    stamps, lam = peel(spark, df)
    last = stamps.agg(F.max("round")).first()[0]
    return {
        "n": n, "m": deg_sum // 2, "d_max": d_max, "degeneracy": lam,
        "rounds": 0 if last is None else last + 1,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="bench", choices=["unit", "bench"])
    ap.add_argument("--graphs", default=None, help="comma-separated subset")
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()
    names = args.graphs.split(",") if args.graphs else GRAPH_NAMES

    spark = job_session("spark-sweep")
    sc = spark.sparkContext
    t2 = _header(
        "## Table 2 — graph statistics (paper vs synthetic analog)",
        ["Graph", "paper n", "paper m", "paper d_max", "paper λ",
         "ours n", "ours m", "ours d_max", "ours λ", "peel rounds"],
    )
    f8 = _header(
        "## Figure 8 (as table) — global reduction ratios",
        ["Graph", "deleted vertices", "deleted edges", "cliques pre-reported",
         "Spark rounds", "pipeline Spark jobs"],
    )
    # One untimed pipeline run on a tiny graph (K4, a degree-2 vertex on one
    # of its edges, a pendant edge; the K4 survives reduction, so the search
    # stage runs too) starts the session's executors, planner and Python
    # workers, so the first graph's seconds are comparable to the rest.
    warm = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (3, 5)]
    enumerate_cliques_spark(spark, edges_df(spark, warm)).cliques.collect()
    for name in names:
        e = edges_for(name, args.scale)
        g = LocalGraph.from_edges(e)
        local = graph_stats_local(g)
        reduced, reported, stats = global_reduce_local(g)
        lres = enumerate_cliques(g)

        t0 = time.perf_counter()
        df = edges_df(spark, e).localCheckpoint(eager=True)
        s = graph_stats_spark(spark, df)
        r = global_reduce_spark(spark, df)
        t_stats = time.perf_counter() - t0
        t0 = time.perf_counter()
        sc.setJobGroup(f"pipeline-{name}", "RMCE pipeline")
        res = enumerate_cliques_spark(spark, df)
        sc.setLocalProperty("spark.jobGroup.id", None)
        off = local_mismatches(res, lres)
        jobs = _jobs_in_group(sc, f"pipeline-{name}")
        t_pipe = time.perf_counter() - t0

        diff = [k for k in _STATS if s[k] != local[k]]
        if diff:
            raise SystemExit(
                f"[spark-sweep] {name}: Spark {diff} differ from the local "
                f"engine's: {s} vs {local}"
            )
        if (
            {(row["src"], row["dst"]) for row in r.edges.collect()} != set(reduced.edges())
            or read_cliques(r.cliques) != set(reported)
            or r.stats != stats
        ):
            raise SystemExit(
                f"[spark-sweep] {name}: Spark's global reduction differs from "
                "the local engine's"
            )
        if off:
            shown = {k: tuple(len(x) if isinstance(x, set) else x for x in ab)
                     for k, ab in off.items()}
            raise SystemExit(
                f"[spark-sweep] {name}: the Spark pipeline differs from local "
                f"RMCEdegen in {{name: (Spark, local)}}, clique sets by size: {shown}"
            )
        st = r.stats
        _, pn, pm, pdmax, plam = PAPER_TABLE2[name]
        row = [name, pn, pm, pdmax, plam, *(s[k] for k in _STATS), s["rounds"]]
        t2.append("| " + " | ".join(map(str, row)) + " |")
        row = [name, f"{st.vertex_ratio:.1%}", f"{st.edge_ratio:.1%}",
               lres.metrics.reduction_cliques, r.rounds, jobs]
        f8.append("| " + " | ".join(map(str, row)) + " |")
        print(
            f"[spark-sweep] {name}: {s}, {t_stats:.1f} s; global reduction "
            f"v={st.vertex_ratio:.1%} e={st.edge_ratio:.1%} {r.rounds} Spark rounds; "
            f"pipeline {len(lres.cliques)} cliques, "
            # λ and the Figure 9/10 counters.
            + ", ".join(f"{k}={getattr(res, k)}" for k in ("degeneracy", *_COUNTERS))
            + f", {jobs} jobs, {t_pipe:.1f} s",
            flush=True,
        )
    t2 += [
        "",
        "Spark n, m, d_max and λ equal the local engine's on every graph",
        "above (the job exits non-zero otherwise).",
    ]
    f8 += [
        "",
        "Spark residual edges, reported cliques and before/after sizes equal",
        "the local engine's on every graph above. So do the whole Spark",
        "pipeline's clique set (each clique emitted once), λ and Figure 9/10",
        "counters (the job exits non-zero otherwise). The pipeline Spark jobs",
        "column counts the jobs of the whole pipeline run and is for",
        "information only: it varies between runs of the same code and is not",
        "checked.",
    ]
    for stem, lines in (("table2", t2), ("fig8", f8)):
        out = os.path.join(args.out_dir, f"{stem}.md") if args.out_dir else None
        emit(out, "\n".join(lines))
    spark.stop()


if __name__ == "__main__":
    main()
