#!/usr/bin/env python
"""Reproduce Table 2 and Figure 8 (as tables) from one Spark session.

Both are per-graph statistics of the 18 catalog analogs. Each graph's
input edge table is materialized once, and two Spark passes read it:

- ``table2.md``: n, m and d_max from one aggregate over the ``groupBy``
  degrees, λ and the peel rounds from distributed batch peeling
  (``repro.gx.kcore``), next to the paper's published numbers.
- ``fig8.md``: the distributed global reduction (``repro.core.
  spark_global``): the fraction of vertices and edges it deletes, the
  cliques it reports, its rounds and, for information only, the Spark
  jobs it launched (read from its own job group; the count varies between
  runs of the same code and is not checked).

The job computes the same statistics with the local engine and exits
non-zero unless Spark's n, m, d_max and λ, and its residual edges,
reported cliques and ``ReductionStats``, equal the local engine's (the
reduction's fixpoint is unique).

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
from repro.graphs.catalog import GRAPH_NAMES, PAPER_TABLE2, edges_for
from repro.gx.graph import degrees, edges_df
from repro.gx.kcore import peel
from repro.mce.bitgraph import LocalGraph

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
         "rounds", "Spark jobs"],
    )
    # One untimed run on a tiny graph (K4, a degree-2 vertex on one of its
    # edges, a pendant edge) starts the session's executors and planner,
    # so the first graph's seconds are comparable to the rest.
    warm = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (3, 5)]
    r = global_reduce_spark(spark, edges_df(spark, warm))
    r.cliques.collect()
    r.edges.collect()
    for name in names:
        e = edges_for(name, args.scale)
        local = graph_stats_local(name, args.scale)
        residual, pre, st = global_reduce_local(LocalGraph.from_edges(e))

        t0 = time.perf_counter()
        df = edges_df(spark, e).localCheckpoint(eager=True)
        s = graph_stats_spark(spark, df)
        t_stats = time.perf_counter() - t0
        t0 = time.perf_counter()
        sc.setJobGroup(f"fig8-{name}", "global reduction")
        r = global_reduce_spark(spark, df)
        sc.setLocalProperty("spark.jobGroup.id", None)
        rows = read_cliques(r.cliques)
        edges = {(row["src"], row["dst"]) for row in r.edges.collect()}
        jobs = _jobs_in_group(sc, f"fig8-{name}")
        t_red = time.perf_counter() - t0

        diff = [k for k in _STATS if s[k] != local[k]]
        if diff:
            raise SystemExit(
                f"[spark-sweep] {name}: Spark {diff} differ from the local "
                f"engine's: {s} vs {local}"
            )
        if edges != set(residual.edges()) or rows != set(pre) or r.stats != st:
            raise SystemExit(
                f"[spark-sweep] {name}: Spark residual edges, reported cliques "
                f"or sizes differ from the local engine's: {r.stats} vs {st}"
            )
        _, pn, pm, pdmax, plam = PAPER_TABLE2[name]
        row = [name, pn, pm, pdmax, plam, *(s[k] for k in _STATS), s["rounds"]]
        t2.append("| " + " | ".join(map(str, row)) + " |")
        row = [name, f"{st.vertex_ratio:.1%}", f"{st.edge_ratio:.1%}", len(rows),
               r.rounds, jobs]
        f8.append("| " + " | ".join(map(str, row)) + " |")
        print(
            f"[spark-sweep] {name}: {s}, {t_stats:.1f} s; global reduction "
            f"v={st.vertex_ratio:.1%} e={st.edge_ratio:.1%} {r.rounds} rounds, "
            f"{jobs} jobs, {t_red:.1f} s",
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
        "the local engine's on every graph above (the job exits non-zero",
        "otherwise). The Spark jobs column is for information only: it varies",
        "between runs of the same code and is not checked.",
    ]
    for stem, lines in (("table2", t2), ("fig8", f8)):
        out = os.path.join(args.out_dir, f"{stem}.md") if args.out_dir else None
        emit(out, "\n".join(lines))
    spark.stop()


if __name__ == "__main__":
    main()
