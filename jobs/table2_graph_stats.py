#!/usr/bin/env python
"""Reproduce Table 2 (graph statistics): n, m, d_max, degeneracy λ.

Statistics of the 18 synthetic analogs are computed with the Spark
substrate — n, m and d_max from one aggregate over the ``groupBy`` degrees,
λ via distributed batch peeling (``repro.gx.kcore``) — and printed next to
the paper's published numbers. With ``--engine spark`` the table also
reports each graph's peel rounds, and the job computes the same statistics
with the local engine and exits non-zero unless they are equal.

Usage::

    spark-submit jobs/table2_graph_stats.py [--scale bench] [--engine spark]
        [--out table2.md] [--graphs name1,name2]
"""
from __future__ import annotations

import argparse
import time

from pyspark.sql import functions as F

from repro.bench.harness import graph_stats_local
from repro.bench.jobutil import emit, job_session
from repro.graphs.catalog import GRAPH_NAMES, PAPER_TABLE2, edges_for
from repro.gx.graph import degrees, edges_df
from repro.gx.kcore import peel

_STATS = ("n", "m", "d_max", "degeneracy")


def stats_spark(spark, name: str, scale: str) -> dict:
    """Table 2 statistics via the distributed substrate, plus peel rounds."""
    df = edges_df(spark, edges_for(name, scale)).localCheckpoint(eager=True)
    n, deg_sum, d_max = degrees(df).agg(
        F.count("*"),
        F.coalesce(F.sum("degree"), F.lit(0)),
        F.coalesce(F.max("degree"), F.lit(0)),
    ).first()
    stamps, lam = peel(spark, df)
    last = stamps.agg(F.max("round")).first()[0]
    return {
        "graph": name, "n": n, "m": deg_sum // 2, "d_max": d_max,
        "degeneracy": lam, "rounds": 0 if last is None else last + 1,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="bench", choices=["unit", "bench"])
    ap.add_argument("--engine", default="spark", choices=["spark", "local"])
    ap.add_argument("--graphs", default=None, help="comma-separated subset")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    names = args.graphs.split(",") if args.graphs else GRAPH_NAMES

    spark = job_session("table2") if args.engine == "spark" else None
    cols = ["Graph", "paper n", "paper m", "paper d_max", "paper λ",
            "ours n", "ours m", "ours d_max", "ours λ"]
    if spark is not None:
        cols.append("peel rounds")
    lines = [
        "## Table 2 — graph statistics (paper vs synthetic analog)",
        "",
        "| " + " | ".join(cols) + " |",
        "|---" * len(cols) + "|",
    ]
    for name in names:
        t0 = time.perf_counter()
        s = local = graph_stats_local(name, args.scale)
        cells = []
        if spark is not None:
            s = stats_spark(spark, name, args.scale)
            diff = [k for k in _STATS if s[k] != local[k]]
            if diff:
                raise SystemExit(
                    f"[table2] {name}: Spark {diff} differ from the local "
                    f"engine's: {s} vs {local}"
                )
            cells.append(str(s["rounds"]))
        _, pn, pm, pdmax, plam = PAPER_TABLE2[name]
        row = [name, pn, pm, pdmax, plam, *(s[k] for k in _STATS), *cells]
        lines.append("| " + " | ".join(map(str, row)) + " |")
        print(f"[table2] {name}: {s} {time.perf_counter() - t0:.1f} s", flush=True)
    if spark is not None:
        lines += [
            "",
            "Spark n, m, d_max and λ equal the local engine's on every graph",
            "above (the job exits non-zero otherwise).",
        ]
    emit(args.out, "\n".join(lines))
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
