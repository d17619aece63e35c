#!/usr/bin/env python
"""End-to-end distributed RMCE demo: run the full Spark pipeline (global
reduction → distributed degeneracy order → ignoreId precompute → subproblem
materialization → applyInPandas kernel) on one catalog analog and
cross-check the clique set, λ and every Figure 9/10 counter against the
local engine (both peel in the same order); exits non-zero on a difference.

Usage::

    spark-submit jobs/spark_pipeline.py [--graph ca-CondMat] [--scale unit]
"""
from __future__ import annotations

import argparse
import time

from repro.bench.jobutil import job_session
from repro.core.spark_global import read_cliques
from repro.core.spark_rmce import _COUNTERS, enumerate_cliques_spark
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import enumerate_cliques


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--graph", default="ca-CondMat")
    ap.add_argument("--scale", default="unit", choices=["unit", "bench"])
    args = ap.parse_args()

    spark = job_session("spark-rmce")
    e = edges_for(args.graph, args.scale)
    df = edges_df(spark, e)
    t0 = time.time()
    res = enumerate_cliques_spark(spark, df)
    got = read_cliques(res.cliques)
    elapsed = time.time() - t0
    local = enumerate_cliques(LocalGraph.from_edges(e))
    ok = got == local.cliques
    pairs = {"degeneracy": (res.degeneracy, local.degeneracy)}
    pairs |= {f: (getattr(res, f), getattr(local.metrics, f)) for f in _COUNTERS}
    same_counters = all(a == b for a, b in pairs.values())
    st = res.reduction.stats
    print(
        f"[spark-rmce] graph={args.graph} scale={args.scale}\n"
        f"  cliques={len(got)} (local {len(local.cliques)}) match={ok}\n"
        + "".join(f"  {f}={a} (local {b})\n" for f, (a, b) in pairs.items())
        + f"  counters match={same_counters}\n"
        f"  wall={elapsed:.1f}s\n"
        f"  global reduction: vertices -{st.vertex_ratio:.1%} "
        f"edges -{st.edge_ratio:.1%} rounds={res.reduction.rounds}\n"
        f"  residual edges={st.m_after} "
        f"search stage={'ran' if st.m_after else 'skipped'}"
    )
    spark.stop()
    if not (ok and same_counters):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
