#!/usr/bin/env python
"""End-to-end distributed RMCE demo: run the full Spark pipeline (global
reduction → distributed degeneracy order → ignoreId precompute → subproblem
materialization → applyInPandas kernel) on one catalog analog and
cross-check the clique set against the local engine.

Usage::

    spark-submit jobs/spark_pipeline.py [--graph ca-CondMat] [--scale unit]
        [--recursion pivot] [--baseline]
"""
from __future__ import annotations

import argparse
import time

from repro.bench.jobutil import job_session
from repro.core.spark_rmce import enumerate_cliques_spark
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import enumerate_cliques


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--graph", default="ca-CondMat")
    ap.add_argument("--scale", default="unit", choices=["unit", "bench"])
    ap.add_argument("--recursion", default="pivot",
                    choices=["pivot", "rcd", "facen", "revised"])
    ap.add_argument("--baseline", action="store_true",
                    help="run the BK baseline pipeline (no reductions)")
    args = ap.parse_args()

    spark = job_session("spark-rmce")
    e = edges_for(args.graph, args.scale)
    df = edges_df(spark, e)
    red = not args.baseline
    t0 = time.time()
    res = enumerate_cliques_spark(
        spark, df, recursion=args.recursion,
        global_reduction=red, dynamic=red, maxcheck=red,
    )
    got = {tuple(int(t) for t in r["clique"].split(",")) for r in res.cliques.collect()}
    elapsed = time.time() - t0
    local = enumerate_cliques(
        LocalGraph.from_edges(e), recursion=args.recursion,
        global_reduction=red, dynamic=red, maxcheck=red,
    )
    ok = got == local.cliques
    print(
        f"[spark-rmce] graph={args.graph} scale={args.scale} "
        f"recursion={args.recursion} reductions={'on' if red else 'off'}\n"
        f"  cliques={len(got)} (local {len(local.cliques)}) match={ok}\n"
        f"  degeneracy={res.degeneracy} recursive_calls={res.recursive_calls} "
        f"subproblems={res.subproblems}\n"
        f"  wall={elapsed:.1f}s"
    )
    converged = True
    if res.reduction is not None:
        r = res.reduction
        converged = r.converged
        print(
            f"  global reduction: vertices -{r.vertex_ratio:.1%} "
            f"edges -{r.edge_ratio:.1%} rounds={r.rounds} converged={converged}"
        )
    spark.stop()
    if not (ok and converged):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
