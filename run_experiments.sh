#!/usr/bin/env bash
# Regenerate every EXPERIMENTS.md table (markdown written to results/) and
# each job's console output (results/<name>.log, stderr included).
# The timing-sensitive local-kernel job runs first, the Spark job after it.
# One local sweep writes Table 3 and Figures 7, 9, 10 and 11 (table3.md,
# fig7.md, fig9.md, fig10.md, fig11.md); it exits non-zero unless all 11
# engine configurations report the same cliques on every graph.
# One Spark sweep writes Table 2 and Figure 8 (table2.md, fig8.md) for all
# 18 bench analogs and runs the whole distributed RMCE pipeline on each; it
# exits non-zero unless Spark's n, m, d_max and λ, its global reduction's
# residual edges, reported cliques and before/after sizes, and the
# pipeline's clique set (each clique emitted once), λ and every Figure 9/10
# counter equal the local engine's. pipefail keeps each exit status through
# tee.
set -exo pipefail
cd "$(dirname "$0")"
P=python
$P jobs/local_sweep.py --scale bench --repeats 3 --out-dir results 2>&1 | tee results/local_sweep.log
$P jobs/spark_sweep.py --scale bench --out-dir results 2>&1 | tee results/spark_sweep.log
