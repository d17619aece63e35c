#!/usr/bin/env bash
# Regenerate every EXPERIMENTS.md table (markdown written to results/) and
# each job's console output (results/<name>.log, stderr included).
# Timing-sensitive local-kernel jobs run first; Spark jobs afterwards.
# One local sweep writes Table 3 and Figures 7, 9 and 10 (table3.md,
# fig7.md, fig9.md, fig10.md); it exits non-zero unless all 11 engine
# configurations report the same cliques on every graph.
# Figure 8 runs with both engines on all 18 bench analogs; the Spark run
# exits non-zero unless its residual edges and reported cliques equal the
# local engine's. The Spark Table 2 run exits non-zero unless n, m, d_max
# and λ equal the local engine's. The pipeline demo exits non-zero unless
# its cliques, λ and every Figure 9/10 counter equal the local engine's;
# pipefail keeps each exit status through tee.
set -exo pipefail
cd "$(dirname "$0")"
P=python
$P jobs/local_sweep.py --scale bench --repeats 3 --out-dir results 2>&1 | tee results/local_sweep.log
$P jobs/fig11_vertex_visits.py --scale bench --out results/fig11.md 2>&1 | tee results/fig11.log
$P jobs/fig8_reduction_ratio.py --scale bench --engine local --out results/fig8_local.md 2>&1 | tee results/fig8_local.log
$P jobs/table2_graph_stats.py --scale bench --engine spark --out results/table2_spark.md 2>&1 | tee results/table2_spark.log
$P jobs/fig8_reduction_ratio.py --scale bench --engine spark --out results/fig8_spark.md 2>&1 | tee results/fig8_spark.log
$P jobs/spark_pipeline.py --graph ca-CondMat --scale unit 2>&1 | tee results/spark_pipeline.log
