#!/usr/bin/env bash
# Regenerate every EXPERIMENTS.md table (markdown written to results/) and
# each job's console output (results/<name>.log, stderr included).
# Timing-sensitive local-kernel jobs run first; Spark jobs afterwards.
# Figure 8 runs with both engines on all 18 bench analogs; the Spark run
# exits non-zero unless its residual edges and reported cliques equal the
# local engine's. The Spark Table 2 run exits non-zero unless n, m, d_max
# and λ equal the local engine's. The pipeline demo exits non-zero unless
# its cliques, λ and every Figure 9/10 counter equal the local engine's;
# pipefail keeps each exit status through tee.
set -exo pipefail
cd "$(dirname "$0")"
P=python
$P jobs/table3_ablation.py --scale bench --repeats 3 --out results/table3.md 2>&1 | tee results/table3.log
$P jobs/fig7_speedups.py --scale bench --repeats 3 --out results/fig7.md 2>&1 | tee results/fig7.log
$P jobs/fig9_recursive_calls.py --scale bench --out results/fig9.md 2>&1 | tee results/fig9.log
$P jobs/fig10_forbidden_reduction.py --scale bench --out results/fig10.md 2>&1 | tee results/fig10.log
$P jobs/fig11_vertex_visits.py --scale bench --out results/fig11.md 2>&1 | tee results/fig11.log
$P jobs/fig8_reduction_ratio.py --scale bench --engine local --out results/fig8_local.md 2>&1 | tee results/fig8_local.log
$P jobs/table2_graph_stats.py --scale bench --engine spark --out results/table2_spark.md 2>&1 | tee results/table2_spark.log
$P jobs/fig8_reduction_ratio.py --scale bench --engine spark --out results/fig8_spark.md 2>&1 | tee results/fig8_spark.log
$P jobs/spark_pipeline.py --graph ca-CondMat --scale unit 2>&1 | tee results/spark_pipeline.log
