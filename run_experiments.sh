#!/usr/bin/env bash
# Regenerate every EXPERIMENTS.md table (markdown written to results/).
# Timing-sensitive local-kernel jobs run first; Spark jobs afterwards.
# Figure 8 runs with both engines on all 18 bench analogs; the Spark run
# exits non-zero unless its residual edges and reported cliques equal the
# local engine's. The pipeline demo exits non-zero unless its cliques, λ
# and every Figure 9/10 counter equal the local engine's; pipefail keeps
# that exit status through tee.
set -exo pipefail
cd "$(dirname "$0")"
P=python
$P jobs/table3_ablation.py --scale bench --repeats 3 --out results/table3.md
$P jobs/fig7_speedups.py --scale bench --repeats 3 --out results/fig7.md
$P jobs/fig9_recursive_calls.py --scale bench --out results/fig9.md
$P jobs/fig10_forbidden_reduction.py --scale bench --out results/fig10.md
$P jobs/fig11_vertex_visits.py --scale bench --out results/fig11.md
$P jobs/fig8_reduction_ratio.py --scale bench --engine local --out results/fig8_local.md
$P jobs/table2_graph_stats.py --scale bench --engine spark --out results/table2_spark.md
$P jobs/fig8_reduction_ratio.py --scale bench --engine spark --out results/fig8_spark.md
$P jobs/spark_pipeline.py --graph ca-CondMat --scale unit | tee results/spark_pipeline.log
