#!/usr/bin/env python3
"""The repository's benchmark: both MCE engines, end to end and by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload local-rmce --seed 1 --seconds 20 --trace 0

Workloads (``WORKLOADS``):

- ``local-rmce``: RMCEdegen through ``repro.mce.engine.enumerate_cliques`` on
  seven ``bench`` analogs, checked against BKdegen.
- ``local-bk``: BKdegen on the same graphs, checked against RMCEdegen. It
  skips global reduction and Algorithm 8, so changes to those two layers
  should leave it unchanged.
- ``spark-rmce``: the full ``enumerate_cliques_spark`` pipeline plus the
  collect, on ``unit`` roadNet-CA, checked against the local engine.

The seed draws a vertex relabelling of every graph: clique counts stay the
same, id-dependent tie-breaks change. After set-up the run repeats passes
(one enumeration of every graph) until ``--seconds`` have elapsed and at
least the workload's ``min_passes`` have run.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s`` and
``peak_rss_mb``. ``wall_s`` is the sum over the workload's graphs of the
graph's median enumeration time over the run's passes (Spark has one
graph: the median pass). The local workloads time each enumeration, and
each graph build of their set-up, in reference seconds (``refclock``):
scaled by the host speed that a probe on either side of it reads, because
on a shared 4-core host the raw medians of same-code runs spread by 10-27%
of their median. Raw times are kept in the run record. The Spark workload
reports raw seconds.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (mean per pass, raw seconds),
``trace_overhead`` (``wall_s`` of the traced passes over that of the
untraced ones) and ``failed_frac``. Every enumeration, warm-up included,
is checked against the graph's pinned clique count, a reference clique set
computed in set-up, and exactly-once emission; the checks run outside the
timed calls.
``failed_frac`` is 0 on a correct run, so it is a per-layer metric rather
than an end-to-end one; the result line carries the same share as
``failed`` / ``attempted`` in both modes.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (passes, per-graph times,
per-graph layer spans, run metadata) goes to ``.perfbench-out/``.
``python3 -m pytest perfbench`` runs the benchmark's self-test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-out"
WORKLOADS = ("local-rmce", "local-bk", "spark-rmce")


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_workload(name: str, seed: int):
    if name == "spark-rmce":
        from sparkbench import SparkWorkload

        return SparkWorkload(seed, ROOT, WORK, os.cpu_count() or 1)
    from localbench import LocalWorkload

    if name == "local-rmce":
        return LocalWorkload("RMCEdegen", "BKdegen", seed)
    return LocalWorkload("BKdegen", "RMCEdegen", seed)


def median_sum(passes: list[dict[str, float]]) -> float:
    """Σ over graphs of the graph's median time among ``passes``."""
    return sum(median(p[graph] for p in passes) for graph in passes[0])


def check_self_times(rec, times: dict[str, float]) -> None:
    """Each graph's layer self times must add up to its traced wall time."""
    for graph, wall in times.items():
        total = rec.self_total(graph)
        if abs(total - wall) > 0.01 * wall + 0.005:
            raise RuntimeError(
                f"{graph}: layer self times sum to {total:.4f}s, "
                f"traced wall is {wall:.4f}s"
            )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)

    wl = make_workload(args.workload, args.seed)
    untraced: list[dict[str, float]] = []
    untraced_raw: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    recs = []
    try:
        setup_s = wl.setup()
        t0 = perf_counter()
        while len(untraced) + len(traced) < wl.min_passes or perf_counter() - t0 < args.seconds:
            if args.trace and len(untraced) > len(traced):
                ref, raw, rec = wl.run_pass(traced=True)
                check_self_times(rec, raw)
                traced.append(ref)
                recs.append(rec)
            else:
                ref, raw, _ = wl.run_pass(traced=False)
                untraced.append(ref)
                untraced_raw.append(raw)
        measured_s = perf_counter() - t0
    finally:
        wl.close()

    gate = wl.gate
    pass_s = [sum(t.values()) for t in untraced]
    pass_raw_s = [sum(t.values()) for t in untraced_raw]
    wall_s = median_sum(untraced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **wl.meta,
        "passes": len(untraced),
        "pass_s": pass_s,
        "pass_raw_s": pass_raw_s,
        "pass_raw_median_s": median(pass_raw_s),
        "pass_graph_s": untraced,
        "pass_graph_raw_s": untraced_raw,
        "measured_s": measured_s,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.reasons,
    }
    if args.trace:
        from spans import merge

        per_graph = merge(recs)
        traced_s = [sum(t.values()) for t in traced]
        units = spec_units("per_layer")
        metrics = dict.fromkeys(units, 0.0)
        produced = wl.layer_metrics(per_graph)
        unknown = set(produced) - set(metrics)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics.update(produced)
        metrics["trace_overhead"] = median_sum(traced) / wall_s
        metrics["failed_frac"] = gate.failed_frac
        record.update(traced_passes=len(traced), traced_pass_s=traced_s, layers=per_graph)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = spec_units("end_to_end")
    record["metrics"] = metrics
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for reason in gate.reasons:
        print(f"perfbench: FAILED {reason}")
    print(
        f"perfbench: {args.workload} seed={args.seed} passes={len(untraced)} "
        f"pass_s={[round(s, 3) for s in pass_s]} record={out.relative_to(ROOT)}"
    )
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def spec_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
