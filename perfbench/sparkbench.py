"""The Spark workload: ``repro.core.spark_rmce.enumerate_cliques_spark`` plus
collecting its ``cliques`` to the driver, in a session the benchmark owns.

Traced passes open one Spark job group per span, so every job, stage and
task is attributed to the innermost layer that launched it. Stage records
come from the application status store, which keeps every stage of the run
because the session raises the UI retention limits well above one run's
count; a missing record fails the run instead of being skipped.
"""
from __future__ import annotations

import os
from itertools import count
from pathlib import Path
from statistics import median
from time import perf_counter

from inputs import PINNED_COUNTS, Gate, relabelled_edges
from spans import Patch, Recorder, ratio, totals

SCALE = "unit"
# The road analog: global reduction removes the whole graph, so its rounds
# launch nearly all of the jobs. Larger analogs take minutes per pass.
GRAPH = "roadNet-CA"
SETUP_REPEATS = 3
# A run launches about 500 jobs and 800 stages (warm-up and passes); a
# longer run would reach the default retention of 1,000 stages.
RETAINED = 100_000
LAYERS = ("core.spark_rmce", "core.spark_global", "gx.kcore", "collect")


def start_session(root: Path, work: Path, nproc: int):
    """A ``local[nproc]`` session whose Python workers can import ``repro``
    and whose scratch files stay under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Both JVMs (launcher and driver): no hsperfdata file in the system
    # temp directory, and Java temp files under ``work``.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{nproc}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.ui.retainedJobs={RETAINED} "
        f"--conf spark.ui.retainedStages={RETAINED} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")  # as jobs/ sessions
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class JobGroups:
    """Span hook: a fresh Spark job group per span, and per-stage
    accounting of each group's jobs once the traced pass has ended."""

    # Shared by every traced pass: a group id reused by a later pass would
    # count the earlier pass's jobs again.
    _ids = count()

    def __init__(self, sc):
        self.sc = sc
        self._stack: list[str] = []
        self.spans: list[tuple[str, str, str]] = []  # (graph, layer, group)

    def enter(self, graph: str, layer: str) -> str:
        gid = f"perfbench-{next(self._ids)}"
        self.sc.setJobGroup(gid, layer)
        self._stack.append(gid)
        self.spans.append((graph, layer, gid))
        return gid

    def exit(self, gid: str) -> None:
        self._stack.pop()
        if self._stack:
            self.sc.setJobGroup(self._stack[-1], "")
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    def resolve(self, rec: Recorder) -> None:
        """Add jobs, stages, tasks, failed tasks, executor run time and
        shuffle records of every span's group to its layer's counters."""
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        store = jsc.statusStore()
        gw = self.sc._gateway
        jobs = []
        for graph, layer, gid in self.spans:
            jobs += [(jid, graph, layer) for jid in tracker.getJobIdsForGroup(gid)]
        seen: set[int] = set()
        # A reused shuffle stage is listed by every later job that reads it
        # (as skipped); in job order it is counted for the job that ran it.
        for jid, graph, layer in sorted(jobs):
            info = tracker.getJobInfo(jid)
            if info is None:
                raise RuntimeError(f"job {jid} of {layer} has no status record")
            st = rec.layers[graph][layer]
            st["jobs"] += 1
            for sid in info.stageIds:
                if sid in seen:
                    continue
                seen.add(sid)
                attempts = store.stageData(
                    sid, False, gw.jvm.java.util.ArrayList(), False,
                    gw.new_array(gw.jvm.double, 0),
                )
                if attempts.isEmpty():
                    raise RuntimeError(f"stage {sid} of job {jid} has no record")
                for k in range(attempts.size()):
                    d = attempts.apply(k)
                    if d.status().toString() == "SKIPPED":
                        continue
                    st["stages"] += 1
                    st["tasks"] += d.numTasks()
                    st["failed_tasks"] += d.numFailedTasks()
                    st["run_s"] += d.executorRunTime() / 1000.0
                    st["shuffle_records"] += d.shuffleWriteRecords()
        self.spans.clear()


class SparkWorkload:
    """The RMCEdegen pipeline on one ``unit`` catalog analog."""

    # Passes are timed in raw seconds: neither the driver's CPU probe nor a
    # tiny reference job tracked them (a pass launches ~115 jobs across four
    # task threads, and the JIT keeps warming up for minutes), so scaling by
    # either left the run-to-run spread as wide. A second warm-up pass did not
    # narrow it either; a fourth timed pass narrows the median's share of the
    # per-pass spread (10-14% even after minutes of warm-up).
    min_passes = 4

    def __init__(self, seed: int, root: Path, work: Path, nproc: int):
        self.seed = seed
        self.root, self.work, self.nproc = root, work, nproc
        self.gate = Gate()
        self.spark = None
        self.meta = {"scale": SCALE, "graphs": [GRAPH], "algorithm": "RMCEdegen",
                     "reference": "local RMCEdegen",
                     "peak_rss_scope": "Python driver process only"}

    def setup(self) -> float:
        """Session start, then input generation, relabelling, ``edges_df``
        load and checkpoint (median of ``SETUP_REPEATS``), then one checked
        warm-up pass, in raw seconds. The local reference run is oracle
        work and not included."""
        from repro.gx.graph import edges_df
        from repro.mce.bitgraph import LocalGraph
        from repro.mce.engine import algorithm_config, enumerate_cliques

        t0 = perf_counter()
        self.spark = start_session(self.root, self.work, self.nproc)
        session_s = perf_counter() - t0
        self.meta["spark"] = self.spark.version
        loads = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            edges = relabelled_edges(GRAPH, SCALE, self.seed)
            self.df = edges_df(self.spark, edges).localCheckpoint(eager=True)
            loads.append(perf_counter() - t0)
        ref = enumerate_cliques(LocalGraph.from_edges(edges), **algorithm_config("RMCEdegen"))
        self.reference = {",".join(map(str, c)) for c in ref.cliques}
        t0 = perf_counter()
        self.run_pass(traced=False)
        warm_s = perf_counter() - t0
        return session_s + median(loads) + warm_s

    def run_pass(self, traced: bool) -> tuple[dict[str, float], dict[str, float], Recorder | None]:
        """One pipeline run and collect: its seconds (raw, so twice: as the
        reference and as the raw time), and the spans when ``traced``."""
        from repro.core.spark_rmce import enumerate_cliques_spark

        rows, error = None, ""
        groups = JobGroups(self.spark.sparkContext) if traced else None
        rec = Recorder(groups) if traced else None
        if rec:
            rec.begin(GRAPH)
        with Patch(_targets(rec) if rec else {}):
            t0 = perf_counter()
            try:
                if rec is None:
                    rows = enumerate_cliques_spark(self.spark, self.df).cliques.collect()
                else:
                    res = rec.call("core.spark_rmce", enumerate_cliques_spark, self.spark, self.df)
                    rows = rec.call("collect", res.cliques.collect)
            except Exception as exc:  # counted as a failed enumeration
                error = repr(exc)
            wall = perf_counter() - t0
        got = None if rows is None else {r["clique"] for r in rows}
        self.gate.check(
            GRAPH, got, 0 if rows is None else len(rows), self.reference,
            PINNED_COUNTS[(SCALE, GRAPH)], error,
        )
        if rec and rows is not None:
            st = rec.stat("core.spark_rmce")
            st["subproblems"] += res.subproblems
            st["recursive_calls"] += res.recursive_calls
            rec.stat("collect")["rows"] += len(rows)
        if rec:
            groups.resolve(rec)
        return {GRAPH: wall}, {GRAPH: wall}, rec

    def layer_metrics(self, per_graph: dict) -> dict[str, float]:
        """Workload totals of the traced counters (mean per traced pass)."""
        tot = totals(per_graph)
        out: dict[str, float] = {}
        for layer in LAYERS:
            st = tot[layer]
            for key in ("s", "self_s", "calls", "jobs", "tasks", "shuffle_records"):
                out[f"{layer}.{key}"] = st[key]
            # Executor run time over the span's own wall time × cores.
            out[f"{layer}.busy"] = ratio(st["run_s"], st["self_s"] * self.nproc)
        out["core.spark_global.rounds"] = tot["core.spark_global"]["rounds"]
        out["gx.kcore.rounds"] = tot["gx.kcore"]["rounds"]
        out["core.spark_rmce.subproblems"] = tot["core.spark_rmce"]["subproblems"]
        out["core.spark_rmce.recursive_calls"] = tot["core.spark_rmce"]["recursive_calls"]
        out["collect.rows"] = tot["collect"]["rows"]
        out["spark.failed_tasks"] = sum(tot[layer]["failed_tasks"] for layer in LAYERS)
        return out

    def close(self) -> None:
        """Stop the session and wait for the JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        self.spark = None


def _after_global(st, args, out) -> None:
    st["rounds"] += out.rounds


def _targets(rec: Recorder) -> dict:
    def count_round(f):
        def wrapper(*args, **kwargs):
            rec.stat("gx.kcore")["rounds"] += 1
            return f(*args, **kwargs)

        return wrapper

    return {
        "repro.core.spark_rmce:global_reduce_spark": lambda f: rec.wrap("core.spark_global", f, _after_global),
        "repro.core.spark_rmce:degeneracy_order_spark": lambda f: rec.wrap("gx.kcore", f),
        # One batch removal per non-empty peeling round.
        "repro.gx.kcore:remove_vertices": count_round,
    }
