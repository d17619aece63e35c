"""Helpers for spark-submit job entrypoints in jobs/.

Jobs are standalone scripts, each with its own ``job_session``; the tests'
shared ``spark`` fixture (conftest.py) is a ``job_session`` too, so both
launch the driver JVM with the same settings.
"""
from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import zipfile
from pathlib import Path

from pyspark import SparkContext
from pyspark.sql import SparkSession


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half the physical memory in whole GiB, clamped to 2–8g, as
    the tier-1 test command computes it. spark.driver.memory is read at
    JVM launch, not from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS
    before the first session of the process starts.

    The cgroup read is best-effort: a container runtime's sysfs emulation
    may not pass the host limit through. An unbounded value (cgroup-v1's
    ~9.2e18 "unlimited" sentinel, or a missing limit) is treated as absent
    so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = Path(p).read_text().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (2 << 30)
    return f"{min(max(gib, 2), 8)}g"


def _ship_package(sc: SparkContext) -> None:
    """Zip the ``repro`` package and add it to the executors' Python path.

    An executor that runs in its own JVM (``local-cluster``, a cluster
    master) starts its Python workers in its own working directory, where
    the driver's ``PYTHONPATH`` does not lead to ``repro``. The zip stays
    on disk until the driver exits: the executors fetch it from there."""
    pkg = Path(__file__).resolve().parent.parent
    tmp = tempfile.mkdtemp(prefix="repro-pyfiles-")
    atexit.register(shutil.rmtree, tmp, True)
    out = os.path.join(tmp, "repro.zip")
    with zipfile.ZipFile(out, "w") as z:
        for f in sorted(pkg.rglob("*.py")):
            z.write(f, f.relative_to(pkg.parent))
    sc.addPyFile(out)


def job_session(app: str) -> SparkSession:
    """A local SparkSession sized for the catalog-scale graphs: the one
    session configuration of the jobs and the tests.

    The master is ``SPARK_MASTER`` (default ``local[*]``) and the driver
    memory is ``_driver_mem()``; an already-set ``PYSPARK_SUBMIT_ARGS``
    wins over both. A session that starts a new context ships ``repro`` to
    its executors."""
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    fresh = SparkContext._active_spark_context is None
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        # ``edges_df`` builds every input through ``createDataFrame(pandas)``.
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # The console progress bar would land in the jobs' logs.
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    if fresh:
        _ship_package(s.sparkContext)
    return s


def emit(out_path: str | None, text: str) -> None:
    """Print a report and optionally tee it to a file."""
    print(text)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
