import os
import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One SparkSession for the whole test session: the jobs' own
    ``job_session``, so tests launch Spark with the settings the jobs do
    (master and driver memory from ``SPARK_MASTER`` and
    ``SPARK_DRIVER_MEM``, see ``repro.bench.jobutil``)."""
    # Imported here: ``repro`` is on the path only once ``src`` is, and
    # this file is also loaded for ``pytest perfbench``.
    from repro.bench.jobutil import job_session

    s = job_session("repro-tests")
    # One stderr line that says where the driver memory came from (env,
    # cgroup limit or fallback) and which master the session got.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
