"""Helpers for spark-submit job entrypoints in jobs/.

Jobs are standalone scripts (own SparkSession); tests use the shared
``spark`` fixture from conftest.py instead.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def job_session(app: str) -> SparkSession:
    """A local SparkSession sized for the catalog-scale graphs."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        # The console progress bar would land in the jobs' logs.
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(out_path: str | None, text: str) -> None:
    """Print a report and optionally tee it to a file."""
    print(text)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
