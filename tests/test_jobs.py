"""Job entrypoints run end-to-end at unit scale.

``spark_sweep.py`` runs its Spark path and its exit check on two graphs in
its own JVM: ca-CondMat reaches the pipeline's search stage, and
inf-road-usa is fully reduced, so the pipeline skips it. The jobs launch
Spark through ``job_session``: one more JVM checks its launch settings,
and a ``local-cluster`` run checks that its executors import ``repro``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.jobutil import _driver_mem

ROOT = Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"


def _run(job: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(JOBS / job), *args],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert proc.returncode == 0, f"{job} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One local_sweep.py run; the five tests below read its five files."""
    out = tmp_path_factory.mktemp("sweep")
    _run(
        "local_sweep.py",
        "--scale", "unit", "--repeats", "1",
        "--out-dir", str(out),
    )
    return out


def _sweep_file(out, name: str, title: str) -> str:
    text = (out / name).read_text()
    assert text.startswith(title), name
    assert "ca-CondMat" in text and "wiki-Talk" in text, name
    return text


def test_table3_ablation(sweep_dir):
    text = _sweep_file(sweep_dir, "table3.md", "## Table 3 — ablation study")
    assert "ours Variant1" in text


def test_fig7_speedups(sweep_dir):
    text = _sweep_file(sweep_dir, "fig7.md", "## Figure 7 (as table)")
    assert "RMCEdegen" in text and "paper max speedup" in text


def test_fig9_recursive_calls(sweep_dir):
    text = _sweep_file(sweep_dir, "fig9.md", "## Figure 9 (as table)")
    assert "BKdegen calls" in text


def test_fig10_forbidden(sweep_dir):
    text = _sweep_file(sweep_dir, "fig10.md", "## Figure 10 (as table)")
    assert "r_subproblem" in text


def test_spark_sweep(tmp_path):
    _run(
        "spark_sweep.py",
        "--scale", "unit",
        "--graphs", "ca-CondMat,inf-road-usa",
        "--out-dir", str(tmp_path),
    )
    t2 = (tmp_path / "table2.md").read_text()
    assert t2.startswith("## Table 2 — graph statistics")
    assert "peel rounds" in t2 and "ca-CondMat" in t2
    f8 = (tmp_path / "fig8.md").read_text()
    assert f8.startswith("## Figure 8 (as table)")
    assert "pipeline Spark jobs" in f8
    road = next(line for line in f8.splitlines() if line.startswith("| inf-road-usa"))
    assert "100.0%" in road  # road analog fully deleted


def test_fig11_visits(sweep_dir):
    text = (sweep_dir / "fig11.md").read_text()
    assert "mean vertex visits" in text and "com-dblp" in text


@pytest.mark.parametrize(
    "job",
    [
        "local_sweep.py",
        "spark_sweep.py",
    ],
)
def test_job_help(job):
    _run(job, "--help")


def test_job_session_launch_settings():
    """``job_session`` launches the driver JVM with ``SPARK_MASTER`` and
    ``SPARK_DRIVER_MEM`` when ``PYSPARK_SUBMIT_ARGS`` is unset."""
    env = {
        k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"
    } | {"SPARK_MASTER": "local[2]", "SPARK_DRIVER_MEM": "1g"}
    code = (
        "from repro.bench.jobutil import job_session\n"
        "s = job_session('launch-settings')\n"
        "print(s.sparkContext.master, s.conf.get('spark.driver.memory'))\n"
        "s.stop()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["local[2]", "1g"]


def test_executors_import_repro():
    """Executors in JVMs of their own (``local-cluster``) start their Python
    workers elsewhere, where the relative ``PYTHONPATH=src`` of the test
    command finds no ``repro``: the kernel imports the package that
    ``job_session`` ships."""
    env = {
        k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"
    } | {"SPARK_MASTER": "local-cluster[2,2,1024]", "PYTHONPATH": "src"}
    code = (
        "from repro.bench.jobutil import job_session\n"
        "from repro.core.spark_rmce import enumerate_cliques_spark, local_mismatches\n"
        "from repro.graphs.catalog import edges_for\n"
        "from repro.gx.graph import edges_df\n"
        "from repro.mce.bitgraph import LocalGraph\n"
        "from repro.mce.engine import enumerate_cliques\n"
        "s = job_session('executors')\n"
        "e = edges_for('ca-CondMat', 'unit')\n"
        "res = enumerate_cliques_spark(s, edges_df(s, e))\n"
        "print(local_mismatches(res, enumerate_cliques(LocalGraph.from_edges(e))))\n"
        "s.stop()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["{}"]


def test_driver_mem_within_physical_memory(monkeypatch):
    """Unset, ``SPARK_DRIVER_MEM`` defaults to at most the machine's memory."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    gib = int(_driver_mem().removesuffix("g"))
    assert gib << 30 <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
