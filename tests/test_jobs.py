"""Job entrypoints run end-to-end at unit scale.

``spark_sweep.py`` runs its Spark path and its exit check on two graphs in
its own JVM. ``spark_pipeline.py`` is only started with ``--help``: its
library path is covered by ``tests/test_spark_rmce.py``.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


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
    """One local_sweep.py run; the four tests below read its four files."""
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
    assert "Spark jobs" in f8
    road = next(line for line in f8.splitlines() if line.startswith("| inf-road-usa"))
    assert "100.0%" in road  # road analog fully deleted


def test_fig11_visits(tmp_path):
    out = tmp_path / "f11.md"
    _run(
        "fig11_vertex_visits.py",
        "--scale", "unit",
        "--graphs", "com-dblp",
        "--out", str(out),
    )
    text = out.read_text()
    assert "mean vertex visits" in text and "com-dblp" in text


@pytest.mark.parametrize(
    "job",
    [
        "local_sweep.py",
        "spark_sweep.py",
        "fig11_vertex_visits.py",
        "spark_pipeline.py",
    ],
)
def test_job_help(job):
    _run(job, "--help")
