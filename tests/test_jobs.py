"""Job entrypoints run end-to-end (tiny scale, local engine paths).

The Spark-engine paths of the jobs are covered by the dedicated Spark tests
(same library calls); invoking them here would spawn/stop extra JVMs.
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


def test_table2_local(tmp_path):
    out = tmp_path / "t2.md"
    text = _run(
        "table2_graph_stats.py",
        "--engine", "local", "--scale", "unit",
        "--graphs", "ca-CondMat,inf-road-usa",
        "--out", str(out),
    )
    assert "Table 2" in out.read_text()
    assert "inf-road-usa" in text


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


def test_fig8_local(tmp_path):
    out = tmp_path / "f8.md"
    _run(
        "fig8_reduction_ratio.py",
        "--engine", "local", "--scale", "unit",
        "--graphs", "inf-road-usa,sc-delaunay_n23",
        "--out", str(out),
    )
    text = out.read_text()
    assert "100.0%" in text  # road analog fully deleted


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
        "table2_graph_stats.py",
        "local_sweep.py",
        "fig8_reduction_ratio.py",
        "fig11_vertex_visits.py",
        "spark_pipeline.py",
    ],
)
def test_job_help(job):
    _run(job, "--help")
