"""The benchmark's traced passes patch program functions by name
(``perfbench/localbench.py`` and ``perfbench/sparkbench.py``) and read
result fields by name, so a rename of one of them fails here in under a
second, not only in the multi-second ``python3 -m pytest perfbench`` or as
a crash of a traced benchmark run."""
from __future__ import annotations

import importlib
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.spark_global import SparkReductionResult
from repro.core.spark_rmce import SparkMCEResult
from repro.mce.engine import EngineResult
from repro.mce.metrics import Metrics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", ["localbench", "sparkbench"])
def test_traced_targets_resolve(module: str, monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    bench = importlib.import_module(module)
    patch = spans.Patch(bench._targets(spans.Recorder()))
    try:
        patch.__enter__()  # AttributeError if a patched name is gone
    finally:
        # Also undoes the swaps a failed ``__enter__`` made before raising,
        # so no wrapper leaks into later tests.
        patch.__exit__(None, None, None)


def test_read_fields_exist() -> None:
    for cls, names in (
        (SparkMCEResult, {"cliques", "subproblems", "recursive_calls"}),
        (SparkReductionResult, {"rounds"}),
        (EngineResult, {"cliques", "reported", "metrics"}),
        (Metrics, {"recursive_calls", "cliques", "reduction_cliques"}),
    ):
        assert names <= {f.name for f in fields(cls)}, cls.__name__
