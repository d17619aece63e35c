"""The benchmark's traced passes patch program functions by name
(``perfbench/localbench.py`` and ``perfbench/sparkbench.py``), so a rename
of one of them fails here in under a second, not only in the multi-second
``python3 -m pytest perfbench``."""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

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
