"""The local-engine workloads: ``repro.mce.engine.enumerate_cliques`` on a
prebuilt ``LocalGraph`` per catalog analog.

Traced passes wrap the layer functions under the names the engine looks
them up by (``repro.mce.engine.*`` and ``repro.mce.recursions.dynamic_reduce``).
"""
from __future__ import annotations

import gc
from statistics import median

from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import algorithm_config, enumerate_cliques

from inputs import PINNED_COUNTS, Gate, relabelled_edges
from refclock import REF_PROBE_S, RefClock
from spans import Patch, Recorder, ratio, totals

SCALE = "bench"
# One analog per catalog family, so every local layer carries weight on
# some graph: the star-heavy pair is dominated by degeneracy ordering under
# BKdegen, the road and collaboration graphs by global reduction under
# RMCEdegen, and the dense and power-law graphs by the recursion.
GRAPHS = (
    "as-skitter",
    "ca-CondMat",
    "com-orkut",
    "email-EuAll",
    "roadNet-CA",
    "sc-delaunay_n23",
    "wiki-Talk",
)
SETUP_REPEATS = 3

LAYERS = (
    "mce.engine",
    "core.global_reduction",
    "mce.bitgraph.degeneracy_order",
    "core.forbidden_reduction",
    "mce.bitgraph.build_subproblem",
    "mce.recursions",
    "core.dynamic_reduction",
)


def _after_global(st, args, out) -> None:
    _reduced, pre, stats = out
    st["m_before"] += stats.m_before
    st["edges_removed"] += stats.m_before - stats.m_after
    st["cliques"] += len(pre)


def _after_forbidden(st, args, out) -> None:
    st["x_before"] += len(args[0])
    st["x_kept"] += len(out)


def _after_build(st, args, out) -> None:
    st["p_max"] = max(st["p_max"], len(args[2]))
    st["slots"] += len(args[2]) + len(args[3])


def _targets(rec: Recorder) -> dict:
    eng = "repro.mce.engine:"
    return {
        eng + "global_reduce_local": lambda f: rec.wrap("core.global_reduction", f, _after_global),
        eng + "degeneracy_order": lambda f: rec.wrap("mce.bitgraph.degeneracy_order", f),
        eng + "reduce_forbidden": lambda f: rec.wrap("core.forbidden_reduction", f, _after_forbidden),
        eng + "update_ignore_ids": lambda f: rec.wrap("core.forbidden_reduction", f),
        eng + "build_subproblem": lambda f: rec.wrap("mce.bitgraph.build_subproblem", f, _after_build),
        eng + "run_subproblem": lambda f: rec.wrap("mce.recursions", f),
        "repro.mce.recursions:dynamic_reduce": lambda f: rec.wrap("core.dynamic_reduction", f),
    }


class LocalWorkload:
    """``algo`` is timed; ``ref_algo`` computes the reference clique sets."""

    min_passes = 3

    def __init__(self, algo: str, ref_algo: str, seed: int):
        self.cfg = algorithm_config(algo)
        self.ref_cfg = algorithm_config(ref_algo)
        self.seed = seed
        self.gate = Gate()
        self.graphs: dict[str, LocalGraph] = {}
        self.reference: dict[str, set] = {}
        self.meta = {"scale": SCALE, "graphs": list(GRAPHS), "algorithm": algo,
                     "reference": ref_algo}

    def setup(self) -> float:
        """Input generation, relabelling and ``LocalGraph`` build, repeated
        ``SETUP_REPEATS`` times; returns the median, in reference seconds
        (each graph's build timed on its own). The reference run that
        follows is oracle work and not part of set-up."""
        def build(name: str) -> LocalGraph:
            return LocalGraph.from_edges(relabelled_edges(name, SCALE, self.seed))

        self.clock = RefClock()
        self.meta.update(ref_probe_s=REF_PROBE_S, probes_s=self.clock.readings,
                         setup_raw_s=[])
        times = []
        for _ in range(SETUP_REPEATS):
            graphs, raw, ref = {}, 0.0, 0.0
            for name in GRAPHS:
                graphs[name], raw_g, ref_g = self.clock.time(build, name)
                raw += raw_g
                ref += ref_g
            self.meta["setup_raw_s"].append(raw)
            times.append(ref)
        self.graphs = graphs
        self.reference = {
            name: enumerate_cliques(g, **self.ref_cfg).cliques
            for name, g in graphs.items()
        }
        # Move the benchmark's own heap (graphs, reference sets) out of the
        # collector's reach: otherwise every full collection traverses it
        # and adds tens of milliseconds to whichever timed call it lands in.
        gc.collect()
        gc.freeze()
        return median(times)

    def run_pass(self, traced: bool) -> tuple[dict[str, float], dict[str, float], Recorder | None]:
        """One enumeration of every graph: per-graph reference and raw
        seconds, and the spans when ``traced``."""
        rec = Recorder() if traced else None
        ref: dict[str, float] = {}
        raw: dict[str, float] = {}
        gc.collect()  # the previous pass's garbage, outside the timed calls
        with Patch(_targets(rec) if rec else {}):
            self.clock.restart()
            for name, g in self.graphs.items():
                if rec is not None:
                    rec.begin(name)
                (res, error), raw[name], ref[name] = self.clock.time(self._enumerate, g, rec)
                self.gate.check(
                    name,
                    None if res is None else res.cliques,
                    0 if res is None else len(res.reported),
                    self.reference[name],
                    PINNED_COUNTS[(SCALE, name)],
                    error,
                )
                if rec is not None and res is not None:
                    m = res.metrics
                    st = rec.stat("mce.recursions")
                    st["frames"] += m.recursive_calls
                    st["cliques"] += m.cliques - m.reduction_cliques
        return ref, raw, rec

    def _enumerate(self, g: LocalGraph, rec: Recorder | None):
        """``(result, "")``, or ``(None, error)`` if the engine raised."""
        try:
            if rec is None:
                return enumerate_cliques(g, **self.cfg), ""
            return rec.call("mce.engine", enumerate_cliques, g, **self.cfg), ""
        except Exception as exc:  # counted as a failed enumeration
            return None, repr(exc)

    def layer_metrics(self, per_graph: dict) -> dict[str, float]:
        """Workload totals of the traced counters (mean per traced pass)."""
        tot = totals(per_graph)
        out = {
            f"{layer}.{key}": tot[layer][key]
            for layer in LAYERS
            for key in ("s", "self_s", "calls")
        }
        g, f, b, r = (tot[k] for k in (
            "core.global_reduction", "core.forbidden_reduction",
            "mce.bitgraph.build_subproblem", "mce.recursions"))
        out["core.global_reduction.edges_removed_frac"] = ratio(g["edges_removed"], g["m_before"])
        out["core.global_reduction.cliques"] = g["cliques"]
        out["core.forbidden_reduction.x_kept_frac"] = ratio(f["x_kept"], f["x_before"])
        out["mce.bitgraph.build_subproblem.p_max"] = b["p_max"]
        out["mce.bitgraph.build_subproblem.slots"] = b["slots"]
        # .calls of the recursion layer counts recursion frames (Fig. 9);
        # the run_subproblem invocations are its .subproblems.
        out["mce.recursions.subproblems"] = r["calls"]
        out["mce.recursions.calls"] = r["frames"]
        out["mce.recursions.cliques_per_call"] = ratio(r["cliques"], r["frames"])
        return out

    def close(self) -> None:
        pass

