"""The paper's published numbers (for paper-vs-ours rows in EXPERIMENTS.md).

Sources: Table 2 (graph statistics — kept in ``repro.graphs.catalog``),
Table 3 (ablation runtimes, seconds), and the evaluation text for the
headline figure statistics (§7.2-§7.3).
"""
from __future__ import annotations

# Table 3: running time in seconds of RMCEdegen and the three variants
# (Variant1 = no global reduction, Variant2 = no dynamic reduction,
# Variant3 = no maximality-check reduction).
PAPER_TABLE3: dict[str, tuple[float, float, float, float]] = {
    "as-skitter": (57.49, 51.22, 70.52, 60.77),
    "ca-CondMat": (0.05, 0.05, 0.06, 0.11),
    "cit-Patents": (22.14, 25.71, 25.85, 24.86),
    "com-dblp": (0.67, 0.75, 0.90, 0.90),
    "com-orkut": (2393.59, 2475.37, 2867.58, 2451.96),
    "com-youtube": (4.01, 3.74, 4.47, 4.19),
    "email-EuAll": (0.47, 0.39, 0.48, 0.44),
    "flickr": (178.86, 184.36, 249.78, 185.40),
    "inf-road-usa": (11.51, 19.07, 11.82, 11.62),
    "large_twitch": (325.24, 341.99, 408.66, 344.67),
    "loc-gowalla": (1.91, 1.74, 2.38, 2.06),
    "roadNet-CA": (0.95, 1.41, 0.97, 0.96),
    "sc-delaunay_n23": (11.52, 9.28, 13.53, 12.04),
    "soc-pokec": (44.77, 43.69, 49.62, 48.93),
    "soc-twitter-higgs": (391.48, 405.62, 478.73, 415.12),
    "web-Google": (2.55, 2.57, 3.00, 2.69),
    "web-Stanford": (1.51, 1.52, 2.08, 1.53),
    "wiki-Talk": (76.68, 75.63, 90.74, 80.63),
}

TABLE3_COLUMNS = ("RMCEdegen", "Variant1", "Variant2", "Variant3")

# §7.2: maximum speedup of each RMCE variant over its baseline, and where.
PAPER_FIG7_HEADLINES: dict[str, tuple[float, str]] = {
    "RMCEdegen": (4.29, "inf-road-usa"),
    "RMCErcd": (3.77, "flickr"),
    "RMCEfacen": (44.7, "web-Stanford"),
    "RMCErevised": (26.8, "large_twitch"),
}

# §7.3 (Fig. 9): upper bound of the recursive-call ratio vs BK baseline.
PAPER_FIG9_MAX_RATIO: dict[str, float] = {
    "RMCEdegen": 0.176,
    "RMCErcd": 0.285,
    "RMCEfacen": 0.045,
    "RMCErevised": 0.205,
}
