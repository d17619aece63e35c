"""The 18-graph catalog: paper graph → synthetic analog.

Single source of truth for the reproduction's datasets. Each entry records
the paper's published statistics (Table 2) and a deterministic generator
spec for the offline analog at two scales:

- ``unit``  — tiny (hundreds of vertices), for correctness tests,
- ``bench`` — the scale used by jobs/ and perfbench/ (thousands of
  vertices; sized so the full 18 × 11-configuration sweep finishes in
  minutes with the Python kernel — see DESIGN.md §3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators as gen

# Paper Table 2 rows: (abbr, n, m, d_max, degeneracy)
PAPER_TABLE2: dict[str, tuple[str, int, int, int, int]] = {
    "as-skitter": ("as", 1696415, 11095298, 35455, 111),
    "ca-CondMat": ("ca", 23133, 93439, 279, 25),
    "cit-Patents": ("cp", 3774768, 16518947, 793, 64),
    "com-dblp": ("cd", 317080, 1049866, 343, 113),
    "com-orkut": ("co", 3072441, 117185083, 33313, 253),
    "com-youtube": ("cy", 1134890, 2987624, 28754, 51),
    "email-EuAll": ("ee", 265009, 364481, 7636, 37),
    "flickr": ("fl", 105938, 2316948, 5425, 573),
    "inf-road-usa": ("in", 23947346, 28854311, 9, 3),
    "large_twitch": ("lt", 168114, 6797557, 35279, 149),
    "loc-gowalla": ("lg", 196591, 950327, 14730, 51),
    "roadNet-CA": ("rc", 1965206, 2766607, 12, 3),
    "sc-delaunay_n23": ("sd", 8388608, 25165784, 28, 4),
    "soc-pokec": ("sp", 1632803, 22301964, 14854, 47),
    "soc-twitter-higgs": ("st", 456631, 12508440, 51386, 125),
    "web-Google": ("wg", 875713, 4322051, 6332, 44),
    "web-Stanford": ("ws", 281903, 1992636, 38625, 71),
    "wiki-Talk": ("wt", 2394385, 4659565, 100029, 131),
}

GRAPH_NAMES: list[str] = list(PAPER_TABLE2)


@dataclass(frozen=True)
class GraphSpec:
    """A catalog entry: family label plus per-scale generator thunks."""

    name: str
    abbr: str
    family: str
    make_unit: Callable[[], np.ndarray]
    make_bench: Callable[[], np.ndarray]

    def edges(self, scale: str = "bench") -> np.ndarray:
        if scale == "unit":
            return self.make_unit()
        if scale == "bench":
            return self.make_bench()
        raise ValueError(f"unknown scale {scale!r} (use 'unit' or 'bench')")


def _spec(name, family, unit, bench):
    return GraphSpec(name, PAPER_TABLE2[name][0], family, unit, bench)


# Seeds are keyed by catalog position so analogs are independent draws.
_CATALOG: dict[str, GraphSpec] = {
    "as-skitter": _spec(
        "as-skitter", "powerlaw-internet",
        lambda: gen.barabasi_albert(220, 4, seed=101, triad_p=0.2),
        lambda: gen.barabasi_albert(5000, 6, seed=101, triad_p=0.2),
    ),
    "ca-CondMat": _spec(
        "ca-CondMat", "collab-cliques",
        lambda: gen.planted_cliques(200, 50, 3, 7, background_m=60, seed=102),
        lambda: gen.planted_cliques(4000, 1400, 3, 9, background_m=1500, seed=102),
    ),
    "cit-Patents": _spec(
        "cit-Patents", "citation-powerlaw",
        lambda: gen.chung_lu(300, 4.0, exponent=2.6, seed=103, closure=0.6),
        lambda: gen.chung_lu(9000, 8.0, exponent=2.6, seed=103, closure=0.6),
    ),
    "com-dblp": _spec(
        "com-dblp", "collab-cliques",
        lambda: gen.planted_cliques(220, 45, 3, 8, background_m=40, seed=104),
        lambda: gen.planted_cliques(5000, 1500, 3, 10, background_m=1200, seed=104),
    ),
    "com-orkut": _spec(
        "com-orkut", "dense-social",
        lambda: gen.dense_community(200, 6, 4, 10, seed=105),
        lambda: gen.dense_community(4000, 12, 30, 14, seed=105),
    ),
    "com-youtube": _spec(
        "com-youtube", "social-powerlaw",
        lambda: gen.chung_lu(280, 4.0, exponent=2.2, seed=106, closure=0.5),
        lambda: gen.chung_lu(9000, 5.0, exponent=2.2, seed=106, closure=0.5),
    ),
    "email-EuAll": _spec(
        "email-EuAll", "star-heavy",
        lambda: gen.star_heavy(260, 4, 120, leaf_fraction=0.5, seed=107),
        lambda: gen.star_heavy(9000, 8, 5000, leaf_fraction=0.55, seed=107),
    ),
    "flickr": _spec(
        "flickr", "dense-social",
        lambda: gen.dense_community(180, 8, 3, 12, seed=108),
        lambda: gen.dense_community(2500, 16, 25, 18, seed=108),
    ),
    "inf-road-usa": _spec(
        "inf-road-usa", "road",
        lambda: gen.grid_road(12, 12, spur_fraction=0.2, seed=109),
        lambda: gen.grid_road(110, 110, spur_fraction=0.2, seed=109),
    ),
    "large_twitch": _spec(
        "large_twitch", "dense-social",
        lambda: gen.dense_community(200, 7, 3, 10, seed=110),
        lambda: gen.dense_community(3500, 12, 20, 15, seed=110),
    ),
    "loc-gowalla": _spec(
        "loc-gowalla", "social-powerlaw",
        lambda: gen.chung_lu(260, 5.0, exponent=2.4, seed=111, closure=0.8),
        lambda: gen.chung_lu(8000, 9.0, exponent=2.4, seed=111, closure=0.8),
    ),
    "roadNet-CA": _spec(
        "roadNet-CA", "road",
        lambda: gen.grid_road(11, 11, spur_fraction=0.15, seed=112),
        lambda: gen.grid_road(100, 100, spur_fraction=0.15, seed=112),
    ),
    "sc-delaunay_n23": _spec(
        "sc-delaunay_n23", "triangulation",
        lambda: gen.triangulated_grid(12, 12, seed=113),
        lambda: gen.triangulated_grid(90, 90, seed=113),
    ),
    "soc-pokec": _spec(
        "soc-pokec", "social-powerlaw",
        lambda: gen.chung_lu(280, 6.0, exponent=2.5, seed=114, closure=0.8),
        lambda: gen.chung_lu(8000, 12.0, exponent=2.5, seed=114, closure=0.8),
    ),
    "soc-twitter-higgs": _spec(
        "soc-twitter-higgs", "dense-social",
        lambda: gen.dense_community(220, 8, 3, 10, seed=115),
        lambda: gen.dense_community(3500, 14, 20, 14, seed=115),
    ),
    "web-Google": _spec(
        "web-Google", "web-powerlaw",
        lambda: gen.chung_lu(280, 5.0, exponent=2.3, seed=116, closure=0.7),
        lambda: gen.chung_lu(8000, 8.0, exponent=2.3, seed=116, closure=0.7),
    ),
    "web-Stanford": _spec(
        "web-Stanford", "web-powerlaw",
        lambda: gen.chung_lu(240, 6.0, exponent=2.2, seed=117, closure=0.8),
        lambda: gen.chung_lu(6000, 10.0, exponent=2.2, seed=117, closure=0.8),
    ),
    "wiki-Talk": _spec(
        "wiki-Talk", "star-heavy",
        lambda: gen.star_heavy(280, 5, 150, leaf_fraction=0.55, seed=118),
        lambda: gen.star_heavy(10000, 10, 6000, leaf_fraction=0.6, seed=118),
    ),
}


def get_spec(name: str) -> GraphSpec:
    """Look up a catalog entry by paper graph name."""
    return _CATALOG[name]


def edges_for(name: str, scale: str = "bench") -> np.ndarray:
    """Canonical edge array for the analog of ``name`` at ``scale``."""
    return get_spec(name).edges(scale)
