"""Baselines the paper compares against in Table 6.

Every baseline exposes the small ``DistanceOracle`` duck-type used by
the benchmark harness:

* ``name`` — row label for the tables;
* ``query(s, t) -> float`` — exact distance, ``inf`` if unreachable;
* ``size_in_bytes() -> int`` — index footprint (0 for online search).

Implemented from scratch:

* :mod:`paper.baselines.pll` — Pruned Landmark Labeling (Akiba et al.,
  SIGMOD 2013);
* :mod:`paper.baselines.islabel` — IS-Label (Fu et al., PVLDB 2013),
  full-index and residual-graph modes;
* :mod:`paper.baselines.hcl` — HCL-lite, a highway-cover stand-in for
  Highway-Centric Labeling (see DESIGN.md substitutions);
* :mod:`paper.baselines.bidij` — index-free bidirectional BFS/Dijkstra;
* :mod:`paper.baselines.apsp` — ground-truth all-pairs oracle for tests.
"""

from paper.baselines.apsp import APSPOracle
from paper.baselines.bidij import BidirectionalSearchOracle
from paper.baselines.hcl import HCLLiteOracle, build_hcl
from paper.baselines.islabel import ISLabelIndex, build_islabel
from paper.baselines.pll import build_pll

__all__ = [
    "APSPOracle",
    "BidirectionalSearchOracle",
    "HCLLiteOracle",
    "build_hcl",
    "ISLabelIndex",
    "build_islabel",
    "build_pll",
]
