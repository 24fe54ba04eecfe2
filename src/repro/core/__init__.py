"""Core WebWave algorithms: the paper's primary contribution.

This package contains everything Sections 2-5 of the paper define:

* :mod:`repro.core.tree` - rooted routing trees;
* :mod:`repro.core.load` - load assignments (``E``, ``L``, ``A``);
* :mod:`repro.core.constraints` - Constraints 1-2 (root / NSS), LB, GLE, TLB;
* :mod:`repro.core.webfold` - the provably optimal offline folding algorithm,
  server capacity as its parameter (its two independent cross-checks live
  with the tests, ``tests/oracle/``);
* :mod:`repro.core.diffusion` - Cybenko-style diffusion on general graphs;
* :mod:`repro.core.policy` - the Figure 5 decision arithmetic itself, in
  every shape its consumers need (sync/clip/capacity/scalar/greedy);
* :mod:`repro.core.kernel` - the vectorized array engine every rate-level
  simulator (webwave / forest / async / dynamics) delegates to;
* :mod:`repro.core.webwave` - the distributed rate-level protocol (Figure 5);
* :mod:`repro.core.barriers` - per-document protocol, barriers, tunneling;
* :mod:`repro.core.convergence` - distance traces and the gamma regression.
"""

from .barriers import DocumentWebWave, DocumentWebWaveConfig, find_potential_barriers
from .constraints import gle_feasible
from .convergence import fit_gamma
from .kernel import SyncEngine, degree_edge_alphas, flatten
from .tree import kary_tree, random_tree
from .webfold import webfold
from .webwave import WebWaveConfig, run_webwave

__all__ = [
    "DocumentWebWave",
    "DocumentWebWaveConfig",
    "SyncEngine",
    "WebWaveConfig",
    "degree_edge_alphas",
    "find_potential_barriers",
    "fit_gamma",
    "flatten",
    "gle_feasible",
    "kary_tree",
    "random_tree",
    "run_webwave",
    "webfold",
]
