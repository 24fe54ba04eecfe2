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
* :mod:`repro.core.kernel` - the vectorized array round and the shared
  helpers every rate-level simulator builds on: webwave and dynamics wrap
  its :class:`SyncEngine`, while forest and async are their own engines;
* :mod:`repro.core.webwave` - the distributed rate-level protocol (Figure 5);
* :mod:`repro.core.barriers` - per-document protocol, barriers, tunneling;
* :mod:`repro.core.convergence` - distance traces and the gamma regression.
"""

from .barriers import DocumentWebWave, DocumentWebWaveConfig, find_potential_barriers
from .constraints import gle_feasible
from .convergence import fit_gamma
from .kernel import SyncEngine, degree_edge_alphas
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
    "gle_feasible",
    "kary_tree",
    "random_tree",
    "run_webwave",
    "webfold",
]
