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

from .constraints import (
    gle_feasible,
    is_feasible,
    is_gle,
    is_tlb,
    lex_compare,
    lex_less,
    satisfies_nss,
    satisfies_root_constraint,
)
from .convergence import GammaFit, empirical_rate, fit_gamma, halving_time
from .barriers import (
    DocumentDemand,
    DocumentWebWave,
    DocumentWebWaveConfig,
    TunnelEvent,
    find_potential_barriers,
)
from .diffusion import (
    DiffusionTrace,
    Graph,
    asynchronous_diffusion,
    diffusion_matrix,
    metropolis_weights,
    spectral_gamma,
    synchronous_diffusion,
    uniform_weights,
)
from .async_webwave import AsyncResult, AsyncWebWave
from .dynamics import (
    RateSchedule,
    TrackingResult,
    flash_crowd_schedule,
    random_walk_schedule,
    resettle,
    run_tracking,
    step_change_schedule,
)
from .forest import ForestResult, ForestWebWave
from .kernel import (
    AsyncEngine,
    DiffusionStack,
    FlatTree,
    ForestEngine,
    SyncEngine,
    degree_edge_alphas,
    edge_alpha_map,
    edge_alphas,
    fixed_edge_alphas,
    flatten,
    forwarded_rates,
    subtree_accumulate,
)
from .load import LoadAssignment, proportional_assignment, uniform_assignment
from .policy import (
    capacity_edge_transfers,
    clip_edge_transfers,
    diffusion_budget,
    greedy_delegate,
    greedy_pull,
    greedy_shed,
    push_down_amount,
    shed_up_amount,
    signed_gap_transfers,
    sync_edge_transfers,
)
from .tree import (
    RoutingTree,
    TreeError,
    chain_tree,
    kary_tree,
    random_tree,
    random_tree_with_depth,
    star_tree,
    tree_from_edges,
    tree_from_parent_map,
)
from .webfold import Fold, FoldResult, FoldStep, fold_partition, webfold
from .webwave import WebWaveConfig, WebWaveResult, WebWaveSimulator, run_webwave

__all__ = [
    # tree
    "RoutingTree",
    "TreeError",
    "chain_tree",
    "star_tree",
    "kary_tree",
    "random_tree",
    "random_tree_with_depth",
    "tree_from_edges",
    "tree_from_parent_map",
    # load
    "LoadAssignment",
    "uniform_assignment",
    "proportional_assignment",
    # constraints
    "satisfies_root_constraint",
    "satisfies_nss",
    "is_feasible",
    "is_gle",
    "gle_feasible",
    "is_tlb",
    "lex_less",
    "lex_compare",
    # webfold
    "Fold",
    "FoldStep",
    "FoldResult",
    "webfold",
    "fold_partition",
    # kernel
    "FlatTree",
    "flatten",
    "DiffusionStack",
    "SyncEngine",
    "ForestEngine",
    "AsyncEngine",
    "degree_edge_alphas",
    "fixed_edge_alphas",
    "edge_alphas",
    "edge_alpha_map",
    "forwarded_rates",
    "subtree_accumulate",
    # policy (the shared Figure 5 decision core)
    "diffusion_budget",
    "push_down_amount",
    "shed_up_amount",
    "sync_edge_transfers",
    "clip_edge_transfers",
    "capacity_edge_transfers",
    "signed_gap_transfers",
    "greedy_delegate",
    "greedy_pull",
    "greedy_shed",
    # webwave
    "WebWaveConfig",
    "WebWaveResult",
    "WebWaveSimulator",
    "run_webwave",
    # diffusion
    "Graph",
    "metropolis_weights",
    "uniform_weights",
    "diffusion_matrix",
    "spectral_gamma",
    "synchronous_diffusion",
    "asynchronous_diffusion",
    "DiffusionTrace",
    # barriers
    "DocumentDemand",
    "DocumentWebWave",
    "DocumentWebWaveConfig",
    "TunnelEvent",
    "find_potential_barriers",
    # convergence
    "GammaFit",
    "fit_gamma",
    "empirical_rate",
    "halving_time",
    # extensions
    "AsyncWebWave",
    "AsyncResult",
    "RateSchedule",
    "step_change_schedule",
    "flash_crowd_schedule",
    "random_walk_schedule",
    "resettle",
    "run_tracking",
    "TrackingResult",
    "ForestWebWave",
    "ForestResult",
]
