"""WebWave reproduction: globally load balanced fully distributed caching.

A full reimplementation of Heddaya & Mirdad, *"WebWave: Globally Load
Balanced Fully Distributed Caching of Hot Published Documents"* (Boston
University TR BUCS-1996-024; ICDCS 1997), plus all substrates needed to run
its evaluation: routing-tree extraction from network topologies, a
discrete-event packet simulator with injectable router packet filters,
document catalogs and workload generators, the WebWave protocol and
comparison baselines, and an experiment harness regenerating every figure.

Quick start::

    from repro.core import kary_tree, webfold, run_webwave

    tree = kary_tree(2, 3)
    rates = [10.0] * tree.n
    optimum = webfold(tree, rates)          # offline TLB (Figure 3)
    result = run_webwave(tree, rates)       # distributed protocol (Figure 5)
    assert result.converged

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
figure-by-figure reproduction of the paper's evaluation.
"""

from . import core

__version__ = "0.6.0"  # the same string as pyproject.toml (tests/test_package.py)

__all__ = ["core", "__version__"]
