"""Tests for the Section 2 diffusion substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.diffusion import (
    Graph,
    diffusion_matrix,
    metropolis_weights,
    spectral_gamma,
    synchronous_diffusion,
)
from repro.core.tree import chain_tree, kary_tree


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_basic(self):
        g = path_graph(3)
        assert g.n == 3
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.edges == ((0, 1), (1, 2))

    def test_duplicate_edges_merged(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_from_tree(self):
        g = Graph.from_tree(chain_tree(4))
        assert g.edges == ((0, 1), (1, 2), (2, 3))


class TestWeightsAndMatrix:
    def test_metropolis_symmetric_stochastic(self):
        g = Graph.from_tree(kary_tree(3, 2))
        d = diffusion_matrix(g, metropolis_weights(g))
        assert np.allclose(d, d.T)
        assert np.allclose(d.sum(axis=1), 1.0)
        assert np.all(np.diag(d) >= 0)

    def test_metropolis_weight_value(self):
        g = path_graph(3)
        w = metropolis_weights(g)
        # middle node has degree 2: weight 1/(2+1)
        assert w[(0, 1)] == pytest.approx(1.0 / 3.0)

    def test_unstable_alpha_negative_diagonal(self):
        g = Graph.from_tree(kary_tree(4, 1))  # star, hub degree 4
        d = diffusion_matrix(g, {e: 0.5 for e in g.edges})
        assert d[0, 0] < 0  # Cybenko's condition violated


class TestSpectralGamma:
    def test_two_nodes(self):
        g = path_graph(2)
        # D = [[1/2, 1/2], [1/2, 1/2]] -> eigenvalues 1, 0
        d = diffusion_matrix(g, metropolis_weights(g))
        assert spectral_gamma(d) == pytest.approx(0.0, abs=1e-12)

    def test_single_node(self):
        d = diffusion_matrix(Graph(1, []))
        assert spectral_gamma(d) == 0.0

    def test_in_unit_interval(self):
        g = Graph.from_tree(kary_tree(2, 3))
        gamma = spectral_gamma(diffusion_matrix(g))
        assert 0.0 < gamma < 1.0

    def test_longer_paths_converge_slower(self):
        gammas = [
            spectral_gamma(diffusion_matrix(path_graph(n))) for n in (4, 8, 16)
        ]
        assert gammas[0] < gammas[1] < gammas[2]


class TestSynchronous:
    def test_converges_to_uniform(self):
        g = path_graph(5)
        trace = synchronous_diffusion(g, [100, 0, 0, 0, 0], tolerance=1e-8)
        assert trace.converged
        assert np.allclose(trace.loads[-1], 20.0, atol=1e-6)

    def test_conserves_total(self):
        g = Graph.from_tree(kary_tree(2, 2))
        initial = [float(i) for i in range(g.n)]
        trace = synchronous_diffusion(g, initial, max_iterations=50, tolerance=0.0)
        for x in trace.loads:
            assert x.sum() == pytest.approx(sum(initial))

    def test_distance_contraction_bounded_by_gamma(self):
        g = path_graph(6)
        w = metropolis_weights(g)
        gamma = spectral_gamma(diffusion_matrix(g, w))
        trace = synchronous_diffusion(g, [60, 0, 0, 0, 0, 0], w, tolerance=1e-10)
        for earlier, later in zip(trace.distances, trace.distances[1:]):
            if earlier > 1e-12:
                assert later <= gamma * earlier + 1e-9

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            synchronous_diffusion(path_graph(3), [1.0])

    def test_iterations_property(self):
        g = path_graph(3)
        trace = synchronous_diffusion(g, [3, 0, 0], max_iterations=7, tolerance=0.0)
        assert trace.iterations == 7
