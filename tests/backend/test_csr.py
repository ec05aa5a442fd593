"""Property tests for the compiled CSR topology backend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import CSRAdjacency, compile_network
from repro.networks import ExplicitNetwork
from repro.networks.registry import cached_network, compiled_network

from ..conftest import ALL_FAMILIES, cached_network as tiny_cached_network


class TestRowsMatchNeighbors:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_rows_equal_sorted_neighbors_for_every_family(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        assert csr.num_nodes == network.num_nodes
        for v in range(network.num_nodes):
            expected = sorted(network.neighbors(v))
            assert list(csr.rows[v]) == expected
            assert csr.neighbors(v).tolist() == expected
            assert csr.degree(v) == len(expected)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_degree_extremes_match(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        assert csr.max_degree == network.max_degree
        assert csr.min_degree == network.min_degree


class TestHasEdge:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_bisect_matches_adjacency(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        neighbor_sets = [set(network.neighbors(v)) for v in range(network.num_nodes)]
        probe = range(0, network.num_nodes, max(1, network.num_nodes // 16))
        for u in probe:
            for v in probe:
                if u == v:
                    continue
                assert csr.has_edge(u, v) == (v in neighbor_sets[u])

    def test_network_has_edge_routes_through_backend(self):
        network = ExplicitNetwork([(1, 2), (0, 2), (0, 1), ()])
        assert network.has_edge(0, 1) and network.has_edge(2, 0)
        assert not network.has_edge(0, 3) and not network.has_edge(3, 1)
        # The compiled form was cached on the instance by the first call.
        assert getattr(network, "_csr_adjacency", None) is not None


class TestMemoization:
    def test_compile_is_idempotent_per_instance(self, q5):
        assert compile_network(q5) is compile_network(q5)

    def test_compile_accepts_compiled(self, q5):
        csr = compile_network(q5)
        assert compile_network(csr) is csr

    def test_registry_shares_instances_and_compiled_topology(self):
        a = cached_network("hypercube", dimension=6)
        b = cached_network("hypercube", dimension=6)
        assert a is b
        net, csr = compiled_network("hypercube", dimension=6)
        assert net is a
        assert csr is compile_network(a)


class TestPairLayout:
    def test_pair_counts(self, q5):
        csr = compile_network(q5)
        assert csr.num_pairs == sum(
            d * (d - 1) // 2 for d in (csr.degree(v) for v in range(csr.num_nodes))
        )

    def test_pair_members_are_sorted_neighbor_pairs(self, q5):
        csr = compile_network(q5)
        pu, pv, pw = csr.pair_members()
        for u in range(csr.num_nodes):
            lo, hi = int(csr.pair_indptr[u]), int(csr.pair_indptr[u + 1])
            row = csr.rows[u]
            expected = [(row[i], row[j]) for i in range(len(row))
                        for j in range(i + 1, len(row))]
            assert (pu[lo:hi] == u).all()
            assert list(zip(pv[lo:hi].tolist(), pw[lo:hi].tolist())) == expected


class TestBoundary:
    @pytest.mark.parametrize("family", ["hypercube", "star", "kary_ncube"])
    def test_boundary_matches_bruteforce(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        rng = np.random.default_rng(0)
        for _ in range(5):
            members = set(
                rng.choice(network.num_nodes, size=network.num_nodes // 3,
                           replace=False).tolist()
            )
            brute = {
                nb for u in members for nb in network.neighbors(u) if nb not in members
            }
            assert csr.boundary(members) == brute
            mask = np.zeros(network.num_nodes, dtype=bool)
            mask[list(members)] = True
            assert csr.boundary(mask) == brute

    def test_empty_members(self, q5):
        assert compile_network(q5).boundary(set()) == set()


def _edge_pass_boundary(csr, mask) -> set[int]:
    """Reference: the previous boundary, two gathers over every edge entry."""
    edge_src = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
    hit = mask[edge_src] & ~mask[csr.indices]
    out = np.zeros(csr.num_nodes, dtype=bool)
    out[csr.indices[hit]] = True
    return set(np.flatnonzero(out).tolist())


@st.composite
def _masks(draw):
    """``(family, mask)``: random, empty, full, one-node or multi-component."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    csr = compile_network(tiny_cached_network(family, "tiny"))
    n = csr.num_nodes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("random", "empty", "full", "single", "split")))
    if shape == "random":
        return family, rng.random(n) < draw(st.floats(0.0, 1.0))
    if shape == "empty":
        return family, np.zeros(n, dtype=bool)
    if shape == "full":
        return family, np.ones(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    if shape == "single":
        mask[rng.integers(n)] = True
        return family, mask
    # Cut a few nodes off from the rest by removing their neighbourhoods:
    # each cut-off node is a component of its own.
    mask[:] = True
    for v in rng.choice(n, size=draw(st.integers(1, 4)), replace=False):
        if mask[v]:
            mask[csr.neighbors(v)] = False
    return family, mask


class TestComplementBoundary:
    @settings(max_examples=300, deadline=None)
    @given(_masks())
    def test_equals_edge_pass(self, case):
        family, mask = case
        csr = compile_network(tiny_cached_network(family, "tiny"))
        expected = _edge_pass_boundary(csr, mask)
        assert csr.boundary(mask) == expected
        assert csr.boundary(np.flatnonzero(mask).tolist()) == expected
        assert csr.boundary_many(np.stack([mask, ~mask])) == [
            expected, _edge_pass_boundary(csr, ~mask)
        ]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_split_masks_really_split(self, family):
        """The multi-component case is not vacuous: node 0 is cut off from
        the other members, and the boundary is exactly its neighbourhood."""
        csr = compile_network(tiny_cached_network(family, "tiny"))
        mask = np.ones(csr.num_nodes, dtype=bool)
        mask[csr.neighbors(0)] = False
        assert mask[0] and mask.sum() > 1
        expected = set(csr.neighbors(0).tolist())
        assert csr.boundary(mask) == _edge_pass_boundary(csr, mask) == expected


class TestValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            CSRAdjacency([0, 2], [1])
