"""Tests for the ``Set_Builder`` procedure (paper Section 4.1)."""

from __future__ import annotations

import importlib

import pytest

from repro.backend import ArraySyndrome
from repro.core.faults import random_faults
from repro.core.set_builder import certificate_node_budget, mask_members, set_builder
from repro.core.syndrome import LazySyndrome, generate_syndrome
from repro.networks import Hypercube, StarGraph


def healthy_syndrome(network):
    return LazySyndrome(network, frozenset())


class TestFaultFreeGrowth:
    def test_covers_whole_hypercube(self, q7):
        result = set_builder(q7, healthy_syndrome(q7), 0)
        assert result.nodes == set(range(q7.num_nodes))
        assert result.all_healthy
        assert not result.truncated

    def test_tree_is_spanning_and_acyclic(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        # Every node except the root has exactly one parent, and following
        # parents always reaches the root: a spanning tree.
        assert set(result.parent) == set(range(1, q5.num_nodes))
        for v in range(1, q5.num_nodes):
            assert result.depth_of(v) >= 1
        assert result.depth_of(0) == 0

    def test_tree_edges_are_graph_edges(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        for parent, child in result.tree_edges():
            assert q5.has_edge(parent, child)

    def test_bfs_like_depths(self, q5):
        # On a fault-free hypercube the tree is a BFS tree: the depth of a
        # node equals its Hamming distance from the root.
        result = set_builder(q5, healthy_syndrome(q5), 0)
        for v in range(q5.num_nodes):
            assert result.depth_of(v) == q5.hamming_distance(0, v)

    def test_contributors_are_internal_nodes(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        internal = set(result.parent.values())
        assert result.contributors == internal

    def test_rounds_equal_eccentricity(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        assert result.rounds == 5  # eccentricity of a node in Q_5

    def test_works_from_any_root(self, q5):
        for root in (1, 17, 31):
            result = set_builder(q5, healthy_syndrome(q5), root)
            assert result.nodes == set(range(q5.num_nodes))
            assert result.root == root


class TestWithFaults:
    def test_healthy_root_never_collects_faulty_nodes(self, q7):
        faults = frozenset({1, 2, 64, 100, 40, 77, 13})
        syndrome = generate_syndrome(q7, faults, seed=0)
        result = set_builder(q7, syndrome, 0, diagnosability=7)
        assert result.nodes.isdisjoint(faults)

    def test_grown_set_contains_reachable_healthy_nodes(self, q7):
        faults = frozenset({1, 2, 64, 100, 40, 77, 13})
        syndrome = generate_syndrome(q7, faults, seed=0)
        result = set_builder(q7, syndrome, 0, diagnosability=7)
        # The healthy part of Q_7 minus 7 faults is still connected for this
        # fault set, so U_r is exactly the complement of the fault set.
        assert result.nodes == set(range(q7.num_nodes)) - faults

    @pytest.mark.parametrize("behavior", ["random", "all_zero", "all_one", "mimic", "anti_mimic"])
    def test_certificate_soundness(self, q7, behavior):
        """If all_healthy fires, the grown set truly contains no fault."""
        from repro.core.faults import random_faults

        for seed in range(5):
            faults = random_faults(q7, 7, seed=seed)
            syndrome = generate_syndrome(q7, faults, behavior=behavior, seed=seed)
            for root in (0, 3, 97):
                result = set_builder(q7, syndrome, root, diagnosability=7)
                if result.all_healthy:
                    assert result.nodes.isdisjoint(faults)

    def test_run_from_faulty_root_with_quiet_tester(self, q5):
        # A faulty root that always answers 0 invites all its neighbours, but
        # the certificate must not fire unless > δ contributors appear —
        # and if it fires, the grown set must be healthy (soundness).
        faults = frozenset({0, 1, 2})
        syndrome = generate_syndrome(q5, faults, behavior="all_zero", seed=0)
        result = set_builder(q5, syndrome, 0, diagnosability=5)
        if result.all_healthy:
            assert result.nodes.isdisjoint(faults)

    def test_surrounded_root_stays_alone(self, q5):
        # All neighbours of the root are faulty: U_1 may contain the (faulty)
        # neighbours only if some test returned 0; with honest "all one"
        # answers U_r = {root}.
        faults = frozenset(q5.neighbors(0))
        syndrome = generate_syndrome(q5, faults, behavior="all_one", seed=0)
        result = set_builder(q5, syndrome, 0, diagnosability=5)
        assert result.nodes == {0}
        assert not result.all_healthy


class TestRestriction:
    def test_restricted_run_stays_inside_class(self, q7):
        scheme = q7.partition_scheme()
        cls = scheme.first(1)[0]
        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, cls.representative, restrict=cls.contains)
        members = set(cls.members(q7))
        assert result.nodes == members

    def test_root_outside_restriction_rejected(self, q7):
        scheme = q7.partition_scheme()
        cls = scheme.first(2)[1]
        with pytest.raises(ValueError, match="must belong"):
            set_builder(q7, healthy_syndrome(q7), 0, restrict=cls.contains)

    def test_restricted_lookups_bounded_by_class(self, q7):
        scheme = q7.partition_scheme()
        cls = scheme.first(1)[0]
        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, cls.representative, restrict=cls.contains)
        delta = q7.max_degree
        assert result.lookups <= (delta - 1) * (delta / 2 + result.size - 1) + delta**2


class TestControls:
    def test_max_nodes_budget(self, q7):
        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, 0, max_nodes=20)
        assert result.size <= 20
        assert result.truncated

    def test_stop_on_certificate(self, q7):
        syndrome = healthy_syndrome(q7)
        full = set_builder(q7, syndrome, 0)
        early = set_builder(q7, healthy_syndrome(q7), 0, stop_on_certificate=True)
        assert early.all_healthy
        assert early.size <= full.size

    def test_certificate_budget_guarantees_certificate(self, q7):
        budget = certificate_node_budget(7, 7)
        result = set_builder(q7, healthy_syndrome(q7), 0, max_nodes=budget)
        assert result.all_healthy

    def test_invalid_root_rejected(self, q5):
        with pytest.raises(ValueError):
            set_builder(q5, healthy_syndrome(q5), q5.num_nodes + 3)

    def test_default_diagnosability_taken_from_network(self, q7):
        result = set_builder(q7, healthy_syndrome(q7), 0)
        assert result.all_healthy  # δ defaulted to 7 and the certificate fired

    def test_lookups_counted_per_run(self, q7):
        syndrome = healthy_syndrome(q7)
        first = set_builder(q7, syndrome, 0)
        second = set_builder(q7, syndrome, 1)
        assert first.lookups > 0
        assert second.lookups > 0
        assert syndrome.lookups == first.lookups + second.lookups


#: ``set_builder()`` options per route over an ``ArraySyndrome``: only the
#: unrestricted run to the fixpoint goes to the batched kernel.
ARRAY_ROUTES = {
    "kernel": {},
    "restrict": {"restrict": lambda v: v < 64},
    "max_nodes": {"max_nodes": 9},
    "stop_on_certificate": {"stop_on_certificate": True},
}


set_builder_module = importlib.import_module("repro.core.set_builder")


def faulty_array_syndrome(network, seed=4):
    faults = random_faults(network, network.diagnosability(), seed=seed)
    return ArraySyndrome.from_faults(network, faults, seed=seed)


class TestArrayRouting:
    @pytest.mark.parametrize("route", sorted(ARRAY_ROUTES))
    def test_each_run_takes_one_route(self, q7, route, monkeypatch):
        calls = {"kernel": [], "scalar": 0}
        kernel = set_builder_module.set_builder_many
        scalar = set_builder_module._set_builder_array

        def kernel_spy(network, syndromes, roots, **kwargs):
            calls["kernel"].append(len(syndromes))
            return kernel(network, syndromes, roots, **kwargs)

        def scalar_spy(*args, **kwargs):
            calls["scalar"] += 1
            return scalar(*args, **kwargs)

        monkeypatch.setattr(set_builder_module, "set_builder_many", kernel_spy)
        monkeypatch.setattr(set_builder_module, "_set_builder_array", scalar_spy)
        set_builder(q7, faulty_array_syndrome(q7), 0, **ARRAY_ROUTES[route])
        if route == "kernel":
            assert calls == {"kernel": [1], "scalar": 0}
        else:
            assert calls == {"kernel": [], "scalar": 1}

    @pytest.mark.parametrize("route", sorted(ARRAY_ROUTES))
    def test_array_runs_credit_the_syndrome(self, q7, route):
        syndrome = faulty_array_syndrome(q7)
        first = set_builder(q7, syndrome, 0, **ARRAY_ROUTES[route])
        second = set_builder(q7, syndrome, 1, **ARRAY_ROUTES[route])
        assert first.lookups > 0
        assert second.lookups > 0
        assert syndrome.lookups == first.lookups + second.lookups

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    def test_kernel_mask_matches_its_sets(self, q7, kernel, monkeypatch):
        native = importlib.import_module("repro.core.native")
        if kernel == "numpy":
            monkeypatch.setattr(native, "_forced_off", True)  # = REPRO_NO_NATIVE
        elif not native.native_kernel_active():
            pytest.skip("no C compiler available in this environment")
        result = set_builder(q7, faulty_array_syndrome(q7), 0)
        assert result.member_mask.shape == (q7.num_nodes,)
        assert mask_members(result.member_mask) == result.nodes
        assert result.size == len(result.nodes)
        assert set(result.parent) == result.nodes - {0}

    @pytest.mark.parametrize("root", [-1, 128])
    def test_out_of_range_root_rejected_before_the_kernel(self, q7, root):
        with pytest.raises(ValueError, match="not a node"):
            set_builder(q7, faulty_array_syndrome(q7), root)


class TestLookupAccounting:
    def test_section6_lookup_bound_on_hypercubes(self):
        """Measured lookups respect (Δ-1)(Δ/2 + |U_r| - 1) + Δ(Δ-1)/2."""
        for n in (6, 7, 8):
            cube = Hypercube(n)
            syndrome = healthy_syndrome(cube)
            result = set_builder(cube, syndrome, 0, diagnosability=n)
            bound = (n - 1) * (n / 2 + result.size - 1) + n * (n - 1) / 2
            assert result.lookups <= bound

    def test_lookup_bound_on_star_graph(self):
        star = StarGraph(5)
        syndrome = healthy_syndrome(star)
        result = set_builder(star, syndrome, 0, diagnosability=4)
        delta = star.max_degree
        bound = (delta - 1) * (delta / 2 + result.size - 1) + delta * (delta - 1) / 2
        assert result.lookups <= bound

    def test_far_fewer_lookups_than_full_table(self, q7):
        from repro.core.syndrome import syndrome_table_size

        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, 0)
        assert result.lookups < syndrome_table_size(q7) / 2
