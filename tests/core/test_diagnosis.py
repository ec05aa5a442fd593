"""Tests for the general diagnosis driver (Theorem 1 and the Section 5 drivers)."""

from __future__ import annotations

import importlib

import pytest

from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser, diagnose
from repro.core.faults import clustered_faults, neighborhood_faults, random_faults, spread_faults
from repro.core.syndrome import generate_syndrome
from repro.core.verification import assert_mm_semantics
from repro.networks import ExplicitNetwork, Hypercube

from ..conftest import ALL_FAMILIES, cached_network

# Families whose registry "small" instance satisfies the size requirements of
# the paper's approach (large enough healthy component for the certificate).
DIAGNOSABLE_SMALL = [f for f in ALL_FAMILIES]


class TestTheorem1Correctness:
    """The diagnosed set equals the injected fault set across the whole zoo."""

    @pytest.mark.parametrize("family", DIAGNOSABLE_SMALL)
    @pytest.mark.parametrize("placement", ["random", "clustered"])
    def test_exact_diagnosis_at_maximum_fault_count(self, family, placement):
        network = cached_network(family, "small")
        delta = network.diagnosability()
        if placement == "random":
            faults = random_faults(network, delta, seed=11)
        else:
            faults = clustered_faults(network, delta, seed=11)
        syndrome = generate_syndrome(network, faults, seed=11)
        result = GeneralDiagnoser(network).diagnose(syndrome)
        assert result.faulty == faults

    @pytest.mark.parametrize("family", DIAGNOSABLE_SMALL)
    def test_exact_diagnosis_with_few_faults(self, family):
        network = cached_network(family, "small")
        faults = random_faults(network, 2, seed=5)
        syndrome = generate_syndrome(network, faults, seed=5)
        result = GeneralDiagnoser(network).diagnose(syndrome)
        assert result.faulty == faults

    @pytest.mark.parametrize("family", DIAGNOSABLE_SMALL)
    def test_no_faults_diagnosed_on_healthy_network(self, family):
        network = cached_network(family, "small")
        syndrome = generate_syndrome(network, frozenset())
        result = GeneralDiagnoser(network).diagnose(syndrome)
        assert result.faulty == frozenset()
        assert result.healthy_nodes == frozenset(range(network.num_nodes))

    @pytest.mark.parametrize(
        "behavior", ["random", "all_zero", "all_one", "mimic", "anti_mimic"]
    )
    def test_correct_for_every_faulty_tester_behavior(self, behavior):
        cube = cached_network("hypercube", "small")
        faults = random_faults(cube, 7, seed=23)
        syndrome = generate_syndrome(cube, faults, behavior=behavior, seed=23)
        assert GeneralDiagnoser(cube).diagnose(syndrome).faulty == faults

    @pytest.mark.parametrize("seed", range(8))
    def test_many_random_instances_on_q8(self, seed):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=seed)
        syndrome = generate_syndrome(cube, faults, seed=seed)
        assert diagnose(cube, syndrome).faulty == faults

    def test_neighborhood_fault_pattern(self):
        cube = Hypercube(8)
        faults = neighborhood_faults(cube, center=100, count=8)
        syndrome = generate_syndrome(cube, faults, behavior="mimic", seed=1)
        assert diagnose(cube, syndrome).faulty == faults

    def test_spread_fault_pattern(self):
        cube = Hypercube(8)
        faults = spread_faults(cube, 8, seed=4)
        syndrome = generate_syndrome(cube, faults, seed=4)
        assert diagnose(cube, syndrome).faulty == faults

    def test_fault_count_below_diagnosability_sweep(self):
        cube = Hypercube(7)
        for count in range(0, 8):
            faults = random_faults(cube, count, seed=count)
            syndrome = generate_syndrome(cube, faults, seed=count)
            assert diagnose(cube, syndrome).faulty == faults


class TestDiagnosisResult:
    def test_healthy_nodes_exclude_faults_and_include_root(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 6, seed=2)
        syndrome = generate_syndrome(cube, faults, seed=2)
        result = diagnose(cube, syndrome)
        assert result.healthy_root in result.healthy_nodes
        assert result.healthy_nodes.isdisjoint(faults)

    def test_tree_spans_healthy_nodes(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 5, seed=9)
        syndrome = generate_syndrome(cube, faults, seed=9)
        result = diagnose(cube, syndrome)
        assert set(result.tree_parent) == set(result.healthy_nodes) - {result.healthy_root}
        for child, parent in result.tree_parent.items():
            assert cube.has_edge(child, parent)
            assert parent in result.healthy_nodes

    def test_probe_records_present(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 7, seed=0)
        syndrome = generate_syndrome(cube, faults, seed=0)
        result = diagnose(cube, syndrome)
        assert result.num_probes >= 1
        assert any(p.certified for p in result.probes)
        assert all(p.lookups >= 0 for p in result.probes)

    def test_lookup_total_includes_probes_and_final_run(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 7, seed=0)
        syndrome = generate_syndrome(cube, faults, seed=0)
        result = diagnose(cube, syndrome)
        assert result.lookups == syndrome.lookups
        assert result.lookups >= sum(p.lookups for p in result.probes)

    def test_summary_mentions_fault_count(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 3, seed=0)
        syndrome = generate_syndrome(cube, faults, seed=0)
        result = diagnose(cube, syndrome)
        assert "3 faults" in result.summary()

    def test_summary_reads_the_mask_not_the_set(self, monkeypatch):
        """``summary()`` reports ``|U_r|`` without building ``healthy_nodes``."""
        module = importlib.import_module("repro.core.diagnosis")
        built = []
        members = module.mask_members
        monkeypatch.setattr(
            module, "mask_members", lambda *args: built.append(1) or members(*args)
        )
        cube = Hypercube(7)
        faults = random_faults(cube, 3, seed=0)
        syndrome = generate_syndrome(cube, faults, seed=0, backend="array")
        result = diagnose(cube, syndrome)
        summary = result.summary()
        assert built == []
        assert f"|U_r|={len(result.healthy_nodes)}," in summary
        assert built == [1]

    def test_partition_level_reported(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=1)
        syndrome = generate_syndrome(cube, faults, seed=1)
        result = diagnose(cube, syndrome)
        assert result.partition_level in (0, 1, None)


class TestDriverConfiguration:
    def test_probe_count_limited_by_delta_plus_one_per_level(self):
        cube = Hypercube(8)
        faults = clustered_faults(cube, 8, seed=3)
        syndrome = generate_syndrome(cube, faults, seed=3)
        result = diagnose(cube, syndrome)
        partition_probes = [p for p in result.probes if p.kind == "partition"]
        levels = cube.max_partition_level() + 1
        assert len(partition_probes) <= (cube.diagnosability() + 1) * levels

    def test_use_partition_false_uses_fallback_probes(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=1)
        syndrome = generate_syndrome(cube, faults, seed=1)
        result = GeneralDiagnoser(cube, use_partition=False).diagnose(syndrome)
        assert result.faulty == faults
        assert result.partition_level is None
        assert all(p.kind.startswith("fallback") for p in result.probes)

    def test_custom_diagnosability_bound(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 4, seed=1)
        syndrome = generate_syndrome(cube, faults, seed=1)
        result = GeneralDiagnoser(cube, diagnosability=4).diagnose(syndrome)
        assert result.faulty == faults

    def test_invalid_diagnosability_rejected(self):
        with pytest.raises(ValueError):
            GeneralDiagnoser(Hypercube(8), diagnosability=0)

    def test_max_probes_per_level_respected(self):
        cube = Hypercube(8)
        faults = clustered_faults(cube, 8, seed=3)
        syndrome = generate_syndrome(cube, faults, seed=3)
        result = GeneralDiagnoser(cube, max_probes_per_level=2).diagnose(syndrome)
        assert result.faulty == faults

    def test_diagnosis_error_on_pathological_instance(self):
        # A 6-node cycle with diagnosability forced to 2 and 2 faults placed
        # so that no contributor certificate can ever fire (the healthy part
        # is a path of 4 nodes: at most 2 internal nodes ≤ δ).
        import networkx as nx

        net = ExplicitNetwork.from_networkx(nx.cycle_graph(6), diagnosability=2,
                                            connectivity=2)
        faults = {0, 3}
        syndrome = generate_syndrome(net, faults, seed=0)
        with pytest.raises(DiagnosisError):
            GeneralDiagnoser(net).diagnose(syndrome)


class TestSyndromeInteraction:
    def test_diagnosis_consistent_with_syndrome_semantics(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 6, seed=13)
        syndrome = generate_syndrome(cube, faults, seed=13)
        result = diagnose(cube, syndrome)
        assert_mm_semantics(cube, syndrome, result.faulty)

    def test_full_table_and_lazy_syndromes_give_same_answer(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 7, seed=21)
        lazy = generate_syndrome(cube, faults, seed=21)
        table = generate_syndrome(cube, faults, seed=21, full_table=True)
        assert diagnose(cube, lazy).faulty == diagnose(cube, table).faulty == faults
