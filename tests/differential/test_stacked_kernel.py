"""Stacked-kernel differential suite.

``GeneralDiagnoser.diagnose_many`` runs a whole batch of syndromes through
one array pass of the final ``Set_Builder`` — it must be a pure throughput
optimisation.  For every registry family this suite builds seeded syndrome
batches at widths 1, 2, 7 and 16 and pins every stacked outcome
bit-identical to the per-syndrome :meth:`GeneralDiagnoser.diagnose`
reference: accusation set, healthy root, grown set, tree parents, probe
records, partition level and syndrome lookup count — and, for items that
fail, the exact exception ``diagnose`` raises.  Mixed batches with
guaranteed-``DiagnosisError`` members prove per-item isolation, and a
wider-than-``max_batch_size`` run through the service proves slicing
changes nothing either.

This is the load-bearing verification: the serving path (``run_direct``
included) now routes through the stacked kernel, so served-vs-direct
comparisons alone would be stacked-vs-stacked.  Here the reference is the
sequential pipeline the cross-backend suite pins all the way down to the
paper's object-level transcription.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser
from repro.core.faults import clustered_faults, random_faults
from repro.parallel import spawn_seeds

WIDTHS = (1, 2, 7, 16)
PLACEMENTS = (random_faults, clustered_faults)


def _specs(network, count: int):
    """``count`` stable (faults, behavior, seed) specs for one family."""
    base = sum(ord(c) for c in network.family)
    delta = network.diagnosability()
    specs = []
    for seed in spawn_seeds(base, (count + 3) // 4 + 1):
        for behavior in ("random", "all_zero"):
            for placement in PLACEMENTS:
                faults = placement(network, delta, seed=seed)
                specs.append((faults, behavior, seed))
    return specs[:count]


def _build(csr, spec) -> ArraySyndrome:
    """A fresh syndrome per call — lookup counters mutate, so the stacked
    batch and the sequential reference each get their own instance."""
    faults, behavior, seed = spec
    return ArraySyndrome.from_faults(csr, faults, behavior=behavior, seed=seed)


def _doomed(csr) -> ArraySyndrome:
    """All-ones syndrome: every test disagrees, no contributor certificate
    at any partition level → ``find_healthy_root`` raises DiagnosisError,
    deterministically."""
    return ArraySyndrome(csr, bytes([1]) * csr.num_pairs)


def _outcome_signature(outcome):
    if isinstance(outcome, Exception):
        return ("error", type(outcome).__name__, str(outcome))
    return (
        outcome.faulty,
        outcome.healthy_root,
        outcome.healthy_nodes,
        dict(outcome.tree_parent),
        list(outcome.probes),
        outcome.partition_level,
        outcome.lookups,
    )


def _reference(diagnoser, spec_or_none, csr):
    syndrome = _doomed(csr) if spec_or_none is None else _build(csr, spec_or_none)
    try:
        return _outcome_signature(diagnoser.diagnose(syndrome))
    except DiagnosisError as exc:
        return _outcome_signature(exc)


class TestStackedKernelDifferential:
    def test_every_width_matches_per_syndrome_diagnose(self, tiny_network):
        """The headline: all registry families, widths 1/2/7/16, exact."""
        csr = compile_network(tiny_network)
        diagnoser = GeneralDiagnoser(tiny_network)
        specs = _specs(tiny_network, max(WIDTHS))
        references = [_reference(diagnoser, spec, csr) for spec in specs]
        for width in WIDTHS:
            batch = [_build(csr, spec) for spec in specs[:width]]
            outcomes = diagnoser.diagnose_many(batch)
            for i, outcome in enumerate(outcomes):
                assert _outcome_signature(outcome) == references[i], (
                    f"{tiny_network.family}: stacked kernel diverged from "
                    f"diagnose at width {width}, item {i}"
                )

    def test_error_items_are_isolated_and_exact(self, tiny_network):
        """A DiagnosisError member neither poisons its batch mates nor
        changes its own failure (same exception type and message)."""
        csr = compile_network(tiny_network)
        diagnoser = GeneralDiagnoser(tiny_network)
        specs = _specs(tiny_network, 4)
        # doomed items interleaved at the edges and the middle
        layout = [None, specs[0], specs[1], None, specs[2], specs[3], None]
        references = [_reference(diagnoser, slot, csr) for slot in layout]
        batch = [
            _doomed(csr) if slot is None else _build(csr, slot)
            for slot in layout
        ]
        outcomes = diagnoser.diagnose_many(batch)
        for i, outcome in enumerate(outcomes):
            assert _outcome_signature(outcome) == references[i], (
                f"{tiny_network.family}: mixed batch item {i} diverged"
            )
            if layout[i] is None:
                assert isinstance(outcome, DiagnosisError)


class TestSlicingParity:
    def test_batches_wider_than_max_batch_slice_without_divergence(self):
        """10 coalesced requests over max_batch_size=4 → kernel widths
        4/4/2; every response still equals the sequential reference."""
        from repro.networks.registry import compiled_network
        from repro.service import DiagnosisRequest, DiagnosisService

        network, csr = compiled_network("hypercube", dimension=6)
        diagnoser = GeneralDiagnoser(network)
        requests = [
            DiagnosisRequest.seeded("hypercube", {"dimension": 6}, seed=seed)
            for seed in range(10)
        ]
        service = DiagnosisService(max_batch_size=4)

        async def run():
            async with service:
                return await service.submit_many(requests)

        responses = asyncio.run(run())
        delta = network.diagnosability()
        for seed, response in zip(range(10), responses):
            faults = random_faults(network, delta, seed=seed)
            reference = diagnoser.diagnose(
                ArraySyndrome.from_faults(csr, faults, seed=seed)
            )
            assert response.faulty_set == reference.faulty, seed
            assert response.healthy_root == reference.healthy_root, seed
            assert response.lookups == reference.lookups, seed
        stats = service.stats()
        assert stats["batches"] == 3
        assert stats["batch_size"]["max"] == 4.0
