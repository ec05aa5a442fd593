"""Cross-backend differential harness.

For every network family in the registry, this suite generates seeded
(topology, fault set, syndrome) triples and runs the *same* ``Set_Builder``
procedure through every execution backend the codebase has grown:

* the original object path (``compiled=False`` — the reference
  implementation, transcribed from the paper);
* the compiled-rows path (compiled adjacency, abstract syndrome oracle);
* the scalar flat-array path (byte-mask membership, pair-indexed buffer);
* the batched kernel (``set_builder_many`` at width 1), once with the native
  rounds loop and once with its numpy fallback (``native._forced_off``).

Every backend must agree **exactly** — grown sets, tree parents,
contributors, round counts, the ``all_healthy`` certificate, the syndrome
lookup count, and the accusation set ``N(U_r) \\ U_r`` the diagnosis layer
derives from the run.  Faulty-rooted runs are included deliberately: the
procedure is well-defined from any start node, and backends must agree there
too, even though only healthy-rooted runs feed Theorem 1.

The seeds derive positionally from the family name via ``SeedSequence``, so
the triples are stable across runs and machines without hand-maintained
fixtures.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.diagnosis import GeneralDiagnoser
from repro.core.faults import clustered_faults, random_faults
from repro.core.set_builder import SetBuilderResult, set_builder
from repro.parallel import spawn_seeds

BEHAVIORS = ("random", "all_zero")


def _family_seeds(network, count: int = 2) -> list[int]:
    """Stable per-family seeds (derived, not hand-picked)."""
    base = sum(ord(c) for c in network.family)
    return list(spawn_seeds(base, count))


def _triples(network):
    """Seeded (faults, syndrome) triples over one topology."""
    csr = compile_network(network)
    delta = network.diagnosability()
    for seed in _family_seeds(network):
        for behavior in BEHAVIORS:
            for placement in (random_faults, clustered_faults):
                faults = placement(network, delta, seed=seed)
                syndrome = ArraySyndrome.from_faults(
                    csr, faults, behavior=behavior, seed=seed
                )
                yield faults, syndrome


def _roots(network, faults):
    """One healthy and (when possible) one faulty start node."""
    healthy = next(v for v in range(network.num_nodes) if v not in faults)
    roots = [healthy]
    if faults:
        roots.append(min(faults))
    return roots


def _signature(network, result: SetBuilderResult) -> dict:
    """Everything a backend must reproduce, including the accusation set."""
    csr = compile_network(network)
    return {
        "root": result.root,
        "nodes": frozenset(result.nodes),
        "parent": dict(result.parent),
        "contributors": frozenset(result.contributors),
        "rounds": result.rounds,
        "lookups": result.lookups,
        "all_healthy": result.all_healthy,
        "truncated": result.truncated,
        "accusations": frozenset(csr.boundary(result.nodes)),
    }


def _all_backends(network, syndrome: ArraySyndrome, root: int) -> dict[str, dict]:
    """Run one triple through every backend; key → signature."""
    table = syndrome.to_table()
    runs = {
        "object": set_builder(network, table, root, compiled=False),
        "rows": set_builder(network, table, root, compiled=True),
        # An unreachable budget routes to the scalar array path without
        # changing semantics (the run is never truncated).
        "array-scalar": set_builder(
            network, syndrome, root, max_nodes=network.num_nodes + 1
        ),
        "array-kernel": set_builder(network, syndrome, root),
    }
    return {name: _signature(network, result) for name, result in runs.items()}


class TestSetBuilderDifferential:
    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    def test_every_backend_agrees_on_every_family(
        self, tiny_network, kernel, monkeypatch
    ):
        """The harness headline: 4 backends, all registry families, seeded triples.

        Runs once per half of the fast path: the native rounds loop (where a
        C compiler is available) and its numpy fallback (= REPRO_NO_NATIVE).
        """
        if kernel == "numpy":
            monkeypatch.setattr(native, "_forced_off", True)
        checked = 0
        for faults, syndrome in _triples(tiny_network):
            for root in _roots(tiny_network, faults):
                signatures = _all_backends(tiny_network, syndrome, root)
                reference = signatures.pop("object")
                for name, signature in signatures.items():
                    assert signature == reference, (
                        f"{tiny_network.family}: backend {name!r} diverged from the "
                        f"object reference on faults={sorted(faults)} root={root}"
                    )
                checked += 1
        assert checked >= 8  # 2 seeds x 2 behaviors x 2 placements (x roots)

    def test_kernel_matches_object_path_on_a_larger_instance(self):
        """Spot check well beyond tiny sizes (Q_10: 1024 nodes, 45 rounds-ish)."""
        from repro.networks.registry import compiled_network

        network, csr = compiled_network("hypercube", dimension=10)
        faults = random_faults(network, 10, seed=1234)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=1234)
        root = next(v for v in range(network.num_nodes) if v not in faults)
        reference = set_builder(network, syndrome.to_table(), root, compiled=False)
        kernel = set_builder(network, syndrome, root)
        assert _signature(network, kernel) == _signature(network, reference)


class TestDiagnosisDifferential:
    """Full-pipeline agreement: the accusation sets of whole diagnoses."""

    def test_compiled_and_object_diagnoses_accuse_identically(self, tiny_network):
        csr = compile_network(tiny_network)
        delta = tiny_network.diagnosability()
        for seed in _family_seeds(tiny_network, count=1):
            faults = random_faults(tiny_network, delta, seed=seed)
            syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
            compiled = GeneralDiagnoser(tiny_network).diagnose(syndrome)
            reference = GeneralDiagnoser(
                tiny_network, compiled=False
            ).diagnose(syndrome)
            assert compiled.faulty == reference.faulty


class TestHarnessInternals:
    def test_signatures_detect_divergence(self, q5):
        """The harness itself must not pass vacuously."""
        csr = compile_network(q5)
        faults = random_faults(q5, 3, seed=0)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=0)
        result = set_builder(q5, syndrome, _roots(q5, faults)[0])
        mutated = dataclasses.replace(result, rounds=result.rounds + 1)
        assert _signature(q5, mutated) != _signature(q5, result)

    def test_seeds_are_stable(self, q5):
        assert _family_seeds(q5) == _family_seeds(q5)
