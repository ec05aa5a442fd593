"""One final-run path for single and batched diagnosis.

``GeneralDiagnoser.diagnose(s)`` runs the batched kernel of
``set_builder_many`` at width 1 whenever ``s`` is an ``ArraySyndrome`` over
the diagnoser's compiled topology.  For every registry family this suite
pins three ways of diagnosing one syndrome equal: ``diagnose(s)``,
``diagnose_many([s])[0]`` and the object reference path
(``compiled=False``).  They must agree on the accusation set, the healthy
root, the probe records, the consulted-entry count, the grown set and the
tree, and on the exact ``DiagnosisError`` when the root search fails.  Every
check runs twice: on the native kernel and on the stacked numpy fallback
that ``REPRO_NO_NATIVE`` selects.

The one documented difference is kept out of the object-path comparison: a
budgeted fallback probe that truncates may consult a different number of
entries on the object path, which visits neighbours in topology order
rather than sorted-row order (see ``repro.core.set_builder``).  Those
probes' counters are compared between the two compiled calls only; the
object path must still match on every other probe and on every lookup made
outside them.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser
from repro.core.faults import clustered_faults, random_faults
from repro.parallel import spawn_seeds


@pytest.fixture(params=("native", "numpy"))
def kernel(request, monkeypatch):
    native = importlib.import_module("repro.core.native")
    if request.param == "numpy":
        monkeypatch.setattr(native, "_forced_off", True)  # = REPRO_NO_NATIVE
    elif not native.native_kernel_active():
        pytest.skip("no C compiler available in this environment")
    return request.param


def _specs(network):
    """Seeded syndromes within the hypothesis, plus one that must fail."""
    base = sum(ord(c) for c in network.family)
    delta = network.diagnosability()
    specs = [None]  # all-ones syndrome: no probe certifies -> DiagnosisError
    for seed in spawn_seeds(base, 2):
        for behavior, placement in (("random", random_faults),
                                    ("all_zero", clustered_faults)):
            specs.append((placement(network, delta, seed=seed), behavior, seed))
    return specs


def _build(csr, spec) -> ArraySyndrome:
    if spec is None:
        return ArraySyndrome(csr, bytes([1]) * csr.num_pairs)
    faults, behavior, seed = spec
    return ArraySyndrome.from_faults(csr, faults, behavior=behavior, seed=seed)


def _signature(run):
    try:
        outcome = run()
    except DiagnosisError as exc:
        outcome = exc
    if isinstance(outcome, Exception):
        return ("error", type(outcome).__name__, str(outcome))
    return (
        outcome.faulty,
        outcome.healthy_root,
        list(outcome.probes),
        outcome.partition_level,
        outcome.lookups,
        outcome.healthy_nodes,
        dict(outcome.tree_parent),
    )


def _without_budgeted_counters(signature):
    """``signature`` minus the counters of budgeted fallback probes."""
    if signature[0] == "error":
        return signature
    faulty, root, probes, level, lookups, nodes, parent = signature
    budgeted = [p for p in probes if p.kind == "fallback"]
    probes = [dataclasses.replace(p, nodes_explored=None, lookups=None)
              if p.kind == "fallback" else p for p in probes]
    lookups -= sum(p.lookups for p in budgeted)
    return faulty, root, probes, level, lookups, nodes, parent


class TestOneFinalRunPath:
    def test_diagnose_equals_width_one_batch_and_object_path(self, tiny_network, kernel):
        csr = compile_network(tiny_network)
        compiled = GeneralDiagnoser(tiny_network)
        reference = GeneralDiagnoser(tiny_network, compiled=False)
        for spec in _specs(tiny_network):
            single = _signature(lambda: compiled.diagnose(_build(csr, spec)))
            batched = _signature(lambda: compiled.diagnose_many([_build(csr, spec)])[0])
            objects = _signature(lambda: reference.diagnose(_build(csr, spec)))
            label = f"{tiny_network.family} ({kernel}), spec {spec and spec[1:]}"
            assert single == batched, label
            assert _without_budgeted_counters(single) == \
                _without_budgeted_counters(objects), label
            if spec is None:
                assert single[0] == "error", label

    def test_diagnose_runs_the_kernel_not_the_public_batch_call(self, q7, monkeypatch):
        """The final run goes through ``set_builder_many`` as looked up in the
        diagnosis module, and never through the public ``diagnose_many``."""
        diagnosis = importlib.import_module("repro.core.diagnosis")
        calls = []
        kernel_fn = diagnosis.set_builder_many
        monkeypatch.setattr(
            diagnosis, "set_builder_many",
            lambda *a, **k: calls.append("kernel") or kernel_fn(*a, **k),
        )
        monkeypatch.setattr(
            GeneralDiagnoser, "diagnose_many",
            lambda *a, **k: pytest.fail("diagnose() called diagnose_many()"),
        )
        csr = compile_network(q7)
        faults = random_faults(q7, q7.diagnosability(), seed=4)
        result = GeneralDiagnoser(q7).diagnose(
            ArraySyndrome.from_faults(csr, faults, seed=4)
        )
        assert result.faulty == faults
        assert calls == ["kernel"]
