"""``library-diagnose``: ``GeneralDiagnoser.diagnose()`` on pre-built syndromes.

The path the CLI and the experiment runners take: one diagnoser per
topology, one ``diagnose()`` call per operation, single-threaded, with the
numpy final ``Set_Builder`` run.  The inputs are explicit syndromes the
benchmark builds itself, on Q_16, S_8 and the 8-ary 5-cube (the biggest
instances the other workloads do not touch), so nothing of the service,
the store, the wire or syndrome generation runs.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import (Pass, choose_faults, explicit_syndrome, peak_rss_mb,
                    topology_name, verdict)

TOPOLOGIES = (
    ("hypercube", {"dimension": 16}),
    ("star", {"n": 8}),
    ("kary_ncube", {"k": 8, "n": 5}),
)
SYNDROMES_PER_TOPOLOGY = 6
LIMIT_S = 0.500   # no single diagnose() on these sizes should come near it
SETUPS = 5


def _inputs(seed: int):
    """Per topology: ``(family, params, [(buffer, faults)], delta, n)``."""
    from repro.backend.csr import compile_network
    from repro.networks.registry import create_network

    inputs = []
    for index, (family, params) in enumerate(TOPOLOGIES):
        rng = np.random.default_rng([seed, 21, index])
        network = create_network(family, **params)
        csr = compile_network(network)
        delta = network.diagnosability()
        syndromes = []
        for _ in range(SYNDROMES_PER_TOPOLOGY):
            faults = choose_faults(rng, network.num_nodes, delta)
            values, _ = explicit_syndrome(csr, faults, rng)
            syndromes.append((values.tobytes(), faults))
        inputs.append((family, params, syndromes, delta, network.num_nodes))
    return inputs


def measure(seed: int, seconds: float, checker, tracer=None, setups: int = SETUPS) -> Pass:
    from repro.backend.array_syndrome import ArraySyndrome
    from repro.core.diagnosis import GeneralDiagnoser
    from repro.networks.registry import create_network

    inputs = _inputs(seed)
    result = Pass(LIMIT_S, seconds)
    if tracer is not None:
        tracer.install()
    try:
        diagnosers: list = []
        for _ in range(setups):
            # Free the previous set-up's topologies before the clock starts,
            # so each set-up times construction alone.
            diagnosers = []
            gc.collect()
            start = time.perf_counter()
            for family, params, syndromes, delta, n in inputs:
                diagnoser = GeneralDiagnoser(create_network(family, **params))
                buffer, faults = syndromes[0]
                answer = diagnoser.diagnose(ArraySyndrome(diagnoser.csr, buffer))
                if not verdict(answer.faulty, faults, delta):
                    raise RuntimeError(f"set-up answer wrong on {topology_name(family, params)}")
                diagnosers.append(diagnoser)
            result.setup.append(time.perf_counter() - start)

        # Operations cycle through topologies in a seeded order.
        work = []
        for diagnoser, (family, params, syndromes, delta, n) in zip(diagnosers, inputs):
            for buffer, faults in syndromes:
                work.append((diagnoser, ArraySyndrome(diagnoser.csr, buffer), faults, delta, n))
        order = np.random.default_rng([seed, 22]).permutation(len(work))
        ops = []
        t0 = time.perf_counter()
        deadline = t0 + seconds
        k = 0
        while True:
            diagnoser, syndrome, faults, delta, n = work[order[k % len(work)]]
            start = time.perf_counter()
            try:
                accused = diagnoser.diagnose(syndrome).faulty
                error = None
            except Exception as exc:  # a DiagnosisError here is a failed operation
                accused, error = (), exc
            done = time.perf_counter()
            result.record(error is None and checker.check(accused, faults, delta, n),
                          done - start, start - t0)
            ops.append((start, done))
            k += 1
            if done >= deadline and k >= 100:
                break
    finally:
        if tracer is not None:
            tracer.remove()
    result.elapsed = ops[-1][1] - t0
    result.rss_mb = peak_rss_mb()
    _, _, syndromes, delta, n = inputs[0]
    result.self_check = checker.catches_corruption(syndromes[0][1], delta, n)
    result.extra = {"window": (t0, ops[-1][1]), "ops": ops}
    return result


def layer_metrics(result: Pass, tracer) -> dict:
    """Per-layer numbers of a traced pass: one ``diagnose`` span per operation."""
    from spans import NAME, START, layer_metrics as from_spans

    lo, hi = result.extra["window"]
    calls = sorted((s for s in tracer.spans
                    if s[NAME] == "diagnose" and lo <= s[START] <= hi),
                   key=lambda s: s[START])
    ops = [(start, end, [span[0]])
           for (start, end), span in zip(result.extra["ops"], calls)]
    return from_spans(tracer.spans, ops, root_layer="unattributed")
