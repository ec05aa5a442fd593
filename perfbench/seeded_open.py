"""``seeded-open``: seeded requests on an open-loop Poisson schedule.

An in-process :class:`DiagnosisService` with a file-backed
:class:`ResultStore` serves the service's acceptance mix (Q_12, Q_14, S_7)
at a fixed 40 requests per second, about half of what one process sustains
on two cores, so queues form only when something stalls.  About a quarter
of the requests repeat an earlier one and are answered from the store or by
joining an in-flight computation.  Each request is timed from when it was
due, not from when the generator got round to sending it.
"""

from __future__ import annotations

import asyncio
import gc
import time

import numpy as np

from common import OUT, SERVICE_MIX, Pass, peak_rss_mb, topology_name, verdict

RATE = 40.0           # requests per second
REPEAT_SHARE = 0.25   # share of requests that repeat an earlier one
LIMIT_S = 0.100       # latency limit from the due time
WARMUP_S = 3.0        # unrecorded traffic before the measured schedule
SETUPS = 5            # set-ups per run; setup_s is their median


def plan(seed: int, seconds: float, *, stream: int = 11, minimum: int = 100,
         seed_base: int = 0):
    """The schedule: ``(due offset, family, params, seed)`` per request.

    Poisson arrivals stratified by second: each second holds exactly
    ``RATE`` arrivals at uniform random times, so every seed offers the same
    load second by second while arrivals within a second still bunch.  The
    composition is stratified the same way: one request in every four
    repeats an earlier one, and every three fresh requests cover the mix
    once, in random order.  The seed decides order, times and syndrome
    seeds; without the strata, seed-to-seed differences in burstiness moved
    the p90 by a third between runs.
    """
    rng = np.random.default_rng([seed, stream])
    per_second = int(RATE)
    count = max(minimum, int(round(RATE * seconds)))
    due = np.concatenate([
        np.sort(second + rng.uniform(0.0, 1.0, size=per_second))
        for second in range(-(-count // per_second))
    ])[:count]
    block = int(round(1 / REPEAT_SHARE))
    repeats = {start + int(rng.integers(1 if start == 0 else 0, block))
               for start in range(0, count, block)}
    fresh: list[tuple] = []
    drawn: list[tuple] = []
    for i in range(count):
        if i in repeats:
            drawn.append(drawn[int(rng.integers(len(drawn)))])
            continue
        if not fresh:
            fresh = [SERVICE_MIX[k] for k in rng.permutation(len(SERVICE_MIX))]
        family, params = fresh.pop()
        drawn.append((family, params, seed_base + int(rng.integers(2**31))))
    return [(float(t),) + item for t, item in zip(due, drawn)]


class Expected:
    """Injected fault sets of seeded requests, worked out before timing."""

    def __init__(self) -> None:
        from repro.networks.registry import create_network

        self.networks = {topology_name(f, p): create_network(f, **p) for f, p in SERVICE_MIX}
        self.memo: dict[tuple, frozenset[int]] = {}

    def of(self, family, params, seed):
        from repro.core.faults import random_faults

        name = topology_name(family, params)
        network = self.networks[name]
        key = (name, seed)
        if key not in self.memo:
            self.memo[key] = random_faults(network, network.diagnosability(), seed=seed)
        return self.memo[key], network.diagnosability(), network.num_nodes


def _store_path(k: int):
    path = OUT / f"seeded-open-store-{k}.sqlite"
    for suffix in ("", "-wal", "-shm"):
        path.with_name(path.name + suffix).unlink(missing_ok=True)
    return path


async def _answer(service, expected, requests):
    responses = await service.submit_many(requests)
    for request, response in zip(requests, responses):
        faults, delta, n = expected.of(request.family, dict(request.params), request.seed)
        if not (response.ok and verdict(response.faulty, faults, delta)):
            raise RuntimeError(f"set-up answer wrong for {request.describe()}")


async def _run(seed, seconds, checker, setups):
    from repro.core import native
    from repro.service import DiagnosisRequest, DiagnosisService, RejectedError, ResultStore

    expected = Expected()
    schedule = plan(seed, seconds)
    requests = [DiagnosisRequest.seeded(f, p, seed=s) for _, f, p, s in schedule]
    # Warm-up traffic and first answers use seeds the measured schedule never
    # draws (it stays below 2**31), so they leave its store hits unchanged.
    warmup = plan(seed, WARMUP_S, stream=12, minimum=1, seed_base=2**32)
    warm_requests = [DiagnosisRequest.seeded(f, p, seed=s) for _, f, p, s in warmup]
    for request in requests + warm_requests:
        expected.of(request.family, dict(request.params), request.seed)
    first = [DiagnosisRequest.seeded(f, p, seed=2**31 + seed) for f, p in SERVICE_MIX]
    for request in first:
        expected.of(request.family, dict(request.params), request.seed)

    result = Pass(LIMIT_S, seconds)
    service = store = None
    for k in range(setups):
        if service is not None:
            await service.close()
            store.close()
            # Free the previous set-up before the clock starts, so each
            # set-up times construction alone.
            service = store = None
            gc.collect()
        path = _store_path(k)
        if not native._forced_off:
            native._kernel = "unset"  # load the kernel again, as a fresh process does
        start = time.perf_counter()
        store = ResultStore(path)
        service = DiagnosisService(store=store)
        await _answer(service, expected, first)
        result.setup.append(time.perf_counter() - start)

    finished: list = [None] * len(requests)
    warm_finished: list = [None] * len(warm_requests)
    lags: list[float] = []

    async def one(into, i, request):
        try:
            into[i] = (await service.submit(request), time.perf_counter())
        except Exception as exc:  # a rejection or a crash is a failed request
            into[i] = (exc, time.perf_counter())

    t0 = time.perf_counter() + 0.05 + WARMUP_S
    timeline = sorted(
        [(t0 - WARMUP_S + w[0], warm_finished, i, r)
         for i, (w, r) in enumerate(zip(warmup, warm_requests))]
        + [(t0 + m[0], finished, i, r) for i, (m, r) in enumerate(zip(schedule, requests))],
        key=lambda item: item[0])
    tasks = []
    for due, into, i, request in timeline:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if into is finished:
            lags.append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(one(into, i, request)))
    await asyncio.gather(*tasks)
    end = max(done for _, done in finished)
    await service.close()
    store.close()

    for request, (response, _) in zip(warm_requests, warm_finished):
        faults, delta, n = expected.of(request.family, dict(request.params), request.seed)
        if isinstance(response, Exception) or not (
                response.ok and verdict(response.faulty, faults, delta)):
            result.record(False, 0.0, 0.0)

    sources = {"computed": 0, "store": 0, "coalesced": 0}
    rejected = 0
    ops = []
    for (offset, *_), request, (response, done) in zip(schedule, requests, finished):
        ok = False
        if isinstance(response, Exception):
            rejected += isinstance(response, RejectedError)
        elif response.ok:
            faults, delta, n = expected.of(request.family, dict(request.params), request.seed)
            ok = checker.check(response.faulty, faults, delta, n)
            sources[response.source] = sources.get(response.source, 0) + 1
        result.record(ok, done - (t0 + offset), offset)
        ops.append((t0 + offset, done, id(request)))
    result.elapsed = end - t0
    result.rss_mb = peak_rss_mb()
    faults, delta, n = expected.of(first[0].family, dict(first[0].params), first[0].seed)
    result.self_check = checker.catches_corruption(faults, delta, n)
    result.extra = {
        "window": (t0, end),
        "ops": ops,
        "requests": requests,
        "lag_p90_ms": 1e3 * float(np.percentile(lags, 90)),
        "computed_share": sources["computed"] / max(1, sum(sources.values())),
        "rejected": rejected,
        "finished": finished,
    }
    return result


def measure(seed: int, seconds: float, checker, tracer=None, setups: int = SETUPS) -> Pass:
    """One pass; with ``tracer`` the wrappers are on for all of it."""
    if tracer is not None:
        tracer.install()
    try:
        return asyncio.run(_run(seed, seconds, checker, setups))
    finally:
        if tracer is not None:
            tracer.remove()


def layer_metrics(result: Pass, tracer) -> dict:
    """Per-layer numbers of a traced pass."""
    from spans import NAME, OBJ, layer_metrics as from_spans

    submits = {span[OBJ]: span[0] for span in tracer.spans if span[NAME] == "submit"}
    ops = [(start, end, [submits[obj]]) for start, end, obj in result.extra["ops"]]
    metrics = from_spans(tracer.spans, ops, root_layer="unattributed")
    metrics["service.service.computed_share"] = (result.extra["computed_share"], "share")
    metrics["service.service.rejected"] = (result.extra["rejected"], "count")
    metrics["loadgen.lag_p90_ms"] = (result.extra["lag_p90_ms"], "ms")
    return metrics
