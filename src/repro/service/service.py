"""The asyncio diagnosis service: coalesce, batch, cache, remember.

:class:`DiagnosisService` accepts a stream of
:class:`~repro.service.requests.DiagnosisRequest` s and turns the per-request
pipeline into amortised batched work:

1. **Store check** — a request whose canonical key is already filed in the
   :class:`~repro.service.store.ResultStore` is answered from disk without
   touching a topology.
2. **In-flight coalescing** — identical concurrent requests share one
   computation: the first registers a future, the rest await it.
3. **Batch coalescing** — distinct requests on the *same topology* submitted
   within the coalescing window join one batch; the batch resolves its
   compiled topology once (through a bounded LRU) and executes as a single
   unit — in-process, or as one :class:`~repro.parallel.pool.WorkerPool`
   task mapping the topology's adjacency out of shared memory.

Multi-tenancy sits across all three stages: every request carries a
``tenant``, each topology's queue is a per-tenant deficit-round-robin
structure (:class:`~repro.service.fairqueue.TenantQueues`) so one hot tenant
cannot starve cold ones out of a batch, ``max_queue_per_tenant`` bounds each
tenant's queued share (on top of the global ``max_queue_depth``), and every
counter the service keeps is also accounted per tenant.  Store hits and
in-flight coalesced joins consume **no** queue slot from any tenant — dedup
crosses tenant boundaries by design (the work is identical), only queueing
is partitioned.

Batches report their executing process's compile-count and pair-build
deltas; on the serving path both stay at zero — the PR-3 counters extended
into the serving layer, so "zero per-request recompilation" is measured,
not claimed.  Responses are bit-identical to direct
:meth:`~repro.core.diagnosis.GeneralDiagnoser.diagnose` calls (pinned by
``tests/differential``): the service reorders and amortises work, never
changes it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .cache import LRUCache
from .executor import resolve_topology, run_batch_local, run_batch_task, validate_request
from .fairqueue import TenantQueues
from .metrics import ServiceMetrics
from .requests import DiagnosisRequest, DiagnosisResponse
from .store import ResultStore

__all__ = ["DiagnosisService", "RejectedError"]


class RejectedError(RuntimeError):
    """A request shed by admission control.

    The in-process face of HTTP 429: the service answers immediately instead
    of queueing without bound, and the caller decides whether to back off and
    retry.  ``scope`` records which bound shed the request — ``"global"``
    (queue at ``max_queue_depth``) or ``"tenant"`` (the request's tenant at
    its ``max_queue_per_tenant`` quota).  Store hits and in-flight coalesced
    joins are never rejected — they consume no queue slot.
    """

    def __init__(
        self,
        depth: int,
        limit: int,
        *,
        scope: str = "global",
        tenant: str | None = None,
    ) -> None:
        if scope == "tenant":
            message = (f"tenant {tenant!r} queue full: {depth} requests "
                       f"pending (max_queue_per_tenant={limit})")
        else:
            message = (f"queue full: {depth} requests pending "
                       f"(max_queue_depth={limit})")
        super().__init__(message)
        self.depth = depth
        self.limit = limit
        self.scope = scope
        self.tenant = tenant


@dataclass
class _Pending:
    """One queued request and the machinery to answer it."""

    request: DiagnosisRequest
    key: str
    future: asyncio.Future
    enqueued_at: float


class DiagnosisService:
    """Async front end serving diagnosis requests in coalesced batches.

    Parameters
    ----------
    pool:
        Optional persistent :class:`~repro.parallel.pool.WorkerPool`; batches
        then execute as single pool tasks over shared-memory topologies.
        ``None`` executes batches in-process (on the default thread executor,
        so the event loop keeps accepting requests mid-batch).
    remote:
        Optional :class:`~repro.fabric.coordinator.FabricCoordinator` (or
        anything with its ``has_workers()``/``execute()`` face).  The
        dispatch policy then prefers the fabric whenever it has live
        workers, falling back to the pool / in-process path when it does
        not — or when it raises
        :class:`~repro.fabric.protocol.FabricUnavailableError` mid-batch
        (all workers died, retry budget exhausted), so fabric trouble
        degrades throughput, never loses a request.  Like the pool, the
        coordinator stays caller-owned: :meth:`close` does not close it.
    coalesce:
        The serving discipline.  ``True`` (default) enables in-flight
        duplicate sharing and the batching window; ``False`` serves every
        request individually the moment it arrives — the "naive
        one-at-a-time" baseline the benchmark compares against.
    max_batch_size:
        Dispatch a topology's batch immediately once this many requests are
        waiting (the window otherwise closes after ``batch_delay``).
    batch_delay:
        Coalescing window in seconds.  Even ``0.0`` yields to the event loop
        once, so requests submitted in the same tick (e.g. via
        ``asyncio.gather``) coalesce into one batch.
    topology_cache_capacity:
        Bound of the compiled-topology LRU.  ``0`` disables topology reuse
        entirely (every batch re-resolves — the naive baseline's setting).
    store:
        Optional :class:`~repro.service.store.ResultStore` for persistent
        request dedup.
    max_queue_depth:
        Admission control: a request that would push the number of queued
        (not yet dispatched) requests past this bound is refused with
        :class:`RejectedError` instead of enqueued — the service degrades
        under overload by shedding, not by growing an unbounded queue.
        ``None`` (default) admits everything.  Requests answered without a
        queue slot — store hits and in-flight coalesced duplicates — are
        never shed.
    max_queue_per_tenant:
        Per-tenant admission quota: a request whose tenant already has this
        many queued (not yet dispatched) requests is shed with
        :class:`RejectedError` (``scope="tenant"``), whatever the global
        queue looks like — one hot tenant exhausts its own quota, never the
        whole edge.  The global bound still applies on top.  Like the global
        bound, store hits and coalesced joins never consume a tenant's
        quota.
    tenant_weights:
        ``tenant -> positive integer weight`` for the per-topology
        deficit-round-robin scheduler; per DRR rotation a tenant may fill
        ``weight`` slots of a batch (unnamed tenants weigh 1).  Weights
        shape *ordering* under contention, quotas shape *admission*.
    """

    def __init__(
        self,
        *,
        pool=None,
        remote=None,
        coalesce: bool = True,
        max_batch_size: int = 64,
        batch_delay: float = 0.002,
        topology_cache_capacity: int = 16,
        store: ResultStore | None = None,
        metrics: ServiceMetrics | None = None,
        max_queue_depth: int | None = None,
        max_queue_per_tenant: int | None = None,
        tenant_weights: dict[str, int] | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if batch_delay < 0:
            raise ValueError("batch_delay must be non-negative")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1 (or None)")
        if max_queue_per_tenant is not None and max_queue_per_tenant < 1:
            raise ValueError(
                "max_queue_per_tenant must be at least 1 (or None)"
            )
        self.pool = pool
        self.remote = remote
        self.coalesce = coalesce
        self.max_batch_size = max_batch_size
        self.batch_delay = batch_delay
        self.max_queue_depth = max_queue_depth
        self.max_queue_per_tenant = max_queue_per_tenant
        # Validated eagerly (TenantQueues rejects bad weights) so a typo'd
        # weight map fails at construction, not at the first enqueue.
        self.tenant_weights = dict(tenant_weights or {})
        TenantQueues(weights=self.tenant_weights)
        self.store = store
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # A coordinator built without explicit metrics adopts the service's,
        # so per-worker counters land in the same stats()/Prometheus snapshot.
        if remote is not None and getattr(remote, "owns_metrics", False):
            remote.metrics = self.metrics
            remote.owns_metrics = False
        self._topologies: LRUCache[str, tuple] = LRUCache(
            topology_cache_capacity, on_evict=self._on_topology_evicted
        )
        self._topology_locks: dict[str, asyncio.Lock] = {}
        #: cache-evicted (network, csr) entries whose shared-memory segment
        #: cannot be unlinked yet — a batch submitted before the eviction may
        #: still be queued with the handle; released once nothing is in
        #: flight on that exact compiled object (see _flush_retired)
        self._retired: list[tuple] = []
        self._inflight_csr: dict[int, int] = {}
        #: Serialises in-process batch execution: the compile/pair counters
        #: are process-global, so a topology resolving on one executor thread
        #: while a batch measures its delta on another would bleed into that
        #: delta.  Pool batches measure worker-side and need no lock.
        self._local_execution = asyncio.Lock()
        self._pending: dict[str, TenantQueues] = {}
        self._pending_total = 0
        #: queued-but-undispatched requests per tenant, across topologies —
        #: the number the per-tenant quota is enforced against
        self._tenant_pending: dict[str, int] = {}
        self._full: dict[str, asyncio.Event] = {}
        self._dispatchers: dict[str, asyncio.Task] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._closed = False

    # -------------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "DiagnosisService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def drain(self) -> None:
        """Wait until every queued request has been answered."""
        while self._dispatchers:
            await asyncio.gather(
                *list(self._dispatchers.values()), return_exceptions=True
            )

    async def close(self) -> None:
        """Refuse new requests, drain the queues, release published segments.

        The pool itself stays caller-owned (it may be serving other users);
        only the topology segments *this* service published are unlinked.
        """
        self._closed = True
        await self.drain()
        if self.pool is not None:
            self._flush_retired()
            for key in list(self._topologies):
                entry = self._topologies.get(key)
                if entry is not None:
                    self.pool.release_topology(entry[1])
            self._topologies.clear()

    # --------------------------------------------------- segment bookkeeping
    def _on_topology_evicted(self, topology: str, entry: tuple) -> None:
        """LRU eviction hook: queue the entry's shm segment for release.

        The per-topology resolution lock goes with it (unless a resolution
        is mid-flight on it right now, in which case the re-resolution path
        recreates the cache entry anyway) — otherwise a service touring many
        parametrisations would accumulate one idle lock per key forever.
        """
        if self.pool is not None:
            self._retired.append(entry)
        lock = self._topology_locks.get(topology)
        if lock is not None and not lock.locked():
            del self._topology_locks[topology]

    def _prune_locks(self) -> None:
        """Drop idle resolution locks for topologies no longer cached/queued.

        Covers what the eviction hook cannot: a capacity-0 cache evicts a
        topology while its own resolution lock is still held.
        """
        for key in list(self._topology_locks):
            if (not self._topology_locks[key].locked()
                    and key not in self._topologies
                    and key not in self._pending):
                del self._topology_locks[key]

    def _flush_retired(self) -> None:
        """Unlink retired segments with no batch in flight on their arrays.

        Keeps long-running pooled services bounded: without this, every
        eviction + re-resolution would pin one more segment in the pool
        until shutdown.
        """
        keep = []
        for entry in self._retired:
            if self._inflight_csr.get(id(entry[1]), 0):
                keep.append(entry)
            else:
                self.pool.release_topology(entry[1])
        self._retired = keep

    # ----------------------------------------------------------------- submit
    async def submit(self, request: DiagnosisRequest) -> DiagnosisResponse:
        """Serve one request (store -> in-flight -> batched computation)."""
        if self._closed:
            raise RuntimeError("the service is closed")
        validate_request(request)
        tenant = request.tenant
        loop = asyncio.get_running_loop()
        enqueued_at = loop.time()

        if self.store is not None:
            stored = self.store.get(request)
            if stored is not None:
                self.metrics.record_enqueue(self._pending_total, tenant=tenant)
                latency = loop.time() - enqueued_at
                response = replace(stored, elapsed_seconds=latency)
                self.metrics.record_response(
                    "store", latency, ok=response.ok, tenant=tenant
                )
                return response

        key = request.key
        if self.coalesce and key in self._inflight:
            self.metrics.record_enqueue(self._pending_total, tenant=tenant)
            response = await asyncio.shield(self._inflight[key])
            latency = loop.time() - enqueued_at
            response = replace(
                response, source="coalesced", elapsed_seconds=latency
            )
            self.metrics.record_response(
                "coalesced", latency, ok=response.ok, tenant=tenant
            )
            return response

        # The request needs a queue slot from here on: admission control
        # sheds it *now* if either bound is already met, so overload turns
        # into immediate, retryable refusals instead of latency.  Both
        # checks run before any state changes, and in a fixed order (global,
        # then tenant), so the shed split of a burst is deterministic in
        # submission order — the property the loadgen pins.
        if (self.max_queue_depth is not None
                and self._pending_total >= self.max_queue_depth):
            self.metrics.record_rejection(self._pending_total, tenant=tenant)
            raise RejectedError(self._pending_total, self.max_queue_depth)
        tenant_depth = self._tenant_pending.get(tenant, 0)
        if (self.max_queue_per_tenant is not None
                and tenant_depth >= self.max_queue_per_tenant):
            self.metrics.record_rejection(self._pending_total, tenant=tenant)
            raise RejectedError(
                tenant_depth, self.max_queue_per_tenant,
                scope="tenant", tenant=tenant,
            )
        self.metrics.record_enqueue(self._pending_total, tenant=tenant)

        future: asyncio.Future = loop.create_future()
        if self.coalesce:
            self._inflight[key] = future
        pending = _Pending(
            request=request, key=key, future=future, enqueued_at=enqueued_at
        )
        if self.coalesce:
            self._enqueue(pending)
        else:
            await self._execute_batch(request.topology_key, [pending])
        response = await asyncio.shield(future)
        latency = loop.time() - enqueued_at
        response = replace(response, elapsed_seconds=latency)
        self.metrics.record_response(
            "computed", latency, ok=response.ok, tenant=tenant
        )
        return response

    async def submit_many(
        self, requests: Iterable[DiagnosisRequest]
    ) -> list[DiagnosisResponse]:
        """Submit concurrently; responses return in request order."""
        return list(await asyncio.gather(*(self.submit(r) for r in requests)))

    # ------------------------------------------------------------- scheduling
    def _enqueue(self, pending: _Pending) -> None:
        tenant = pending.request.tenant
        topology = pending.request.topology_key
        queues = self._pending.get(topology)
        if queues is None:
            queues = self._pending[topology] = TenantQueues(
                weights=self.tenant_weights
            )
        queues.push(tenant, pending)
        self._pending_total += 1
        self._tenant_pending[tenant] = self._tenant_pending.get(tenant, 0) + 1
        if topology not in self._dispatchers:
            self._full[topology] = asyncio.Event()
            self._dispatchers[topology] = asyncio.create_task(
                self._dispatch_loop(topology)
            )
        if len(queues) >= self.max_batch_size:
            self._full[topology].set()

    def _take_batch(self, topology: str) -> list[_Pending]:
        """Drain up to one batch from a topology's queues (DRR order)."""
        queues = self._pending.get(topology)
        if queues is None:
            return []
        batch = queues.take(self.max_batch_size)
        self._pending_total -= len(batch)
        for pending in batch:
            tenant = pending.request.tenant
            remaining = self._tenant_pending[tenant] - 1
            if remaining:
                self._tenant_pending[tenant] = remaining
            else:
                del self._tenant_pending[tenant]
        return batch

    async def _dispatch_loop(self, topology: str) -> None:
        """Per-topology dispatcher: hold the window open, drain, repeat.

        The task lives as long as its topology has queued requests (so
        :meth:`drain` need only await the registered dispatchers), draining
        at most ``max_batch_size`` per batch in deficit-round-robin tenant
        order — a full window dispatches immediately and the overflow opens
        the next one.
        """
        try:
            while True:
                full = self._full[topology]
                try:
                    await asyncio.wait_for(full.wait(), timeout=self.batch_delay)
                except TimeoutError:
                    pass  # window closed by its timer, not by filling up
                batch = self._take_batch(topology)
                self._full[topology] = asyncio.Event()
                queues = self._pending.get(topology)
                if queues is not None and len(queues) >= self.max_batch_size:
                    self._full[topology].set()
                if batch:
                    await self._execute_batch(topology, batch)
                if not self._pending.get(topology):
                    return
        finally:
            self._pending.pop(topology, None)
            self._dispatchers.pop(topology, None)
            self._full.pop(topology, None)

    # -------------------------------------------------------------- execution
    async def _resolved_topology(self, topology: str, request: DiagnosisRequest):
        """The ``(network, csr)`` pair for a batch, via the bounded LRU.

        Resolution (construct + compile) runs on the default executor so the
        event loop keeps serving; a per-topology lock stops concurrent
        batches from resolving the same topology twice.
        """
        lock = self._topology_locks.setdefault(topology, asyncio.Lock())
        # repro: allow[RPR009] single-flight by design: the awaited work IS
        # the resolve this lock deduplicates; concurrent batches for the same
        # topology must wait for it rather than compile twice
        async with lock:
            entry = self._topologies.get(topology)
            if entry is None:
                loop = asyncio.get_running_loop()
                entry = await loop.run_in_executor(
                    None, resolve_topology, request.family, request.network_kwargs
                )
                self._topologies.put(topology, entry)
        return entry

    async def _execute_batch(self, topology: str, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        requests = [pending.request for pending in batch]
        try:
            executed = False
            if self.remote is not None and self.remote.has_workers():
                # Dispatch policy: prefer the fabric while it has live
                # workers.  The coordinator owns retries, requeues and
                # dedup; if it still cannot complete the lease the batch
                # falls through to the local/pooled path below — the fabric
                # never turns its own trouble into failed requests.
                from ..fabric.protocol import FabricUnavailableError

                dispatch_time = loop.time()
                try:
                    responses, stats = await self.remote.execute(
                        topology, requests
                    )
                    executed = True
                except FabricUnavailableError:
                    # Fall through to the local/pooled path below — but
                    # leave evidence: an operator watching a fleet that
                    # quietly degrades to local execution needs a counter,
                    # not silence.
                    self.metrics.fabric_fallbacks += 1
            if executed:
                pass
            elif self.pool is not None:
                network, csr = await self._resolved_topology(topology, requests[0])
                dispatch_time = loop.time()
                handle = self.pool.publish_topology(csr)
                # Explicit syndromes ship through shared memory, not pickle:
                # concatenate their buffers into one published segment and
                # send (position, offset, size) spans; the wire requests are
                # stripped of their bytes so the task payload stays small.
                wire_requests = list(requests)
                syndrome_handle = None
                spans: list[tuple[int, int, int]] = []
                parts: list[bytes] = []
                offset = 0
                for pos, request in enumerate(requests):
                    if request.is_explicit:
                        blob = bytes(request.syndrome_bytes)
                        spans.append((pos, offset, len(blob)))
                        parts.append(blob)
                        offset += len(blob)
                        wire_requests[pos] = replace(request, syndrome_bytes=None)
                if parts:
                    syndrome_handle = self.pool.publish_buffer(b"".join(parts))
                self._inflight_csr[id(csr)] = self._inflight_csr.get(id(csr), 0) + 1
                try:
                    responses, stats = await asyncio.wrap_future(
                        self.pool.submit(
                            run_batch_task, handle, requests[0].family,
                            requests[0].params, wire_requests,
                            syndrome_handle, spans,
                        )
                    )
                finally:
                    remaining = self._inflight_csr[id(csr)] - 1
                    if remaining:
                        self._inflight_csr[id(csr)] = remaining
                    else:
                        del self._inflight_csr[id(csr)]
                    if syndrome_handle is not None:
                        self.pool.release(syndrome_handle)
                    self._flush_retired()
            else:
                # repro: allow[RPR009] deliberate serialization: without a
                # pool there is one executor thread's worth of CPU; running
                # batches concurrently would interleave kernels and wreck
                # the per-batch operation accounting
                async with self._local_execution:
                    network, csr = await self._resolved_topology(
                        topology, requests[0]
                    )
                    dispatch_time = loop.time()
                    responses, stats = await loop.run_in_executor(
                        None, run_batch_local, network, csr, requests
                    )
            for pending in batch:
                self.metrics.queue_wait.record(dispatch_time - pending.enqueued_at)
        except Exception as exc:
            for pending in batch:
                self._inflight.pop(pending.key, None)
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        self.metrics.record_batch(
            len(batch),
            compiles=stats["compiles"],
            pair_builds=stats["pair_builds"],
            kernel_width=stats.get("kernel_width"),
        )
        responses = [
            replace(response, batch_size=len(batch)) for response in responses
        ]
        if self.store is not None:
            # One transaction per batch: a single commit stall, not |batch|.
            self.store.put_many(
                [(p.request, r) for p, r in zip(batch, responses)]
            )
        for pending, response in zip(batch, responses):
            self._inflight.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_result(response)
        self._prune_locks()

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """The ``stats`` endpoint: telemetry + cache + store in one dict."""
        body = self.metrics.snapshot()
        body["pending"] = self._pending_total
        body["pending_by_tenant"] = {
            tenant: depth
            for tenant, depth in sorted(self._tenant_pending.items())
        }
        body["max_queue_depth"] = self.max_queue_depth
        body["max_queue_per_tenant"] = self.max_queue_per_tenant
        body["tenant_weights"] = {
            tenant: weight
            for tenant, weight in sorted(self.tenant_weights.items())
        }
        body["coalescing"] = self.coalesce
        body["pooled"] = self.pool is not None
        body["topology_cache"] = self._topologies.stats().as_dict()
        body["store"] = self.store.stats() if self.store is not None else None
        if self.remote is not None:
            body["fabric"] = self.remote.stats()
        return body

    def prometheus_text(self, *, http_stats: dict | None = None) -> str:
        """The ``/metrics`` exposition body (see :mod:`.prometheus`).

        ``http_stats`` is the HTTP frontend's counter dict when one fronts
        this service; transportless callers omit it.
        """
        from .prometheus import render_metrics

        return render_metrics(
            self.metrics,
            pending=self._pending_total,
            pending_by_tenant=dict(self._tenant_pending),
            cache_stats=self._topologies.stats().as_dict(),
            store_stats=self.store.stats() if self.store is not None else None,
            http_stats=http_stats,
            fabric_stats=(
                self.remote.stats() if self.remote is not None else None
            ),
        )

    async def serve_sequence(
        self, requests: Sequence[DiagnosisRequest]
    ) -> list[DiagnosisResponse]:
        """Closed-loop serving of an ordered stream (one at a time).

        The loadgen's per-client loop; kept here so tests can drive a
        single-client stream without building a loadgen spec.
        """
        return [await self.submit(request) for request in requests]
