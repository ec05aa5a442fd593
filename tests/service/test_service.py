"""DiagnosisService concurrency: coalescing, batching, dedup, cancellation.

The suite drives the asyncio service from synchronous tests via
``asyncio.run`` (no pytest-asyncio dependency).  Correctness baseline
throughout: :func:`repro.service.executor.run_direct`, the plain pipeline.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    DiagnosisRequest,
    DiagnosisService,
    RejectedError,
    ResultStore,
)
from repro.service.executor import run_direct

Q6 = ("hypercube", {"dimension": 6})
S5 = ("star", {"n": 5})
#: A deterministic Theorem-1-violating instance: 14 faults on the 24-node
#: pancake P_4 leave no certifiable healthy component.
DOOMED = DiagnosisRequest.seeded("pancake", {"n": 4}, fault_count=14, seed=0)


def _request(seed: int = 0, instance=Q6, **kwargs) -> DiagnosisRequest:
    return DiagnosisRequest.seeded(*instance, seed=seed, **kwargs)


def _serve(service: DiagnosisService, *requests):
    async def run():
        async with service:
            return await service.submit_many(list(requests))

    return asyncio.run(run())


class TestCoalescing:
    def test_same_topology_requests_share_one_batch(self):
        service = DiagnosisService()
        responses = _serve(service, *(_request(seed) for seed in range(4)))
        assert [r.source for r in responses] == ["computed"] * 4
        assert {r.batch_size for r in responses} == {4}
        stats = service.stats()
        assert stats["batches"] == 1
        assert stats["coalesced_batches"] == 1
        assert stats["topology_cache"]["misses"] == 1

    def test_distinct_topologies_get_distinct_batches(self):
        service = DiagnosisService()
        responses = _serve(
            service, _request(0, Q6), _request(0, S5), _request(1, Q6), _request(1, S5)
        )
        assert all(r.source == "computed" for r in responses)
        assert service.stats()["batches"] == 2
        assert service.stats()["topology_cache"]["misses"] == 2

    def test_identical_concurrent_requests_compute_once(self):
        service = DiagnosisService()
        responses = _serve(service, _request(7), _request(7), _request(7))
        sources = sorted(r.source for r in responses)
        assert sources == ["coalesced", "coalesced", "computed"]
        assert service.stats()["computed"] == 1
        assert len({r.faulty for r in responses}) == 1

    def test_max_batch_size_caps_batches(self):
        service = DiagnosisService(max_batch_size=2)
        responses = _serve(service, *(_request(seed) for seed in range(4)))
        assert all(r.batch_size <= 2 for r in responses)
        assert service.stats()["batches"] == 2

    def test_naive_mode_serves_one_at_a_time(self):
        service = DiagnosisService(coalesce=False, topology_cache_capacity=0)
        responses = _serve(service, _request(0), _request(1), _request(0))
        assert all(r.source == "computed" for r in responses)
        assert all(r.batch_size == 1 for r in responses)
        stats = service.stats()
        assert stats["batches"] == 3
        assert stats["coalesced_batches"] == 0
        # capacity 0: every batch re-resolved its topology
        assert stats["topology_cache"]["misses"] == 3


class TestCorrectness:
    def test_responses_match_direct_pipeline(self):
        service = DiagnosisService()
        requests = [_request(seed) for seed in range(3)] + [_request(1, S5)]
        responses = _serve(service, *requests)
        for request, response in zip(requests, responses):
            direct = run_direct(request)
            assert response.faulty == direct.faulty
            assert response.healthy_root == direct.healthy_root
            assert response.lookups == direct.lookups
            assert response.syndrome_digest == direct.syndrome_digest

    def test_explicit_syndrome_requests(self, q5):
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.backend.csr import compile_network
        from repro.core.faults import random_faults

        faults = random_faults(q5, 3, seed=9)
        syndrome = ArraySyndrome.from_faults(compile_network(q5), faults, seed=9)
        request = DiagnosisRequest.from_syndrome(
            "hypercube", {"dimension": 5}, syndrome
        )
        [response] = _serve(DiagnosisService(), request)
        assert response.faulty_set == faults

    def test_one_bad_request_never_fails_its_batch_mates(self):
        """Batches share execution, not fate (per-request error isolation)."""
        service = DiagnosisService()
        oversized = _request(0, fault_count=10_000)  # > num_nodes: ValueError
        healthy = _request(1)
        bad, good = _serve(service, oversized, healthy)
        assert not bad.ok and "ValueError" in bad.error
        assert good.ok
        assert good.faulty == run_direct(healthy).faulty
        # The direct pipeline agrees on the failure, too.
        assert run_direct(oversized).error == bad.error

    def test_diagnosis_error_becomes_error_response(self):
        service = DiagnosisService()
        ok_request = _request(0)
        responses = _serve(service, DOOMED, ok_request)
        assert not responses[0].ok
        assert "DiagnosisError" in responses[0].error
        assert responses[0].faulty == ()
        assert responses[1].ok  # the failure never poisons other requests
        direct = run_direct(DOOMED)
        assert responses[0].error == direct.error

    def test_in_process_batches_never_recompile(self):
        service = DiagnosisService()
        _serve(service, *(_request(seed) for seed in range(5)))
        stats = service.stats()
        assert stats["worker_compiles"] == 0
        # resolve_topology warms the pair index into the cache entry, so
        # even the *first* batch on a fresh topology builds no pair arrays
        # inside the measured window.
        assert stats["worker_pair_builds"] == 0

    def test_batch_size_histogram_records_kernel_width(self):
        """A construction failure shrinks the stacked kernel's width; the
        batch-size histogram records the post-slicing kernel width, not the
        coalesced request count."""
        service = DiagnosisService()
        oversized = _request(0, fault_count=10_000)  # ValueError pre-kernel
        responses = _serve(service, oversized, _request(1), _request(2))
        assert not responses[0].ok and responses[1].ok and responses[2].ok
        stats = service.stats()
        assert stats["batches"] == 1
        assert stats["batch_size"]["count"] == 1
        assert stats["mean_batch_size"] == 2.0  # 3 coalesced, 2 diagnosed
        # coalescing telemetry still counts the full batch
        assert stats["coalesced_batches"] == 1


class TestStoreIntegration:
    def test_repeat_requests_hit_the_store(self):
        store = ResultStore()
        service = DiagnosisService(store=store)

        async def run():
            async with service:
                first = await service.submit(_request(3))
                second = await service.submit(_request(3))
                return first, second

        first, second = asyncio.run(run())
        assert first.source == "computed"
        assert second.source == "store"
        assert second.faulty == first.faulty
        assert service.stats()["store_hits"] == 1
        assert store.hits == 1

    def test_store_survives_service_restart(self, tmp_path):
        path = tmp_path / "results.db"
        first = _serve(DiagnosisService(store=ResultStore(path)), _request(5))[0]
        again = _serve(DiagnosisService(store=ResultStore(path)), _request(5))[0]
        assert again.source == "store"
        assert again.faulty == first.faulty

    def test_failed_diagnoses_are_stored_too(self):
        store = ResultStore()
        first = _serve(DiagnosisService(store=store), DOOMED)[0]
        again = _serve(DiagnosisService(store=store), DOOMED)[0]
        assert not first.ok and not again.ok
        assert again.source == "store"


class TestAdmissionControl:
    def test_overflow_requests_are_shed_deterministically(self):
        service = DiagnosisService(max_queue_depth=2, batch_delay=0.05)

        async def run():
            async with service:
                outcomes = await asyncio.gather(
                    *(service.submit(_request(seed)) for seed in range(5)),
                    return_exceptions=True,
                )
            return outcomes

        outcomes = asyncio.run(run())
        # gather submits in order within one tick: the first two take the
        # queue's slots, the remaining three shed — same split every run.
        assert [isinstance(o, RejectedError) for o in outcomes] == [
            False, False, True, True, True
        ]
        assert all(o.ok for o in outcomes[:2])
        stats = service.stats()
        assert stats["rejected"] == 3
        assert stats["requests"] == 5
        assert stats["computed"] == 2

    def test_rejection_carries_depth_and_limit(self):
        service = DiagnosisService(max_queue_depth=1, batch_delay=0.05)

        async def run():
            async with service:
                first = asyncio.create_task(service.submit(_request(0)))
                await asyncio.sleep(0)
                with pytest.raises(RejectedError) as excinfo:
                    await service.submit(_request(1))
                await first
                return excinfo.value

        error = asyncio.run(run())
        assert error.depth == 1 and error.limit == 1
        assert "queue full" in str(error)

    def test_store_hits_and_coalesced_joins_are_never_shed(self):
        store = ResultStore()

        async def run():
            async with DiagnosisService(store=store) as warm:
                await warm.submit(_request(0))
            service = DiagnosisService(
                store=store, max_queue_depth=1, batch_delay=0.05
            )
            async with service:
                filler = asyncio.create_task(service.submit(_request(1)))
                await asyncio.sleep(0)  # filler takes the only slot
                duplicate = asyncio.create_task(service.submit(_request(1)))
                await asyncio.sleep(0)
                stored = await service.submit(_request(0))  # store hit
                joined = await duplicate
                await filler
                return stored, joined

        stored, joined = asyncio.run(run())
        assert stored.source == "store"
        assert joined.source == "coalesced"

    def test_queue_drains_and_admits_again(self):
        service = DiagnosisService(max_queue_depth=1, batch_delay=0.01)

        async def run():
            async with service:
                first = await service.submit(_request(0))
                second = await service.submit(_request(1))
            return first, second

        first, second = asyncio.run(run())
        assert first.ok and second.ok  # sequential: never over the bound
        assert service.stats()["rejected"] == 0

    def test_unbounded_by_default(self):
        service = DiagnosisService(batch_delay=0.01)
        responses = _serve(service, *(_request(seed) for seed in range(20)))
        assert all(r.ok for r in responses)
        assert service.stats()["rejected"] == 0

    def test_invalid_max_queue_depth_rejected(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            DiagnosisService(max_queue_depth=0)


class TestTenantAdmission:
    def test_tenant_quota_sheds_deterministically(self):
        service = DiagnosisService(max_queue_per_tenant=2, batch_delay=0.05)

        async def run():
            async with service:
                hot = [_request(seed, tenant="hot") for seed in range(5)]
                cold = [_request(seed, S5, tenant="cold") for seed in range(2)]
                return await asyncio.gather(
                    *(service.submit(r) for r in hot + cold),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(run())
        # Submission order within one tick: hot takes its two quota slots,
        # sheds the rest; cold's quota is untouched by hot's overflow.
        assert [isinstance(o, RejectedError) for o in outcomes] == [
            False, False, True, True, True, False, False
        ]
        stats = service.stats()
        assert stats["tenants"]["hot"]["admitted"] == 2
        assert stats["tenants"]["hot"]["rejected"] == 3
        assert stats["tenants"]["cold"]["admitted"] == 2
        assert stats["tenants"]["cold"]["rejected"] == 0

    def test_tenant_rejection_names_the_tenant(self):
        service = DiagnosisService(max_queue_per_tenant=1, batch_delay=0.05)

        async def run():
            async with service:
                first = asyncio.create_task(
                    service.submit(_request(0, tenant="acme"))
                )
                await asyncio.sleep(0)
                with pytest.raises(RejectedError) as excinfo:
                    await service.submit(_request(1, tenant="acme"))
                await first
                return excinfo.value

        error = asyncio.run(run())
        assert error.scope == "tenant"
        assert error.tenant == "acme"
        assert error.depth == 1 and error.limit == 1
        assert "acme" in str(error) and "max_queue_per_tenant" in str(error)

    def test_global_bound_checked_before_tenant_quota(self):
        service = DiagnosisService(
            max_queue_depth=1, max_queue_per_tenant=5, batch_delay=0.05
        )

        async def run():
            async with service:
                first = asyncio.create_task(
                    service.submit(_request(0, tenant="a"))
                )
                await asyncio.sleep(0)
                with pytest.raises(RejectedError) as excinfo:
                    await service.submit(_request(1, tenant="b"))
                await first
                return excinfo.value

        error = asyncio.run(run())
        assert error.scope == "global"
        assert error.tenant is None

    def test_store_hits_never_consume_tenant_quota(self):
        store = ResultStore()

        async def run():
            async with DiagnosisService(store=store) as warm:
                await warm.submit(_request(0, tenant="hot"))
            service = DiagnosisService(
                store=store, max_queue_per_tenant=1, batch_delay=0.05
            )
            async with service:
                filler = asyncio.create_task(
                    service.submit(_request(1, tenant="hot"))
                )
                await asyncio.sleep(0)  # filler takes hot's only slot
                stored = await service.submit(_request(0, tenant="hot"))
                await filler
            return stored, service.stats()

        stored, stats = asyncio.run(run())
        assert stored.source == "store"
        assert stats["tenants"]["hot"]["rejected"] == 0
        assert stats["tenants"]["hot"]["store_hits"] == 1

    def test_coalesced_joins_never_consume_tenant_quota(self):
        service = DiagnosisService(max_queue_per_tenant=1, batch_delay=0.05)

        async def run():
            async with service:
                filler = asyncio.create_task(
                    service.submit(_request(1, tenant="hot"))
                )
                await asyncio.sleep(0)  # filler takes hot's only slot
                # The identical request joins in flight: no slot consumed,
                # even across a tenant boundary.
                same_tenant = asyncio.create_task(
                    service.submit(_request(1, tenant="hot"))
                )
                cross_tenant = asyncio.create_task(
                    service.submit(_request(1, tenant="other"))
                )
                await asyncio.sleep(0)
                # A *distinct* hot request is over quota and sheds.
                with pytest.raises(RejectedError):
                    await service.submit(_request(2, tenant="hot"))
                return await filler, await same_tenant, await cross_tenant

        filler, same_tenant, cross_tenant = asyncio.run(run())
        assert filler.source == "computed"
        assert same_tenant.source == "coalesced"
        assert cross_tenant.source == "coalesced"
        stats = service.stats()
        assert stats["tenants"]["hot"]["coalesced"] == 1
        assert stats["tenants"]["other"]["coalesced"] == 1
        assert stats["tenants"]["other"]["rejected"] == 0

    def test_stats_expose_tenant_configuration(self):
        service = DiagnosisService(
            max_queue_per_tenant=4, tenant_weights={"hot": 3}
        )
        responses = _serve(service, _request(0, tenant="hot"))
        assert responses[0].ok
        stats = service.stats()
        assert stats["max_queue_per_tenant"] == 4
        assert stats["tenant_weights"] == {"hot": 3}
        assert stats["pending_by_tenant"] == {}  # drained
        assert stats["tenants"]["hot"]["served"] == 1

    def test_weighted_rotation_orders_backlogged_batches(self):
        # Two backlogged tenants, weight 2:1, one batch of width 3 per
        # dispatch: each batch takes two hot slots then one cold slot.
        service = DiagnosisService(
            max_batch_size=3, batch_delay=0.05, tenant_weights={"hot": 2}
        )

        async def run():
            async with service:
                requests = []
                for seed in range(4):
                    requests.append(_request(seed, tenant="hot"))
                    requests.append(_request(10 + seed, tenant="cold"))
                return await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert all(r.batch_size <= 3 for r in responses)
        # 8 requests in width-3 batches: the rotation fills 3 batches.
        assert service.stats()["batches"] == 3

    def test_invalid_tenant_configuration_rejected(self):
        with pytest.raises(ValueError, match="max_queue_per_tenant"):
            DiagnosisService(max_queue_per_tenant=0)
        with pytest.raises(ValueError, match="weight"):
            DiagnosisService(tenant_weights={"a": 0})


class TestCancellation:
    def test_cancelling_one_client_leaves_the_batch_intact(self):
        service = DiagnosisService(batch_delay=0.05)

        async def run():
            async with service:
                doomed_task = asyncio.create_task(service.submit(_request(0)))
                survivor_task = asyncio.create_task(service.submit(_request(1)))
                await asyncio.sleep(0)  # both enqueue into the open window
                doomed_task.cancel()
                survivor = await survivor_task
                with pytest.raises(asyncio.CancelledError):
                    await doomed_task
                return survivor

        survivor = asyncio.run(run())
        assert survivor.ok
        assert survivor.faulty == run_direct(_request(1)).faulty

    def test_cancelling_a_coalesced_waiter_keeps_the_computation(self):
        service = DiagnosisService(batch_delay=0.05)

        async def run():
            async with service:
                original = asyncio.create_task(service.submit(_request(2)))
                await asyncio.sleep(0)
                duplicate = asyncio.create_task(service.submit(_request(2)))
                await asyncio.sleep(0)
                duplicate.cancel()
                response = await original
                with pytest.raises(asyncio.CancelledError):
                    await duplicate
                return response

        response = asyncio.run(run())
        assert response.ok and response.source == "computed"


class TestLifecycleAndValidation:
    def test_closed_service_refuses(self):
        async def run():
            service = DiagnosisService()
            await service.close()
            with pytest.raises(RuntimeError, match="closed"):
                await service.submit(_request(0))

        asyncio.run(run())

    def test_unknown_family_rejected_before_enqueue(self):
        bad = DiagnosisRequest.seeded("hypercube", {"dimension": 6})
        bad = DiagnosisRequest(family="mesh", params=(("dimension", 6),))
        with pytest.raises(ValueError, match="unknown network family"):
            _serve(DiagnosisService(), bad)

    def test_bad_placement_and_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            _serve(DiagnosisService(), _request(0, placement="ring"))
        with pytest.raises(ValueError, match="unknown behavior"):
            _serve(DiagnosisService(), _request(0, behavior="chaotic"))
        with pytest.raises(ValueError, match="fault_count"):
            _serve(DiagnosisService(), _request(0, fault_count=0))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DiagnosisService(max_batch_size=0)
        with pytest.raises(ValueError):
            DiagnosisService(batch_delay=-1)

    def test_topology_cache_eviction_under_pressure(self):
        service = DiagnosisService(topology_cache_capacity=1)
        _serve(service, _request(0, Q6), _request(0, S5), _request(1, Q6))
        cache = service.stats()["topology_cache"]
        assert cache["evictions"] >= 1
        assert cache["size"] == 1


class TestPooledService:
    def test_evictions_release_pool_segments(self):
        """A bounded cache must bound /dev/shm too, not just coordinator heap."""
        from repro.parallel import WorkerPool

        topologies = [
            ("hypercube", {"dimension": 5}),
            ("star", {"n": 5}),
            ("pancake", {"n": 5}),
            ("hypercube", {"dimension": 6}),
        ]
        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(pool=pool, topology_cache_capacity=1)

            async def run():
                async with service:
                    for instance in topologies:
                        response = await service.submit(_request(0, instance))
                        assert response.ok
                    return len(pool._segments)

            live_segments = asyncio.run(run())
        # One cached topology + nothing retired: evicted segments were
        # unlinked as their batches completed, not pinned until shutdown.
        assert live_segments <= 1
        assert service.stats()["topology_cache"]["evictions"] == len(topologies) - 1

    def test_capacity_zero_pooled_service_leaks_no_segments(self):
        """The naive baseline must not pin one shm segment per batch."""
        from repro.parallel import WorkerPool

        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(
                pool=pool, coalesce=False, topology_cache_capacity=0
            )

            async def run():
                async with service:
                    for seed in range(4):
                        assert (await service.submit(_request(seed))).ok
                    return len(pool._segments), len(service._topology_locks)

            segments, locks = asyncio.run(run())
        assert segments == 0  # every batch's segment was retired and released
        assert locks == 0

    def test_empty_digest_failures_are_not_stored(self):
        """Pre-syndrome failures have no content address; storing them under
        the empty digest would make unrelated errors collide."""
        store = ResultStore()
        bad_a = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00" * 7)
        bad_b = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00" * 13)
        first = _serve(DiagnosisService(store=store), bad_a, bad_b)
        again = _serve(DiagnosisService(store=store), bad_a, bad_b)
        assert [r.error for r in again] == [r.error for r in first]
        assert "got 7" in again[0].error and "got 13" in again[1].error
        assert all(r.source != "store" for r in again)
        assert len(store) == 0

    def test_pooled_matches_in_process_with_zero_worker_compiles(self):
        from repro.parallel import WorkerPool

        requests = [_request(seed) for seed in range(3)] + [_request(0, S5)]
        plain = _serve(DiagnosisService(), *requests)
        with WorkerPool(max_workers=2) as pool:
            service = DiagnosisService(pool=pool)
            pooled = _serve(service, *requests)
            stats = service.stats()
        assert [r.faulty for r in pooled] == [r.faulty for r in plain]
        assert [r.lookups for r in pooled] == [r.lookups for r in plain]
        assert stats["worker_compiles"] == 0
        assert stats["worker_pair_builds"] == 0

    def test_pooled_explicit_syndromes_travel_shared_memory(self, q5):
        """Explicit syndrome buffers ship as one published segment with
        (position, offset, size) spans — never pickled per task — and the
        responses stay identical to the direct pipeline."""
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.backend.csr import compile_network
        from repro.core.faults import random_faults
        from repro.parallel import WorkerPool

        csr = compile_network(q5)
        explicit = []
        for seed in (3, 4):
            faults = random_faults(q5, 3, seed=seed)
            syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
            explicit.append(
                DiagnosisRequest.from_syndrome(
                    "hypercube", {"dimension": 5}, syndrome
                )
            )
        mixed = [explicit[0], _request(7, ("hypercube", {"dimension": 5})),
                 explicit[1]]
        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(pool=pool)
            responses = _serve(service, *mixed)
            stats = service.stats()
            # the per-batch syndrome segment was released as its batch
            # completed and the service close retired the topology segment;
            # a leaked syndrome segment would still be registered here
            segments = len(pool._segments)
        assert segments == 0
        for request, response in zip(mixed, responses):
            direct = run_direct(request)
            assert response.faulty == direct.faulty
            assert response.lookups == direct.lookups
            assert response.syndrome_digest == direct.syndrome_digest
        assert stats["worker_compiles"] == 0
        assert stats["worker_pair_builds"] == 0

    def test_pooled_wrong_size_explicit_buffer_fails_per_item(self):
        """A bad span-shipped buffer raises inside the worker exactly like
        the in-process path — and never fails its batch mates."""
        from repro.parallel import WorkerPool

        bad = DiagnosisRequest.from_syndrome(
            "hypercube", {"dimension": 6}, b"\x01" * 7
        )
        good = _request(1)
        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(pool=pool)
            bad_r, good_r = _serve(service, bad, good)
        assert not bad_r.ok and "ValueError" in bad_r.error
        assert "got 7" in bad_r.error
        assert good_r.ok
        assert good_r.faulty == run_direct(good).faulty
        assert bad_r.error == run_direct(bad).error
