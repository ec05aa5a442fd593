"""Worker-pool execution tests: chunked plans, zero recompilation, persistence."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.trials import DistributedTrialPlan, TrialPlan
from repro.parallel import WorkerPool, default_worker_count


def _norm(results):
    """Strip wall-clock noise; everything else must be bit-identical."""
    return [dataclasses.replace(r, elapsed_seconds=0.0) for r in results]


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(max_workers=2) as shared_pool:
        yield shared_pool


@pytest.fixture(scope="module")
def two_cube_plan():
    return TrialPlan.from_factors(
        [("Q_6", "hypercube", {"dimension": 6}), ("Q_7", "hypercube", {"dimension": 7})],
        seeds=(3, 4),
    )


class TestChunkedTrialPlan:
    def test_pooled_equals_serial(self, pool, two_cube_plan):
        serial = _norm(two_cube_plan.run())
        assert two_cube_plan.last_run_stats is None  # serial leaves no stats
        pooled = _norm(two_cube_plan.run(pool=pool))
        assert pooled == serial

    def test_zero_worker_recompilation(self, pool, two_cube_plan):
        two_cube_plan.run(pool=pool)
        stats = two_cube_plan.last_run_stats
        assert stats is not None
        assert stats["worker_compiles"] == 0
        # Pair members ship through shared memory with the topology, so the
        # workers' syndrome generation never rebuilds them either.
        assert stats["worker_pair_builds"] == 0
        assert stats["topologies_published"] == 2
        assert stats["chunks"] >= 2

    def test_single_topology_plan_still_chunks(self, pool):
        """The old per-group fan-out ran one-group plans inline; chunking must not."""
        plan = TrialPlan.from_factors(
            [("Q_7", "hypercube", {"dimension": 7})], seeds=6,
        )
        serial = _norm(plan.run())
        pooled = _norm(plan.run(pool=pool, chunk_size=2))
        assert pooled == serial
        assert plan.last_run_stats["chunks"] == 3
        assert plan.last_run_stats["worker_compiles"] == 0

    def test_chunk_size_does_not_change_results(self, pool, two_cube_plan):
        reference = _norm(two_cube_plan.run(pool=pool))
        for chunk_size in (1, 3, 100):
            assert _norm(two_cube_plan.run(pool=pool, chunk_size=chunk_size)) == reference

    def test_parallel_flag_owns_a_throwaway_pool(self, two_cube_plan):
        serial = _norm(two_cube_plan.run())
        assert _norm(two_cube_plan.run(parallel=True, max_workers=2)) == serial

    def test_respawn_baseline_still_correct(self, two_cube_plan):
        """share_topology=False (the benchmark baseline) changes cost, not results."""
        serial = _norm(two_cube_plan.run())
        with WorkerPool(max_workers=2) as pool:
            baseline = _norm(two_cube_plan.run(pool=pool, share_topology=False))
        assert baseline == serial


class TestChunkedDistributedPlan:
    def test_pooled_equals_serial(self, pool):
        plan = DistributedTrialPlan.from_factors(
            [("Q_6", "hypercube", {"dimension": 6})],
            seeds=(5,),
            loss_rates=(0.0, 0.1),
            root_counts=(1, 2),
        )
        serial = _norm(plan.run())
        pooled = _norm(plan.run(pool=pool, chunk_size=1))
        assert pooled == serial
        assert plan.last_run_stats["worker_compiles"] == 0


class TestPairMemberShipping:
    def test_fresh_workers_attach_pair_members_without_building(self):
        """A pool forked before any compile still never builds pair arrays.

        This is the case shared pair members exist for: the worker cannot
        have inherited them through fork, so a zero delta proves they came
        out of the shared segment.
        """
        plan = TrialPlan.from_factors(
            [("Q_6", "hypercube", {"dimension": 6})], seeds=(11, 12),
        )
        with WorkerPool(max_workers=2) as fresh_pool:
            # Fork the workers before the coordinator compiles anything, so
            # nothing can be inherited.
            fresh_pool.submit(pow, 2, 2).result()
            plan.run(pool=fresh_pool)
        assert plan.last_run_stats["worker_compiles"] == 0
        assert plan.last_run_stats["worker_pair_builds"] == 0

    def test_worker_topology_cache_is_bounded(self):
        """Re-published topologies must not pin one mapping per name forever."""
        from repro.backend.csr import compile_network
        from repro.networks.registry import create_network
        from repro.parallel import pool as pool_module
        from repro.parallel.shm import detach, publish_topology

        csr = compile_network(create_network("hypercube", dimension=5))
        cache = pool_module._TOPOLOGY_CACHE
        known = set(cache)
        segments = []
        try:
            # Each publish mints a fresh segment name — the service's
            # evict/release/re-publish cycle seen from the worker side.
            for _ in range(pool_module._TOPOLOGY_CACHE_LIMIT + 3):
                handle, segment = publish_topology(csr)
                segments.append(segment)
                attached = pool_module.worker_topology(handle)
                assert attached.num_nodes == csr.num_nodes
                attached = None  # drop our views so eviction can unmap
            assert len(cache) <= pool_module._TOPOLOGY_CACHE_LIMIT
            # Evicted mappings either unmapped on the spot or await their
            # views' death in the retired list; none are silently pinned.
            assert len(pool_module._TOPOLOGY_RETIRED) <= 1
        finally:
            for name in [n for n in cache if n not in known]:
                detach(cache.pop(name)._shm)
            pool_module._TOPOLOGY_RETIRED[:] = [
                s for s in pool_module._TOPOLOGY_RETIRED
                if not pool_module._try_unmap(s)
            ]
            for segment in segments:
                segment.close()

    def test_worker_health_reports_pair_builds(self, pool):
        for report in pool.health():
            assert "pair_builds" in report
            assert report["pair_builds"] >= 0

    def test_release_topology_drops_segment_and_memo(self):
        from multiprocessing import shared_memory

        from repro.backend.csr import compile_network
        from repro.networks.registry import create_network

        csr = compile_network(create_network("hypercube", dimension=5))
        with WorkerPool(max_workers=1) as own_pool:
            handle = own_pool.publish_topology(csr)
            own_pool.release_topology(csr)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.name)
            own_pool.release_topology(csr)  # unknown now: ignored
            # A fresh publish after release mints a new segment.
            assert own_pool.publish_topology(csr).name != handle.name


class TestPoolBasics:
    def test_default_worker_count_bounds(self):
        assert 1 <= default_worker_count() <= 4

    def test_pool_is_reusable_across_plans(self, pool, two_cube_plan):
        first = _norm(two_cube_plan.run(pool=pool))
        second = _norm(two_cube_plan.run(pool=pool))
        assert first == second

    def test_submit_plain_callables(self, pool):
        assert pool.submit(pow, 2, 10).result() == 1024
