"""Shared-memory lifecycle tests: zero-copy attachment, strict cleanup.

The guarantee under test: **no leaked segments** — whatever happens to the
pool (orderly shutdown, a killed worker, an owner that simply forgets), every
published segment is unlinked by the time its owner is gone, and a worker
exiting never destroys a segment it merely attached.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.backend.csr import compile_network
from repro.networks.registry import cached_network
from repro.parallel import (
    WorkerPool,
    attach_buffer,
    attach_topology,
    publish_buffer,
    publish_topology,
    worker_health,
)

from .. import conftest


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@pytest.fixture
def q6_csr():
    return compile_network(cached_network("hypercube", dimension=6))


class TestTopologyRoundtrip:
    def test_attached_topology_is_identical_and_zero_copy(self, q6_csr):
        handle, segment = publish_topology(q6_csr)
        try:
            attached = attach_topology(handle)
            assert attached.num_nodes == q6_csr.num_nodes
            assert attached.num_pairs == q6_csr.num_pairs
            assert np.array_equal(attached.indptr, q6_csr.indptr)
            assert np.array_equal(attached.indices, q6_csr.indices)
            assert np.array_equal(attached.pair_indptr, q6_csr.pair_indptr)
            # Zero-copy: the arrays view the mapped segment, not fresh heap.
            assert attached.indptr.base is not None
            assert attached._shm is not None
            assert attached.rows == q6_csr.rows
        finally:
            segment.close()

    def test_segment_holds_only_the_adjacency(self, q6_csr):
        handle, segment = publish_topology(q6_csr)
        try:
            assert [f.name for f in dataclasses.fields(handle)] == [
                "name", "num_nodes", "num_entries"
            ]
            adjacency_bytes = (q6_csr.num_nodes + 1) * 8 + q6_csr.num_entries * 4
            assert segment.buf.nbytes == adjacency_bytes
        finally:
            segment.close()

    def test_attached_topology_generates_without_pair_members(self, q6_csr):
        from repro.backend import ArraySyndrome
        from repro.backend.csr import pair_build_count

        faults = {0, 7, 42}
        handle, segment = publish_topology(q6_csr)
        try:
            attached = attach_topology(handle)
            before = pair_build_count()
            shipped = ArraySyndrome.from_faults(attached, faults, seed=2)
            assert pair_build_count() == before
            assert attached._pair_members is None
            local = ArraySyndrome.from_faults(q6_csr, faults, seed=2)
            assert shipped.buffer == local.buffer
            shipped = None  # drop views of the mapping before unlinking
        finally:
            segment.close()

    def test_buffer_roundtrip_and_writability(self):
        payload = bytes(range(100))
        handle, segment = publish_buffer(payload)
        try:
            view, mapping = attach_buffer(handle)
            assert view.tobytes() == payload
            view[0] = 255  # shared writes are visible through other mappings
            again, _ = attach_buffer(handle)
            assert again[0] == 255
        finally:
            segment.close()


class TestOwnership:
    def test_close_unlinks_and_is_idempotent(self, q6_csr):
        handle, segment = publish_topology(q6_csr)
        assert _segment_exists(handle.name)
        segment.close()
        assert segment.closed
        assert not _segment_exists(handle.name)
        segment.close()  # second close is a no-op

    def test_garbage_collection_reclaims_forgotten_segments(self, q6_csr):
        handle, segment = publish_topology(q6_csr)
        name = handle.name
        assert _segment_exists(name)
        del segment
        gc.collect()
        assert not _segment_exists(name)


class TestPoolLifecycle:
    def test_shutdown_unlinks_everything(self, q6_csr):
        pool = WorkerPool(max_workers=2)
        names = []
        handle = pool.publish_topology(q6_csr)
        names.append(handle.name)
        buffer_handle = pool.publish_buffer(b"\x01" * 64)
        names.append(buffer_handle.name)
        # worker really attaches before we tear down
        assert pool.health()[0]["pid"] != os.getpid()
        pool.shutdown()
        for name in names:
            assert not _segment_exists(name)

    def test_release_drops_single_segments_early(self):
        with WorkerPool(max_workers=1) as pool:
            handle = pool.publish_buffer(b"xyz")
            assert _segment_exists(handle.name)
            pool.release(handle)
            assert not _segment_exists(handle.name)
            pool.release(handle)  # idempotent

    def test_worker_exit_does_not_unlink_attached_segments(self, q6_csr):
        """The resource-tracker trap: attachers must never destroy segments."""
        with WorkerPool(max_workers=1) as pool:
            handle = pool.publish_topology(q6_csr)
            pool.submit(_attach_in_worker, handle).result()
            # Recycle the worker so its exit path runs while the segment lives.
            pool._executor.shutdown(wait=True)
            pool._executor = None
            assert _segment_exists(handle.name)
            attached = attach_topology(handle)
            assert attached.num_nodes == q6_csr.num_nodes

    def test_killed_worker_leaves_no_leaked_segments(self, q6_csr):
        """Crash path: SIGKILL a worker mid-pool, then clean up normally."""
        pool = WorkerPool(max_workers=2)
        handle = pool.publish_topology(q6_csr)
        buffer_handle = pool.publish_buffer(b"\x00" * 128)
        victims = [report["pid"] for report in pool.health()]
        assert victims
        victim = next(
            process for process in pool.executor._processes.values()
            if process.pid == victims[0]
        )
        os.kill(victims[0], signal.SIGKILL)
        # Deadline-bounded handshake on the actual death, not a fixed nap.
        victim.join(timeout=30)
        assert not victim.is_alive()
        pool.shutdown()
        assert not _segment_exists(handle.name)
        assert not _segment_exists(buffer_handle.name)

    def test_publish_topology_is_memoized_per_object(self, q6_csr):
        with WorkerPool(max_workers=1) as pool:
            first = pool.publish_topology(q6_csr)
            second = pool.publish_topology(q6_csr)
            assert first == second
            assert len(pool._segments) == 1

    def test_health_reports_cover_the_pool(self):
        with WorkerPool(max_workers=2) as pool:
            reports = pool.health()
            assert 1 <= len(reports) <= 2
            for report in reports:
                assert report["pid"] != os.getpid()
                assert report["compiles"] >= 0


def _attach_in_worker(handle):
    from repro.parallel.pool import worker_topology

    return worker_topology(handle).num_nodes


class TestWorkerHealth:
    def test_local_invocation_shape(self):
        report = worker_health()
        assert set(report) == {"pid", "topologies_attached", "buffers_attached",
                               "compiles", "pair_builds"}
        assert report["pid"] == os.getpid()


class TestAttachRegistry:
    def test_detach_releases_the_registry_pin(self, q6_csr):
        from repro.parallel.shm import _ATTACHED, attach, detach

        handle, segment = publish_topology(q6_csr)
        try:
            before = len(_ATTACHED)
            mapping = attach(handle.name)
            assert len(_ATTACHED) == before + 1
            detach(mapping)
            assert len(_ATTACHED) == before
            detach(mapping)  # idempotent: already unpinned
            assert len(_ATTACHED) == before
        finally:
            segment.close()

    def test_worker_buffer_cache_eviction_stays_bounded(self):
        """A long-lived worker must not accumulate unbounded attachments."""
        from repro.parallel import pool as pool_mod
        from repro.parallel.shm import _ATTACHED

        segments = []
        try:
            before = len(_ATTACHED)
            for i in range(pool_mod._BUFFER_CACHE_LIMIT + 5):
                handle, segment = publish_buffer(bytes([i]) * 16)
                segments.append(segment)
                pool_mod.worker_buffer(handle)
            assert len(pool_mod._BUFFER_CACHE) == pool_mod._BUFFER_CACHE_LIMIT
            assert len(_ATTACHED) - before <= pool_mod._BUFFER_CACHE_LIMIT
        finally:
            pool_mod._BUFFER_CACHE.clear()
            for segment in segments:
                segment.close()


class TestPublishBufferOwnership:
    def test_fill_failure_does_not_leak_the_segment(self, monkeypatch):
        """Regression: a publisher once filled its segment *between* create
        and the OwnedSegment wrap, so an exception in the fill leaked an
        ownerless segment in /dev/shm.  The wrap must come first: then the
        finalize guard reclaims the segment on any exit path."""
        from repro.parallel import shm as shm_mod

        real_cls = shared_memory.SharedMemory
        names: list[str] = []

        class ExplodingSegment(real_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                names.append(self.name)

            @property
            def buf(self):
                raise RuntimeError("simulated fill failure")

        monkeypatch.setattr(
            shm_mod.shared_memory, "SharedMemory", ExplodingSegment
        )
        try:
            shm_mod.publish_buffer(bytes(64))
        except RuntimeError:
            pass
        else:  # pragma: no cover - the patched segment always raises
            pytest.fail("patched segment should have raised")
        gc.collect()  # drop the half-constructed OwnedSegment -> finalize
        assert names, "publish_buffer never created a segment"
        assert not _segment_exists(names[0]), (
            "segment leaked: OwnedSegment must wrap the segment before any "
            "statement that can raise"
        )
