"""Unit tests for the stacked ``set_builder_many`` kernel.

The exhaustive cross-family agreement checks live in
``tests/differential/test_stacked_kernel.py``; this module pins the kernel's
contract edges — input validation, width 0/1, duplicate syndromes in one
batch, the sets built on demand, and ``boundary_many``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core.faults import random_faults
from repro.core.set_builder import set_builder, set_builder_many


def _syndrome(network, seed: int) -> ArraySyndrome:
    csr = compile_network(network)
    faults = random_faults(network, network.diagnosability(), seed=seed)
    return ArraySyndrome.from_faults(csr, faults, seed=seed)


def _signature(result):
    return (
        result.root,
        frozenset(result.nodes),
        dict(result.parent),
        frozenset(result.contributors),
        result.rounds,
        result.lookups,
        result.all_healthy,
        result.truncated,
    )


class TestInputValidation:
    def test_empty_batch_returns_empty_list(self, q5):
        assert set_builder_many(q5, [], []) == []

    def test_mismatched_lengths_rejected(self, q5):
        syndrome = _syndrome(q5, 0)
        with pytest.raises(ValueError, match="one start node per syndrome"):
            set_builder_many(q5, [syndrome], [0, 1])

    def test_foreign_syndrome_rejected(self, q5, q7):
        """Every syndrome must be an ArraySyndrome over *this* compiled CSR."""
        with pytest.raises(ValueError, match="compiled topology"):
            set_builder_many(q5, [_syndrome(q7, 0)], [0])
        with pytest.raises(ValueError, match="compiled topology"):
            set_builder_many(q5, [_syndrome(q5, 0).to_table()], [0])

    def test_out_of_range_root_rejected(self, q5):
        syndrome = _syndrome(q5, 0)
        with pytest.raises(ValueError, match="not a node"):
            set_builder_many(q5, [syndrome], [q5.num_nodes])


class TestAgreement:
    def test_width_one_matches_vectorized_path(self, q5):
        reference = set_builder(q5, _syndrome(q5, 3), 0)
        [stacked] = set_builder_many(q5, [_syndrome(q5, 3)], [0])
        assert _signature(stacked) == _signature(reference)
        assert np.array_equal(stacked.member_mask, reference.member_mask)

    def test_duplicate_syndromes_in_one_batch(self, q5):
        """The same syndrome object twice: both rows agree, lookups add up."""
        syndrome = _syndrome(q5, 5)
        reference = set_builder(q5, _syndrome(q5, 5), 0)
        first, second = set_builder_many(q5, [syndrome, syndrome], [0, 0])
        assert _signature(first) == _signature(reference)
        assert _signature(second) == _signature(reference)
        # the shared counter saw both rows' lookups
        assert syndrome.lookups == 2 * reference.lookups

    def test_mixed_roots_over_one_syndrome_buffer(self, q5):
        buffers = [_syndrome(q5, 7) for _ in range(3)]
        roots = [0, 9, 21]
        stacked = set_builder_many(q5, buffers, roots)
        for root, result in zip(roots, stacked):
            reference = set_builder(q5, _syndrome(q5, 7), root)
            assert _signature(result) == _signature(reference)


class TestDeferredSets:
    def test_sets_are_built_on_first_read_and_equal_eager_ones(self, q5, monkeypatch):
        """``nodes``/``parent``/``contributors`` stay unbuilt until read; once
        read they equal the eagerly built sets of the vectorised path."""
        module = importlib.import_module("repro.core.set_builder")
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            wrapper.__name__ = fn.__name__
            return wrapper

        for name in ("mask_members", "_tree_parent", "_tree_contributors"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        reference = set_builder(q5, _syndrome(q5, 11), 0)
        [deferred] = set_builder_many(q5, [_syndrome(q5, 11)], [0])
        assert deferred.rounds == reference.rounds
        assert deferred.lookups == reference.lookups
        assert deferred.all_healthy == reference.all_healthy
        assert deferred.size == reference.size
        assert calls == []
        assert deferred.nodes == reference.nodes
        assert deferred.parent == reference.parent
        assert deferred.contributors == reference.contributors
        assert calls == ["mask_members", "_tree_parent", "_tree_contributors"]
        assert deferred.nodes is deferred.nodes  # built once, then kept
        assert len(calls) == 3
        assert _signature(deferred) == _signature(reference)


class TestBoundaryMany:
    def test_matches_per_row_boundary(self, q5):
        csr = compile_network(q5)
        masks = []
        for seed in range(3):
            result = set_builder(q5, _syndrome(q5, seed), 0)
            masks.append(result.member_mask)
        stacked = csr.boundary_many(np.stack(masks))
        for mask, boundary in zip(masks, stacked):
            assert boundary == csr.boundary(mask)

    def test_empty_and_full_rows(self, q5):
        csr = compile_network(q5)
        rows = np.zeros((2, csr.num_nodes), dtype=bool)
        rows[1, :] = True
        assert csr.boundary_many(rows) == [set(), set()]

    def test_shape_validation(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError, match="boolean stack"):
            csr.boundary_many(np.zeros(csr.num_nodes, dtype=bool))
        with pytest.raises(ValueError, match="boolean stack"):
            csr.boundary_many(np.zeros((2, csr.num_nodes + 1), dtype=bool))


class TestZeroCopyAdoption:
    def test_copy_false_adopts_array(self, q5):
        csr = compile_network(q5)
        values = _syndrome(q5, 2).values_array.copy()
        syndrome = ArraySyndrome(csr, values, copy=False)
        assert syndrome.buffer is values  # no duplication
        values[0] ^= 1
        assert syndrome.values_array[0] == values[0]  # same storage

    def test_copy_false_validates_dtype_and_shape(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError, match="uint8"):
            ArraySyndrome(
                csr, np.zeros(csr.num_pairs, dtype=np.int64), copy=False
            )
        with pytest.raises(ValueError, match="uint8"):
            ArraySyndrome(
                csr,
                np.zeros((1, csr.num_pairs), dtype=np.uint8),
                copy=False,
            )

    def test_copy_false_still_checks_length(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError, match="test results"):
            ArraySyndrome(csr, np.zeros(3, dtype=np.uint8), copy=False)

    def test_adopted_buffer_diagnoses_identically(self, q5):
        csr = compile_network(q5)
        reference = set_builder(q5, _syndrome(q5, 4), 0)
        adopted = ArraySyndrome(
            csr, _syndrome(q5, 4).values_array.copy(), copy=False
        )
        assert _signature(set_builder(q5, adopted, 0)) == _signature(reference)


class TestNativeKernel:
    """The optional C inner loop and its pure-numpy fallback are the same
    kernel: every output field agrees exactly, and losing the compiler (or
    setting ``REPRO_NO_NATIVE``) degrades silently to the numpy rounds."""

    def test_forced_off_disables_native(self, monkeypatch):
        from repro.core import native

        monkeypatch.setattr(native, "_forced_off", True)
        assert native.load_stacked_kernel() is None
        assert native.native_kernel_active() is False

    def test_missing_source_degrades_to_none(self, monkeypatch, tmp_path):
        from repro.core import native

        monkeypatch.setattr(native, "_kernel", "unset")
        monkeypatch.setattr(native, "_SOURCE", tmp_path / "nope.c")
        assert native.load_stacked_kernel() is None

    def test_loaded_kernel_is_memoized(self):
        from repro.core import native

        first = native.load_stacked_kernel()
        if first is None:
            pytest.skip("no C compiler available in this environment")
        assert native.load_stacked_kernel() is first

    def test_native_and_numpy_paths_agree_exactly(self, q7, monkeypatch):
        from repro.core import native

        if not native.native_kernel_active():
            pytest.skip("no C compiler available in this environment")
        csr = compile_network(q7)
        seeds, roots = [3, 5, 8, 13], [0, 9, 40, 77]
        with_native = set_builder_many(
            q7, [_syndrome(q7, s) for s in seeds], roots
        )
        monkeypatch.setattr(native, "_forced_off", True)
        with_numpy = set_builder_many(
            q7, [_syndrome(q7, s) for s in seeds], roots
        )
        for a, b in zip(with_native, with_numpy):
            assert _signature(a) == _signature(b)
            assert np.array_equal(a.member_mask, b.member_mask)
