"""Flat-array syndrome storage for the MM model.

:class:`ArraySyndrome` stores every comparison-test result ``s_u(v, w)`` in a
single flat byte buffer, indexed by the dense *pair layout* of the compiled
topology (:class:`~repro.backend.csr.CSRAdjacency`): tester ``u``'s result for
the pair at sorted-row positions ``(i, j)`` with ``i < j`` lives at

    ``pair_base[u] + i·(2·deg(u) − i − 1)/2 + (j − i − 1)``

so a lookup is a handful of integer operations instead of a tuple hash into a
dict.  The class still derives from :class:`~repro.core.syndrome.Syndrome`, so
everything written against the abstract oracle (the baselines, the verifier,
the lookup-count accounting of experiment E5/E6) keeps working unchanged — the
flat buffer is the fast substrate, the ``Syndrome`` API is the thin adapter.

Generation from a hidden fault set writes only the slots that can be
non-zero.  A healthy tester reports ``s_u(v, w) = f[v] | f[w]``, so apart from
the faulty testers' own slots the buffer is zero except where the pair holds
a fault — about ``|F|·Δ²`` slots, found from the fault neighbourhoods in the
adjacency without any per-slot index.  Faulty testers are then filled per the
configured :class:`~repro.core.syndrome.FaultyTesterBehavior` in the exact
canonical order of ``LazySyndrome.materialize()`` (testers ascending, sorted
rows, pairs ``(i, j)`` with ``i < j``), so an ``ArraySyndrome`` agrees
entry-for-entry with a materialised :class:`~repro.core.syndrome.TableSyndrome`
built from the same faults, behaviour and seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterable, Iterator

import numpy as np

from ..core.syndrome import FaultyTesterBehavior, Syndrome, TableSyndrome
from .csr import CSRAdjacency, compile_network

__all__ = ["ArraySyndrome"]


def pair_offset(i: int, j: int, degree: int) -> int:
    """Slot offset of the pair at sorted-row positions ``i < j`` of a tester.

    Works elementwise on integer arrays too.
    """
    return i * (2 * degree - i - 1) // 2 + (j - i - 1)


def _fault_pair_slots(csr: CSRAdjacency, faults: np.ndarray) -> np.ndarray:
    """Every pair slot ``s_u(v, w)`` with ``v`` or ``w`` in ``faults``.

    A fault ``f`` sits in the row of each neighbour ``u``, at some position
    ``i``; the slots of ``u`` pairing ``f`` with any other position ``j``
    are ``pair_base[u] + pair_offset(min(i, j), max(i, j), deg(u))``.  All
    ``(f, u, j)`` are enumerated at once — about ``|F|·Δ²`` entries — and
    slots holding two faults appear twice.
    """
    indptr, indices = csr.indptr, csr.indices
    # Every (fault, neighbour u) edge.
    addr, owner = csr.row_entries(faults)
    fault = faults[owner]
    tester = indices[addr].astype(np.int64)
    # Every entry of every such u's row, tagged with its edge and position.
    addr, edge = csr.row_entries(tester)
    row_start = indptr[tester]
    position = addr - row_start[edge]
    # i = the position of the fault in u's sorted row.
    i = np.bincount(edge, weights=indices[addr] < fault[edge], minlength=tester.size)
    i = i.astype(np.int64)[edge]
    keep = position != i
    a = np.minimum(i, position)[keep]
    b = np.maximum(i, position)[keep]
    degree = (indptr[tester + 1] - row_start)[edge[keep]]
    base = csr.pair_indptr[tester][edge[keep]]
    return base + pair_offset(a, b, degree)


class ArraySyndrome(Syndrome):
    """A complete syndrome stored as one flat byte buffer over the pair layout."""

    def __init__(
        self,
        topology,
        values,
        *,
        faults: Iterable[int] = frozenset(),
        copy: bool = True,
    ) -> None:
        super().__init__()
        self.csr: CSRAdjacency = compile_network(topology)
        if not copy and isinstance(values, bytearray):
            buf = values  # adopt a freshly built buffer (from_faults)
        elif not copy and isinstance(values, np.ndarray):
            # Zero-copy adoption of an existing flat uint8 array — the serving
            # path wraps shared-memory views this way, so a worker diagnosing
            # an explicit syndrome never duplicates the buffer per process.
            if values.dtype != np.uint8 or values.ndim != 1:
                raise ValueError("copy=False needs a one-dimensional uint8 array")
            buf = values
        else:
            buf = bytearray(values)
        if len(buf) != self.csr.num_pairs:
            raise ValueError(
                f"expected {self.csr.num_pairs} test results, got {len(buf)}"
            )
        self._buf = buf
        self.faults = frozenset(int(f) for f in faults)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_faults(
        cls,
        topology,
        faults: Iterable[int],
        *,
        behavior: FaultyTesterBehavior | str = "random",
        seed: int | None = 0,
    ) -> "ArraySyndrome":
        """Generate the full syndrome of a hidden fault set.

        ``topology`` may be a network or an already compiled
        :class:`CSRAdjacency`.  A healthy tester reports
        ``s_u(v, w) = f[v] | f[w]``, so the healthy fill writes only the
        slots whose pair holds a fault (:func:`_fault_pair_slots`) into a
        zeroed buffer.  Faulty testers are then overridden in the canonical
        materialisation order, consuming the seeded generator exactly like
        ``LazySyndrome.materialize()``, so the buffer agrees with it entry
        for entry.
        """
        csr = compile_network(topology)
        fault_set = frozenset(int(f) for f in faults)
        for f in fault_set:
            if not 0 <= f < csr.num_nodes:
                raise ValueError(f"fault {f} is not a node of the network")
        if isinstance(behavior, str):
            behavior = FaultyTesterBehavior(behavior, seed=seed)
        rng = random.Random(seed)

        buf = bytearray(csr.num_pairs)
        values = np.frombuffer(buf, dtype=np.uint8)
        ordered = sorted(fault_set)
        if ordered:
            values[_fault_pair_slots(csr, np.asarray(ordered, dtype=np.int64))] = 1

        # The healthy fill must come first: anti_mimic and the per-pair
        # behaviours read the healthy value of the slot they override.
        pair_base = csr.pair_base
        name = behavior.name
        for u in ordered:
            lo, hi = pair_base[u], pair_base[u + 1]
            if lo == hi:
                continue
            if name == "all_zero":
                values[lo:hi] = 0
            elif name == "all_one":
                values[lo:hi] = 1
            elif name == "anti_mimic":
                values[lo:hi] ^= 1
            elif name == "mimic":
                pass  # the healthy values already in place are the answer
            else:
                # Delegate per pair (consuming the rng in canonical order), so
                # behaviours beyond the bulk-computable ones above stay in
                # lockstep with LazySyndrome.
                row = csr.rows[u]
                k = lo
                for i, v in enumerate(row):
                    for w in row[i + 1:]:
                        buf[k] = behavior.result(u, v, w, buf[k], rng)
                        k += 1
        return cls(csr, buf, faults=fault_set, copy=False)

    @classmethod
    def from_syndrome(cls, topology, syndrome: Syndrome) -> "ArraySyndrome":
        """Re-encode any syndrome oracle into the flat pair layout.

        Reads every entry through the oracle's raw ``_result`` (no lookup
        counting), in the canonical order — for a ``LazySyndrome`` this
        extends its cache exactly like ``materialize()`` would.
        """
        csr = compile_network(topology)
        values = bytearray(csr.num_pairs)
        k = 0
        for u, row in enumerate(csr.rows):
            d = len(row)
            for i in range(d):
                v = row[i]
                for j in range(i + 1, d):
                    values[k] = syndrome._result(u, v, row[j])
                    k += 1
        return cls(csr, values, faults=getattr(syndrome, "faults", frozenset()))

    # ---------------------------------------------------------------- oracle
    def _result(self, u: int, v: int, w: int) -> int:
        csr = self.csr
        row = csr.rows[u]
        d = len(row)
        i = bisect_left(row, v)
        j = bisect_left(row, w)
        if i >= d or row[i] != v or j >= d or row[j] != w:
            raise KeyError((u, v, w))
        return self._buf[csr.pair_base[u] + pair_offset(i, j, d)]

    @property
    def buffer(self):
        """The raw result buffer (read-only by convention; used by fast paths).

        A ``bytearray`` normally; a flat ``uint8`` array when the syndrome
        adopted one zero-copy (``copy=False``) — both index and slice the
        same way, and ``bytes(buffer)`` works on either.
        """
        return self._buf

    @property
    def values_array(self) -> np.ndarray:
        """Zero-copy ``uint8`` array view of the buffer (vectorised paths)."""
        if isinstance(self._buf, np.ndarray):
            return self._buf
        return np.frombuffer(self._buf, dtype=np.uint8)

    # ----------------------------------------------------------- conversions
    def __len__(self) -> int:
        """Number of entries in the full syndrome table."""
        return self.csr.num_pairs

    def items(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Iterate ``((u, v, w), result)`` pairs (table-scanning callers)."""
        pu, pv, pw = self.csr.pair_members()
        buf = self._buf
        for k in range(self.csr.num_pairs):
            yield (int(pu[k]), int(pv[k]), int(pw[k])), buf[k]

    def to_table(self) -> TableSyndrome:
        """Export as a dict-backed :class:`TableSyndrome` (tests, adapters)."""
        return TableSyndrome(dict(self.items()))
