"""The general fault-diagnosis algorithm (paper Section 4, Theorem 1).

Given a network ``G`` with diagnosability ``δ`` and connectivity ``κ ≥ δ``,
and a syndrome produced by a fault set ``F`` with ``|F| ≤ δ``, the algorithm

1. finds a start node ``u0`` that is *certifiably* healthy, by running the
   restricted ``Set_Builder`` on the representatives of a partition of ``G``
   into many node-disjoint connected classes (paper Section 5: sub-cubes,
   sub-stars, ...) — since the classes outnumber the faults, some probed
   class is fault-free and its run reaches the contributor certificate;
2. runs the unrestricted ``Set_Builder(u0)``; the grown set ``U_r`` consists
   of healthy nodes only, and
3. outputs the neighbourhood ``N = N(U_r) \\ U_r``, which Theorem 1 shows is
   exactly the fault set ``F``.

The driver follows the paper but adds two robustness refinements that the
paper glosses over (DESIGN.md §4.5):

* if no representative of the level-0 partition certifies (possible when the
  smallest admissible classes are too small for the contributor certificate),
  the driver *escalates* to coarser partitions;
* if no partition level certifies — or the family provides no useful
  partition at all — the driver falls back to probing ``δ + 1`` arbitrary
  distinct nodes with a budgeted unrestricted ``Set_Builder``; at least one
  probe starts at a healthy node and the budget of
  :func:`~repro.core.set_builder.certificate_node_budget` guarantees the
  certificate fires whenever the surrounding healthy component is large
  enough.

Both refinements only ever *accept* runs whose certificate fired, so they
cannot compromise soundness; they extend the range of instances the driver
completes on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from typing import Sequence

from ..backend.csr import compile_network
from ..networks.base import InterconnectionNetwork, PartitionClass
from .set_builder import (
    Later,
    OnDemand,
    SetBuilderResult,
    certificate_node_budget,
    mask_members,
    set_builder,
    set_builder_many,
)
from .syndrome import Syndrome

__all__ = ["DiagnosisError", "ProbeRecord", "DiagnosisResult", "GeneralDiagnoser", "diagnose"]


class DiagnosisError(RuntimeError):
    """Raised when no certifiably healthy start node could be found.

    Under the paper's hypotheses (``|F| ≤ δ ≤ κ`` and a partition whose
    fault-free classes certify) this cannot happen; it can occur on instances
    outside those hypotheses, e.g. graphs whose healthy part is too small for
    any contributor certificate.
    """


@dataclass(frozen=True)
class ProbeRecord:
    """Bookkeeping for one probe of the healthy-root search."""

    start: int
    kind: str  # "partition" or "fallback"
    label: str
    certified: bool
    nodes_explored: int
    lookups: int


@dataclass
class DiagnosisResult:
    """Outcome of a full diagnosis run.

    Attributes
    ----------
    faulty:
        The diagnosed fault set (Theorem 1: equal to the actual fault set).
    healthy_root:
        The certifiably healthy node the final ``Set_Builder`` started from.
    healthy_nodes:
        The final grown set ``U_r`` (all healthy; built on first read).
    tree_parent:
        The spanning tree of ``U_r`` produced as a by-product (paper
        Section 6 points out it can be reused by other services).
    probes:
        Per-probe records of the healthy-root search.
    partition_level:
        Partition level that produced the certified root, or ``None`` when
        the fallback probing found it.
    lookups:
        Total number of syndrome entries consulted.
    elapsed_seconds:
        Wall-clock time of the whole diagnosis.
    """

    faulty: frozenset[int]
    healthy_root: int
    healthy_nodes: frozenset[int] = OnDemand()
    tree_parent: dict[int, int] = OnDemand()
    probes: list[ProbeRecord] = field(default_factory=list)
    partition_level: int | None = None
    lookups: int = 0
    elapsed_seconds: float = 0.0
    #: boolean membership mask of ``U_r`` when the final run produced one
    member_mask: object = field(default=None, compare=False, repr=False)

    @property
    def num_probes(self) -> int:
        return len(self.probes)

    def summary(self) -> str:
        """One-line human-readable summary (never builds ``healthy_nodes``)."""
        size = (len(self.healthy_nodes) if self.member_mask is None
                else int(self.member_mask.sum()))
        return (
            f"{len(self.faulty)} faults, root={self.healthy_root}, "
            f"|U_r|={size}, probes={self.num_probes}, "
            f"lookups={self.lookups}, {self.elapsed_seconds * 1e3:.1f} ms"
        )


class GeneralDiagnoser:
    """The paper's general algorithm, packaged per network instance.

    Parameters
    ----------
    network:
        The interconnection network; must satisfy ``connectivity ≥
        diagnosability`` (Theorem 1's hypothesis).
    diagnosability:
        Override for ``δ`` (defaults to ``network.diagnosability()``); the
        actual number of faults must not exceed it.
    max_probes_per_level:
        Number of partition classes probed per level (default ``δ + 1``).
    use_partition:
        If False, skip the partition search entirely and go straight to the
        unrestricted probing fallback (used by ablation E8).
    fallback_probe_budget:
        Node budget of each fallback probe; defaults to
        :func:`certificate_node_budget`.
    compiled:
        If True (default), compile the topology to the flat-array backend on
        construction; every ``Set_Builder`` run and the final boundary
        computation then operate on the compiled arrays; the final run of
        both :meth:`diagnose` and :meth:`diagnose_many` is the batched kernel
        :func:`~repro.core.set_builder.set_builder_many` for an
        :class:`~repro.backend.array_syndrome.ArraySyndrome` over that
        topology.  ``False`` selects the original object-based reference
        path.
    """

    def __init__(
        self,
        network: InterconnectionNetwork,
        *,
        diagnosability: int | None = None,
        max_probes_per_level: int | None = None,
        use_partition: bool = True,
        fallback_probe_budget: int | None = None,
        compiled: bool = True,
    ) -> None:
        self.network = network
        self.delta = network.diagnosability() if diagnosability is None else int(diagnosability)
        if self.delta < 1:
            raise ValueError("diagnosability must be at least 1")
        self.max_probes_per_level = max_probes_per_level
        self.use_partition = use_partition
        self.fallback_probe_budget = fallback_probe_budget
        self.compiled = compiled
        self.csr = compile_network(network) if compiled else None

    # ----------------------------------------------------------- root search
    def find_healthy_root(
        self, syndrome: Syndrome
    ) -> tuple[int, list[ProbeRecord], int | None]:
        """Locate a certifiably healthy node.

        Returns ``(root, probe_records, partition_level)`` where
        ``partition_level`` is ``None`` if the fallback probing found the
        root.  Raises :class:`DiagnosisError` if every probe fails.
        """
        probes: list[ProbeRecord] = []
        budget_probes = self.delta + 1 if self.max_probes_per_level is None \
            else self.max_probes_per_level

        if self.use_partition:
            for level in range(self.network.max_partition_level() + 1):
                try:
                    scheme = self.network.partition_scheme(level)
                except ValueError:
                    break
                # Classes of size 1 can never certify; skip useless levels.
                if scheme.class_size <= 1:
                    continue
                for cls in scheme.first(budget_probes):
                    record, result = self._probe_class(syndrome, cls)
                    probes.append(record)
                    if result.all_healthy:
                        return result.root, probes, level

        root = self._fallback_probe(syndrome, probes)
        if root is not None:
            return root, probes, None
        raise DiagnosisError(
            "no probe produced the all-healthy certificate; the instance violates "
            "the hypotheses of Theorem 1 (or the healthy component is too small)"
        )

    def _probe_class(
        self, syndrome: Syndrome, cls: PartitionClass
    ) -> tuple[ProbeRecord, SetBuilderResult]:
        result = set_builder(
            self.network,
            syndrome,
            cls.representative,
            diagnosability=self.delta,
            restrict=cls.contains,
            stop_on_certificate=True,
            compiled=self.compiled,
        )
        record = ProbeRecord(
            start=cls.representative,
            kind="partition",
            label=cls.label,
            certified=result.all_healthy,
            nodes_explored=result.size,
            lookups=result.lookups,
        )
        return record, result

    def _fallback_probe(
        self, syndrome: Syndrome, probes: list[ProbeRecord]
    ) -> int | None:
        """Probe ``δ + 1`` distinct nodes with a budgeted unrestricted run."""
        network = self.network
        budget = self.fallback_probe_budget
        if budget is None:
            max_degree = self.csr.max_degree if self.csr is not None else network.max_degree
            budget = certificate_node_budget(self.delta, max_degree)
        budget = min(budget, network.num_nodes)
        # δ + 1 distinct start nodes spread across the node range: at most δ
        # of them can be faulty.
        count = min(self.delta + 1, network.num_nodes)
        stride = max(1, network.num_nodes // count)
        candidates = [(i * stride) % network.num_nodes for i in range(count)]
        # Ensure distinctness even when the stride wraps.
        seen: set[int] = set()
        starts: list[int] = []
        for candidate in candidates:
            while candidate in seen:
                candidate = (candidate + 1) % network.num_nodes
            seen.add(candidate)
            starts.append(candidate)

        for attempt, max_nodes in enumerate((budget, None)):
            for start in starts:
                result = set_builder(
                    network,
                    syndrome,
                    start,
                    diagnosability=self.delta,
                    max_nodes=max_nodes,
                    stop_on_certificate=True,
                    compiled=self.compiled,
                )
                probes.append(
                    ProbeRecord(
                        start=start,
                        kind="fallback" if attempt == 0 else "fallback-unbudgeted",
                        label=f"node={start}",
                        certified=result.all_healthy,
                        nodes_explored=result.size,
                        lookups=result.lookups,
                    )
                )
                if result.all_healthy:
                    return start
        return None

    # -------------------------------------------------------------- diagnosis
    def diagnose(self, syndrome: Syndrome) -> DiagnosisResult:
        """Run the full algorithm and return the diagnosed fault set.

        Equal to ``diagnose_many([syndrome])[0]``, raising the exception that
        entry would hold.
        """
        [outcome] = self._diagnose_all([syndrome])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def diagnose_many(
        self, syndromes: Sequence[Syndrome]
    ) -> list["DiagnosisResult | Exception"]:
        """Diagnose a stack of syndromes with one batched final ``Set_Builder``.

        The healthy-root search stays per-syndrome (its probes are tiny and
        partition-restricted), but the network-sized final run — the bulk of
        every diagnosis — executes as a single
        :func:`~repro.core.set_builder.set_builder_many` pass over the whole
        stack, followed by the boundary of each grown set.  Each entry is
        **bit-identical** to the per-syndrome reference path (pinned by
        ``tests/differential``); ``healthy_nodes`` and ``tree_parent`` are
        built from the kernel's member mask the first time they are read.

        A syndrome whose root search raises :class:`DiagnosisError` (or a
        ``ValueError``) yields the *exception object* in its slot while the
        rest of the stack proceeds.  Syndromes the kernel cannot take (no
        compiled backend, or a non-``ArraySyndrome``) run the
        per-syndrome reference path.  ``elapsed_seconds`` on every stacked
        result is the wall clock of the whole call.
        """
        return self._diagnose_all(syndromes)

    def _diagnose_all(self, syndromes: Sequence[Syndrome]) -> list:
        """The one driver behind :meth:`diagnose` and :meth:`diagnose_many`."""
        from ..backend.array_syndrome import ArraySyndrome

        start_time = time.perf_counter()
        outcomes: list[DiagnosisResult | Exception | None] = [None] * len(syndromes)
        stacked: list[tuple[int, int, list[ProbeRecord], int | None, int]] = []
        for pos, syndrome in enumerate(syndromes):
            before = syndrome.lookups
            try:
                if (self.csr is None
                        or not isinstance(syndrome, ArraySyndrome)
                        or syndrome.csr is not self.csr):
                    outcomes[pos] = self._diagnose_one(syndrome)
                else:
                    stacked.append((pos, *self.find_healthy_root(syndrome), before))
            except (DiagnosisError, ValueError) as exc:
                outcomes[pos] = exc
        if not stacked:
            return outcomes

        finals = set_builder_many(
            self.network, [syndromes[pos] for pos, *_ in stacked],
            [root for _, root, *_ in stacked], diagnosability=self.delta,
        )
        boundaries = self.csr.boundary_many([final.member_mask for final in finals])
        elapsed = time.perf_counter() - start_time
        for (pos, root, probes, level, before), final, faulty in zip(
                stacked, finals, boundaries):
            outcomes[pos] = DiagnosisResult(
                faulty=frozenset(faulty),
                healthy_root=root,
                healthy_nodes=Later(mask_members, final.member_mask, frozenset),
                tree_parent=Later(getattr, final, "parent"),
                probes=probes,
                partition_level=level,
                lookups=syndromes[pos].lookups - before,
                elapsed_seconds=elapsed,
                member_mask=final.member_mask,
            )
        return outcomes

    def _diagnose_one(self, syndrome: Syndrome) -> DiagnosisResult:
        """Per-syndrome reference run: the object or rows final run."""
        start_time = time.perf_counter()
        lookups_before = syndrome.lookups
        root, probes, level = self.find_healthy_root(syndrome)
        final = set_builder(self.network, syndrome, root,
                            diagnosability=self.delta, compiled=self.compiled)
        return DiagnosisResult(
            faulty=frozenset(self._boundary(final)),
            healthy_root=root,
            healthy_nodes=frozenset(final.nodes),
            tree_parent=final.parent,
            probes=probes,
            partition_level=level,
            lookups=syndrome.lookups - lookups_before,
            elapsed_seconds=time.perf_counter() - start_time,
        )

    def _boundary(self, final: SetBuilderResult) -> set[int]:
        """Nodes adjacent to ``U_r`` but outside it (Theorem 1: the fault set)."""
        healthy = final.nodes
        if self.csr is not None:
            return self.csr.boundary(healthy)
        return {v for u in healthy for v in self.network.neighbors(u) if v not in healthy}


def diagnose(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    **kwargs,
) -> DiagnosisResult:
    """Convenience wrapper: run the paper's general algorithm on a syndrome.

    Equivalent to ``GeneralDiagnoser(network, **kwargs).diagnose(syndrome)``.
    """
    return GeneralDiagnoser(network, **kwargs).diagnose(syndrome)
