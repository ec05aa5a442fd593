"""Spans recorded from outside the program, and the per-layer numbers.

:class:`Tracer` wraps public functions of ``repro`` where their callers look
them up (a module attribute, or a class attribute for methods), records one
span per call in memory, and restores the originals on :meth:`Tracer.remove`.
A span is ``(id, name, layer, start, end, parent, thread, members, obj,
info)``: ``parent`` is the enclosing span on the same thread or asyncio task,
``members`` names the ``submit`` spans a batch-level span works for, ``obj``
is ``id()`` of the request the call is about.  Times come from
``time.perf_counter`` (the system-wide monotonic clock on Linux), so spans
from a server subprocess line up with client timestamps.

:meth:`SpanIndex.self_times` turns spans into per-layer self time per operation: a
span's self time is its duration minus the part of it its children cover,
and a batch-level span (one ``run_batch_local`` or ``put_many`` call) counts
in full for every member request, since each member waits for all of it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

ID, NAME, LAYER, START, END, PARENT, THREAD, MEMBERS, OBJ, INFO = range(10)

#: Every layer a span can land in, in report order.  ``root`` is the time of
#: an operation no span covers: HTTP transport and codec on
#: ``explicit-http``, load-generator lateness and event-loop scheduling on
#: ``seeded-open``.
LAYERS = (
    "service.http",
    "service.service",
    "service.store",
    "service.requests",
    "service.executor",
    "backend.array_syndrome",
    "core.diagnosis",
    "core.set_builder",
    "backend.csr",
)


class Tracer:
    """In-memory span recorder that patches ``repro`` from the outside."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: ``id(request) -> submit span id`` while that submit is running,
        #: so a batch running on an executor thread finds its members.
        self.open_requests: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _wrap(self, fn, name, layer, note=None, when=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                members, obj, info = note(args, result) if note else (None, None, None)
                tracer.spans.append([
                    span_id, name, layer, start, end,
                    None if members is not None else parent,
                    threading.get_ident(), members, obj, info,
                ])

        return wrapper

    def _wrap_submit(self, fn):
        tracer = self

        @functools.wraps(fn)
        async def submit(service, request, *args, **kwargs):
            span_id = next(tracer._ids)
            token = tracer._current.set(span_id)
            tracer.open_requests[id(request)] = span_id
            start = time.perf_counter()
            try:
                return await fn(service, request, *args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                tracer.open_requests.pop(id(request), None)
                tracer.spans.append([
                    span_id, "submit", "service.service", start, end, None,
                    threading.get_ident(), None, id(request), None,
                ])

        return submit

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _members(self, requests) -> list[int]:
        return [self.open_requests.get(id(r), 0) for r in requests]

    # ------------------------------------------------------------- patching
    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        import repro.core.diagnosis as diagnosis
        import repro.service.executor as executor
        import repro.service.requests as requests
        import repro.service.service as service
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.backend.csr import CSRAdjacency
        from repro.service.store import ResultStore

        def method(cls, attr, name, layer, note=None, when=None):
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name, layer, note, when))

        def classmethod_(cls, attr, name, layer, note=None):
            func = cls.__dict__[attr].__func__
            self._set(cls, attr, classmethod(self._wrap(func, name, layer, note)))

        def function(module, attr, name, layer, note=None, when=None):
            self._set(module, attr, self._wrap(module.__dict__[attr], name, layer, note, when))

        def digest_note(args, result):
            return None, None, {"digest": result}

        def outcome_info(outcomes, syndromes):
            info = {"lookups": 0, "probes": 0, "entries": 0}
            for outcome, syndrome in zip(outcomes, syndromes):
                if not isinstance(outcome, Exception):
                    info["lookups"] += outcome.lookups
                    info["probes"] += outcome.num_probes
                    info["entries"] += len(syndrome)
            return info

        self._set(service.DiagnosisService, "submit",
                  self._wrap_submit(service.DiagnosisService.__dict__["submit"]))
        method(ResultStore, "get", "store.get", "service.store",
               lambda a, r: (None, None, {"hit": r is not None}))
        method(ResultStore, "put_many", "store.put_many", "service.store",
               lambda a, r: (self._members(req for req, _ in a[1]), None, None))
        function(requests, "syndrome_digest", "digest", "service.requests", digest_note)
        function(executor, "syndrome_digest", "digest", "service.requests", digest_note)
        classmethod_(requests.DiagnosisRequest, "from_dict", "decode", "service.requests",
                     lambda a, r: (None, id(r), None))
        function(service, "run_batch_local", "batch", "service.executor",
                 lambda a, r: (self._members(a[2]), None,
                               {"width": len(a[2]), "topology": a[2][0].topology_key}))
        function(service, "resolve_topology", "resolve", "service.executor")
        classmethod_(ArraySyndrome, "from_faults", "build", "backend.array_syndrome",
                     lambda a, r: (None, None, {"entries": len(r) if r is not None else 0}))
        method(diagnosis.GeneralDiagnoser, "diagnose", "diagnose", "core.diagnosis",
               lambda a, r: (None, None, outcome_info([r] if r else [], [a[1]])))
        method(diagnosis.GeneralDiagnoser, "diagnose_many", "diagnose_many", "core.diagnosis",
               lambda a, r: (None, None, outcome_info(r or [], a[1])))
        method(diagnosis.GeneralDiagnoser, "find_healthy_root", "root_search",
               "core.diagnosis")
        function(diagnosis, "set_builder_many", "final", "core.set_builder")
        # Only the final unrestricted run; probe runs stay inside root_search.
        function(diagnosis, "set_builder", "final", "core.set_builder",
                 when=lambda a, k: not (k.get("stop_on_certificate")
                                        or k.get("restrict") or k.get("max_nodes")))
        method(CSRAdjacency, "boundary", "boundary", "backend.csr")
        method(CSRAdjacency, "boundary_many", "boundary", "backend.csr")
        classmethod_(CSRAdjacency, "from_network", "compile", "backend.csr")
        return self

    def remove(self) -> None:
        """Put every wrapped name back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load_spans(path) -> list[list]:
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


# ----------------------------------------------------------------- analysis
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanIndex:
    """Parent/child and batch-member links over one list of spans."""

    def __init__(self, spans) -> None:
        self.by_id = {span[ID]: span for span in spans}
        self.children: dict[int, list] = defaultdict(list)
        self.member_spans: dict[int, list] = defaultdict(list)
        for span in spans:
            if span[PARENT] is not None and span[PARENT] in self.by_id:
                self.children[span[PARENT]].append(span)
            for member in span[MEMBERS] or ():
                self.member_spans[member].append(span)

    def kids(self, span) -> list:
        return self.children.get(span[ID], []) + self.member_spans.get(span[ID], [])

    def queue_waits(self, batch) -> list[float]:
        """Per member of ``batch``: seconds from the end of the request's own
        pre-queue work (its store probe) to the start of the batch."""
        waits = []
        for member in batch[MEMBERS]:
            submit = self.by_id.get(member)
            if submit is not None:
                ready = max([submit[START]] + [k[END] for k in self.children.get(member, ())
                                               if k[END] <= batch[START]])
                waits.append(batch[START] - ready)
        return waits

    def reachable(self, ops) -> list:
        """Every span that worked for one of ``ops``, each once."""
        seen: dict[int, list] = {}
        stack = [self.by_id[i] for _, _, roots in ops for i in roots]
        while stack:
            span = stack.pop()
            if span[ID] not in seen:
                seen[span[ID]] = span
                stack.extend(self.kids(span))
        return list(seen.values())

    def self_times(self, ops) -> dict[str, float]:
        """Mean self time per operation by layer, in ms, plus ``root``.

        ``ops`` are ``(start, end, root_span_ids)``: the operation's own
        window (from its due time, or client send to receive) and the
        top-level spans that worked for it.
        """
        totals: dict[str, float] = defaultdict(float)
        for start, end, roots in ops:
            roots = [self.by_id[i] for i in roots]
            totals["root"] += (end - start) - covered(
                [(s[START], s[END]) for s in roots], start, end)
            stack = list(roots)
            while stack:
                span = stack.pop()
                kids = self.kids(span)
                totals[span[LAYER]] += (span[END] - span[START]) - covered(
                    [(k[START], k[END]) for k in kids], span[START], span[END])
                stack.extend(kids)
        count = max(1, len(ops))
        return {layer: 1e3 * total / count for layer, total in totals.items()}


def _mean_ms(spans) -> float:
    spans = list(spans)
    if not spans:
        return 0.0
    return 1e3 * sum(s[END] - s[START] for s in spans) / len(spans)


def layer_metrics(spans, ops, *, root_layer: str) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as ``name -> (value, unit)``.

    Work counts and per-call times come from the spans that worked for the
    measured operations ``ops`` (so warm-up traffic and set-up stay out and
    counts repeat exactly); topology compile and resolve are taken from all
    spans, because they happen during set-up.  ``root_layer`` names where an
    operation's uncovered time goes.
    """
    index = SpanIndex(spans)
    measured = index.reachable(ops)
    named: dict[str, list] = defaultdict(list)
    for span in measured:
        named[span[NAME]].append(span)

    def total(name, key):
        return sum((s[INFO] or {}).get(key, 0) for s in named[name])

    entries_built = total("build", "entries")
    lookups = total("diagnose", "lookups") + total("diagnose_many", "lookups")
    entries_diagnosed = total("diagnose", "entries") + total("diagnose_many", "entries")
    probes = total("diagnose", "probes") + total("diagnose_many", "probes")
    gets = named["store.get"]
    batches = named["batch"]
    digests = named["digest"]

    waits = [wait for batch in batches for wait in index.queue_waits(batch)]

    selfs = index.self_times(ops)
    metrics = {
        "backend.array_syndrome.build_ms": (_mean_ms(named["build"]), "ms"),
        "backend.array_syndrome.entries_built": (entries_built, "count"),
        "core.diagnosis.root_search_ms": (_mean_ms(named["root_search"]), "ms"),
        "core.diagnosis.diagnose_ms": (_mean_ms(named["diagnose"]), "ms"),
        "core.diagnosis.probes": (probes, "count"),
        "core.diagnosis.lookups": (lookups, "count"),
        "core.diagnosis.consulted_share": (
            lookups / entries_diagnosed if entries_diagnosed else 0.0, "share"),
        "core.set_builder.final_ms": (_mean_ms(named["final"]), "ms"),
        "backend.csr.boundary_ms": (_mean_ms(named["boundary"]), "ms"),
        "backend.csr.compile_ms": (
            _mean_ms(s for s in spans if s[NAME] == "compile"), "ms"),
        "service.requests.decode_ms": (_mean_ms(named["decode"]), "ms"),
        "service.requests.digest_ms": (_mean_ms(digests), "ms"),
        "service.requests.digest_calls": (
            len(digests) / len(ops) if ops else 0.0, "count"),
        "service.service.submit_ms": (_mean_ms(named["submit"]), "ms"),
        "service.service.queue_wait_ms": (
            1e3 * sum(waits) / len(waits) if waits else 0.0, "ms"),
        "service.service.batch_width_mean": (
            sum(b[INFO]["width"] for b in batches) / len(batches) if batches else 0.0,
            "count"),
        "service.store.get_ms": (_mean_ms(gets), "ms"),
        "service.store.put_many_ms": (_mean_ms(named["store.put_many"]), "ms"),
        "service.store.hit_share": (
            sum(1 for g in gets if g[INFO]["hit"]) / len(gets) if gets else 0.0, "share"),
        "service.executor.batch_ms": (_mean_ms(batches), "ms"),
        "service.executor.resolve_ms": (
            _mean_ms(s for s in spans if s[NAME] == "resolve"), "ms"),
        # Measured by the workloads themselves; 0 where a workload has none.
        "service.service.computed_share": (0.0, "share"),
        "service.service.rejected": (0, "count"),
        "service.http.overhead_ms": (0.0, "ms"),
        "service.http.request_bytes": (0, "bytes"),
        "service.http.non200": (0, "count"),
        "loadgen.lag_p90_ms": (0.0, "ms"),
    }
    for layer in LAYERS:
        value = selfs.get(layer, 0.0)
        if layer == root_layer:
            value += selfs.get("root", 0.0)
        metrics[f"{layer}.self_ms"] = (value, "ms")
    metrics["unattributed_ms"] = (
        selfs.get("root", 0.0) if root_layer == "unattributed" else 0.0, "ms")
    return metrics
