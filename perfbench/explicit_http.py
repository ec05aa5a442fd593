"""``explicit-http``: explicit syndromes posted to ``repro-diagnose serve``.

The server is the stock CLI (``serve --http 0 --store ...``, default
batching, in-process execution) in a subprocess.  Two keep-alive
connections, one per core, post explicit-syndrome JSON bodies on Q_12 and
Q_14 (one to two) in a closed loop.  The bodies are encoded before timing starts; each
request flips a few faulty-tester bits of its template body in place, so
every syndrome the server sees is distinct (the store only writes) while
the answer stays the template's fault set.  No syndrome is ever built
server-side: this workload isolates the wire codec, digests and
explicit-syndrome adoption.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import signal
import subprocess
import sys
import time

import numpy as np

from common import (OUT, ROOT, Checker, Pass, choose_faults, explicit_syndrome,
                    peak_rss_mb, topology_name)

TOPOLOGIES = (
    ("hypercube", {"dimension": 12}),
    ("hypercube", {"dimension": 14}),
)
CONNECTIONS = 2
TEMPLATES = 2          # per connection and topology
VARIED_SLOTS = 24      # faulty-tester slots a request rewrites
LIMIT_S = 0.250        # closed loop, 3 MB bodies: a round trip well under it
SETUPS = 5
SETUP_VARIANT = 2**VARIED_SLOTS - 1   # never used by a measured request
WARMUP_S = 2.0         # unrecorded traffic before the measured window
#: Topology of each request in turn (indexes into TOPOLOGIES): a fixed
#: cycle, so every seed sends the same mix.  Two Q_14 bodies per Q_12 one
#: put both percentiles inside the Q_14 cluster; at 1:1 the median sat in
#: the gap between the two clusters and jumped from run to run.
PATTERN = (0, 1, 1)


class Template:
    """One encoded request body and the slots that vary between requests."""

    def __init__(self, family, params, values, faults, faulty_slots, rng, delta, n):
        self.family, self.params = family, params
        self.faults, self.delta, self.num_nodes = faults, delta, n
        self.values = values
        prefix = json.dumps({"family": family, "params": params})[:-1] + ', "syndrome_hex": "'
        self.body = bytearray(prefix.encode() + values.tobytes().hex().encode() + b'"}')
        self.slots = rng.choice(faulty_slots, size=VARIED_SLOTS, replace=False)
        self.base = int(rng.integers(2**VARIED_SLOTS))
        self.positions = [len(prefix) + 2 * int(k) + 1 for k in self.slots]
        self.used = 0

    def bits(self, variant: int):
        word = self.base ^ variant
        return [(word >> b) & 1 for b in range(VARIED_SLOTS)]

    def set_variant(self, variant: int) -> None:
        for position, bit in zip(self.positions, self.bits(variant)):
            self.body[position] = 0x31 if bit else 0x30

    def digest(self, variant: int) -> str:
        values = self.values.copy()
        values[self.slots] = self.bits(variant)
        return hashlib.sha256(values.tobytes()).hexdigest()


def _templates(seed: int) -> list[list[Template]]:
    """Per connection, its templates (each connection mutates only its own)."""
    from repro.backend.csr import compile_network
    from repro.networks.registry import create_network

    per_connection: list[list[Template]] = [[] for _ in range(CONNECTIONS)]
    for index, (family, params) in enumerate(TOPOLOGIES):
        rng = np.random.default_rng([seed, 31, index])
        network = create_network(family, **params)
        csr = compile_network(network)
        delta = network.diagnosability()
        for c in range(CONNECTIONS):
            for _ in range(TEMPLATES):
                faults = choose_faults(rng, network.num_nodes, delta)
                values, slots = explicit_syndrome(csr, faults, rng)
                per_connection[c].append(
                    Template(family, params, values, faults, slots, rng, delta,
                             network.num_nodes))
    return per_connection


class Server:
    """One ``serve --http`` subprocess with a fresh store file."""

    def __init__(self, k: int, spans_out=None) -> None:
        self.ready = OUT / f"explicit-http-ready-{k}.json"
        self.store = OUT / f"explicit-http-store-{k}.sqlite"
        for path in (self.ready, self.store, self.store.with_name(self.store.name + "-wal"),
                     self.store.with_name(self.store.name + "-shm")):
            path.unlink(missing_ok=True)
        args = ["serve", "--http", "0", "--ready-file", str(self.ready),
                "--store", str(self.store)]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli"] + args
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                       str(spans_out)] + args
        self.log = open(OUT / f"explicit-http-server-{k}.log", "w")
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=self.log,
                                        stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        while not self.ready.exists():
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not get ready in time")
            time.sleep(0.002)
        self.port = json.loads(self.ready.read_text())["port"]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


class Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def post(self, body: bytes) -> tuple[int, dict]:
        head = (f"POST /diagnose HTTP/1.1\r\nHost: 127.0.0.1:{self.port}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b"{}"
        return status, json.loads(payload)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _verified(checker, template, status, payload) -> bool:
    return (status == 200 and payload.get("error") is None
            and checker.check(payload.get("faulty", ()), template.faults,
                              template.delta, template.num_nodes))


async def _first_answers(port, templates) -> None:
    """One answer per topology: the end of set-up."""
    connection = Connection(port)
    await connection.open()
    try:
        for family, params in TOPOLOGIES:
            template = next(t for t in templates if t.family == family and t.params == params)
            template.set_variant(SETUP_VARIANT)
            status, payload = await connection.post(bytes(template.body))
            if not _verified(Checker(), template, status, payload):
                raise RuntimeError(f"set-up answer wrong on {topology_name(family, params)}")
    finally:
        await connection.close()


async def _drive(port, per_connection, seed, seconds):
    """Closed-loop traffic: ``WARMUP_S`` unrecorded, then ``seconds`` measured.

    Returns the start of the measured window and every operation, warm-up
    included, as ``(start, done, template, variant, status, payload)``.
    """
    ops: list[tuple] = []
    t0 = time.perf_counter() + WARMUP_S
    deadline = t0 + seconds
    measured = 0

    async def client(c: int) -> None:
        nonlocal measured
        rng = np.random.default_rng([seed, 32, c])
        by_topology = [[t for t in per_connection[c] if t.params == params]
                       for _, params in TOPOLOGIES]
        connection = Connection(port)
        await connection.open()
        try:
            for k in itertools.count(c):
                if time.perf_counter() >= deadline and measured >= 100:
                    break
                choices = by_topology[PATTERN[k % len(PATTERN)]]
                template = choices[int(rng.integers(len(choices)))]
                variant = template.used
                template.used += 1
                template.set_variant(variant)
                start = time.perf_counter()
                try:
                    status, payload = await connection.post(template.body)
                except (ConnectionError, asyncio.IncompleteReadError) as exc:
                    status, payload = 0, {"error": repr(exc)}
                done = time.perf_counter()
                ops.append((start, done, template, variant, status, payload))
                measured += start >= t0
        finally:
            await connection.close()

    await asyncio.gather(*(client(c) for c in range(CONNECTIONS)))
    return t0, ops


def measure(seed: int, seconds: float, checker, tracer=None, setups: int = SETUPS) -> Pass:
    """One pass against a fresh server; ``tracer`` selects the traced launcher.

    The server runs in its own process, so the wrappers are installed there;
    ``tracer`` only receives the server's spans once it has stopped.
    """
    per_connection = _templates(seed)
    spans_out = OUT / "explicit-http-server.spans.jsonl" if tracer is not None else None
    result = Pass(LIMIT_S, seconds)
    server = None
    try:
        for k in range(setups):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(k, spans_out)
            server.wait_ready()
            asyncio.run(_first_answers(server.port, per_connection[0]))
            result.setup.append(time.perf_counter() - start)
        t0, ops = asyncio.run(_drive(server.port, per_connection, seed, seconds))
        result.rss_mb = peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()
    warm = [op for op in ops if op[0] < t0]
    ops = [op for op in ops if op[0] >= t0]
    for start, done, template, variant, status, payload in warm:
        if not _verified(Checker(), template, status, payload):
            result.record(False, 0.0, 0.0)
    for start, done, template, variant, status, payload in ops:
        result.record(_verified(checker, template, status, payload), done - start, start - t0)
    end = max(done for _, done, *_ in ops)
    result.elapsed = end - t0
    first = per_connection[0][0]
    result.self_check = checker.catches_corruption(first.faults, first.delta, first.num_nodes)
    q14 = next(t for t in per_connection[0] if t.params == TOPOLOGIES[-1][1])
    result.extra = {"ops": ops, "spans_out": spans_out,
                    "request_bytes": len(q14.body)}
    return result


def layer_metrics(result: Pass, tracer) -> dict:
    """Per-layer numbers: server spans matched to client requests by digest."""
    from spans import END, INFO, NAME, OBJ, START, SpanIndex, layer_metrics as from_spans
    from spans import load_spans

    tracer.spans = load_spans(result.extra["spans_out"])
    index = SpanIndex(tracer.spans)
    by_digest = {}
    decodes: dict[int, list] = {}
    for span in tracer.spans:
        if span[NAME] == "decode":
            decodes.setdefault(span[OBJ], []).append(span)
    for span in tracer.spans:
        if span[NAME] != "submit":
            continue
        # The request's own digest: the one its store probe computed (batch
        # spans below a submit also hold the digests of its batch mates).
        digest = next((d[INFO]["digest"] for g in index.children.get(span[0], ())
                       for d in index.children.get(g[0], ()) if d[NAME] == "digest"), None)
        decode = max((d for d in decodes.get(span[OBJ], ()) if d[END] <= span[START]),
                     key=lambda d: d[END], default=None)
        by_digest[digest] = (span, decode)

    ops, overheads = [], []
    for start, done, template, variant, status, payload in result.extra["ops"]:
        match = by_digest.get(template.digest(variant))
        if match is None:
            raise RuntimeError("a request left no submit span on the server")
        submit, decode = match
        roots = [submit[0]] + ([decode[0]] if decode is not None else [])
        ops.append((start, done, roots))
        overheads.append((done - start) - (submit[END] - submit[START]))
    metrics = from_spans(tracer.spans, ops, root_layer="service.http")
    metrics["service.http.overhead_ms"] = (
        1e3 * sum(overheads) / len(overheads) if overheads else 0.0, "ms")
    metrics["service.http.request_bytes"] = (result.extra["request_bytes"], "bytes")
    metrics["service.http.non200"] = (
        sum(1 for *_, status, _ in result.extra["ops"] if status != 200), "count")
    sources = [payload.get("source") for *_, status, payload in result.extra["ops"]
               if status == 200]
    metrics["service.service.computed_share"] = (
        sources.count("computed") / max(1, len(sources)), "share")
    metrics["service.service.rejected"] = (
        sum(1 for *_, status, _ in result.extra["ops"] if status == 429), "count")
    return metrics
