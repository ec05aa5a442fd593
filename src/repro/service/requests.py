"""Request/response model of the diagnosis service.

A :class:`DiagnosisRequest` names a topology (family + constructor params)
and a syndrome — either *seeded* (a fault placement, count, faulty-tester
behaviour and seed, from which the service regenerates the exact
:class:`~repro.backend.array_syndrome.ArraySyndrome` the direct pipeline
would build) or *explicit* (the raw flat syndrome buffer itself).  Both
forms are plain picklable primitives, so requests cross process boundaries
into :class:`~repro.parallel.pool.WorkerPool` workers unchanged.

Three canonical keys drive the serving layer:

* :func:`topology_key` — what coalescing groups by: requests sharing it run
  against one compiled topology in one batch;
* :func:`syndrome_digest` — SHA-256 of the flat syndrome buffer: the
  content address under which the result store files an answer;
* :func:`request_key` — the duplicate-suppression key: identical requests
  share one in-flight computation and one stored result.

Responses are bit-identical to a direct
:meth:`~repro.core.diagnosis.GeneralDiagnoser.diagnose` call on the same
inputs — the accusation set, healthy root and lookup count all match, which
``tests/differential`` pins across every registry family.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "DEFAULT_TENANT",
    "DiagnosisRequest",
    "DiagnosisResponse",
    "topology_key",
    "request_key",
    "syndrome_digest",
    "validate_tenant",
    "encode_lease",
    "decode_lease",
    "encode_result",
    "decode_result",
]

#: The tenant a request belongs to when nothing names one — wire bodies,
#: JSONL lines and in-process callers that predate multi-tenancy all land
#: here, so single-tenant deployments keep exactly their old behaviour.
DEFAULT_TENANT = "default"

#: Characters a tenant name may use.  The bound keeps names safe as
#: Prometheus label values, HTTP header values and queue keys without any
#: per-surface escaping beyond the exporter's standard label escaping.
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._:@/-"
)
_TENANT_MAX_LENGTH = 64


def validate_tenant(tenant) -> str:
    """Check a tenant name (non-empty, bounded, label-safe); returns it."""
    if not isinstance(tenant, str) or not tenant:
        raise ValueError(
            f"tenant must be a non-empty string, got {tenant!r}"
        )
    if len(tenant) > _TENANT_MAX_LENGTH:
        raise ValueError(
            f"tenant name exceeds {_TENANT_MAX_LENGTH} characters: {tenant!r}"
        )
    bad = set(tenant) - _TENANT_CHARS
    if bad:
        raise ValueError(
            f"tenant {tenant!r} contains forbidden characters {sorted(bad)}; "
            f"allowed: letters, digits and ._:@/-"
        )
    return tenant


def topology_key(family: str, params) -> str:
    """Canonical ``family[name=value,...]`` key of one compiled topology."""
    items = sorted(dict(params).items())
    inner = ",".join(f"{name}={value}" for name, value in items)
    return f"{family}[{inner}]"


def syndrome_digest(buffer) -> str:
    """SHA-256 content address of a flat syndrome buffer.

    Hashes any contiguous buffer (``bytes``, ``bytearray``, a ``uint8``
    array or a view of one) in place, without copying it first.
    """
    return hashlib.sha256(buffer).hexdigest()


@dataclass(frozen=True)
class DiagnosisRequest:
    """One diagnosis to perform (picklable primitives only).

    ``syndrome_bytes`` switches the request to explicit-syndrome form: the
    service diagnoses that exact buffer and the seeded fields
    (``placement``/``fault_count``/``behavior``/``seed``) are ignored.

    ``tenant`` names the client the request is billed to: admission quotas
    and the fair-queueing scheduler account per tenant, and the metrics
    surface labels counters with it.  It is deliberately **not** part of
    :func:`request_key` or :func:`topology_key` — identical work is identical
    work, so two tenants asking the same question still coalesce onto one
    computation and one stored row (neither consumes the other's quota).

    An explicit request hashes its buffer once, on first use of
    :attr:`content_digest`; the store probe, the dedup key and the store
    commit all reuse that digest.
    """

    family: str
    params: tuple[tuple[str, int], ...]
    placement: str = "random"
    fault_count: int | None = None  # None -> the network's diagnosability
    behavior: str = "random"
    seed: int = 0
    tenant: str = DEFAULT_TENANT
    syndrome_bytes: bytes | None = field(default=None, repr=False)
    _content_digest: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def seeded(
        cls,
        family: str,
        params: dict,
        *,
        placement: str = "random",
        fault_count: int | None = None,
        behavior: str = "random",
        seed: int = 0,
        tenant: str = DEFAULT_TENANT,
    ) -> "DiagnosisRequest":
        return cls(
            family=family,
            params=tuple(sorted(params.items())),
            placement=placement,
            fault_count=fault_count,
            behavior=behavior,
            seed=seed,
            tenant=validate_tenant(tenant),
        )

    @classmethod
    def from_syndrome(
        cls, family: str, params: dict, syndrome, *, tenant: str = DEFAULT_TENANT
    ) -> "DiagnosisRequest":
        """An explicit-syndrome request from an ``ArraySyndrome`` (or buffer)."""
        buffer = getattr(syndrome, "buffer", syndrome)
        return cls(
            family=family,
            params=tuple(sorted(params.items())),
            syndrome_bytes=bytes(buffer),
            tenant=validate_tenant(tenant),
        )

    @classmethod
    def from_dict(
        cls, payload: dict, *, default_tenant: str = DEFAULT_TENANT
    ) -> "DiagnosisRequest":
        """Parse the JSON form used by JSONL files and the HTTP frontend.

        ``syndrome_hex`` (hex-encoded flat buffer) switches the parsed
        request to explicit-syndrome form, mirroring :meth:`from_syndrome`.
        ``default_tenant`` is the tenant for bodies that name none — the HTTP
        frontend passes its ``X-Tenant`` header here, so a body-level
        ``tenant`` field always wins over the connection-level header.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
        known = {"family", "params", "placement", "fault_count", "behavior",
                 "seed", "tenant", "syndrome_hex"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        if "family" not in payload:
            raise ValueError("request needs a 'family' field")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object of name -> integer")
        for name, value in params.items():
            # bool is an int subclass; reject it explicitly.
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"param {name!r} must be an integer, got {value!r}"
                )
        tenant = validate_tenant(payload.get("tenant", default_tenant))
        if payload.get("syndrome_hex") is not None:
            seeded_only = {"placement", "fault_count", "behavior", "seed"} & set(payload)
            if seeded_only:
                raise ValueError(
                    f"syndrome_hex is an explicit syndrome; it cannot combine "
                    f"with seeded fields {sorted(seeded_only)}"
                )
            try:
                buffer = bytes.fromhex(payload["syndrome_hex"])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"bad syndrome_hex: {exc}")
            return cls.from_syndrome(
                payload["family"], dict(params), buffer, tenant=tenant
            )
        return cls.seeded(
            payload["family"],
            dict(params),
            placement=payload.get("placement", "random"),
            fault_count=payload.get("fault_count"),
            behavior=payload.get("behavior", "random"),
            seed=int(payload.get("seed", 0)),
            tenant=tenant,
        )

    def to_wire(self) -> dict:
        """The JSON object :meth:`from_dict` parses back (HTTP request body).

        The default tenant is omitted, keeping single-tenant wire bodies
        byte-identical to their pre-tenancy form.
        """
        if self.is_explicit:
            record = {
                "family": self.family,
                "params": dict(self.params),
                "syndrome_hex": self.syndrome_bytes.hex(),
            }
        else:
            record = {
                "family": self.family,
                "params": dict(self.params),
                "placement": self.placement,
                "fault_count": self.fault_count,
                "behavior": self.behavior,
                "seed": self.seed,
            }
        if self.tenant != DEFAULT_TENANT:
            record["tenant"] = self.tenant
        return record

    # ------------------------------------------------------------------- keys
    @property
    def network_kwargs(self) -> dict[str, int]:
        return dict(self.params)

    @property
    def topology_key(self) -> str:
        return topology_key(self.family, self.params)

    @property
    def is_explicit(self) -> bool:
        return self.syndrome_bytes is not None

    @property
    def content_digest(self) -> str:
        """:func:`syndrome_digest` of the explicit buffer, hashed on first use."""
        if self._content_digest is None:
            object.__setattr__(
                self, "_content_digest", syndrome_digest(self.syndrome_bytes)
            )
        return self._content_digest

    @property
    def key(self) -> str:
        """Duplicate-suppression key (see :func:`request_key`)."""
        return request_key(self)

    def describe(self) -> str:
        prefix = "" if self.tenant == DEFAULT_TENANT else f"[{self.tenant}] "
        if self.is_explicit:
            return (f"{prefix}{self.topology_key} "
                    f"syndrome@{self.content_digest[:12]}")
        count = "delta" if self.fault_count is None else str(self.fault_count)
        return (f"{prefix}{self.topology_key} {self.placement}/{count} "
                f"{self.behavior} seed={self.seed}")


def request_key(request: DiagnosisRequest) -> str:
    """The key under which identical requests coalesce and dedup.

    Seeded requests key on their generation parameters (no topology work
    needed to recognise a repeat); explicit-syndrome requests key on the
    content digest of their buffer.  The tenant is deliberately absent:
    dedup is about the *work*, and a cross-tenant store hit or coalesced
    join consumes no queue slot from either tenant.
    """
    if request.is_explicit:
        return f"{request.topology_key}|sha256:{request.content_digest}"
    return (f"{request.topology_key}|{request.placement}|{request.fault_count}"
            f"|{request.behavior}|{request.seed}")


@dataclass(frozen=True)
class DiagnosisResponse:
    """Outcome of one served request (picklable / JSON-serialisable).

    ``source`` records how the answer was produced: ``"computed"`` (ran in a
    batch), ``"store"`` (served from the persistent result store) or
    ``"coalesced"`` (shared an in-flight computation with an identical
    concurrent request).  ``error`` carries the stringified
    :class:`~repro.core.diagnosis.DiagnosisError` when the instance violates
    Theorem 1's hypotheses — exactly when the direct pipeline raises.
    """

    topology_key: str
    syndrome_digest: str
    faulty: tuple[int, ...]
    healthy_root: int | None
    lookups: int
    num_probes: int
    partition_level: int | None
    num_faults_injected: int | None = None
    error: str | None = None
    source: str = "computed"
    batch_size: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def faulty_set(self) -> frozenset[int]:
        return frozenset(self.faulty)

    # ------------------------------------------------------------ store codec
    def to_payload(self) -> str:
        """JSON payload stored under ``(topology_key, syndrome_digest)``."""
        record = asdict(self)
        # Store only what re-serving needs; source/batch/latency are per-serve.
        for transient in ("source", "batch_size", "elapsed_seconds"):
            record.pop(transient)
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: str) -> "DiagnosisResponse":
        record = json.loads(payload)
        record["faulty"] = tuple(record["faulty"])
        return cls(source="store", **record)

    # ------------------------------------------------------------- wire codec
    def to_wire(self) -> dict:
        """The full JSON object the HTTP frontend returns (all fields)."""
        return asdict(self)

    @classmethod
    def from_wire(cls, record: dict) -> "DiagnosisResponse":
        """Parse an HTTP response body back into a response object."""
        record = dict(record)
        record["faulty"] = tuple(record["faulty"])
        return cls(**record)


# --------------------------------------------------------------- fabric frames
# The worker fabric's data-plane frames reuse the wire codecs above: a *lease*
# ships one coalesced batch to a remote worker, a *result* brings the batch's
# responses (plus the executing process's compile/pair-build evidence) back.
# Lease ids are coordinator-assigned and stable across retries, so a late or
# duplicated result still names the lease it answers and the coordinator can
# dedup completions; the payloads themselves are exactly the HTTP wire form,
# which is what keeps fabric responses bit-identical to direct serving.

def encode_lease(lease_id: int, requests: "list[DiagnosisRequest]") -> dict:
    """The ``lease`` frame body dispatching one batch to a worker."""
    return {
        "kind": "lease",
        "lease": int(lease_id),
        "requests": [request.to_wire() for request in requests],
    }


def decode_lease(frame: dict) -> tuple[int, "list[DiagnosisRequest]"]:
    """Parse (and validate) a ``lease`` frame; ``(lease_id, requests)``."""
    if frame.get("kind") != "lease":
        raise ValueError(f"not a lease frame: kind={frame.get('kind')!r}")
    lease_id = frame.get("lease")
    if not isinstance(lease_id, int) or isinstance(lease_id, bool):
        raise ValueError(f"lease id must be an integer, got {lease_id!r}")
    bodies = frame.get("requests")
    if not isinstance(bodies, list) or not bodies:
        raise ValueError("lease frame needs a non-empty 'requests' list")
    requests = []
    for position, body in enumerate(bodies):
        try:
            requests.append(DiagnosisRequest.from_dict(body))
        except ValueError as exc:
            raise ValueError(f"lease requests[{position}]: {exc}") from None
    return lease_id, requests


#: Batch-execution statistics a result frame must carry (the serving layer's
#: zero-recompilation evidence travels the fabric too).
_RESULT_STATS = ("compiles", "pair_builds", "kernel_width")


def encode_result(
    lease_id: int, responses: "list[DiagnosisResponse]", stats: dict
) -> dict:
    """The ``result`` frame body answering one lease."""
    return {
        "kind": "result",
        "lease": int(lease_id),
        "responses": [response.to_wire() for response in responses],
        "stats": {name: int(stats[name]) for name in _RESULT_STATS},
    }


def decode_result(frame: dict) -> tuple[int, "list[DiagnosisResponse]", dict]:
    """Parse a ``result`` frame; ``(lease_id, responses, stats)``."""
    if frame.get("kind") != "result":
        raise ValueError(f"not a result frame: kind={frame.get('kind')!r}")
    lease_id = frame.get("lease")
    if not isinstance(lease_id, int) or isinstance(lease_id, bool):
        raise ValueError(f"lease id must be an integer, got {lease_id!r}")
    bodies = frame.get("responses")
    if not isinstance(bodies, list):
        raise ValueError("result frame needs a 'responses' list")
    responses = []
    for position, body in enumerate(bodies):
        try:
            responses.append(DiagnosisResponse.from_wire(body))
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"result responses[{position}]: {exc}") from None
    raw_stats = frame.get("stats")
    if not isinstance(raw_stats, dict):
        raise ValueError("result frame needs a 'stats' object")
    try:
        stats = {name: int(raw_stats[name]) for name in _RESULT_STATS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"result stats: {exc!r}") from None
    return lease_id, responses, stats
