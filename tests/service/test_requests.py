"""Request model: keys, digests, JSONL parsing."""

from __future__ import annotations

import asyncio
import hashlib
import pickle

import numpy as np
import pytest

from repro.service.requests import (
    DiagnosisRequest,
    request_key,
    syndrome_digest,
    topology_key,
)


class TestKeys:
    def test_topology_key_is_order_insensitive(self):
        assert topology_key("kary_ncube", {"n": 3, "k": 5}) == \
            topology_key("kary_ncube", {"k": 5, "n": 3})

    def test_request_key_separates_generation_parameters(self):
        base = dict(family="hypercube", params={"dimension": 6})
        keys = {
            request_key(DiagnosisRequest.seeded(**base, seed=seed, placement=placement))
            for seed in (0, 1)
            for placement in ("random", "clustered")
        }
        assert len(keys) == 4

    def test_explicit_requests_key_on_content(self):
        first = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00\x01")
        same = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00\x01")
        other = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x01\x01")
        assert request_key(first) == request_key(same)
        assert request_key(first) != request_key(other)
        assert syndrome_digest(b"\x00\x01") in request_key(first)

    def test_describe_is_stable_and_compact(self):
        request = DiagnosisRequest.seeded("star", {"n": 6}, seed=2)
        assert request.describe() == "star[n=6] random/delta random seed=2"


class TestDigest:
    def test_digest_hashes_any_contiguous_buffer_in_place(self):
        payload = bytes(range(256)) * 3
        expected = hashlib.sha256(payload).hexdigest()
        array = np.frombuffer(payload, dtype=np.uint8)
        assert syndrome_digest(payload) == expected
        assert syndrome_digest(bytearray(payload)) == expected
        assert syndrome_digest(array) == expected
        assert syndrome_digest(array[10:20]) == hashlib.sha256(payload[10:20]).hexdigest()

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count calls through the module-level ``syndrome_digest`` name."""
        import repro.service.executor as executor
        import repro.service.requests as requests

        calls = []
        original = requests.syndrome_digest

        def counting(buffer):
            calls.append(len(buffer))
            return original(buffer)

        monkeypatch.setattr(requests, "syndrome_digest", counting)
        monkeypatch.setattr(executor, "syndrome_digest", counting)
        return calls

    def test_content_digest_is_lazy_and_memoized(self, counted):
        request = DiagnosisRequest.from_dict(
            {"family": "hypercube", "params": {"dimension": 5}, "syndrome_hex": "0001"}
        )
        assert counted == []  # parsing hashes nothing
        assert request.content_digest == hashlib.sha256(b"\x00\x01").hexdigest()
        request.key, request_key(request), request.describe()
        assert len(counted) == 1

    def test_memo_leaves_equality_hashing_and_pickling_alone(self):
        first = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00\x01")
        same = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00\x01")
        first.content_digest
        assert first == same and hash(first) == hash(same)
        assert "_content_digest" not in repr(first)
        assert pickle.loads(pickle.dumps(first)) == same

    def test_served_explicit_request_is_hashed_at_most_twice(self, counted, q5):
        """Store probe, dedup key and store commit share one hash; the
        executor hashes the adopted buffer once more."""
        from repro.backend import ArraySyndrome
        from repro.service import DiagnosisService, ResultStore

        syndrome = ArraySyndrome.from_faults(q5, {1, 2, 3}, seed=4)
        request = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, syndrome)

        async def serve():
            async with DiagnosisService(store=ResultStore()) as service:
                return await service.submit(request)

        response = asyncio.run(serve())
        assert response.ok
        assert response.syndrome_digest == request.content_digest
        assert len(counted) == 2


class TestFromDict:
    def test_minimal_and_full_forms(self):
        minimal = DiagnosisRequest.from_dict({"family": "hypercube"})
        assert minimal.params == ()
        full = DiagnosisRequest.from_dict({
            "family": "hypercube", "params": {"dimension": 7},
            "placement": "clustered", "fault_count": 3,
            "behavior": "mimic", "seed": 9,
        })
        assert full.network_kwargs == {"dimension": 7}
        assert full.fault_count == 3

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            DiagnosisRequest.from_dict({"family": "hypercube", "nonsense": 1})

    def test_missing_family_rejected(self):
        with pytest.raises(ValueError, match="'family'"):
            DiagnosisRequest.from_dict({"seed": 1})

    def test_non_integer_params_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            DiagnosisRequest.from_dict(
                {"family": "hypercube", "params": {"dimension": "7"}}
            )
        with pytest.raises(ValueError, match="must be an integer"):
            DiagnosisRequest.from_dict(
                {"family": "hypercube", "params": {"dimension": True}}
            )
        with pytest.raises(ValueError, match="must be an object"):
            DiagnosisRequest.from_dict({"family": "hypercube", "params": [7]})


class TestTenant:
    def test_default_tenant(self):
        from repro.service.requests import DEFAULT_TENANT

        request = DiagnosisRequest.seeded("hypercube", {"dimension": 6}, seed=0)
        assert request.tenant == DEFAULT_TENANT == "default"

    def test_tenant_excluded_from_request_key(self):
        # Two tenants asking the same question share one content address:
        # coalescing and store dedup cross tenant boundaries by design.
        mine = DiagnosisRequest.seeded(
            "hypercube", {"dimension": 6}, seed=0, tenant="mine"
        )
        yours = DiagnosisRequest.seeded(
            "hypercube", {"dimension": 6}, seed=0, tenant="yours"
        )
        assert request_key(mine) == request_key(yours)

    def test_wire_roundtrip_preserves_tenant(self):
        request = DiagnosisRequest.seeded(
            "hypercube", {"dimension": 6}, seed=3, tenant="acme"
        )
        wire = request.to_wire()
        assert wire["tenant"] == "acme"
        assert DiagnosisRequest.from_dict(wire) == request

    def test_default_tenant_omitted_from_wire(self):
        request = DiagnosisRequest.seeded("hypercube", {"dimension": 6}, seed=3)
        assert "tenant" not in request.to_wire()

    def test_from_dict_default_tenant_applies_only_when_unnamed(self):
        unnamed = DiagnosisRequest.from_dict(
            {"family": "hypercube"}, default_tenant="header"
        )
        assert unnamed.tenant == "header"
        named = DiagnosisRequest.from_dict(
            {"family": "hypercube", "tenant": "body"}, default_tenant="header"
        )
        assert named.tenant == "body"  # the body always wins

    def test_describe_prefixes_non_default_tenant(self):
        request = DiagnosisRequest.seeded(
            "star", {"n": 6}, seed=2, tenant="acme"
        )
        assert request.describe().startswith("[acme] ")

    def test_validation(self):
        from repro.service.requests import validate_tenant

        assert validate_tenant("a.b:c@d-e_f") == "a.b:c@d-e_f"
        with pytest.raises(ValueError, match="non-empty"):
            validate_tenant("")
        with pytest.raises(ValueError, match="non-empty"):
            validate_tenant(7)
        with pytest.raises(ValueError, match="exceeds"):
            validate_tenant("x" * 65)
        with pytest.raises(ValueError, match="forbidden"):
            validate_tenant("no spaces")
        with pytest.raises(ValueError, match="forbidden"):
            validate_tenant('quo"te')
