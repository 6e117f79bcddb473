"""Checksummed shared-memory artifact store: publish/attach round
trips, every fail-closed integrity reason, generation discipline,
quarantine and leak-free close."""

import struct

import pytest

from repro.exceptions import ShmIntegrityError
from repro.serving.shm_store import (_HEADER, _MAGIC, SegmentRef,
                                     ShmArtifactStore, _attach_untracked,
                                     attach_artifact)


@pytest.fixture()
def store():
    s = ShmArtifactStore()
    yield s
    s.close()


PAYLOAD = {"schedule": list(range(50)), "cvb": b"\x01\x02" * 64,
           "name": "svm[00]"}


class TestRoundTrip:
    def test_publish_attach_returns_equal_object(self, store):
        ref = store.publish("k1", PAYLOAD)
        assert attach_artifact(ref) == PAYLOAD

    def test_ref_lookup(self, store):
        assert store.ref("k1") is None
        published = store.publish("k1", PAYLOAD)
        assert store.ref("k1") == published

    def test_many_keys_coexist(self, store):
        refs = {f"k{i}": store.publish(f"k{i}", {"i": i}) for i in range(5)}
        for key, ref in refs.items():
            assert attach_artifact(ref) == {"i": int(key[1:])}
        assert store.stats()["segments"] == 5

    def test_segment_name_fits_posix_limit(self, store):
        ref = store.publish("x" * 500, PAYLOAD)  # key length is unbounded
        assert len(ref.name) < 255
        assert attach_artifact(ref) == PAYLOAD


class TestGenerations:
    def test_republish_bumps_generation(self, store):
        r1 = store.publish("k", {"v": 1})
        r2 = store.publish("k", {"v": 2})
        assert r2.generation == r1.generation + 1
        assert attach_artifact(r2) == {"v": 2}

    def test_stale_ref_fails_closed(self, store):
        r1 = store.publish("k", {"v": 1})
        store.publish("k", {"v": 2})
        # Old generation's segment was unlinked by the republish.
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(r1)
        assert exc.value.reason == "missing"

    def test_generation_mismatch_on_live_segment(self, store):
        ref = store.publish("k", PAYLOAD)
        doctored = SegmentRef(key=ref.key, name=ref.name,
                              generation=ref.generation + 7,
                              digest=ref.digest,
                              payload_len=ref.payload_len)
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(doctored)
        assert exc.value.reason == "generation"


class TestIntegrityReasons:
    def test_corrupt_payload_fails_checksum(self, store):
        ref = store.publish("k", PAYLOAD)
        assert store.corrupt("k")
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(ref)
        assert exc.value.reason == "checksum"

    def test_corrupt_missing_key_is_noop(self, store):
        assert not store.corrupt("nope")

    def test_torn_header_bad_magic(self, store):
        ref = store.publish("k", PAYLOAD)
        seg = _attach_untracked(ref.name)
        try:
            seg.buf[:8] = b"\x00" * 8  # a half-written publish
        finally:
            seg.close()
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(ref)
        assert exc.value.reason == "magic"

    def test_unsupported_version(self, store):
        ref = store.publish("k", PAYLOAD)
        seg = _attach_untracked(ref.name)
        try:
            seg.buf[:_HEADER.size] = _HEADER.pack(
                _MAGIC, 99, 0, ref.generation, ref.payload_len,
                bytes.fromhex(ref.digest))
        finally:
            seg.close()
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(ref)
        assert exc.value.reason == "version"

    def test_length_lie_fails_closed(self, store):
        ref = store.publish("k", PAYLOAD)
        seg = _attach_untracked(ref.name)
        try:
            seg.buf[:_HEADER.size] = _HEADER.pack(
                _MAGIC, 1, 0, ref.generation, ref.payload_len + 4096,
                bytes.fromhex(ref.digest))
        finally:
            seg.close()
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(ref)
        assert exc.value.reason == "length"

    def test_missing_segment(self):
        ref = SegmentRef(key="k", name="rsqp_never_published_g1",
                         generation=1, digest="00" * 32, payload_len=4)
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(ref)
        assert exc.value.reason == "missing"

    def test_header_layout_is_stable(self):
        # The on-wire header is a compatibility surface: 8 + 4 + 4 +
        # 8 + 8 + 32 bytes, little-endian.
        assert _HEADER.size == 64
        assert _HEADER.format == "<8sIIQQ32s"
        assert struct.calcsize(_HEADER.format) == 64


class TestQuarantineAndClose:
    def test_quarantine_unlinks(self, store):
        ref = store.publish("k", PAYLOAD)
        assert store.quarantine("k")
        assert store.ref("k") is None
        with pytest.raises(ShmIntegrityError) as exc:
            attach_artifact(ref)
        assert exc.value.reason == "missing"
        assert store.stats()["quarantines"] == 1

    def test_quarantine_then_republish_bumps_generation(self, store):
        r1 = store.publish("k", {"v": 1})
        store.quarantine("k")
        r2 = store.publish("k", {"v": 2})
        assert r2.generation == r1.generation + 1
        assert attach_artifact(r2) == {"v": 2}

    def test_quarantine_missing_key(self, store):
        assert not store.quarantine("nope")

    def test_stale_generation_quarantine_is_a_noop(self, store):
        r1 = store.publish("k", {"v": 1})
        assert store.quarantine("k", r1.generation)
        r2 = store.publish("k", {"v": 2})
        # A second error against the quarantined generation leaves the
        # republished segment attachable.
        assert not store.quarantine("k", r1.generation)
        assert attach_artifact(r2) == {"v": 2}
        assert store.stats()["quarantines"] == 1
        assert store.quarantine("k", r2.generation)

    def test_two_shard_errors_on_one_stale_generation(self, store):
        # Two shards attach the same corrupted generation; the first
        # error quarantines it and the artifact is republished before
        # the second error arrives. The service quarantines (and
        # invalidates its cache) once.
        import threading
        from types import SimpleNamespace
        from repro.serving.sharded import ShardedSolverService
        counts = {}

        class Counter:
            def __init__(self, name):
                self.name = name

            def inc(self):
                counts[self.name] = counts.get(self.name, 0) + 1

        invalidated, requeued = [], []
        ref = store.publish("k", PAYLOAD)
        service = SimpleNamespace(
            _lock=threading.Lock(), store=store,
            _inflight={rid: {"rid": rid, "key": "k",
                             "segment": ref.generation} for rid in (1, 2)},
            metrics=SimpleNamespace(
                counter=lambda name, labels=None: Counter(name)),
            cache=SimpleNamespace(invalidate=invalidated.append),
            _retry_or_degrade=lambda entry, reason: requeued.append(
                entry["rid"]))
        ShardedSolverService._on_error(service, None, 1, "shm-integrity",
                                       "checksum", "bad digest")
        fresh = store.publish("k", PAYLOAD)
        ShardedSolverService._on_error(service, None, 2, "shm-integrity",
                                       "checksum", "bad digest")
        assert store.stats()["quarantines"] == 1
        assert store.ref("k") == fresh
        assert attach_artifact(fresh) == PAYLOAD
        assert invalidated == ["k"]
        assert counts["serving_shm_rebuilds_total"] == 1
        assert counts["serving_shm_checksum_failures_total"] == 2
        assert requeued == [1, 2]

    def test_close_unlinks_everything(self):
        store = ShmArtifactStore()
        refs = [store.publish(f"k{i}", PAYLOAD) for i in range(3)]
        assert store.segment_names()
        store.close()
        assert store.segment_names() == []
        for ref in refs:
            with pytest.raises(ShmIntegrityError):
                attach_artifact(ref)

    def test_close_is_idempotent_and_final(self):
        store = ShmArtifactStore()
        store.publish("k", PAYLOAD)
        store.close()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.publish("k2", PAYLOAD)

    def test_context_manager_closes(self):
        with ShmArtifactStore() as store:
            ref = store.publish("k", PAYLOAD)
        with pytest.raises(ShmIntegrityError):
            attach_artifact(ref)
