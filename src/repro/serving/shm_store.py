"""Checksummed ``multiprocessing.shared_memory`` artifact store.

Frozen :class:`~repro.serving.arch_cache.ArchArtifact` payloads —
schedules, gather/segment/CVB arrays, compiled-program metadata — are
built once per structure and reused many times; this store publishes
each one into a named shared-memory segment so a pool of worker
*processes* binds without rebuilding or copying through pipes.

Segment layout (all little-endian)::

    +---------+---------+-------+------------+-------------+----------+
    | magic 8 | version | flags | generation | payload_len | digest32 |
    | bytes   | u32     | u32   | u64        | u64         | blake2b  |
    +---------+---------+-------+------------+-------------+----------+
    | pickled ArchArtifact payload (payload_len bytes)                |
    +-----------------------------------------------------------------+

Integrity protocol — the process boundary is hostile (a worker can be
SIGKILLed mid-anything, a segment can rot):

* the writer fills the payload first and writes the header **last**,
  so a torn publish is detectable as a header mismatch;
* every publish bumps a monotonically increasing per-key *generation*
  and creates a **fresh** segment (old generations are unlinked), so a
  reader can never observe an in-place overwrite half-applied;
* readers get a :class:`SegmentRef` (name + expected generation +
  expected digest) through the request channel and validate magic,
  version, generation, length *and* the blake2b digest of the payload
  on attach — any mismatch raises
  :class:`~repro.exceptions.ShmIntegrityError` and the segment is
  quarantined and rebuilt from the cold path, never served
  (``docs/FAULTS.md``: ``shm-corrupt`` extends the PR 5
  ``artifact-poison`` semantics across the process boundary).

The owning process unlinks every segment on :meth:`ShmArtifactStore.
close` — graceful drain leaves nothing behind in ``/dev/shm`` (the
sharded tests assert exactly that).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import secrets
import struct
import threading
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

from ..exceptions import ShmIntegrityError

__all__ = ["SegmentRef", "ShmArtifactStore", "attach_artifact"]

#: Serializes the register() monkeypatch in :func:`_attach_untracked`
#: (pre-3.13 fallback) against concurrent attaches in one process.
_TRACKER_GUARD = threading.Lock()

_MAGIC = b"RSQPSHM\x01"
_VERSION = 1
#: magic, version, flags, generation, payload_len, blake2b-32 digest.
_HEADER = struct.Struct("<8sIIQQ32s")


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=32).digest()


@dataclass(frozen=True)
class SegmentRef:
    """Everything a reader needs to attach and *trust* one segment.

    Travels with the request message; ``generation`` and ``digest``
    are re-checked against the segment header on attach, so a stale or
    torn segment can never masquerade as the published artifact.
    """

    key: str
    name: str
    generation: int
    digest: str  # hex of the payload blake2b-32
    payload_len: int


class ShmArtifactStore:
    """Publish-once, attach-many shared store of frozen artifacts.

    One instance per front-door process owns every segment it creates
    (tracked for unlink-on-close); worker processes only ever *attach*
    via the module-level :func:`attach_artifact` with a
    :class:`SegmentRef` handed to them over the request channel.
    """

    def __init__(self, namespace: str | None = None):
        #: Short unique prefix; segment names must stay well under the
        #: POSIX shm name limit, so keys are crc32-compressed into it.
        self.namespace = namespace or f"rsqp{secrets.token_hex(4)}"
        self._lock = threading.Lock()
        self._segments: dict[str, tuple[SegmentRef, shared_memory.SharedMemory]] = {}
        self._generations: dict[str, int] = {}
        self._publishes = 0
        self._quarantines = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _segment_name(self, key: str, generation: int) -> str:
        return f"{self.namespace}k{zlib.crc32(key.encode()):08x}g{generation}"

    def publish(self, key: str, artifact) -> SegmentRef:
        """Serialize ``artifact`` into a fresh checksummed segment.

        Re-publishing a key bumps its generation, creates a new segment
        and unlinks the previous one; readers holding the old
        :class:`SegmentRef` fail closed with a *generation* mismatch
        instead of reading torn bytes.
        """
        if self._closed:
            raise RuntimeError("store is closed")
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        digest = _digest(payload)
        with self._lock:
            generation = self._generations.get(key, 0) + 1
            self._generations[key] = generation
            name = self._segment_name(key, generation)
            seg = shared_memory.SharedMemory(
                create=True, size=_HEADER.size + len(payload), name=name)
            # Payload first, header last: a reader that somehow attaches
            # mid-publish sees a zero/garbage header, not a valid one.
            seg.buf[_HEADER.size:_HEADER.size + len(payload)] = payload
            seg.buf[:_HEADER.size] = _HEADER.pack(
                _MAGIC, _VERSION, 0, generation, len(payload), digest)
            ref = SegmentRef(key=key, name=name, generation=generation,
                             digest=digest.hex(), payload_len=len(payload))
            previous = self._segments.pop(key, None)
            self._segments[key] = (ref, seg)
            self._publishes += 1
        if previous is not None:
            _destroy(previous[1])
        return ref

    def ref(self, key: str) -> SegmentRef | None:
        """The current :class:`SegmentRef` for ``key``, if published."""
        with self._lock:
            entry = self._segments.get(key)
            return entry[0] if entry is not None else None

    def quarantine(self, key: str, generation: int | None = None) -> bool:
        """Unlink a (suspected corrupt) segment so it can never be
        attached again; the next :meth:`publish` bumps the generation.
        With ``generation``, only if that generation is still the
        current one: an error reported against a stale segment must not
        unlink the healthy one republished after it. Returns whether a
        segment was unlinked."""
        with self._lock:
            entry = self._segments.get(key)
            if entry is None or (generation is not None
                                 and entry[0].generation != generation):
                return False
            del self._segments[key]
            self._quarantines += 1
        _destroy(entry[1])
        return True

    # -- fault injection hooks -----------------------------------------
    def corrupt(self, key: str, *, offset: int = 0, nbytes: int = 8) -> bool:
        """Flip ``nbytes`` payload bytes in place (``shm-corrupt``).

        The header checksum is deliberately left stale, so the next
        attach fails closed. Returns whether a segment was corrupted.
        """
        with self._lock:
            entry = self._segments.get(key)
            if entry is None:
                return False
            ref, seg = entry
            start = _HEADER.size + (offset % max(ref.payload_len, 1))
            end = min(start + nbytes, _HEADER.size + ref.payload_len)
            for i in range(start, end):
                seg.buf[i] ^= 0xFF
        return True

    # ------------------------------------------------------------------
    def segment_names(self) -> list[str]:
        """Names of every live segment this store owns (leak checks)."""
        with self._lock:
            return sorted(ref.name for ref, _ in self._segments.values())

    def stats(self) -> dict:
        with self._lock:
            return {"segments": len(self._segments),
                    "publishes": self._publishes,
                    "quarantines": self._quarantines}

    def close(self) -> None:
        """Unlink every segment; idempotent. Part of graceful drain —
        after this, ``/dev/shm`` holds nothing of ours."""
        with self._lock:
            entries = list(self._segments.values())
            self._segments.clear()
            self._closed = True
        for _, seg in entries:
            _destroy(seg)

    def __enter__(self) -> "ShmArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass


def _destroy(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    finally:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with the resource tracker.

    Attaching processes must not own the segment's lifetime: before
    Python 3.13 every ``SharedMemory(name)`` registers with the
    resource tracker, whose exit-time cleanup would unlink segments the
    publisher still serves (and spam leak warnings). Registration is
    suppressed rather than undone after the fact — forked workers share
    the publisher's tracker process, so an ``unregister`` here would
    drop the name the *publisher* registered and its own unlink would
    then trip a tracker KeyError. The publisher is the single owner;
    readers attach untracked.
    """
    if os.name == "nt":  # pragma: no cover - windows has no tracker
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        with _TRACKER_GUARD:
            original = resource_tracker.register
            resource_tracker.register = lambda *a, **kw: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


def attach_artifact(ref: SegmentRef):
    """Validate + deserialize the artifact behind ``ref``.

    Every check fails closed with
    :class:`~repro.exceptions.ShmIntegrityError` carrying a stable
    ``reason`` code; the caller quarantines and falls back to the cold
    path. The payload is copied out before unpickling, so the segment
    handle is released whatever happens.
    """
    try:
        seg = _attach_untracked(ref.name)
    except FileNotFoundError:
        raise ShmIntegrityError(
            f"segment {ref.name} does not exist (unlinked or never "
            "published)", reason="missing") from None
    try:
        if len(seg.buf) < _HEADER.size:
            raise ShmIntegrityError(
                f"segment {ref.name} is smaller than its header",
                reason="length")
        magic, version, _flags, generation, payload_len, digest = \
            _HEADER.unpack(bytes(seg.buf[:_HEADER.size]))
        if magic != _MAGIC:
            raise ShmIntegrityError(
                f"segment {ref.name} has a bad magic (torn publish?)",
                reason="magic")
        if version != _VERSION:
            raise ShmIntegrityError(
                f"segment {ref.name} has unsupported version {version}",
                reason="version")
        if generation != ref.generation:
            raise ShmIntegrityError(
                f"segment {ref.name} generation {generation} != expected "
                f"{ref.generation} (stale or torn publish)",
                reason="generation")
        if payload_len != ref.payload_len or \
                _HEADER.size + payload_len > len(seg.buf):
            raise ShmIntegrityError(
                f"segment {ref.name} payload length {payload_len} "
                "disagrees with its reference", reason="length")
        payload = bytes(seg.buf[_HEADER.size:_HEADER.size + payload_len])
    finally:
        seg.close()
    actual = _digest(payload)
    if actual != digest or actual.hex() != ref.digest:
        raise ShmIntegrityError(
            f"segment {ref.name} failed its blake2b payload check "
            "(corrupt bytes are never deserialized)", reason="checksum")
    return pickle.loads(payload)
