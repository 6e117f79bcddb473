"""LRU cache of frozen architecture artifacts, keyed by structure.

One :class:`ArchArtifact` is everything the customization flow
produces for a problem structure that is reusable across numeric data:
the detached :class:`~repro.customization.ProblemCustomization`
(architecture, schedules, CVB layouts), the compiled OSQP program with
cycle costs attached, and the modeled f_max / power / resource figures
of the chosen architecture. Binding an artifact to fresh numeric data
is milliseconds (host scaling + HBM download); building one from
scratch is the full LZW search + scheduling + CVB compression flow —
the cost the cache amortizes.

Persistence: artifacts hold compiled programs and schedules that are
cheap to *re-derive* but bulky to serialize, so the JSON file stores
the *architecture decision* per structure key — the ``C{S}`` string,
width and build parameters. On a warm process start a persisted entry
lets the service skip the architecture search (the dominant cost) and
rebuild the artifact with a single :func:`evaluate_architecture` pass.
The format is documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from ..customization import (ProblemCustomization, customize_problem,
                             evaluate_architecture, parse_architecture)
from ..hw import (CompiledProgram, accelerator_class, estimate_resources,
                  fmax_mhz, fpga_power_watts)
from ..hw.resources import ResourceEstimate
from .fingerprint import StructureFingerprint, fingerprint_problem

__all__ = ["ArchArtifact", "ArchCache", "CacheStats", "PersistedSpec",
           "build_artifact"]

_PERSIST_VERSION = 1

log = logging.getLogger(__name__)


@dataclass
class ArchArtifact:
    """Frozen, structure-only output of the customization flow."""

    fingerprint: StructureFingerprint
    c: int
    customization: ProblemCustomization  # detached (problem is None)
    compiled: CompiledProgram
    max_pcg_iter: int
    fmax_mhz: float
    power_watts: float
    resources: ResourceEstimate
    #: Build-time accounting, reported by the amortization benchmarks.
    customize_seconds: float = 0.0
    compile_seconds: float = 0.0
    #: Which algorithm's program this artifact carries ("admm"/"pdqp").
    algorithm: str = "admm"
    #: Set by :func:`repro.verify.ensure_artifact_verified` after the
    #: static passes accept the artifact; solve paths skip re-checking.
    verified: bool = field(default=False, compare=False)
    #: Set by :func:`repro.verify.ensure_batch_verified` (and the
    #: ``--codegen`` CLI) after the generated-C tier's static lift
    #: passes; one accept covers every batch bound to this artifact.
    codegen_verified: bool = field(default=False, compare=False)

    @cached_property
    def architecture_string(self) -> str:
        """The architecture's spec string, built once per artifact (the
        artifact is frozen; every record of every solve reads it)."""
        return str(self.customization.architecture)

    @property
    def build_seconds(self) -> float:
        return self.customize_seconds + self.compile_seconds


@dataclass(frozen=True)
class PersistedSpec:
    """Disk record of one cache entry: enough to skip the search."""

    key: str
    c: int
    architecture: str
    max_pcg_iter: int
    allow_partial: bool = False
    customize_seconds: float = 0.0
    #: Algorithm of the compiled program; defaults keep v1 files valid.
    algorithm: str = "admm"


@dataclass
class CacheStats:
    """Counter snapshot; ``disk_hits`` are rebuilds from persisted specs."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    size: int = 0
    capacity: int = 0
    persisted: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "disk_hits": self.disk_hits,
                "size": self.size, "capacity": self.capacity,
                "persisted": self.persisted, "hit_rate": self.hit_rate}


def build_artifact(problem, c, cache: "ArchCache | None" = None, *,
                   fingerprint: StructureFingerprint | None = None,
                   key: str | None = None,
                   architecture=None,
                   max_admm_iter: int = 4000,
                   max_pcg_iter: int = 500,
                   allow_partial: bool = False,
                   algorithm: str = "admm",
                   metrics=None,
                   metrics_prefix: str = "serving") -> ArchArtifact:
    """Run the customization + compile flow into one frozen artifact.

    The single cold-path builder shared by :class:`SolverService` and
    the fleet layer — artifact construction without a service instance.
    Three build modes, in priority order:

    * ``architecture`` given — skip the search and bind *that*
      architecture to this problem's structure (the fleet's cross-node
      evaluation: how well does an incoming structure run on a node's
      frozen datapath). ``c`` is taken from the architecture.
    * ``cache`` + ``key`` given and the cache holds a persisted spec —
      re-derive schedules + CVB for the recorded architecture decision
      (the disk tier) and note the disk hit on the cache.
    * otherwise — the full width-``c`` customization flow
      (:func:`repro.customization.customize_problem`).

    ``metrics``, when given, receives ``{prefix}_customize_seconds`` /
    ``{prefix}_compile_seconds`` observations and a
    ``{prefix}_disk_rebuilds_total`` increment on the disk path.
    The caller is responsible for putting the artifact into a cache
    (or use :meth:`ArchCache.get_or_build` around this).
    """
    if fingerprint is None:
        fingerprint = fingerprint_problem(problem, c=architecture.c
                                          if architecture is not None else c)
    spec = (cache.persisted_spec(key)
            if cache is not None and key is not None
            and architecture is None else None)
    t0 = time.perf_counter()
    if architecture is not None:
        custom = evaluate_architecture(problem, architecture,
                                       allow_partial=allow_partial)
    elif spec is not None:
        # The architecture decision is known: skip the search and just
        # re-derive schedules + CVB layout for this structure.
        custom = evaluate_architecture(
            problem, parse_architecture(spec.architecture),
            allow_partial=allow_partial)
        cache.note_disk_hit()
        if metrics is not None:
            metrics.counter(f"{metrics_prefix}_disk_rebuilds_total").inc()
    else:
        custom = customize_problem(problem, c,
                                   allow_partial=allow_partial)
    t1 = time.perf_counter()
    compiled = accelerator_class(algorithm).compile_program(
        custom, problem.n, problem.m,
        max_iter=max_admm_iter, max_pcg_iter=max_pcg_iter)
    t2 = time.perf_counter()
    arch = custom.architecture
    if metrics is not None:
        metrics.histogram(
            f"{metrics_prefix}_customize_seconds").observe(t1 - t0)
        metrics.histogram(
            f"{metrics_prefix}_compile_seconds").observe(t2 - t1)
    return ArchArtifact(
        fingerprint=fingerprint, c=arch.c,
        customization=custom.detach(), compiled=compiled,
        max_pcg_iter=max_pcg_iter,
        fmax_mhz=fmax_mhz(arch), power_watts=fpga_power_watts(arch),
        resources=estimate_resources(arch),
        customize_seconds=t1 - t0, compile_seconds=t2 - t1,
        algorithm=algorithm)


class ArchCache:
    """Thread-safe LRU mapping cache key -> :class:`ArchArtifact`.

    The key is chosen by the caller (the service composes the structure
    fingerprint with the build parameters, see
    :meth:`SolverService.cache_key`); the cache itself is agnostic.

    Each entry also owns up to ``resident_slots`` idle resident
    accelerators (:class:`~repro.serving.pool.Resident`) bound to its
    artifact, per width: solo machines, and batched machines per lane
    count B. They leave with the entry — eviction, :meth:`invalidate`
    or replacement — and ``on_discard(reason, count)`` hears of it.
    """

    def __init__(self, capacity: int = 128,
                 path: str | Path | None = None,
                 resident_slots: int = 1, on_discard=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.path = Path(path) if path is not None else None
        self.resident_slots = int(resident_slots)
        self.on_discard = on_discard
        self._entries: OrderedDict[str, ArchArtifact] = OrderedDict()
        self._idle: dict[str, list] = {}
        self._specs: dict[str, PersistedSpec] = {}
        self._lock = threading.RLock()
        self._build_locks: dict[str, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0
        if self.path is not None and self.path.exists():
            try:
                self.load()
            except ValueError as exc:
                # A future-version file is a configuration problem,
                # but it must not take the service down at startup —
                # affected structures simply rebuild from scratch.
                log.warning("ignoring cache file %s: %s", self.path, exc)

    # ------------------------------------------------------------------
    def get(self, key: str) -> ArchArtifact | None:
        """Look up and touch; counts one hit or miss."""
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return artifact

    def peek(self, key: str) -> ArchArtifact | None:
        """Look up without touching LRU order or counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, artifact: ArchArtifact) -> None:
        with self._lock:
            if self._entries.get(key) is not artifact:
                self._drop_residents(key, "invalidated")
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._drop_residents(evicted, "evicted")
                self._evictions += 1
            self._specs[key] = PersistedSpec(
                key=key, c=artifact.c,
                architecture=artifact.architecture_string,
                max_pcg_iter=artifact.max_pcg_iter,
                customize_seconds=artifact.customize_seconds,
                algorithm=artifact.algorithm)

    def persisted_spec(self, key: str) -> PersistedSpec | None:
        """The durable architecture decision for ``key``, if any.

        Present for every entry ever ``put`` in this process plus
        everything loaded from disk — it survives LRU eviction, so an
        evicted structure still skips the search when it comes back.
        """
        with self._lock:
            return self._specs.get(key)

    def note_disk_hit(self) -> None:
        """Record that a miss was served by rebuilding a persisted spec."""
        with self._lock:
            self._disk_hits += 1

    def invalidate(self, key: str) -> bool:
        """Drop an in-memory entry (e.g. a corrupted artifact) so the
        next lookup rebuilds it; the persisted spec survives, so the
        rebuild still skips the architecture search. Returns whether
        an entry was present."""
        with self._lock:
            self._drop_residents(key, "invalidated")
            return self._entries.pop(key, None) is not None

    # -- resident accelerators -------------------------------------------
    def lease(self, key: str, artifact: ArchArtifact, width=None):
        """An idle resident bound to exactly ``artifact``, or None.

        ``width`` selects the kind: None for a solo machine, B for a
        batched machine of exactly B lanes."""
        with self._lock:
            idle = self._idle.get(key, [])
            for i in range(len(idle) - 1, -1, -1):
                resident = idle[i]
                if resident.width == width and resident.artifact is artifact:
                    return idle.pop(i)
        return None

    def release(self, key: str, resident) -> None:
        """Take a leased resident back while its artifact is still this
        entry's and a slot of its width is free; otherwise it is
        dropped."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not resident.artifact:
                self._notify_discard(
                    "evicted" if entry is None else "invalidated", 1)
                return
            idle = self._idle.setdefault(key, [])
            if sum(r.width == resident.width
                   for r in idle) < self.resident_slots:
                idle.append(resident)

    def _drop_residents(self, key: str, reason: str) -> None:
        idle = self._idle.pop(key, None)
        if idle:
            self._notify_discard(reason, len(idle))

    def _notify_discard(self, reason: str, count: int) -> None:
        if self.on_discard is not None:
            self.on_discard(reason, count)

    def get_or_build(self, key: str, builder) -> tuple[ArchArtifact, bool]:
        """Return ``(artifact, was_hit)``; concurrent misses build once.

        ``builder`` is called without arguments outside the cache-wide
        lock (builds are slow); a per-key lock guarantees one build per
        key even under racing workers. ``was_hit`` is True only on the
        fast path — a caller that had to wait for a racing build still
        reports a miss, because it paid the cold-path latency.
        """
        artifact = self.get(key)
        if artifact is not None:
            return artifact, True
        with self._lock:
            build_lock = self._build_locks.setdefault(key, threading.Lock())
        with build_lock:
            # Double-check: a racing worker may have built while we
            # waited; reuse its artifact but stay accounted as a miss.
            artifact = self.peek(key)
            if artifact is None:
                artifact = builder()
                self.put(key, artifact)
        with self._lock:
            self._build_locks.pop(key, None)
        return artifact, False

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              disk_hits=self._disk_hits,
                              size=len(self._entries),
                              capacity=self.capacity,
                              persisted=len(self._specs))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def save(self, path: str | Path | None = None) -> Path:
        """Write every known architecture decision as JSON.

        Crash-safe: the payload goes to a fresh temporary file in the
        target directory, is fsynced, and is renamed over the target
        atomically (then the directory entry is fsynced too). A
        process killed at *any* instant leaves either the old complete
        file or the new complete file — never a truncated one — so a
        warm restart always loads a coherent cache (and :meth:`load`
        already shrugs off pre-existing corruption).
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and cache has no default path")
        with self._lock:
            specs = [spec.__dict__ for spec in self._specs.values()]
        payload = {"version": _PERSIST_VERSION, "entries": specs}
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=target.parent)
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if hasattr(os, "O_DIRECTORY"):  # pragma: no branch - posix
            dir_fd = os.open(target.parent, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        return target

    def load(self, path: str | Path | None = None) -> int:
        """Merge persisted specs from JSON; returns how many were read.

        Hardened against disk rot: a corrupted or truncated file (bad
        JSON, unreadable, not a dict) logs a warning and loads nothing
        — the affected structures rebuild through the normal cold path
        instead of the service crashing with a ``JSONDecodeError``.
        Individually malformed entries are skipped the same way. An
        explicit *version mismatch* on a well-formed file still raises
        ``ValueError``: that is a configuration error, not corruption.
        """
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no path given and cache has no default path")
        try:
            payload = json.loads(source.read_text())
        except (OSError, UnicodeDecodeError,
                json.JSONDecodeError) as exc:
            log.warning(
                "arch cache file %s is corrupt (%s); ignoring it — "
                "structures will rebuild", source, exc)
            return 0
        if not isinstance(payload, dict):
            log.warning(
                "arch cache file %s is corrupt (not a JSON object); "
                "ignoring it — structures will rebuild", source)
            return 0
        if payload.get("version") != _PERSIST_VERSION:
            raise ValueError(
                f"unsupported cache file version {payload.get('version')!r}")
        entries = payload.get("entries", [])
        if not isinstance(entries, list):
            log.warning(
                "arch cache file %s is corrupt (entries is not a "
                "list); ignoring it — structures will rebuild", source)
            return 0
        loaded = 0
        with self._lock:
            for raw in entries:
                try:
                    spec = PersistedSpec(**raw)
                except TypeError as exc:
                    log.warning(
                        "skipping malformed arch cache entry in %s: %s",
                        source, exc)
                    continue
                self._specs.setdefault(spec.key, spec)
                loaded += 1
        return loaded
