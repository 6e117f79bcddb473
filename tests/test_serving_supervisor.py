"""ShardSupervisor health machine, driven deterministically: the
monitor thread is never started — tests call :meth:`check` with
synthetic clocks against workers that never heartbeat on their own, so
every tier transition (healthy → suspect → kill) is exact."""

import multiprocessing
import queue
import time

import pytest

from repro.faults.breaker import CLOSED, OPEN
from repro.serving.supervisor import (FAILED, HEALTHY, RESTARTING, SHUTDOWN,
                                      STARTING, STOPPED, SUSPECT,
                                      ShardSupervisor)


# Module-level so spawn contexts could pickle them (fork is the Linux
# default, but the targets stay importable either way).
def _silent_worker(index, generation, request_q, result_q, heartbeat,
                   cancel_event, config):
    """Never touches its heartbeat — the test script owns the clock."""
    while True:
        try:
            msg = request_q.get(timeout=0.05)
        except queue.Empty:
            continue
        if msg == SHUTDOWN:
            result_q.put(("bye", generation))
            return


def _acking_worker(index, generation, request_q, result_q, heartbeat,
                   cancel_event, config):
    """Heartbeats and acknowledges cooperative-cancel pokes."""
    while True:
        heartbeat.value = time.time()
        if cancel_event.is_set():
            cancel_event.clear()
            result_q.put(("acked", generation))
        try:
            msg = request_q.get(timeout=0.02)
        except queue.Empty:
            continue
        if msg == SHUTDOWN:
            return


def _deaf_worker(index, generation, request_q, result_q, heartbeat,
                 cancel_event, config):
    """Never reads its queue — the drain sentinel falls on deaf ears."""
    while True:
        time.sleep(0.5)


def _make(shards=1, target=_silent_worker, **kw):
    kw.setdefault("soft_timeout", 0.5)
    kw.setdefault("hard_timeout", 2.0)
    kw.setdefault("restart_backoff_base", 0.05)
    kw.setdefault("restart_backoff_max", 0.2)
    return ShardSupervisor(shards, target, None, **kw)


def _wait_dead(process, timeout=10.0):
    process.join(timeout=timeout)
    assert not process.is_alive()


@pytest.fixture()
def sup():
    supervisor = _make()
    yield supervisor
    supervisor.drain(timeout=10.0)


class TestValidation:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardSupervisor(0, _silent_worker)

    def test_rejects_inverted_timeouts(self):
        with pytest.raises(ValueError):
            ShardSupervisor(1, _silent_worker, soft_timeout=2.0,
                            hard_timeout=1.0)


class TestHealthTiers:
    def test_check_spawns_and_fresh_heartbeat_is_healthy(self, sup):
        sup.check()  # handle is None + restart_at 0 -> spawn
        handle = sup.handle(0)
        assert handle.alive
        assert handle.state == STARTING
        assert handle.generation == 1
        sup.check(time.time())  # age ~0 < soft -> healthy
        assert handle.state == HEALTHY
        assert sup.routable_indices() == [0]

    def test_soft_timeout_suspects_and_pokes_cancel(self, sup):
        sup.check()
        handle = sup.handle(0)
        spawn_at = float(handle.heartbeat.value)
        sup.check(spawn_at + 0.6)  # soft < age < hard
        assert handle.state == SUSPECT
        assert handle.cancel_event.is_set()
        assert sup.stats()["heartbeat_misses"] == [1]
        # Suspect shards still take new work (degraded, not dead).
        assert sup.routable_indices() == [0]
        # Staying suspect does not double-count the miss.
        sup.check(spawn_at + 0.7)
        assert sup.stats()["heartbeat_misses"] == [1]

    def test_heartbeat_resumption_recovers_without_restart(self, sup):
        sup.check()
        handle = sup.handle(0)
        spawn_at = float(handle.heartbeat.value)
        sup.check(spawn_at + 0.6)
        assert handle.state == SUSPECT
        handle.heartbeat.value = spawn_at + 1.0  # worker came back
        sup.check(spawn_at + 1.1)
        assert handle.state == HEALTHY
        assert sup.stats()["restarts"] == [0]
        assert sup.handle(0) is handle  # same incarnation

    def test_hard_timeout_kills_and_schedules_restart(self, sup):
        sup.check()
        first = sup.handle(0)
        spawn_at = float(first.heartbeat.value)
        downs = []
        sup.on_shard_down = lambda h, reason: downs.append((h, reason))
        sup.check(spawn_at + 3.0)  # past hard tier -> SIGKILL
        assert not first.alive
        assert downs == [(first, "stall")]
        assert first.state == RESTARTING
        assert sup.handle(0) is None
        assert sup.routable_indices() == []
        assert sup.stats()["restarts"] == [1]
        # Backoff elapsed -> replacement with a bumped generation.
        sup.check(spawn_at + 3.0 + sup.restart_backoff_base)
        second = sup.handle(0)
        assert second is not None and second.generation == 2
        assert second.request_q is not first.request_q  # fresh queues

    def test_crash_is_detected_and_restarted(self, sup):
        sup.check()
        first = sup.handle(0)
        downs = []
        sup.on_shard_down = lambda h, reason: downs.append(reason)
        first.process.kill()
        _wait_dead(first.process)
        now = time.time()
        sup.check(now)
        assert downs == ["crash"]
        assert sup.handle(0) is None
        # Not yet: backoff still pending.
        sup.check(now + sup.restart_backoff_base / 2)
        assert sup.handle(0) is None
        sup.check(now + sup.restart_backoff_base + 0.01)
        assert sup.handle(0) is not None
        assert sup.handle(0).generation == 2

    def test_cooperative_cancel_is_acknowledged(self):
        sup = _make(target=_acking_worker, soft_timeout=0.3,
                    hard_timeout=10.0)
        try:
            sup.check()
            handle = sup.handle(0)
            # Force the suspect tier with a sweep clock past the soft
            # timeout (the live worker keeps rewriting its heartbeat, so
            # rewinding that would race it), then let the worker notice
            # the poke.
            sup.check(time.time() + 1.0)
            assert handle.state == SUSPECT
            kind, generation = handle.result_q.get(timeout=10.0)
            assert (kind, generation) == ("acked", 1)
            assert not handle.cancel_event.is_set()
            sup.check(time.time())  # heartbeat resumed -> healthy
            assert handle.state == HEALTHY
        finally:
            sup.drain(timeout=10.0)


class TestBreaker:
    def test_flapping_shard_fails_then_half_open_probe(self):
        sup = _make(breaker_threshold=2, breaker_reset_seconds=5.0)
        try:
            sup.check()
            now = time.time()
            for expected_restarts in (1, 2):
                handle = sup.handle(0)
                handle.process.kill()
                _wait_dead(handle.process)
                sup.check(now)
                assert sup.stats()["restarts"] == [expected_restarts]
                if expected_restarts < 2:
                    sup.check(now + sup.restart_backoff_max + 0.01)
                    now += sup.restart_backoff_max + 0.01
            # Two consecutive failures: breaker open, shard failed.
            assert sup.breakers[0].state == OPEN
            assert sup.states() == [FAILED]
            # Inside the window nothing respawns, however long we wait.
            sup.check(now + 4.0)
            assert sup.handle(0) is None
            # Past the window: one half-open probe restart.
            sup.check(now + 5.1)
            probe = sup.handle(0)
            assert probe is not None and probe.generation == 3
            # A healthy heartbeat closes the breaker again.
            probe.heartbeat.value = now + 5.2
            sup.check(now + 5.2)
            assert sup.breakers[0].state == CLOSED
            assert sup.states() == [HEALTHY]
        finally:
            sup.drain(timeout=10.0)


class TestDrain:
    def test_drain_reaps_cleanly(self):
        sup = _make(shards=2)
        sup.check()
        handles = [sup.handle(0), sup.handle(1)]
        assert all(h.alive for h in handles)
        exitcodes = sup.drain(timeout=10.0)
        assert exitcodes == {0: 0, 1: 0}  # sentinel honored, clean exit
        assert all(h.state == STOPPED for h in handles)
        assert all(not h.alive for h in handles)
        assert multiprocessing.active_children() == []

    def test_drain_escalates_on_deaf_worker(self):
        # A worker that never reads its queue is terminated, not
        # waited on forever.
        sup = _make(target=_deaf_worker)
        sup.check()
        handle = sup.handle(0)
        t0 = time.monotonic()
        exitcodes = sup.drain(timeout=0.5)
        assert time.monotonic() - t0 < 8.0
        assert exitcodes[0] != 0  # terminated, not clean
        assert not handle.alive

    def test_check_after_drain_is_inert(self):
        sup = _make()
        sup.check()
        sup.drain(timeout=10.0)
        sup.check()
        assert sup.handle(0) is None

    def test_monitor_thread_lifecycle(self):
        sup = _make(soft_timeout=5.0, hard_timeout=10.0)
        sup.start()
        try:
            assert sup._monitor.is_alive()
            deadline = time.monotonic() + 10.0
            while sup.handle(0) is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sup.handle(0).alive
        finally:
            sup.drain(timeout=10.0)
        assert not sup._monitor.is_alive()
