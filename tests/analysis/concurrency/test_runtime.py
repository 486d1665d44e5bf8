"""Dynamic lockset (Eraser) checker: races, inversions, install discipline.

The acceptance-critical cases mirror the static suite: the same two
injected bugs — an unguarded ``PredictionCache._entries`` mutation and a
lock-order inversion against a live ``ServingService`` — must be caught
at runtime by the instrumented wrappers.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import tsan
from repro.analysis.concurrency import runtime


class Box:
    """Plain attribute holder for Eraser state-machine tests."""

    def __init__(self):
        self.value = 0


def hammer(threads, fn, iterations=200):
    def loop():
        for _ in range(iterations):
            fn()

    workers = [threading.Thread(target=loop) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


class TestEraserStateMachine:
    def test_unguarded_cross_thread_write_races(self, tsan_runtime):
        box = Box()

        def mutate():
            tsan.note_access(box, "value", "write")
            box.value += 1

        hammer(2, mutate)
        races = tsan_runtime.races()
        assert races
        assert any(r["object"].endswith(".value") for r in races)
        with pytest.raises(AssertionError, match="race candidate"):
            tsan_runtime.assert_race_free()

    def test_sequential_threads_unguarded_writes_race(self, tsan_runtime):
        """Thread idents are reused once a thread exits; owners must not be.

        The second thread starts only after the first has joined and its
        OS thread has exited, so the two usually share
        ``threading.get_ident()``.  Each still counts as its own owner, and
        the unguarded write from the second is a race.
        """
        box = Box()

        def mutate():
            tsan.note_access(box, "value", "write")
            box.value += 1

        for _ in range(2):
            worker = threading.Thread(target=mutate)
            worker.start()
            worker.join()
            time.sleep(0.01)  # join returns before the OS thread is gone
        races = tsan_runtime.races()
        assert [r["object"] for r in races] == ["Box.value"]

    def test_consistently_guarded_writes_are_race_free(self, tsan_runtime):
        box = Box()
        lock = tsan.make_lock()

        def mutate():
            with lock:
                tsan.note_access(box, "value", "write")
                box.value += 1

        hammer(3, mutate)
        tsan_runtime.assert_race_free()

    def test_single_thread_ownership_is_race_free(self, tsan_runtime):
        """The InputCache contract: unguarded is fine while single-owner."""
        box = Box()
        for _ in range(100):
            tsan.note_access(box, "value", "write")
            box.value += 1
        tsan_runtime.assert_race_free()

    def test_cross_thread_reads_of_immutable_state_are_race_free(
            self, tsan_runtime):
        box = Box()
        tsan.note_access(box, "value", "write")  # construct on this thread
        done = threading.Event()

        def reader():
            for _ in range(100):
                tsan.note_access(box, "value", "read")
                _ = box.value
            done.set()

        t = threading.Thread(target=reader)
        t.start()
        t.join()
        assert done.is_set()
        tsan_runtime.assert_race_free()

    def test_rlock_guarding_counts(self, tsan_runtime):
        box = Box()
        lock = tsan.make_rlock()

        def mutate():
            with lock:
                with lock:  # reentrant acquire must not unbalance the stack
                    tsan.note_access(box, "value", "write")
                    box.value += 1

        hammer(2, mutate)
        tsan_runtime.assert_race_free()

    def test_ring_buffer_is_bounded(self, tsan_runtime):
        tsan_runtime.reset(capacity=64)
        box = Box()
        for _ in range(500):
            tsan.note_access(box, "value", "write")
        assert len(tsan_runtime.events()) <= 64
        tsan_runtime.reset()  # restore the default capacity


class TestLockOrder:
    def test_opposite_acquisition_orders_invert(self, tsan_runtime):
        a, b = tsan.make_lock(), tsan.make_lock()

        def ab():
            with a:
                with b:
                    pass

        def ba():
            with b:
                with a:
                    pass

        for fn in (ab, ba):
            t = threading.Thread(target=fn)
            t.start()
            t.join()
        assert tsan_runtime.inversions()
        with pytest.raises(AssertionError, match="lock-order cycle"):
            tsan_runtime.assert_no_lock_inversion()
        tsan_runtime.reset()

    def test_consistent_order_is_clean(self, tsan_runtime):
        a, b = tsan.make_lock(), tsan.make_lock()
        for _ in range(3):
            with a:
                with b:
                    pass
        assert tsan_runtime.lock_order_edges()
        tsan_runtime.assert_no_lock_inversion()


class TestConditionSemantics:
    def test_wait_releases_only_its_own_lock(self, tsan_runtime):
        cond = tsan.make_condition()
        box = Box()
        started = threading.Event()

        def waiter():
            with cond:
                started.set()
                ok = cond.wait_for(lambda: box.value > 0, timeout=5.0)
                assert ok
                tsan.note_access(box, "value", "write")
                box.value += 10

        t = threading.Thread(target=waiter)
        t.start()
        assert started.wait(timeout=5.0)
        with cond:
            tsan.note_access(box, "value", "write")
            box.value = 1
            cond.notify_all()
        t.join(timeout=5.0)
        assert box.value == 11
        tsan_runtime.assert_race_free()
        tsan_runtime.assert_no_lock_inversion()


class TestInstallDiscipline:
    def test_install_uninstall_restores_the_seam(self):
        was_installed = runtime.installed()
        runtime.install()
        try:
            assert runtime.installed()
            lock = tsan.make_lock()
            assert isinstance(lock, runtime.TsanLock)
        finally:
            if not was_installed:
                runtime.uninstall()
        if not was_installed:
            assert tsan.make_lock is threading.Lock
            assert tsan.make_rlock is threading.RLock
            assert tsan.make_condition is threading.Condition

    def test_install_is_idempotent(self, tsan_runtime):
        before = tsan.make_lock
        runtime.install()
        assert tsan.make_lock is before

    def test_install_from_env(self, monkeypatch):
        was_installed = runtime.installed()
        if was_installed:
            pytest.skip("session runs under REPRO_TSAN=1 already")
        assert runtime.install_from_env({"REPRO_TSAN": "0"}) is False
        assert not runtime.installed()
        assert runtime.install_from_env({"REPRO_TSAN": "1"}) is True
        try:
            assert runtime.installed()
        finally:
            runtime.uninstall()

    def test_uninstalled_note_access_is_a_noop(self):
        if runtime.installed():
            pytest.skip("session runs under REPRO_TSAN=1 already")
        tsan.note_access(object(), "anything", "write")  # must not record
        assert runtime.races() == []


class TestInjectedBugsDynamic:
    """Acceptance criteria: the static suite's injected bugs, caught live."""

    def test_unguarded_prediction_cache_mutation_races(self, tsan_runtime):
        from repro.serving.cache import PredictionCache

        cache = PredictionCache(capacity=64)
        stop = threading.Event()

        def legit():
            n = 0
            while not stop.is_set() and n < 400:
                cache.put(f"k{n % 8}", n)
                cache.get(f"k{(n + 1) % 8}")
                n += 1

        def injected():
            # The bug: mutating the LRU dict without taking cache._lock.
            for n in range(400):
                tsan.note_access(cache, "_entries", "write")
                cache._entries[f"x{n % 8}"] = n

        t1 = threading.Thread(target=legit)
        t2 = threading.Thread(target=injected)
        t1.start(); t2.start()
        t1.join(); t2.join()
        stop.set()
        races = tsan_runtime.races()
        assert any(r["object"].endswith("._entries") for r in races), races
        tsan_runtime.reset()

    def test_guarded_prediction_cache_use_is_race_free(self, tsan_runtime):
        from repro.serving.cache import PredictionCache

        cache = PredictionCache(capacity=64)

        def legit(base):
            for n in range(300):
                cache.put(f"{base}-{n % 16}", n)
                cache.get(f"{base}-{(n + 5) % 16}")

        workers = [threading.Thread(target=legit, args=(i,)) for i in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        tsan_runtime.assert_race_free()

    def test_service_lock_order_inversion_is_caught(self, tsan_runtime):
        """Acquire stats-lock -> shard-cond against the service's cond ->
        stats-lock order; the checker must report the cycle by lock name."""
        from repro.core import FeatureScaler, RouteNet
        from repro.serving import ServeConfig, ServingService

        scaler = FeatureScaler(
            capacity_scale=1.0, traffic_scale=1.0, load_scale=1.0,
            target_log_mean=0.0, target_log_std=1.0,
        )
        service = ServingService(
            RouteNet(seed=3), scaler,
            ServeConfig(workers=1, queue_depth=8),
        )
        try:
            # Production direction: submit/stats paths take cond then stats
            # lock; prime the edge without needing a full request.
            with service._conds[0]:
                with service._stats_lock:
                    pass
            # Injected inversion.
            with service._stats_lock:
                with service._conds[0]:
                    pass
            inversions = tsan_runtime.inversions()
            assert inversions
        finally:
            service.close(drain=False)
            tsan_runtime.reset()
