"""Tests for the compiled-plan cache: LRU, TTL, invalidation, stampede."""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.serve import EVICT_INVALIDATED, EVICT_LRU, EVICT_TTL, PlanCache


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_cache(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return PlanCache(**kwargs)


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.get("k") is None
        cache.put("k", "plan")
        assert cache.get("k") == "plan"
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_ratio == 0.5

    def test_get_or_compile_compiles_once(self):
        cache = make_cache()
        calls = []

        def compile_fn():
            calls.append(1)
            return "plan"

        value, hit = cache.get_or_compile("k", compile_fn)
        assert (value, hit) == ("plan", False)
        value, hit = cache.get_or_compile("k", compile_fn)
        assert (value, hit) == ("plan", True)
        assert len(calls) == 1
        assert cache.stats().compiles == 1

    def test_contains_and_len(self):
        cache = make_cache()
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            make_cache(capacity=0)

    def test_metrics_wiring(self):
        metrics = MetricsRegistry()
        cache = make_cache(metrics=metrics)
        cache.get("missing")
        cache.put("k", 1)
        cache.get("k")
        assert metrics.counter("serve.cache.misses").value == 1
        assert metrics.counter("serve.cache.hits").value == 1


class TestLru:
    def test_lru_eviction_beyond_capacity(self):
        cache = make_cache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.stats().evictions == {EVICT_LRU: 1}

    def test_hit_promotes_entry(self):
        cache = make_cache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # a becomes most recent
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_replace_does_not_evict(self):
        cache = make_cache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10


class TestTtl:
    def test_entry_expires(self):
        clock = FakeClock()
        cache = make_cache(ttl_seconds=10, clock=clock)
        cache.put("k", "plan")
        assert cache.get("k") == "plan"
        clock.advance(10.0)
        assert cache.get("k") is None
        assert cache.stats().evictions == {EVICT_TTL: 1}

    def test_expired_entry_recompiles(self):
        clock = FakeClock()
        cache = make_cache(ttl_seconds=5, clock=clock)
        calls = []

        def compile_fn():
            calls.append(1)
            return "plan-%d" % len(calls)

        value, hit = cache.get_or_compile("k", compile_fn)
        assert value == "plan-1" and not hit
        clock.advance(6.0)
        value, hit = cache.get_or_compile("k", compile_fn)
        assert value == "plan-2" and not hit
        assert len(calls) == 2

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = make_cache(clock=clock)
        cache.put("k", "plan")
        clock.advance(1e9)
        assert cache.get("k") == "plan"

    def test_contains_respects_ttl(self):
        clock = FakeClock()
        cache = make_cache(ttl_seconds=1, clock=clock)
        cache.put("k", "plan")
        assert "k" in cache
        clock.advance(2.0)
        assert "k" not in cache


class TestInvalidation:
    def test_invalidate_by_key(self):
        cache = make_cache()
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate(key="a") == 1
        assert "a" not in cache and "b" in cache
        assert cache.stats().evictions == {EVICT_INVALIDATED: 1}

    def test_invalidate_by_fingerprint(self):
        cache = make_cache()
        cache.put(("s1", "x"), 1, fingerprint="fp-1")
        cache.put(("s2", "x"), 2, fingerprint="fp-1")
        cache.put(("s1", "y"), 3, fingerprint="fp-2")
        assert cache.invalidate(fingerprint="fp-1") == 2
        assert ("s1", "y") in cache
        assert len(cache) == 1

    def test_clear(self):
        cache = make_cache()
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestStampedeSuppression:
    def test_concurrent_misses_compile_once(self):
        cache = make_cache()
        started = threading.Barrier(8)
        release = threading.Event()
        calls = []

        def compile_fn():
            calls.append(1)
            release.wait(5.0)
            return "plan"

        results = []

        def worker():
            started.wait(5.0)
            results.append(cache.get_or_compile("k", compile_fn))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # All eight are now racing the same cold key; release the leader.
        release.set()
        for thread in threads:
            thread.join(5.0)
        assert len(calls) == 1
        assert len(results) == 8
        assert all(value == "plan" for value, _ in results)
        # exactly one miss-compile; the other 7 either waited on the
        # slot (suppressed) or arrived after publication (plain hits)
        stats = cache.stats()
        assert stats.compiles == 1
        assert stats.stampede_suppressed + stats.hits >= 7

    def test_leader_failure_propagates_to_waiters(self):
        cache = make_cache()
        started = threading.Barrier(4)
        release = threading.Event()
        boom = RuntimeError("compile failed")

        def compile_fn():
            release.wait(5.0)
            raise boom

        outcomes = []

        def worker():
            started.wait(5.0)
            try:
                cache.get_or_compile("k", compile_fn)
                outcomes.append("ok")
            except RuntimeError as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(5.0)
        # the leader raised; followers that were waiting got the same
        # error (late arrivals may have become leaders of a second
        # attempt, which also raises)
        assert outcomes.count("compile failed") == 4
        assert "k" not in cache

    def test_failed_compile_caches_nothing(self):
        cache = make_cache()

        def failing():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            cache.get_or_compile("k", failing)
        value, hit = cache.get_or_compile("k", lambda: "plan")
        assert value == "plan" and not hit
