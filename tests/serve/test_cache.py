"""Tests for the compiled-plan cache: LRU, invalidation, stampede."""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.serve import EVICT_INVALIDATED, EVICT_LRU, PlanCache


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


    @pytest.mark.parametrize("removed", ["ttl_seconds", "clock"])
    def test_no_time_based_expiry(self, removed):
        # a plan goes stale through its key (fingerprint, statistics),
        # never through age: the cache takes no TTL and no clock
        with pytest.raises(TypeError):
            PlanCache(**{removed: 1})


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
        # the tallies stats() reads agree with the exported counter
        assert stats.stampede_suppressed == cache.metrics.counter(
            "serve.cache.stampede_suppressed").value

    def test_concurrent_misses_on_many_keys_count_exactly(self):
        """Many threads over a few cold keys: each key compiles once,
        and every lookup is counted once as a hit, a miss or a
        suppressed wait, in ``stats()`` and in the exported counters."""
        cache = make_cache()
        keys = ["k%d" % n for n in range(4)]
        threads_per_key = 6
        started = threading.Barrier(len(keys) * threads_per_key)
        calls = []
        calls_lock = threading.Lock()

        def compile_fn(key):
            with calls_lock:
                calls.append(key)
            return "plan-" + key

        results = []

        def worker(key):
            started.wait(5.0)
            for _ in range(10):
                results.append(
                    (key, cache.get_or_compile(key,
                                               lambda: compile_fn(key))))

        threads = [threading.Thread(target=worker, args=(key,))
                   for key in keys for _ in range(threads_per_key)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert sorted(calls) == keys
        assert len(results) == len(threads) * 10
        assert all(value == "plan-" + key for key, (value, _) in results)
        stats = cache.stats()
        assert stats.compiles == len(keys)
        assert stats.hits + stats.misses == len(results)
        assert stats.misses == len(keys) + stats.stampede_suppressed
        counters = cache.metrics
        assert stats.hits == counters.counter("serve.cache.hits").value
        assert stats.misses == counters.counter("serve.cache.misses").value
        assert stats.stampede_suppressed == counters.counter(
            "serve.cache.stampede_suppressed").value

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
