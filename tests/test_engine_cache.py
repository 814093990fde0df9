"""Tests for the engine's LRU memo tables and hit/miss accounting."""

import threading

from repro.engine.cache import EngineCaches, LRUCache


class TestLRUBasics:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=4, name="t")
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42

    def test_eviction_order_is_lru(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b becomes LRU
        cache.put("c", 3)       # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_unbounded_cache(self):
        cache = LRUCache(maxsize=None, name="t")
        for i in range(5000):
            cache.put(i, i)
        assert len(cache) == 5000
        assert cache.stats.evictions == 0


class TestHitAccounting:
    def test_hits_misses_counted(self):
        cache = LRUCache(maxsize=4, name="t")
        cache.get("x")                      # miss
        cache.put("x", 1)
        cache.get("x")                      # hit
        cache.get("y")                      # miss
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.puts == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_stats_as_dict_shape(self):
        cache = LRUCache(maxsize=4, name="norm")
        stats = cache.stats.as_dict()
        assert stats["name"] == "norm"
        for field in ("hits", "misses", "puts", "evictions", "hit_rate"):
            assert field in stats

    def test_engine_caches_bundle_stats(self):
        caches = EngineCaches(norm_size=8)
        caches.norm.put("k", "v")
        caches.norm.get("k")
        stats = caches.stats()
        assert stats["tables"]["norm"]["hits"] == 1
        assert set(stats["tables"]) == {
            "norm", "sat_pred", "equiv", "aut", "prog", "source"
        }
        assert stats["totals"]["hits"] >= 1


class TestThreadSafety:
    def test_concurrent_put_get(self):
        cache = LRUCache(maxsize=128, name="t")
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    cache.put((base, i % 64), i)
                    cache.get((base, (i + 1) % 64))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 128
