"""Content-addressed object cache: key isolation across configs and
seeds, hit/miss/evict accounting through repro.obs, cold==warm
determinism (single builds and ``build_many`` batches), LRU eviction,
and corrupt-entry recovery.
"""

from __future__ import annotations

import json
import pathlib

from repro import OUR_MPX, OUR_SEG
from repro.build import (
    BuildRequest,
    BuildSession,
    ObjectCache,
    dump_binary,
    object_cache_key,
)
from repro.config import ALL_CONFIGS
from repro.link.loader import load
from repro.obs import events
from repro.runtime.trusted import T_PROTOTYPES

PROGRAM = T_PROTOTYPES + """
int acc(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) { total = total + i; }
    return total;
}

int main() {
    print_int(acc(9));
    return acc(4);
}
"""

OTHER = T_PROTOTYPES + """
int main() { return 3; }
"""


class TestKeyIsolation:
    def test_configs_and_seeds_never_collide(self):
        keys = {
            object_cache_key(PROGRAM, config, seed)
            for config in (OUR_MPX, OUR_SEG)
            for seed in (1, 2)
        }
        assert len(keys) == 4

    def test_source_and_mode_isolated(self):
        base = object_cache_key(PROGRAM, OUR_MPX, 1)
        assert object_cache_key(OTHER, OUR_MPX, 1) != base
        assert object_cache_key(PROGRAM, OUR_MPX, 1, allow_undefined=True) != base

    def test_distinct_builds_occupy_distinct_entries(self, tmp_path):
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        for config in (OUR_MPX, OUR_SEG):
            for seed in (1, 2):
                session.build(PROGRAM, config, seed=seed)
        assert len(cache.entries()) == 4


class TestHitBehaviour:
    def test_hit_skips_codegen_span_and_counts(self, tmp_path):
        session = BuildSession(cache=ObjectCache(tmp_path))
        registry = events.Registry()
        with events.use(registry):
            cold = session.build(PROGRAM, OUR_MPX, seed=5)
            warm = session.build(PROGRAM, OUR_MPX, seed=5)
        names = [s.name for s in registry.spans]
        # Two full builds, but the warm one skipped every compile stage:
        # only the cold build recorded a codegen (or sema/lower/opt) span.
        assert names.count("compile.total") == 2
        assert names.count("compile.codegen") == 1
        assert names.count("compile.sema") == 1
        snap = registry.metrics_snapshot()
        assert snap["build.cache.hit"] == 1
        assert snap["build.cache.miss"] == 1
        assert snap["build.cache.store"] == 1
        assert dump_binary(cold) == dump_binary(warm)

    def test_cold_and_warm_binaries_equivalent(self, tmp_path):
        cache = ObjectCache(tmp_path)
        cold = BuildSession(cache=cache).build(PROGRAM, OUR_SEG, seed=9)
        # A brand-new session over the same cache directory — as a new
        # process would see it — must reproduce the binary exactly.
        warm = BuildSession(cache=cache).build(PROGRAM, OUR_SEG, seed=9)
        assert dump_binary(cold) == dump_binary(warm)
        p1, p2 = load(cold), load(warm)
        assert p1.run() == p2.run()
        assert p1.wall_cycles == p2.wall_cycles
        assert p1.stats.instructions == p2.stats.instructions

    def test_use_cache_false_bypasses(self, tmp_path):
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        registry = events.Registry()
        with events.use(registry):
            session.compile_unit(PROGRAM, OUR_MPX, seed=1, use_cache=False)
        assert cache.entries() == []
        assert "build.cache.miss" not in registry.metrics_snapshot()


def _requests():
    return [
        BuildRequest(source=source, config=config, seed=3)
        for source in (PROGRAM, OTHER)
        for config in ALL_CONFIGS.values()
    ]


class TestBuildMany:
    def test_results_arrive_in_request_order(self):
        seen = []

        class Recording(BuildSession):
            def build(self, source, config, **kwargs):
                seen.append((source, config))
                return super().build(source, config, **kwargs)

        requests = _requests()
        binaries = Recording().build_many(requests)
        assert seen == [(r.source, r.config) for r in requests]
        session = BuildSession()
        for request, binary in zip(requests, binaries, strict=True):
            assert binary.config == request.config
            single = session.build(request.source, request.config, seed=3)
            assert dump_binary(binary) == dump_binary(single)

    def test_warm_rebuild_hits_cache_for_every_unit(self, tmp_path):
        session = BuildSession(cache=ObjectCache(tmp_path))
        requests = _requests()
        cold = session.build_many(requests)
        registry = events.Registry()
        with events.use(registry):
            warm = session.build_many(requests)
        snap = registry.metrics_snapshot()
        assert snap["build.cache.hit"] == len(requests)
        assert "compile.codegen" not in {s.name for s in registry.spans}
        for a, b in zip(cold, warm, strict=True):
            assert dump_binary(a) == dump_binary(b)


class TestEviction:
    def test_lru_eviction_bounded(self, tmp_path):
        cache = ObjectCache(tmp_path, max_entries=2)
        session = BuildSession(cache=cache)
        registry = events.Registry()
        with events.use(registry):
            for seed in (1, 2, 3):
                session.build(PROGRAM, OUR_MPX, seed=seed)
        assert len(cache.entries()) == 2
        assert registry.metrics_snapshot()["build.cache.evict"] >= 1

    def test_stats_shape(self, tmp_path):
        cache = ObjectCache(tmp_path)
        BuildSession(cache=cache).build(PROGRAM, OUR_MPX, seed=1)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        cache.clear()
        assert cache.stats()["entries"] == 0


class TestCorruptEntryRecovery:
    def test_corrupt_entry_recompiled_and_overwritten(self, tmp_path):
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        good = session.build(PROGRAM, OUR_MPX, seed=2)
        digest, _, _ = cache.entries()[0]
        path = pathlib.Path(cache.path_for(digest))
        path.write_bytes(b"{ corrupt")

        registry = events.Registry()
        with events.use(registry):
            again = session.build(PROGRAM, OUR_MPX, seed=2)
        assert dump_binary(again) == dump_binary(good)
        snap = registry.metrics_snapshot()
        assert snap["build.cache.bad_entry"] == 1
        # The entry was rewritten with a valid object.
        json.loads(path.read_bytes().decode())
