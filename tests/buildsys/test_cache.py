"""Content-addressed object cache: key isolation across configs and
seeds, hit/miss/evict accounting through repro.obs, cold==warm
determinism (single builds and ``build_many`` batches), library units
keyed by their signatures, LRU eviction, and corrupt-entry recovery.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro import BASE, OUR_MPX, OUR_SEG
from repro.apps.libmini import LIBMINI
from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.build import (
    BuildRequest,
    BuildSession,
    ObjectCache,
    dump_binary,
    load_uobject,
    object_cache_key,
)
from repro.build.library import LIBRARIES
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


#: The benchmark's SPEC configs: 11 kernels under these are 44 units.
SPEC_CONFIGS = (BASE, OUR_MPX, OUR_SEG, OUR_MPX.variant(checkopt="aggressive"))


def spec_requests(seed):
    return [
        BuildRequest(kernel_source(name), config, seed=seed,
                     verify=config.instrumented)
        for name in SPEC_NAMES
        for config in SPEC_CONFIGS
    ]


class TestLibraryUnits:
    def test_warm_spec_rebuild_hits_every_unit(self, tmp_path):
        cache = ObjectCache(tmp_path)
        requests = spec_requests(1)
        cold = BuildSession(cache=cache).build_many(requests)
        registry = events.Registry()
        with events.use(registry):
            warm = BuildSession(cache=cache).build_many(requests)
        snap = registry.metrics_snapshot()
        # Every kernel, plus libmini once per config.
        assert snap["build.cache.hit"] == len(requests) + len(SPEC_CONFIGS)
        assert "build.cache.miss" not in snap
        assert "compile.codegen" not in {s.name for s in registry.spans}
        for a, b in zip(cold, warm, strict=True):
            assert dump_binary(a) == dump_binary(b)

    def test_using_key_follows_signatures_not_bodies(self, monkeypatch):
        using = kernel_source("mcf")

        def keys():
            return (
                object_cache_key(using, OUR_MPX, 1),
                object_cache_key(LIBRARIES["libmini"], OUR_MPX, 1),
            )

        using_key, library_key = keys()
        monkeypatch.setitem(
            LIBRARIES, "libmini",
            LIBMINI.replace("int n = 0;", "int n = 0 + 0;", 1),
        )
        assert keys()[0] == using_key
        assert keys()[1] != library_key
        monkeypatch.setitem(
            LIBRARIES, "libmini",
            LIBMINI.replace("int mini_strlen(char *s)",
                            "int mini_strlen(private char *s)", 1),
        )
        assert keys()[0] != using_key

    def test_body_edit_rebuilds_only_the_library(self, tmp_path,
                                                 monkeypatch):
        cache = ObjectCache(tmp_path)
        using = kernel_source("lbm")
        BuildSession(cache=cache).build(using, OUR_MPX, seed=1)
        monkeypatch.setitem(
            LIBRARIES, "libmini",
            LIBMINI.replace("int n = 0;", "int n = 0 + 0;", 1),
        )
        registry = events.Registry()
        with events.use(registry):
            BuildSession(cache=cache).build(using, OUR_MPX, seed=1)
        snap = registry.metrics_snapshot()
        assert (snap["build.cache.hit"], snap["build.cache.miss"]) == (1, 1)


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

    def test_corrupt_but_json_entry_recompiled(self, tmp_path):
        """An entry that still parses as JSON but no longer decodes (an
        unknown instruction field) is a bad entry, not a crash."""
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        good = session.build(PROGRAM, OUR_MPX, seed=2)
        digest, _, _ = cache.entries()[0]
        path = pathlib.Path(cache.path_for(digest))
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"src":', b'"arc":', 1))
        json.loads(path.read_bytes().decode())

        registry = events.Registry()
        with events.use(registry):
            again = session.build(PROGRAM, OUR_MPX, seed=2)
        assert dump_binary(again) == dump_binary(good)
        assert registry.metrics_snapshot()["build.cache.bad_entry"] == 1
        assert path.read_bytes() == data

    def test_changed_operand_digit_fails_the_integrity_digest(self, tmp_path):
        """One changed digit in an instruction operand still decodes as
        a valid object; the entry's sha256 is what catches it."""
        source = kernel_source("mcf")
        cache = ObjectCache(tmp_path)
        session = BuildSession(cache=cache)
        good = session.build(source, OUR_MPX, seed=2)
        digest, _, _ = cache.entries()[0]
        path = pathlib.Path(cache.path_for(digest))
        entry = path.read_bytes()
        imm = b'{"$":"Imm","f":{"value":0}}'
        assert imm in entry
        corrupted = entry.replace(imm, imm.replace(b"0", b"1"), 1)
        payload = corrupted[corrupted.index(b'"object":') + 9 : -1]
        assert load_uobject(payload).functions  # still decodes
        path.write_bytes(corrupted)

        registry = events.Registry()
        with events.use(registry):
            again = session.build(source, OUR_MPX, seed=2)
        snap = registry.metrics_snapshot()
        assert snap["build.cache.bad_entry"] == 1
        assert "build.cache.hit" not in snap
        assert dump_binary(again) == dump_binary(good)
        assert path.read_bytes() == entry

    def test_entry_is_the_payload_and_its_digest(self, tmp_path):
        cache = ObjectCache(tmp_path)
        cache.put("ab" * 32, b'{"x":1}')
        entry = pathlib.Path(cache.path_for("ab" * 32)).read_bytes()
        assert json.loads(entry) == {
            "sha256": hashlib.sha256(b'{"x":1}').hexdigest(),
            "object": {"x": 1},
        }
        assert cache.get("ab" * 32) == b'{"x":1}'
