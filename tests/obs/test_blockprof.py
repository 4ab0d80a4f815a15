"""Block profiler: attribution totals, edges, check sites, exporters,
check-site metadata, and zero-cost-when-off."""

from __future__ import annotations

from repro import BASE, OUR_MPX, OUR_SEG, compile_and_load
from repro.backend.isa import CHECK_CATEGORIES, check_kind
from repro.build import dump_binary, load_binary
from repro.compiler import compile_source
from repro.link.loader import load
from repro.obs import events
from repro.obs.blockprof import (
    SAMPLE_STRIDE,
    attach_block_profiler,
    detach_block_profiler,
    write_flamegraph,
)
from repro.runtime.trusted import T_PROTOTYPES, TrustedRuntime
from repro.verifier import expected_check_sites, verify_check_sites

import pytest

from repro.errors import VerifyError

SOURCE = T_PROTOTYPES + """
int sum_heap(int *buf, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        buf[i] = i * 3;
        acc = acc + buf[i];
    }
    return acc;
}

int main() {
    int *buf = (int*)malloc_pub(400 * sizeof(int));
    print_int(sum_heap(buf, 400));
    free_pub((char*)buf);
    return 0;
}
"""


def run_profiled(config, engine="superblock", seed=7):
    binary = compile_source(SOURCE, config, seed=seed)
    process = load(binary, runtime=TrustedRuntime(), engine=engine)
    prof = attach_block_profiler(process.machine)
    process.run()
    return process, prof


class TestBlockAttribution:
    def test_cycles_and_instructions_sum_to_machine_totals(self):
        process, prof = run_profiled(OUR_MPX)
        assert sum(prof.cycles.values()) == process.wall_cycles
        assert sum(prof.instructions.values()) == process.stats.instructions

    def test_cache_misses_sum_to_machine_totals(self):
        process, prof = run_profiled(OUR_MPX)
        machine_misses = sum(c.misses for c in process.machine.caches)
        assert machine_misses > 0
        assert sum(prof.cache_misses.values()) == machine_misses

    def test_hot_loop_block_dominates(self):
        _, prof = run_profiled(BASE)
        rows = prof.report()
        # The Privado-style observation: one tight loop body owns the
        # bulk of the cycles.
        assert rows[0].func == "sum_heap"
        assert rows[0].cycle_share > 0.5

    def test_blocks_roll_up_to_function_profile(self):
        _, prof = run_profiled(OUR_MPX)
        by_func: dict[str, list[int]] = {}
        for row in prof.report():
            totals = by_func.setdefault(row.func, [0, 0, 0, 0])
            totals[0] += row.cycles
            totals[1] += row.instructions
        for site in prof.check_sites():
            if site.category in ("bnd", "cfi"):
                totals = by_func.setdefault(site.func, [0, 0, 0, 0])
                totals[2 if site.category == "bnd" else 3] += site.count
        rows = prof.function_report()
        assert {
            r.name: [r.cycles, r.instructions, r.bnd_checks, r.cfi_checks]
            for r in rows
        } == by_func
        assert by_func["sum_heap"][2] > 0
        assert sum(r.cycle_share for r in rows) == pytest.approx(1.0)

    def test_report_sorted_cycles_desc_then_name(self):
        _, prof = run_profiled(BASE)
        rows = prof.report()
        keys = [(-r.cycles, r.name) for r in rows]
        assert keys == sorted(keys)

    def test_edges_connect_known_blocks(self):
        _, prof = run_profiled(BASE)
        assert prof.edges
        blocks = set(prof.cycles)
        for (src, dst), count in prof.edges.items():
            assert src in blocks and dst in blocks
            assert count > 0
        # The loop back-edge is the hottest edge.
        (src, dst, count) = prof.edge_report(top=1)[0]
        assert count > 100

    def test_detach_stops_accounting(self):
        binary = compile_source(SOURCE, BASE, seed=7)
        process = load(binary, runtime=TrustedRuntime())
        prof = attach_block_profiler(process.machine)
        detach_block_profiler(process.machine, prof)
        process.run()
        assert prof.cycles == {}


class TestCheckAttribution:
    def test_site_counts_match_machine_stats(self):
        process, prof = run_profiled(OUR_MPX)
        summary = prof.check_summary()
        assert set(summary) == set(CHECK_CATEGORIES)
        assert summary["bnd"]["count"] == process.stats.bnd_checks
        assert summary["cfi"]["count"] == process.stats.cfi_checks
        assert summary["bnd"]["count"] > 0

    def test_every_site_is_a_recorded_check_site(self):
        binary = compile_source(SOURCE, OUR_MPX, seed=7)
        process = load(binary, runtime=TrustedRuntime())
        prof = attach_block_profiler(process.machine)
        process.run()
        for row in prof.check_sites():
            assert binary.check_sites.get(row.addr) == row.category
            assert row.count > 0
            assert row.cycles >= 0

    def test_seg_config_has_no_bnd_sites(self):
        _, prof = run_profiled(OUR_SEG)
        summary = prof.check_summary()
        assert summary["bnd"]["count"] == 0
        assert summary["cfi"]["count"] > 0

    def test_decomposition_is_exact(self):
        """sum(per-category cycles) + other == cycle delta over Base."""
        base_process, _ = run_profiled(BASE)
        for config in (OUR_MPX, OUR_SEG):
            process, prof = run_profiled(config)
            delta = process.wall_cycles - base_process.wall_cycles
            summary = prof.check_summary()
            check_total = sum(c["cycles"] for c in summary.values())
            other = delta - check_total
            assert check_total + other == delta
            assert check_total > 0


class TestCheckSiteMetadata:
    def test_linker_records_every_check(self):
        binary = compile_source(SOURCE, OUR_MPX, seed=7)
        assert binary.check_sites == expected_check_sites(binary)
        assert set(binary.check_sites.values()) <= set(CHECK_CATEGORIES)
        kinds = set(binary.check_sites.values())
        assert {"bnd", "cfi", "magic", "chkstk"} <= kinds
        for addr, kind in binary.check_sites.items():
            assert check_kind(binary.code[addr]) == kind

    def test_serialize_round_trips_check_sites(self):
        binary = compile_source(SOURCE, OUR_MPX, seed=7)
        clone = load_binary(dump_binary(binary))
        assert clone.check_sites == binary.check_sites
        verify_check_sites(clone)

    def test_stale_metadata_rejected(self):
        binary = compile_source(SOURCE, OUR_MPX, seed=7)
        verify_check_sites(binary)
        addr = next(iter(binary.check_sites))
        del binary.check_sites[addr]
        with pytest.raises(VerifyError) as err:
            verify_check_sites(binary)
        assert "check-sites-stale" in str(err.value)


class TestZeroCostOff:
    def test_attaching_profiler_does_not_change_cycles(self):
        binary = compile_source(SOURCE, OUR_MPX, seed=7)
        plain = load(binary, runtime=TrustedRuntime())
        plain.run()
        profiled = load(binary, runtime=TrustedRuntime())
        attach_block_profiler(profiled.machine)
        profiled.run()
        assert plain.wall_cycles == profiled.wall_cycles
        assert plain.stats.instructions == profiled.stats.instructions


class TestExporters:
    def test_flamegraph_lines_sorted_and_sum_to_wall(self, tmp_path):
        process, prof = run_profiled(BASE)
        lines = prof.flamegraph_lines()
        assert lines == sorted(lines)
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == process.wall_cycles
        assert any(";" in line for line in lines)
        path = tmp_path / "out.folded"
        write_flamegraph(prof, str(path))
        assert path.read_text().splitlines() == lines

    def test_samples_recorded_at_deterministic_strides(self):
        process, prof = run_profiled(OUR_MPX)
        assert process.stats.instructions > SAMPLE_STRIDE
        assert prof.samples
        steps = [s for s, _ts, _v in prof.samples]
        assert steps == [SAMPLE_STRIDE * (i + 1) for i in range(len(steps))]
        ts = [t for _s, t, _v in prof.samples]
        assert ts == sorted(ts)

    def test_publish_folds_into_registry_counter_tracks(self):
        registry = events.Registry()
        process, prof = run_profiled(OUR_MPX)
        prof.publish(registry)
        snap = registry.metrics_snapshot()
        assert (
            snap["blockprof.check_count{kind=bnd}"]
            == process.stats.bnd_checks
        )
        samples = registry.counter_samples
        assert samples
        names = {s.name for s in samples}
        assert "blockprof.check_cycles.bnd" in names
        assert "blockprof.cache_misses" in names
        # The final sample carries the end-of-run totals.
        last_bnd = [
            s for s in samples if s.name == "blockprof.check_cycles.bnd"
        ][-1]
        assert last_bnd.value == prof.check_summary()["bnd"]["cycles"]
