"""Per-function profile: the block profiler's function roll-up."""

import pytest

from repro import BASE, OUR_MPX, compile_and_load
from repro.obs.blockprof import (
    BlockProfiler,
    attach_block_profiler,
    detach_block_profiler,
)
from repro.runtime.trusted import T_PROTOTYPES

SOURCE = T_PROTOTYPES + """
int hot_loop(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i * i; }
    return s;
}
int cold_helper(int x) { return x + 1; }
int main() {
    int r = hot_loop(500);
    r += cold_helper(1);
    return r & 255;
}
"""


class TestProfiler:
    def run_profiled(self, config):
        process = compile_and_load(SOURCE, config)
        profiler = attach_block_profiler(process.machine)
        process.run()
        return process, profiler

    def test_hot_function_dominates(self):
        _, profiler = self.run_profiled(BASE)
        rows = profiler.function_report()
        assert rows[0].name == "hot_loop"
        assert rows[0].cycle_share > 0.8

    def test_all_functions_appear(self):
        _, profiler = self.run_profiled(BASE)
        names = {r.name for r in profiler.function_report()}
        assert {"main", "hot_loop", "cold_helper"} <= names

    def test_totals_match_machine(self):
        process, profiler = self.run_profiled(BASE)
        profiled_total = sum(r.cycles for r in profiler.function_report())
        assert profiled_total == process.wall_cycles

    def test_instruction_counts_match(self):
        process, profiler = self.run_profiled(OUR_MPX)
        profiled = sum(r.instructions for r in profiler.function_report())
        assert profiled == process.stats.instructions

    def test_overhead_lands_in_the_hot_function(self):
        _, base_prof = self.run_profiled(BASE)
        _, mpx_prof = self.run_profiled(OUR_MPX)
        base_hot = next(
            r for r in base_prof.function_report() if r.name == "hot_loop"
        )
        mpx_hot = next(
            r for r in mpx_prof.function_report() if r.name == "hot_loop"
        )
        # hot_loop is pure register arithmetic after promotion, so MPX
        # adds little there; the instrumentation cost concentrates in
        # the prologue/CFI (still, it must not *shrink*).
        assert mpx_hot.cycles >= base_hot.cycles

    def test_top_limit(self):
        _, profiler = self.run_profiled(BASE)
        assert len(profiler.function_report(top=2)) == 2

    def test_report_sorted_desc(self):
        _, profiler = self.run_profiled(BASE)
        rows = profiler.function_report()
        assert all(
            rows[i].cycles >= rows[i + 1].cycles for i in range(len(rows) - 1)
        )

    def test_cfi_checks_attributed_per_function(self):
        process, profiler = self.run_profiled(OUR_MPX)
        rows = profiler.function_report()
        assert sum(r.cfi_checks for r in rows) == process.stats.cfi_checks
        assert process.stats.cfi_checks > 0

    def test_base_config_reports_zero_checks(self):
        _, profiler = self.run_profiled(BASE)
        rows = profiler.function_report()
        assert sum(r.bnd_checks for r in rows) == 0
        assert sum(r.cfi_checks for r in rows) == 0

    def test_detach_stops_accounting(self):
        process = compile_and_load(SOURCE, BASE)
        profiler = attach_block_profiler(process.machine)
        detach_block_profiler(process.machine, profiler)
        process.run()
        assert profiler.cycles == {}

    def test_report_ties_broken_by_name(self):
        """Equal-cycle rows come out in name order, so reports are
        stable run-to-run regardless of dict insertion order."""
        from types import SimpleNamespace

        labels = {"b_fn": 0, "a_fn": 10, "c_fn": 20}
        machine = SimpleNamespace(binary=SimpleNamespace(label_addrs=labels))
        profiler = BlockProfiler(machine)
        for name, cycles in (("b_fn", 5), ("c_fn", 5), ("a_fn", 5)):
            profiler.cycles[name] = cycles
            profiler.instructions[name] = 1
            profiler.block_start[name] = labels[name]
        rows = profiler.function_report()
        assert [r.name for r in rows] == ["a_fn", "b_fn", "c_fn"]

    def test_double_attach_same_profiler_raises(self):
        process = compile_and_load(SOURCE, BASE)
        profiler = attach_block_profiler(process.machine)
        with pytest.raises(ValueError):
            process.machine.add_step_hook(profiler.on_step)
