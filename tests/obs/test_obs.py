"""Tests for repro.obs: spans, metrics, trace export, zero-cost-off."""

from __future__ import annotations

import json

import pytest

from repro import OUR_MPX, OUR_SEG, compile_and_load
from repro.compiler import compile_source
from repro.link.loader import load
from repro.obs import events, export
from repro.obs.blockprof import attach_block_profiler, detach_block_profiler
from repro.obs.metrics import flat_key, label_items
from repro.runtime.trusted import T_PROTOTYPES

PROGRAM = T_PROTOTYPES + """
int sum_heap(int *buf, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        buf[i] = i * 3;
        acc = acc + buf[i];
    }
    return acc;
}

int main() {
    private char secret[8];
    read_passwd("u", secret, 8);
    int *buf = (int*)malloc_pub(40 * sizeof(int));
    print_int(sum_heap(buf, 40));
    free_pub((char*)buf);
    return 0;
}
"""


def compile_run(registry=None, config=OUR_MPX, seed=7):
    """Compile + run PROGRAM, optionally under an obs registry."""
    if registry is None:
        binary = compile_source(PROGRAM, config, seed=seed)
        process = load(binary)
        process.run()
        return binary, process
    with events.use(registry):
        binary = compile_source(PROGRAM, config, seed=seed)
        process = load(binary)
        process.run()
    return binary, process


class TestMetricsPrimitives:
    def test_label_items_sorted(self):
        assert label_items({"b": 1, "a": "x"}) == (("a", "x"), ("b", "1"))

    def test_flat_key(self):
        assert flat_key("m", ()) == "m"
        assert flat_key("m", (("k", "v"), ("z", "2"))) == "m{k=v,z=2}"

    def test_counter_identity_and_inc(self):
        registry = events.Registry()
        registry.counter("c", kind="bnd").inc()
        registry.counter("c", kind="bnd").inc(2)
        registry.counter("c", kind="cfi").inc()
        snap = registry.metrics_snapshot()
        assert snap["c{kind=bnd}"] == 3
        assert snap["c{kind=cfi}"] == 1

    def test_histogram_summary(self):
        registry = events.Registry()
        hist = registry.histogram("h")
        for v in (3, -1, 4):
            hist.observe(v)
        assert registry.metrics_snapshot()["h"] == {
            "count": 3, "total": 6, "min": -1, "max": 4,
        }


class TestSpans:
    def test_nesting_depth_and_parent(self):
        registry = events.Registry()
        with events.use(registry):
            with events.span("outer"):
                with events.span("inner"):
                    pass
                with events.span("inner2"):
                    pass
        spans = {s.name: s for s in registry.spans}
        assert spans["outer"].depth == 0
        assert spans["outer"].parent is None
        assert spans["inner"].depth == 1
        assert spans["inner"].parent == "outer"
        assert spans["inner2"].parent == "outer"
        # Children close before the parent, so they are recorded first,
        # and their intervals sit inside the parent's.
        names = [s.name for s in registry.spans]
        assert names == ["inner", "inner2", "outer"]
        outer, inner = spans["outer"], spans["inner"]
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-6

    def test_compile_emits_stage_spans(self):
        registry = events.Registry()
        compile_run(registry)
        names = {s.name for s in registry.spans}
        for stage in (
            "compile.total", "compile.lex", "compile.parse", "compile.sema",
            "compile.taint-solve", "compile.lower", "compile.opt",
            "compile.codegen", "compile.regalloc", "compile.link",
            "machine.run",
        ):
            assert stage in names, f"missing span {stage}"
        total = next(s for s in registry.spans if s.name == "compile.total")
        sema = next(s for s in registry.spans if s.name == "compile.sema")
        assert sema.parent == "compile.total"
        assert sema.depth == 1
        assert total.args["config"] == OUR_MPX.name

    def test_machine_span_uses_cycle_clock(self):
        registry = events.Registry()
        _, process = compile_run(registry)
        run_span = next(s for s in registry.spans if s.name == "machine.run")
        assert run_span.clock == events.CYCLES
        assert run_span.dur == process.wall_cycles


class TestChromeTrace:
    def test_schema_and_round_trip(self, tmp_path):
        registry = events.Registry()
        compile_run(registry)
        path = tmp_path / "trace.json"
        export.write_chrome_trace(registry, str(path))
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        trace_events = data["traceEvents"]
        complete = [e for e in trace_events if e["ph"] == "X"]
        meta = [e for e in trace_events if e["ph"] == "M"]
        assert complete and meta
        for event in complete:
            for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
                assert key in event
        names = {e["name"] for e in complete}
        assert "compile.total" in names
        assert "machine.run" in names

    def test_two_clocks_two_pids(self):
        registry = events.Registry()
        compile_run(registry)
        trace = export.to_chrome_trace(registry)
        pids = {
            e["name"]: e["pid"]
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        }
        assert pids["compile.total"] == 1
        assert pids["machine.run"] == 2


class TestDeterminism:
    def test_metrics_identical_across_identical_runs(self):
        snaps = []
        for _ in range(2):
            registry = events.Registry()
            compile_run(registry, seed=3)
            snaps.append(registry.metrics_snapshot())
        assert snaps[0] == snaps[1]

    def test_tracing_off_does_not_change_code_or_cycles(self):
        binary_off, process_off = compile_run(None, seed=5)
        registry = events.Registry()
        binary_on, process_on = compile_run(registry, seed=5)
        off = [insn.encoding() for insn in binary_off.code]
        on = [insn.encoding() for insn in binary_on.code]
        assert off == on
        assert process_off.wall_cycles == process_on.wall_cycles

    def test_machine_counters_match_process_stats(self):
        registry = events.Registry()
        _, process = compile_run(registry)
        snap = registry.metrics_snapshot()
        stats = process.stats
        assert snap["machine.instructions"] == stats.instructions
        assert snap["machine.checks{kind=bnd}"] == stats.bnd_checks
        assert snap["machine.checks{kind=cfi}"] == stats.cfi_checks
        assert snap["machine.t_calls"] == stats.t_calls
        assert snap["machine.cycles.wall"] == process.wall_cycles

    def test_runtime_counters_present(self):
        registry = events.Registry()
        compile_run(registry)
        snap = registry.metrics_snapshot()
        t_calls = {
            key: val for key, val in snap.items()
            if key.startswith("runtime.t_calls{")
        }
        assert sum(t_calls.values()) == snap["machine.t_calls"]
        assert any(
            key.startswith("runtime.range_checks{") for key in snap
        )


class TestProfilerHooks:
    def test_double_attach_same_hook_raises(self):
        process = compile_and_load(PROGRAM, OUR_MPX)
        profiler = attach_block_profiler(process.machine)
        with pytest.raises(ValueError):
            process.machine.add_step_hook(profiler.on_step)
        detach_block_profiler(process.machine, profiler)
        # After detach, re-attaching the same hook is fine again.
        process.machine.add_step_hook(profiler.on_step)

    def test_two_profilers_do_not_double_count(self):
        process = compile_and_load(PROGRAM, OUR_MPX)
        first = attach_block_profiler(process.machine)
        second = attach_block_profiler(process.machine)
        process.run()
        assert sum(first.cycles.values()) == sum(second.cycles.values())
        assert sum(first.cycles.values()) == process.wall_cycles

    def test_per_function_check_counts_match_stats(self):
        process = compile_and_load(PROGRAM, OUR_MPX)
        profiler = attach_block_profiler(process.machine)
        process.run()
        stats = process.stats
        rows = profiler.function_report()
        assert sum(r.bnd_checks for r in rows) == stats.bnd_checks
        assert sum(r.cfi_checks for r in rows) == stats.cfi_checks
        assert sum(r.instructions for r in rows) == stats.instructions
        by_name = {r.name: r for r in rows}
        assert by_name["sum_heap"].bnd_checks > 0

    def test_hooks_off_by_default(self):
        process = compile_and_load(PROGRAM, OUR_MPX)
        assert process.machine._step_hooks == []


class TestNullObjects:
    def test_helpers_inert_when_inactive(self):
        assert events.active() is None
        with events.span("x"):
            events.counter("c").inc()
            events.histogram("h").observe(1)
        assert events.span("x") is events.NULL_SPAN
        assert events.counter("c") is events.NULL_METRIC

    def test_use_restores_previous(self):
        outer_registry = events.Registry()
        inner_registry = events.Registry()
        with events.use(outer_registry):
            with events.use(inner_registry):
                assert events.active() is inner_registry
            assert events.active() is outer_registry
        assert events.active() is None


class TestSegConfig:
    def test_seg_run_has_no_bnd_checks(self):
        registry = events.Registry()
        _, process = compile_run(registry, config=OUR_SEG)
        snap = registry.metrics_snapshot()
        assert snap["machine.checks{kind=bnd}"] == 0
        assert process.stats.bnd_checks == 0
