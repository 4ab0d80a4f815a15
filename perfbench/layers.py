"""The layer map: which public calls the traced run wraps, what each
span is called, and how spans and counts become per-layer metrics.

Every span name below is a layer of the program (see README.md for the
end-to-end metric each one should move, and on which workload).
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.build import session as session_mod
from repro.build.cache import ObjectCache
from repro.build.session import BuildSession
from repro.link import loader as loader_mod
from repro.serve import image as image_mod
from repro.verifier import verify as verify_mod

from spans import Probe

#: Span name of each wrapped layer call -> per-layer time metric.
LAYER_TIME_METRICS = {
    "minic.parse": "minic.parse_s",
    "sema.analyze": "sema.analyze_s",
    "frontend.lower": "frontend.lower_s",
    "opt.optimize": "opt.optimize_s",
    "backend.codegen": "backend.codegen_s",
    "checkopt.run": "checkopt.run_s",
    "link.link": "link.link_s",
    "verifier.verify": "verifier.verify_s",
    "build.dump": "build.dump_s",
    "build.load_uobject": "build.load_uobject_s",
    "build.cache_get": "build.cache_get_s",
    "build.cache_put": "build.cache_put_s",
    "loader.load": "loader.load_s",
    "serve.warm_image": "serve.warm_image_s",
    "serve.fork": "serve.fork_s",
    "serve.reset": "serve.reset_s",
    "serve.handle": "serve.handle_s",
}
#: ``machine.run`` is split by pass (first run / repeat run) by the
#: spec-run workload, so it is not in the flat map above.
LAYERS = frozenset(LAYER_TIME_METRICS) | {"machine.run"}

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = [
    ("minic.parse_s", "s"),
    ("minic.src_kb_per_s", "kB/s"),
    ("sema.analyze_s", "s"),
    ("frontend.lower_s", "s"),
    ("ir.insns_lowered", "count"),
    ("opt.optimize_s", "s"),
    ("ir.insns_opt", "count"),
    ("opt.witness_rejected", "count"),
    ("backend.codegen_s", "s"),
    ("backend.isa_insns", "count"),
    ("checkopt.run_s", "s"),
    ("checkopt.bndchk_elided", "count"),
    ("link.link_s", "s"),
    ("verifier.verify_s", "s"),
    ("build.dump_s", "s"),
    ("build.load_uobject_s", "s"),
    ("build.object_kb", "kB"),
    ("build.cache_get_s", "s"),
    ("build.cache_put_s", "s"),
    ("build.cache_hit_ratio", "ratio"),
    ("build.cache_lookups", "count"),
    ("build.parallel_eff", "ratio"),
    ("build.executor_idle_s", "s"),
    ("loader.load_s", "s"),
    ("machine.run_first_s", "s"),
    ("machine.run_repeat_s", "s"),
    ("machine.fused_blocks", "count"),
    ("machine.sim_mcycles_per_s", "Mcycles/s"),
    ("machine.instructions", "count"),
    ("machine.bnd_checks", "count"),
    ("machine.cfi_checks", "count"),
    ("machine.l1_miss_ratio", "ratio"),
    ("runtime.t_calls", "count"),
    ("serve.warm_image_s", "s"),
    ("serve.fork_s", "s"),
    ("serve.reset_s", "s"),
    ("serve.handle_s", "s"),
    ("serve.req_cycles", "cycles"),
    ("serve.lat_p50_ms.low", "ms"),
    ("serve.lat_p99_ms.low", "ms"),
    ("serve.samples.low", "count"),
    ("serve.lat_p50_ms.mid", "ms"),
    ("serve.lat_p99_ms.mid", "ms"),
    ("serve.samples.mid", "count"),
    ("serve.lat_p50_ms.high", "ms"),
    ("serve.lat_p99_ms.high", "ms"),
    ("serve.samples.high", "count"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.sat_rps", "1/s"),
    ("serve.wait_ms.p99", "ms"),
    ("serve.gen_late_ms.p99", "ms"),
    ("serve.backlog_max", "count"),
    ("scheduler.queue_ms.p50", "ms"),
    ("scheduler.overhead_frac", "ratio"),
    ("host.calib_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
]


class Counts:
    """Work counted at layer boundaries (thread-safe: build workers
    report from two threads)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values: dict[str, float] = defaultdict(float)

    def add(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.values[key] += n

    def __getitem__(self, key: str) -> float:
        return self.values.get(key, 0)


def _ir_insns(module) -> int:
    return sum(
        len(block.instrs)
        for func in module.functions.values()
        for block in func.blocks
    )


def probes(counts: Counts) -> list[Probe]:
    """Every public call the traced run wraps."""

    def on_run(args, code):
        machine = args[0].machine
        stats = machine.stats
        counts.add("machine.cycles", machine.wall_cycles)
        counts.add("machine.instructions", stats.instructions)
        counts.add("machine.bnd_checks", stats.bnd_checks)
        counts.add("machine.cfi_checks", stats.cfi_checks)
        counts.add("runtime.t_calls", stats.t_calls)
        counts.add("l1.hits", sum(c.hits for c in machine.caches))
        counts.add("l1.misses", sum(c.misses for c in machine.caches))

    def on_get(args, data):
        counts.add("cache.lookups")
        if data is not None:
            counts.add("cache.hits")

    return [
        Probe(BuildSession, "stage_parse", "minic.parse",
              observe=lambda a, r: counts.add("src_bytes", len(a[1]))),
        Probe(BuildSession, "stage_sema", "sema.analyze"),
        Probe(BuildSession, "stage_lower", "frontend.lower",
              observe=lambda a, r: counts.add(
                  "ir.insns_lowered", _ir_insns(r.value))),
        Probe(BuildSession, "stage_opt", "opt.optimize",
              observe=lambda a, r: counts.add(
                  "ir.insns_opt", _ir_insns(r.value))),
        Probe(BuildSession, "stage_codegen", "backend.codegen",
              observe=lambda a, r: counts.add(
                  "backend.isa_insns",
                  sum(len(f.insns) for f in r.value.functions))),
        Probe(BuildSession, "stage_checkopt", "checkopt.run"),
        Probe(BuildSession, "link_units", "link.link"),
        Probe(verify_mod, "verify_binary", "verifier.verify"),
        Probe(session_mod, "dump_uobject", "build.dump",
              observe=lambda a, r: counts.add("object_bytes", len(r))),
        Probe(session_mod, "load_uobject", "build.load_uobject"),
        Probe(ObjectCache, "get", "build.cache_get", observe=on_get),
        Probe(ObjectCache, "put", "build.cache_put"),
        Probe(loader_mod, "load", "loader.load"),
        Probe(loader_mod.Process, "run", "machine.run", observe=on_run),
        Probe(image_mod, "warm_image", "serve.warm_image"),
        Probe(image_mod.MachineImage, "fork", "serve.fork"),
        Probe(image_mod.ServeInstance, "reset", "serve.reset"),
        Probe(image_mod.ServeInstance, "handle_request", "serve.handle"),
    ]


def base_metrics(selfs: dict, counts: Counts, registry) -> dict:
    """The per-layer metrics every workload derives the same way.

    ``selfs`` is :func:`spans.self_times` over the traced phases, in
    reference-host seconds; layer times are thread-CPU self times.
    Workload-specific metrics are filled in by the caller; anything a
    workload does not exercise stays 0.
    """
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span_name, metric in LAYER_TIME_METRICS.items():
        entry = selfs.get(span_name)
        if entry is not None:
            out[metric] = entry["cpu"]
    src_kb = counts["src_bytes"] / 1024.0
    if out["minic.parse_s"] > 0:
        out["minic.src_kb_per_s"] = src_kb / out["minic.parse_s"]
    for key in ("ir.insns_lowered", "ir.insns_opt", "backend.isa_insns",
                "machine.instructions", "machine.bnd_checks",
                "machine.cfi_checks", "runtime.t_calls"):
        out[key] = counts[key]
    out["build.object_kb"] = counts["object_bytes"] / 1024.0
    lookups = counts["cache.lookups"]
    out["build.cache_lookups"] = lookups
    if lookups:
        out["build.cache_hit_ratio"] = counts["cache.hits"] / lookups
    accesses = counts["l1.hits"] + counts["l1.misses"]
    if accesses:
        out["machine.l1_miss_ratio"] = counts["l1.misses"] / accesses
    if registry is not None:
        out["opt.witness_rejected"] = sum(
            value
            for key, value in registry.metrics_snapshot().items()
            if key.startswith("opt.witness_rejected")
        )
    return out


def coverage(selfs: dict, busy_s: float, idle_s: float = 0.0) -> float:
    """Share of ``busy_s`` (reference-host seconds of a traced phase)
    that the layers' self times, plus ``idle_s`` already attributed to
    a layer, account for."""
    if busy_s <= 0:
        return 0.0
    covered = sum(
        entry["cpu"] for name, entry in selfs.items() if name in LAYERS
    )
    return (covered + idle_s) / busy_s
