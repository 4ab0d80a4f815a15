"""The spec-build and spec-run workloads.

Both use the same 44 units: the 11 SPEC stand-in kernels of
``repro.apps.spec`` under Base, OurMPX, OurSeg and OurMPX with the
aggressive check optimizer.  The seed sets the link seed (magic
selection) and the order the units are built and run in.

* spec-build loads every compiler layer and both directions of the
  object cache while the machine does nothing: a cold ``build_many``
  into an empty ``ObjectCache`` (misses and stores), then a rebuild of
  the same units from a fresh session on that cache (hits).
* spec-run loads the machine while the compiler does nothing: the
  binaries are built during set-up, then each is loaded and run to
  exit on the superblock engine — first in the process (block fusion
  paid, as every ``repro run`` user pays it), then again with the code
  cache warm.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.build.cache import ObjectCache
from repro.build.serialize import dump_binary
from repro.build.session import BuildRequest, BuildSession
from repro.config import BASE, OUR_MPX, OUR_SEG
from repro.errors import MachineFault, ReproError
from repro.link import loader as loader_mod
from repro.machine.superblock import code_cache_size
from repro.obs import events

import layers
from layers import Counts
from spans import C0, C1, NAME, T0, T1, Tracer, instrument, self_times
from summary import median, percentile

CONFIGS = (
    ("Base", BASE),
    ("OurMPX", OUR_MPX),
    ("OurSeg", OUR_SEG),
    ("OurMPX+aggr", OUR_MPX.variant(checkopt="aggressive")),
)
#: Build width for spec-build: ``nproc`` on the reference host.
JOBS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.  spec-run's
#: set-up builds all 44 binaries (about 8 s), so it sets up twice.
SETUP_REPS = 3
RUN_SETUP_REPS = 2
#: spec-build passes per untraced run, at least (more if ``--seconds``
#: allows); cold_s and warm_s are medians over passes.
MIN_PASSES = 2
#: 44 operations per pass: p75 is the highest percentile with at
#: least ten samples beyond it.
TAIL_Q = 75

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected_spec.json")


def spec_requests(seed: int) -> list[BuildRequest]:
    """The 44 units in seed-shuffled order; ``filename`` is the unit
    key ``kernel/config``."""
    requests = [
        BuildRequest(
            kernel_source(kernel), config, filename=f"{kernel}/{label}",
            seed=seed, verify=config.instrumented,
        )
        for kernel in SPEC_NAMES
        for label, config in CONFIGS
    ]
    random.Random(seed).shuffle(requests)
    return requests


class UnitSession(BuildSession):
    """A build session that records each unit's wall interval, takes a
    calibration sample before each unit (on the worker's own thread,
    between two program calls), and turns a unit's failure into a
    recorded error instead of failing the whole batch."""

    def __init__(self, norm, cache=None, jobs: int = 1,
                 tracer: Tracer | None = None):
        super().__init__(cache=cache, jobs=jobs)
        self.norm = norm
        self.tracer = tracer
        self.intervals: dict[str, tuple[float, float]] = {}
        self.errors: dict[str, str] = {}

    def build(self, source, config, entry="main", filename="<input>",
              seed=None, verify=False):
        kwargs = dict(entry=entry, filename=filename, seed=seed,
                      verify=verify)
        self.norm.checkpoint()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return super().build(source, config, **kwargs)
            return self.tracer.call(
                "unit", super().build, (source, config), kwargs, filename
            )
        except Exception as exc:  # a failed unit is counted, not fatal
            self.errors[filename] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.intervals[filename] = (t0, time.perf_counter())


def _report_errors(errors: dict) -> None:
    for key, text in sorted(errors.items()):
        print(f"perfbench: unit {key} failed: {text}", file=sys.stderr)


def _phase(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# spec-build


def _warm_up(norm) -> None:
    """Set-up work for spec-build: build one kernel (at a scale the
    timed units do not use) under every config, so lazy imports and
    first-call initialization are paid before timing."""
    session = BuildSession()
    source = kernel_source("gcc", scale=2)
    for _, config in CONFIGS:
        norm.checkpoint()
        session.build(source, config, seed=0, verify=config.instrumented)


def _timed_build(ctx, session, requests, tracer, phase):
    gc.collect()
    ctx.norm.checkpoint()
    with _phase(tracer, phase):
        t0 = time.perf_counter()
        binaries = session.build_many(requests)
        t1 = time.perf_counter()
    ctx.norm.checkpoint()
    _report_errors(session.errors)
    return binaries, (t0, t1)


def _build_pass(ctx, requests, tracer, tag):
    """Cold build into an empty cache, then a warm rebuild from it.
    Returns wall intervals (converted once all samples are in)."""
    cache_dir = os.path.join(ctx.workdir, f"cache-{tag}")
    cold = UnitSession(ctx.norm, ObjectCache(cache_dir), JOBS, tracer)
    cold_bins, cold_span = _timed_build(ctx, cold, requests, tracer,
                                        "phase.cold")
    warm = UnitSession(ctx.norm, ObjectCache(cache_dir), JOBS, tracer)
    warm_bins, warm_span = _timed_build(ctx, warm, requests, tracer,
                                        "phase.warm")
    failed = 0
    for request, a, b in zip(requests, cold_bins, warm_bins):
        if a is None:
            failed += 1
        elif b is None or dump_binary(a) != dump_binary(b):
            failed += 1
            if b is not None:
                print(f"perfbench: unit {request.filename}: warm bytes "
                      "differ from cold bytes", file=sys.stderr)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "cold": cold_span,
        "warm": warm_span,
        "units": [cold.intervals[r.filename] for r in requests],
        "attempted": 2 * len(requests),
        "failed": failed,
        "bndchk_elided": _bndchk_elided(
            {r.filename: b for r, b in zip(requests, cold_bins)}),
    }


def _bndchk_elided(binaries: dict) -> int:
    """bnd check sites OurMPX keeps minus those OurMPX+aggr keeps."""
    def sites(binary):
        if binary is None:
            return 0
        return sum(1 for kind in binary.check_sites.values()
                   if kind == "bnd")

    return sum(
        sites(binaries.get(f"{kernel}/OurMPX"))
        - sites(binaries.get(f"{kernel}/OurMPX+aggr"))
        for kernel in SPEC_NAMES
    )


def _timed_setups(ctx, reps, setup):
    """Run ``setup`` ``reps`` times; its result and the wall intervals."""
    intervals = []
    for _ in range(reps):
        ctx.norm.checkpoint()
        t0 = time.perf_counter()
        state = setup()
        intervals.append((t0, time.perf_counter()))
    ctx.norm.checkpoint()
    return state, intervals


def run_spec_build(ctx) -> dict:
    norm = ctx.norm
    counts = Counts()
    probes = layers.probes(counts)

    def setup():
        requests = spec_requests(ctx.seed)
        _warm_up(norm)
        return requests

    with instrument(probes, None, ctx.inject):
        requests, setups = _timed_setups(
            ctx, 1 if ctx.trace else SETUP_REPS, setup)
        passes = []
        start = time.perf_counter()
        while len(passes) < (1 if ctx.trace else MIN_PASSES) or (
                not ctx.trace and time.perf_counter() - start < ctx.seconds):
            passes.append(_build_pass(ctx, requests, None, len(passes)))
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    if not ctx.trace:
        units = [norm.ref(*span) for p in passes for span in p["units"]]
        result["e2e"] = {
            "setup_s": median([norm.ref_work(*s) for s in setups]),
            "cold_s": median([norm.ref_work(*p["cold"]) for p in passes]),
            "warm_s": median([norm.ref_work(*p["warm"]) for p in passes]),
            "lat_p50_ms": percentile(units, 50) * 1e3,
            "lat_tail_ms": percentile(units, TAIL_Q) * 1e3,
        }
        result["info"] = {
            "passes": len(passes), "lat_samples": len(units),
            "lat_tail_q": TAIL_Q,
            "wall_cold_s": median([b - a for a, b in
                                   (p["cold"] for p in passes)]),
            "wall_warm_s": median([b - a for a, b in
                                   (p["warm"] for p in passes)]),
        }
        return result

    # Traced pass: the untraced pass above is the overhead reference.
    tracer = Tracer()
    registry = events.Registry()
    with events.use(registry), instrument(probes, tracer, ctx.inject):
        traced = _build_pass(ctx, requests, tracer, "traced")
    result["attempted"] += traced["attempted"]
    result["failed"] += traced["failed"]
    spans = tracer.spans
    selfs = self_times(spans, norm.factor_at)
    out = layers.base_metrics(selfs, counts, registry)
    cold_s = norm.ref_work(*traced["cold"])
    traced_s = cold_s + norm.ref_work(*traced["warm"])
    untraced_s = (norm.ref_work(*passes[0]["cold"])
                  + norm.ref_work(*passes[0]["warm"]))
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    units = [((s[C1] - s[C0]) * norm.factor_at((s[T0] + s[T1]) / 2), s[T0])
             for s in spans if s[NAME] == "unit"]
    t0, t1 = traced["cold"]
    cold_unit_cpu = sum(cpu for cpu, start in units if t0 <= start <= t1)
    out["build.parallel_eff"] = cold_unit_cpu / (JOBS * cold_s)
    # Time inside build_many when no worker was running a unit: the
    # executor's own cost (interpreter-lock hand-offs between workers).
    idle = traced_s - sum(cpu for cpu, _ in units)
    out["build.executor_idle_s"] = idle
    out["trace.coverage"] = layers.coverage(selfs, traced_s, idle)
    out["checkopt.bndchk_elided"] = traced["bndchk_elided"]
    out["host.calib_s"] = norm.calib_run
    result["layers"] = out
    result["tracer"] = tracer
    return result


# ---------------------------------------------------------------------------
# spec-run


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        doc = json.load(handle)
    return {key: tuple(value) for key, value in doc["results"].items()}


def _build_all(norm, requests, tracer):
    session = UnitSession(norm, tracer=tracer)
    binaries = session.build_many(requests, jobs=1)
    _report_errors(session.errors)
    return {r.filename: b for r, b in zip(requests, binaries)}


def execute(binary) -> tuple:
    """Load and run one binary on the superblock engine; the observed
    ``(exit, cycles, instructions, bnd_checks, cfi_checks)``."""
    process = loader_mod.load(binary, engine="superblock")
    code = process.run()
    stats = process.stats
    return (code, process.wall_cycles, stats.instructions,
            stats.bnd_checks, stats.cfi_checks)


def _run_one(ctx, key, binary, tracer, observed) -> tuple[float, float]:
    """Calibrate, then load and run one unit and record its outcome;
    returns the run's wall interval."""
    ctx.norm.checkpoint()
    t0 = time.perf_counter()
    try:
        if binary is None:
            outcome = ("not built",)
        elif tracer is None:
            outcome = execute(binary)
        else:
            outcome = tracer.call("binary", execute, (binary,), {}, key)
    except (ReproError, MachineFault) as exc:
        outcome = ("fault", f"{type(exc).__name__}: {exc}")
    interval = (t0, time.perf_counter())
    observed[key].append(outcome)
    return interval


def _exec_pass(ctx, order, binaries, tracer, observed, phase):
    with _phase(tracer, phase):
        spans = [_run_one(ctx, key, binaries.get(key), tracer, observed)
                 for key in order]
    ctx.norm.checkpoint()
    return spans


def _paired_pass(ctx, order, binaries, probes, tracer, observed):
    """The traced run's repeat pass: every binary runs once untraced and
    once traced, back to back in alternating order, so host drift
    cancels out of the tracing-overhead estimate.  Returns the wall
    intervals of the (untraced, traced) runs."""
    runs = {False: [], True: []}
    for n, key in enumerate(order):
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            active = tracer if traced else None
            with instrument(probes, active, ctx.inject), \
                    _phase(active, "phase.warm"):
                runs[traced].append(_run_one(ctx, key, binaries.get(key),
                                             active, observed))
    ctx.norm.checkpoint()
    return runs[False], runs[True]


def judge(observed: dict, expected: dict) -> dict:
    """Per unit key, the reasons it failed (empty list: passed).

    A unit fails when any of its runs differs from the pinned result,
    or when its exit code differs from the Base build of its kernel.
    """
    verdicts = {}
    for key, outcomes in observed.items():
        reasons = [
            f"observed {o} expected {expected.get(key)}"
            for o in outcomes if o != expected.get(key)
        ]
        kernel = key.split("/")[0]
        base = observed.get(f"{kernel}/Base", [()])[0]
        if outcomes[0][:1] != base[:1]:
            reasons.append(f"exit {outcomes[0][:1]} differs from Base "
                           f"{base[:1]}")
        verdicts[key] = reasons
    return verdicts


def run_spec_run(ctx) -> dict:
    norm = ctx.norm
    expected = load_expected()
    if ctx.oracle_fault:
        key = sorted(expected)[0]
        exit_code, *rest = expected[key]
        expected[key] = ((exit_code + 1) & 0xFF, *rest)
    counts = Counts()
    tracer = Tracer() if ctx.trace else None
    probes = layers.probes(counts)
    observed = defaultdict(list)
    registry = events.Registry() if ctx.trace else None

    def setup():
        requests = spec_requests(ctx.seed)
        with _phase(tracer, "phase.setup"):
            return requests, _build_all(norm, requests, tracer)

    with instrument(probes, tracer, ctx.inject), \
            (events.use(registry) if registry else nullcontext()):
        (requests, binaries), setups = _timed_setups(
            ctx, 1 if ctx.trace else RUN_SETUP_REPS, setup)
        order = [r.filename for r in requests]
        mark = tracer.mark() if tracer else 0
        fused0 = code_cache_size()
        gc.collect()
        first = _exec_pass(ctx, order, binaries, tracer, observed,
                           "phase.cold")
        fused = code_cache_size() - fused0
        cold_counts = dict(counts.values)
        cold_mark = tracer.mark() if tracer else 0
    gc.collect()
    if ctx.trace:
        again, traced_again = _paired_pass(ctx, order, binaries, probes,
                                           tracer, observed)
    else:
        with instrument(probes, None, ctx.inject):
            again = _exec_pass(ctx, order, binaries, None, observed, None)

    verdicts = judge(observed, expected)
    for key, reasons in sorted(verdicts.items()):
        for reason in reasons:
            print(f"perfbench: {key}: {reason}", file=sys.stderr)
    result = {
        "attempted": len(order),
        "failed": sum(1 for reasons in verdicts.values() if reasons),
    }
    lat = [norm.ref(*span) for span in first]
    warm_s = sum(norm.ref(*span) for span in again)
    if not ctx.trace:
        result["e2e"] = {
            "setup_s": median([norm.ref_work(*s) for s in setups]),
            "cold_s": sum(lat),
            "warm_s": warm_s,
            "lat_p50_ms": percentile(lat, 50) * 1e3,
            "lat_tail_ms": percentile(lat, TAIL_Q) * 1e3,
        }
        result["info"] = {
            "lat_samples": len(lat), "lat_tail_q": TAIL_Q,
            "wall_cold_s": sum(b - a for a, b in first),
            "wall_warm_s": sum(b - a for a, b in again),
        }
        return result

    spans = tracer.spans
    scale = norm.factor_at
    selfs = self_times(spans, scale)
    cold_selfs = self_times(spans, scale, mark, cold_mark)
    warm_selfs = self_times(spans, scale, cold_mark)
    cold_cpu = cold_selfs["machine.run"]["cpu"]
    out = layers.base_metrics(selfs, counts, registry)
    for key in ("machine.instructions", "machine.bnd_checks",
                "machine.cfi_checks", "runtime.t_calls"):
        out[key] = cold_counts.get(key, 0)
    hits = cold_counts.get("l1.hits", 0)
    misses = cold_counts.get("l1.misses", 0)
    out["machine.l1_miss_ratio"] = misses / (hits + misses) if hits else 0
    out["machine.run_first_s"] = cold_cpu
    out["machine.run_repeat_s"] = warm_selfs["machine.run"]["cpu"]
    out["machine.fused_blocks"] = fused
    out["checkopt.bndchk_elided"] = _bndchk_elided(binaries)
    out["machine.sim_mcycles_per_s"] = (
        cold_counts.get("machine.cycles", 0) / cold_cpu / 1e6
    )
    setup_unit_cpu = sum(
        (s[C1] - s[C0]) * scale((s[T0] + s[T1]) / 2)
        for s in spans if s[NAME] == "unit"
    )
    out["build.parallel_eff"] = setup_unit_cpu / norm.ref_work(*setups[0])
    out["trace.coverage"] = layers.coverage(cold_selfs, sum(lat))
    traced_s = sum(norm.ref(*span) for span in traced_again)
    out["trace.overhead_frac"] = (traced_s - warm_s) / warm_s
    out["host.calib_s"] = norm.calib_run
    result["layers"] = out
    result["tracer"] = tracer
    return result
