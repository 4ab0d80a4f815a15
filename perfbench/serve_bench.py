"""The serve-dir workload: the directory server (the OpenLDAP stand-in)
under OurMPX on the superblock engine, 2 tenants x 1 fork each.

Requests are short (3.2k or 6.7k simulated cycles — lookup hit or
miss — about a millisecond of host time), so the per-request path —
reset, run entry and exit, channels — is a large share of the work; in
spec-run execution dominates instead.

One pass has three phases:

1. **Open loop.**  Poisson arrivals at three fixed rates (``RATES``,
   in reference-host requests per second; each gap is stretched by the
   latest calibration, so offered load follows host speed).  One
   thread drives the forked ``ServeInstance``s through
   ``handle_request()`` + ``reset()``; each request is timed from its
   due time, so a stall is charged to every request it delays.
   ``Fleet.serve`` cannot take timed arrivals (it pulls the whole
   request iterable before any worker runs), which is why this phase
   drives instances directly.  Reported per layer: on this host the
   queueing tail swings too much from run to run to gate on.
2. **Flood.**  The stream, twice, through ``Fleet.serve`` as 16
   bursts, each on a fresh fleet: saturation throughput of newly
   forked instances (``cold_s``).
3. **Closed loop.**  The stream, twice, back to back on the warm forks:
   the bare request path without the scheduler (``warm_s``, and the
   per-request service latency ``lat_p50_ms`` / ``lat_tail_ms``).
"""
from __future__ import annotations

import bisect
import gc
import random
import sys
import time
from contextlib import nullcontext

from repro.build.session import BuildSession
from repro.config import OUR_MPX
from repro.errors import MachineFault, ServeError
from repro.link import loader as loader_mod
from repro.machine.superblock import code_cache_size
from repro.obs import events
from repro.runtime.trusted import TrustedRuntime
from repro.serve import image as image_mod
from repro.serve.apps import SERVE_APPS
from repro.serve.scheduler import Fleet

import layers
from host import SHORT_ITERS
from layers import Counts
from spans import Tracer, instrument, self_times
from summary import median, percentile

APP = "dirserver"
TENANTS = ("t0", "t1")
#: Open-loop offered loads, reference-host requests per second.
RATES = (("low", 200.0), ("mid", 350.0), ("high", 500.0))
#: Requests in the stream, served once per rate (p99 then has ten
#: samples beyond it).
N_REQUESTS = 1000
#: A rate is sustained when its p99 latency stays within this limit.
P99_LIMIT_MS = 20.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: ``lat_tail_ms`` percentile of the closed-loop service latency.  p99
#: (ten samples beyond it) swung by +-13% between runs on the reference
#: host; it is reported in the ``#`` line instead.
TAIL_Q = 90
#: Take a short calibration sample in an open-loop idle gap longer than
#: this many seconds.
IDLE_CALIB_S = 0.003
#: The flood and the closed loop serve the stream this many times (one
#: pass of each is too short to average out the host's speed swings).
BATCH_PASSES = 2
#: The flood is served as this many bursts, each on a fresh fleet, with
#: a calibration sample between bursts.
FLOOD_CHUNKS = 16
#: Closed-loop requests between two calibration samples.
CLOSED_CHUNK = 25
#: Requests each fork serves during set-up, so that per-fork lazy work
#: (binding fused blocks) is done before timing, as in a long-running
#: server.
WARM_REQUESTS = 32


class Served:
    """Outcome tallies for a batch of requests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: serve-dir {what} failed", file=sys.stderr)


def _setup(seed: int):
    app = SERVE_APPS[APP]
    runtime = TrustedRuntime()
    app.setup(runtime)
    binary = BuildSession().build(app.source, OUR_MPX, seed=seed,
                                  verify=True)
    process = loader_mod.load(binary, runtime=runtime, engine="superblock")
    image = image_mod.warm_image(process)
    instances = [
        image_mod.ServeInstance(image.fork(), request_fd=app.request_fd,
                                response_fd=app.response_fd)
        for _ in TENANTS
    ]
    encoder = TrustedRuntime()
    encoder.restore_state(image.runtime_state)
    # The same request set for every seed, in a seeded order: the
    # simulated work per pass is fixed, the interleaving is not.
    indices = list(range(N_REQUESTS))
    random.Random(seed).shuffle(indices)
    stream = [app.encode_request(encoder, i) for i in indices]
    for instance in instances:
        for payload in stream[:WARM_REQUESTS]:
            response = instance.handle_request(payload)
            instance.reset()
            if not app.check_response(encoder, payload, response):
                raise ServeError("serve-dir warm-up got an invalid response")
    return {"app": app, "image": image, "instances": instances,
            "encoder": encoder, "stream": stream}


class _Driver:
    """Drives the setup's instances one request at a time."""

    def __init__(self, state, tracer: Tracer | None, counts: Counts):
        self.app = state["app"]
        self.encoder = state["encoder"]
        self.instances = state["instances"]
        self.tracer = tracer
        self.counts = counts

    def _handle(self, instance, payload):
        try:
            response = instance.handle_request(payload)
        except MachineFault as exc:
            response = exc
        return response

    def serve(self, index: int, payload: bytes):
        """Run one request; returns the response (or the fault) and
        the completion time.  The instance is reset afterwards, as a
        fleet slot does."""
        instance = self.instances[index % len(self.instances)]
        tracer = self.tracer
        if tracer is None:
            response = self._handle(instance, payload)
            done = time.perf_counter()
            instance.reset()
            return response, done
        machine = instance.machine
        stats = machine.stats
        before = (stats.bnd_checks, stats.cfi_checks, stats.t_calls,
                  sum(c.hits for c in machine.caches),
                  sum(c.misses for c in machine.caches))
        response = tracer.call("request", self._handle,
                               (instance, payload), {}, index)
        done = time.perf_counter()
        after = (stats.bnd_checks, stats.cfi_checks, stats.t_calls,
                 sum(c.hits for c in machine.caches),
                 sum(c.misses for c in machine.caches))
        counts = self.counts
        for key, a, b in zip(("machine.bnd_checks", "machine.cfi_checks",
                              "runtime.t_calls", "l1.hits", "l1.misses"),
                             before, after):
            counts.add(key, b - a)
        counts.add("machine.instructions", instance.last_instructions)
        counts.add("machine.cycles", instance.last_cycles)
        counts.add("requests")
        instance.reset()
        return response, done

    def valid(self, payload, response) -> bool:
        if isinstance(response, BaseException):
            return False
        return self.app.check_response(self.encoder, payload, response)


def _open_loop(ctx, driver, stream, rate, rng, served):
    """One fixed-rate open-loop run; returns its wall-clock record.

    Each gap is drawn in reference-host seconds and stretched by the
    latest calibration, so the offered load follows the host's speed.
    Idle gaps of more than ``IDLE_CALIB_S`` take a short calibration
    sample, which keeps the speed timeline dense without delaying any
    request.
    """
    norm = ctx.norm
    gaps = [rng.expovariate(rate) for _ in stream]
    due = time.perf_counter() + 0.005
    dues, starts, dones, replies, idle = [], [], [], [], []
    for i, payload in enumerate(stream):
        due += gaps[i] / norm.latest_factor()
        waited = False
        while True:
            ahead = due - time.perf_counter()
            if ahead <= 0:
                break
            waited = True
            if ahead > IDLE_CALIB_S:
                norm.checkpoint(SHORT_ITERS)
            elif ahead > 0.002:
                time.sleep(ahead - 0.001)
        start = time.perf_counter()
        response, done = driver.serve(i, payload)
        dues.append(due)
        starts.append(start)
        dones.append(done)
        replies.append(response)
        idle.append(waited)
    ok = [driver.valid(p, r) for p, r in zip(stream, replies)]
    for i, good in enumerate(ok):
        served.record(good, f"open-loop request {i}")
    return {"due": dues, "start": starts, "done": dones, "ok": ok,
            "idle": idle}


def _latencies(norm, run) -> dict:
    """Reference-host latency figures of one open-loop run (seconds)."""
    due, start = run["due"], run["start"]
    # A failed request counts as missing the latency limit.
    lat = [norm.ref(d, e) if good else float("inf")
           for d, e, good in zip(due, run["done"], run["ok"])]
    wait = [norm.ref(d, s) for d, s in zip(due, start)]
    late = [w for w, was_idle in zip(wait, run["idle"]) if was_idle]
    backlog = [bisect.bisect_right(due, s, i) - i - 1
               for i, s in enumerate(start)]
    return {"lat": lat, "wait": wait, "late": late or [0.0],
            "backlog": backlog}


def _sustained(figures) -> bool:
    """p99 within the limit, every request valid, and no backlog still
    growing at the end (the last tenth of requests waits less than the
    limit)."""
    tail = figures["wait"][-len(figures["wait"]) // 10:]
    limit = P99_LIMIT_MS / 1e3
    return percentile(figures["lat"], 99) <= limit and max(tail) <= limit


def _flood(ctx, driver, state, served, tracer):
    """The stream through ``Fleet.serve`` in ``FLOOD_CHUNKS`` bursts,
    each on a fresh fleet (stood up outside the timed interval: a
    ``Fleet`` serves once); returns the wall intervals and the
    scheduler's queueing delays."""
    pairs = [(TENANTS[i % len(TENANTS)], payload)
             for i, payload in enumerate(state["stream"] * BATCH_PASSES)]
    size = len(pairs) // FLOOD_CHUNKS
    spans, queue = [], []
    for k in range(FLOOD_CHUNKS):
        chunk = pairs[k * size:(k + 1) * size]
        gc.collect()
        ctx.norm.checkpoint()
        fleet = Fleet(state["image"], TENANTS, pool_size=1)
        with (tracer.span("phase.flood") if tracer else nullcontext()):
            t0 = time.perf_counter()
            results = fleet.serve(chunk)
            t1 = time.perf_counter()
        spans.append((t0, t1))
        queue.extend((r.queue_s, t1) for r in results)
        for (_, payload), res in zip(chunk, results):
            good = (res.ok and not res.evicted
                    and driver.app.check_response(driver.encoder, payload,
                                                  res.response))
            served.record(good, f"flood request {k * size + res.index}")
    ctx.norm.checkpoint()
    return spans, queue


def _closed_loop(ctx, driver, stream, served, probes, tracer):
    """The stream back to back on the warmed instances, in chunks of
    ``CLOSED_CHUNK`` with a calibration sample between chunks.

    With a tracer, every chunk runs twice — untraced and traced, in
    alternating order — so host drift cancels out of the tracing
    overhead.  Returns the wall intervals of the (untraced, traced)
    chunks and of each untraced request."""
    spans = {False: [], True: []}
    requests = []
    for k, lo in enumerate(range(0, len(stream), CLOSED_CHUNK)):
        chunk = stream[lo:lo + CLOSED_CHUNK]
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if k % 2 == 0 else (True, False)
        for traced in modes:
            active = tracer if traced else None
            driver.tracer = active
            replies = []
            with instrument(probes, active, ctx.inject):
                ctx.norm.checkpoint()
                with (active.span("phase.closed") if active
                      else nullcontext()):
                    t0 = time.perf_counter()
                    for j, payload in enumerate(chunk):
                        start = time.perf_counter()
                        response, done = driver.serve(lo + j, payload)
                        replies.append(response)
                        if not traced:
                            requests.append((start, done))
                    t1 = time.perf_counter()
            spans[traced].append((t0, t1))
            for j, (payload, response) in enumerate(zip(chunk, replies)):
                served.record(driver.valid(payload, response),
                              f"closed-loop request {lo + j}")
    ctx.norm.checkpoint()
    return spans[False], spans[True], requests


def _pass(ctx, state, driver, served, probes, tracer):
    stream = state["stream"]
    out = {"open": {}}
    driver.tracer = tracer
    with instrument(probes, tracer, ctx.inject):
        for k, (name, rate) in enumerate(RATES):
            rng = random.Random(ctx.seed * 31 + k)
            gc.collect()
            ctx.norm.checkpoint()
            out["open"][name] = _open_loop(ctx, driver, stream, rate, rng,
                                           served)
        ctx.norm.checkpoint()
        out["flood_mark"] = tracer.mark() if tracer else 0
        out["flood"], out["queue"] = _flood(ctx, driver, state, served,
                                            tracer)
    out["closed_mark"] = tracer.mark() if tracer else 0
    out["closed"], out["closed_traced"], out["requests"] = _closed_loop(
        ctx, driver, stream * BATCH_PASSES, served, probes, tracer)
    return out


def run_serve_dir(ctx) -> dict:
    norm = ctx.norm
    counts = Counts()
    tracer = Tracer() if ctx.trace else None
    probes = layers.probes(counts)
    served = Served()
    setups = []
    fused0 = code_cache_size()
    registry = events.Registry() if ctx.trace else None
    with instrument(probes, tracer, ctx.inject), \
            (events.use(registry) if registry else nullcontext()):
        for _ in range(1 if ctx.trace else SETUP_REPS):
            norm.checkpoint()
            t0 = time.perf_counter()
            state = _setup(ctx.seed)
            setups.append((t0, time.perf_counter()))
        norm.checkpoint()
    driver = _Driver(state, None, counts)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < ctx.seconds:
        passes.append(_pass(ctx, state, driver, served, probes, tracer))
        if ctx.trace:
            break

    result = {"attempted": served.attempted, "failed": served.failed}
    figures = [{name: _latencies(norm, p["open"][name]) for name, _ in RATES}
               for p in passes]
    service = [norm.ref(*r) for p in passes for r in p["requests"]]
    if not ctx.trace:
        result["e2e"] = {
            "setup_s": median([norm.ref_work(*s) for s in setups]),
            "cold_s": median([sum(norm.ref(*s) for s in p["flood"])
                              for p in passes]),
            "warm_s": median([sum(norm.ref(*s) for s in p["closed"])
                              for p in passes]),
            "lat_p50_ms": percentile(service, 50) * 1e3,
            "lat_tail_ms": percentile(service, TAIL_Q) * 1e3,
        }
        result["info"] = {
            "passes": len(passes), "lat_samples": len(service),
            "lat_tail_q": TAIL_Q,
            "lat_p99_ms": percentile(service, 99) * 1e3,
            "wall_cold_s": sum(b - a for a, b in passes[0]["flood"]),
            "wall_warm_s": sum(b - a for a, b in passes[0]["closed"]),
            "open_loop": {
                name: {
                    "p50_ms": percentile(fig["lat"], 50) * 1e3,
                    "p99_ms": percentile(fig["lat"], 99) * 1e3,
                    "samples": len(fig["lat"]),
                    "sustained": _sustained(fig),
                }
                for name, fig in figures[0].items()
            },
        }
        return result

    the = passes[0]
    spans = tracer.spans
    scale = norm.factor_at
    selfs = self_times(spans, scale)
    out = layers.base_metrics(selfs, counts, registry)
    for name, rate in RATES:
        fig = figures[0][name]
        out[f"serve.lat_p50_ms.{name}"] = percentile(fig["lat"], 50) * 1e3
        out[f"serve.lat_p99_ms.{name}"] = percentile(fig["lat"], 99) * 1e3
        out[f"serve.samples.{name}"] = len(fig["lat"])
        if _sustained(fig):
            out["serve.max_rate_rps"] = rate
    mid = figures[0]["mid"]
    out["serve.wait_ms.p99"] = percentile(mid["wait"], 99) * 1e3
    out["serve.gen_late_ms.p99"] = percentile(mid["late"], 99) * 1e3
    out["serve.backlog_max"] = max(mid["backlog"])
    flood_s = sum(norm.ref(*s) for s in the["flood"])
    out["serve.sat_rps"] = N_REQUESTS * BATCH_PASSES / flood_s
    requests = counts["requests"]
    if requests:
        out["serve.req_cycles"] = counts["machine.cycles"] / requests
    handle_cpu = selfs["serve.handle"]["cpu"]
    if handle_cpu:
        out["machine.sim_mcycles_per_s"] = (
            counts["machine.cycles"] / handle_cpu / 1e6)
    out["machine.fused_blocks"] = code_cache_size() - fused0
    out["scheduler.queue_ms.p50"] = percentile(
        [q * scale(t) for q, t in the["queue"]], 50) * 1e3
    flood_selfs = self_times(spans, scale, the["flood_mark"],
                             the["closed_mark"])
    service = sum(flood_selfs[name]["wall"]
                  for name in ("serve.handle", "serve.reset"))
    out["scheduler.overhead_frac"] = 1.0 - service / flood_s
    closed_selfs = self_times(spans, scale, the["closed_mark"])
    traced_s = sum(norm.ref(*s) for s in the["closed_traced"])
    untraced_s = sum(norm.ref(*s) for s in the["closed"])
    out["trace.coverage"] = layers.coverage(closed_selfs, traced_s)
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out["host.calib_s"] = norm.calib_run
    result["layers"] = out
    result["tracer"] = tracer
    return result
