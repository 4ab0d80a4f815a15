"""The repository benchmark: host time of the toolchain, the simulated
machine and the serving tier, layer by layer, timed from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload spec-build --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

* ``spec-build`` — 44 SPEC stand-in units built cold, then from the
  warm object cache;
* ``spec-run``  — the same 44 binaries loaded and run on the
  superblock engine, first in the process and again warm;
* ``serve-dir`` — the directory server behind two tenants: open loop
  at three fixed rates, a ``Fleet.serve`` flood, a closed loop.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again with spans around every layer's public calls and prints
the per-layer metrics (spans go to ``.perfbench/trace-*.json``).  The
last stdout line is the result object; the line before it, starting
with ``#``, carries sample counts and other context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("spec-build", "spec-run", "serve-dir")

#: End-to-end metrics, in BENCHMARK.json order.  Every workload reports
#: all of them; README.md gives each one's meaning per workload.
END_TO_END = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class Context:
    """What a workload needs from the command line and the host."""

    def __init__(self, args, workdir: str, normalizer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.inject = args.inject
        self.oracle_fault = args.oracle_fault
        self.workdir = workdir
        self.norm = normalizer


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (see selftest.py); never set by the driver.
    parser.add_argument("--inject", metavar="SPAN",
                        help="double the cost of this layer's calls")
    parser.add_argument("--oracle-fault", action="store_true",
                        help="corrupt one pinned spec-run exit code")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from host import CALIB_REF_S, Normalizer, peak_rss_mb
    from layers import LAYER_TIME_METRICS, PER_LAYER
    from serve_bench import run_serve_dir
    from spec_bench import run_spec_build, run_spec_run

    if args.inject and args.inject not in LAYER_TIME_METRICS:
        print(f"perfbench: unknown layer {args.inject!r}", file=sys.stderr)
        return 2
    runner = {
        "spec-build": run_spec_build,
        "spec-run": run_spec_run,
        "serve-dir": run_serve_dir,
    }[args.workload]

    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    norm = Normalizer()
    try:
        norm.checkpoint()
        result = runner(Context(args, workdir, norm))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = result["layers"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        result["tracer"].write(path)
        info = {"trace_file": os.path.relpath(path, ROOT)}
    else:
        values = dict(result["e2e"], peak_rss_mb=peak_rss_mb())
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        info = result.get("info", {})
    info.update(workload=args.workload, seed=args.seed,
                calib_run_s=norm.calib_run,
                host_factor=CALIB_REF_S / norm.calib_run)
    for entry in metrics.values():
        # A latency percentile is infinite when failed requests reach it;
        # such a run is not correct, and JSON has no infinity.
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
