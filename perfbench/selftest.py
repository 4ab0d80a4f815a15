"""Self-test: does the benchmark see a slowdown, and name its layer?

    python3 perfbench/selftest.py [--seeds 1,2,3]

1. Runs every workload with and without ``--inject build.load_uobject``
   (a busy wait as long as each wrapped call, inside the benchmark's
   wrapper only — the program is untouched), alternating the order per
   seed, and
   compares medians against the bounds in ``BENCHMARK.json``.  The
   end-to-end metrics ``PREDICTED`` names must rise by more than their
   bound on the predicted workload; every other (workload, metric) pair
   must stay within its bound.
2. Runs the traced spec-build pass with and without the injection: the
   layer's own per-layer time must roughly double (at least 1.6x).
3. Runs spec-run with ``--oracle-fault`` (one pinned exit code made
   wrong): exactly one failed operation must be reported.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

#: The injected layer, its per-layer metric, and {workload: end-to-end
#: metrics it must raise} from the layer map in README.md: object
#: deserialization is on the warm-cache rebuild path only.
LAYER = "build.load_uobject"
LAYER_METRIC = "build.load_uobject_s"
PREDICTED = {"spec-build": ["warm_s"]}


def _run(seconds, workload, seed, trace=0, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"selftest: {' '.join(cmd)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    inject = ("--inject", LAYER)
    failures = 0

    def check(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        base, slow = [], []
        for n, seed in enumerate(seeds):
            pair = [(base, ()), (slow, inject)]
            for sink, extra in (pair if n % 2 == 0 else pair[::-1]):
                sink.append(
                    _run(seconds, workload, seed, extra=extra)["metrics"])
        for metric, bound in bounds.items():
            b = statistics.median(m[metric]["value"] for m in base)
            s = statistics.median(m[metric]["value"] for m in slow)
            change = s / b - 1.0
            if metric in PREDICTED.get(workload, ()):
                check(change > bound, f"{workload} {metric}: +{change:.1%} "
                      f"with {LAYER} doubled (must exceed {bound:.0%})")
            else:
                check(change <= bound, f"{workload} {metric}: {change:+.1%} "
                      f"(must stay within {bound:.0%})")

    base = _run(seconds, "spec-build", seeds[0], trace=1)["metrics"]
    slow = _run(seconds, "spec-build", seeds[0], trace=1,
                extra=inject)["metrics"]
    ratio = slow[LAYER_METRIC]["value"] / base[LAYER_METRIC]["value"]
    check(ratio >= 1.6, f"spec-build traced {LAYER_METRIC}: x{ratio:.2f} "
          "(must be at least x1.6)")

    result = _run(seconds, "spec-run", seeds[0], extra=("--oracle-fault",))
    check(result["failed"] == 1 and not result["correct"],
          f"spec-run with one wrong pinned exit code: "
          f"{result['failed']} failed of {result['attempted']} (must be 1)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
