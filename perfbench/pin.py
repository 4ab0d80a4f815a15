"""Refresh the benchmark's frozen references.

    python3 perfbench/pin.py expected   # rewrite perfbench/expected_spec.json
    python3 perfbench/pin.py calib      # print the calibration reference

``expected`` builds the 44 spec units with two different link seeds,
runs each on the superblock engine, requires both seeds to agree
(simulated results do not depend on magic selection) and every config
of a kernel to return the same exit code, then writes the pinned
oracle.  Rewrite it only when a change to the program is meant to move
simulated cycles, instructions or checks.

``calib`` runs each workload once and prints the median in-run
calibration loop time; copy it into ``host.CALIB_REF_S`` only together
with a new baseline, since it rescales every reported time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

SEEDS = (1, 2)
FIELDS = ["exit", "cycles", "instructions", "bnd_checks", "cfi_checks"]


def pin_expected() -> int:
    from host import Normalizer
    from spec_bench import EXPECTED_PATH, _build_all, execute, spec_requests

    per_seed = []
    for seed in SEEDS:
        binaries = _build_all(Normalizer(), spec_requests(seed), None)
        per_seed.append({key: list(execute(binaries[key]))
                         for key in sorted(binaries)})
    first = per_seed[0]
    for seed, other in zip(SEEDS[1:], per_seed[1:]):
        for key in first:
            if first[key] != other[key]:
                print(f"pin: {key} differs between link seeds {SEEDS[0]} "
                      f"and {seed}: {first[key]} vs {other[key]}",
                      file=sys.stderr)
                return 1
    for key, row in first.items():
        base = first[key.split("/")[0] + "/Base"]
        if row[0] != base[0]:
            print(f"pin: {key} exits {row[0]}, Base exits {base[0]}",
                  file=sys.stderr)
            return 1
    header = json.dumps({
        "engine": "superblock",
        "link_seeds_checked": list(SEEDS),
        "fields": FIELDS,
    })
    rows = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(first[key])}" for key in first
    )
    with open(EXPECTED_PATH, "w") as handle:
        # One unit per line, so a re-pin diffs unit by unit.
        handle.write(header[:-1] + ', "results": {\n' + rows + "\n}}\n")
    print(f"pin: wrote {len(first)} results to {EXPECTED_PATH}")
    return 0


def pin_calib() -> int:
    """Median in-run calibration loop time over one untraced run of
    each workload (seed 1)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    values = []
    for workload in spec["workloads"]:
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload["name"], "--seed", "1",
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        info = json.loads(out.stdout.strip().splitlines()[-2][2:])
        values.append(info["calib_run_s"])
    print(f"calibration loop: median {statistics.median(values):.6f} s "
          f"in-run ({', '.join(f'{v:.6f}' for v in values)})")
    return 0


def main(argv) -> int:
    if argv == ["expected"]:
        return pin_expected()
    if argv == ["calib"]:
        return pin_calib()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
