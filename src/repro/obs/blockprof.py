"""Basic-block profiling and per-site check-overhead attribution.

This module answers the questions the paper's evaluation turns on:

* **which function** do cycles, instructions, and executed bnd/CFI
  checks land in (:meth:`BlockProfiler.function_report`, a roll-up of
  the block rows; Fig. 7's observation that ~70% of Privado's time is
  one tight loop);
* **which basic block** do cycles, instructions, and L1 cache misses
  land on, and along which control-flow edges does execution travel;
  and
* **which inserted check** costs what — every executed ``bnd`` / CFI /
  magic-word / stack-probe / shadow-stack site is charged its exact
  simulated cycle cost, rolled up per category into the Fig. 5-8-style
  overhead decomposition the ``report`` CLI subcommand renders.

Blocks are the intervals between consecutive labels in the linked
binary's ``label_addrs`` — every branch target carries a label, so
label-delimited intervals are exactly the leader-delimited basic
blocks of the final code.  The profiler attaches through
``Machine.add_step_hook`` (the supported observation API), which makes
attribution engine-independent: the superblock and reference engines
report identical streams, pinned by a differential test.

Zero-cost when off: nothing here runs unless a profiler is attached,
and attaching one never changes emitted code or simulated cycles.

Usage::

    process = compile_and_load(src, OUR_MPX)
    prof = attach_block_profiler(process.machine)
    process.run()
    for row in prof.report(top=5):
        print(row.name, row.cycles, row.cache_misses)
    print(prof.check_summary())
    for row in prof.function_report(top=5):
        print(row.name, row.cycles, row.bnd_checks, row.cfi_checks)
    write_flamegraph(prof, "out.folded")
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..backend.isa import CHECK_CATEGORIES, check_kind

#: Deterministic sampling stride for counter tracks: one sample per
#: this many retired instructions.  Keyed on instruction counts (not
#: host time), so the sampled trajectory is identical across engines.
SAMPLE_STRIDE = 1024


@dataclass
class BlockRow:
    """One basic block's attribution totals."""

    name: str
    func: str
    start: int
    cycles: int
    instructions: int
    cache_misses: int
    cycle_share: float


@dataclass
class FunctionRow:
    """One function's attribution totals (the roll-up of its blocks)."""

    name: str
    cycles: int
    instructions: int
    cycle_share: float
    bnd_checks: int = 0
    cfi_checks: int = 0


@dataclass
class CheckSiteRow:
    """One executed check site's exact cost."""

    addr: int
    category: str
    block: str
    func: str
    count: int
    cycles: int


class BlockProfiler:
    """Attributes execution to basic blocks, edges, and check sites."""

    def __init__(self, machine):
        binary = machine.binary
        self._machine = machine
        # One anchor per address: every label is a block leader.  When
        # a function label and a block label share an address, keep the
        # lexicographically-first name (deterministic either way).
        anchors: dict[int, str] = {}
        for name, addr in sorted(binary.label_addrs.items()):
            anchors.setdefault(addr, name)
        starts = sorted(anchors)
        self._starts = starts
        self._names = [anchors[a] for a in starts]
        # Function anchors: labels without a dot, plus T-import stubs.
        fn_anchors: dict[int, str] = {}
        for name, addr in sorted(binary.label_addrs.items()):
            if "." not in name or name.startswith("stub."):
                fn_anchors.setdefault(addr, name)
        self._fn_starts = sorted(fn_anchors)
        self._fn_names = [fn_anchors[a] for a in self._fn_starts]

        self.cycles: dict[str, int] = {}
        self.instructions: dict[str, int] = {}
        self.cache_misses: dict[str, int] = {}
        self.block_start: dict[str, int] = {}
        self.edges: dict[tuple[str, str], int] = {}
        # pc -> [category, count, cycles]
        self.sites: dict[int, list] = {}
        self._last_block: dict[int, str] = {}
        self._steps = 0
        # Deterministic counter-track samples: (instruction index,
        # core-cycle timestamp, {track: cumulative value}).
        self.samples: list[tuple[int, int, dict]] = []

    # -- symbolization ---------------------------------------------------

    def symbolize(self, pc: int) -> str:
        index = bisect.bisect_right(self._starts, pc) - 1
        if index < 0:
            return "<prelude>"
        return self._names[index]

    def func_of(self, pc: int) -> str:
        index = bisect.bisect_right(self._fn_starts, pc) - 1
        if index < 0:
            return "<prelude>"
        return self._fn_names[index]

    # -- the step hook ---------------------------------------------------

    def on_step(self, thread, pc: int, insn, cycles: int) -> None:
        """Machine step-hook entry point (see ``Machine.add_step_hook``)."""
        name = self.symbolize(pc)
        self.cycles[name] = self.cycles.get(name, 0) + cycles
        self.instructions[name] = self.instructions.get(name, 0) + 1
        misses = self._machine.hook_cache_misses
        if misses:
            self.cache_misses[name] = self.cache_misses.get(name, 0) + misses
        if name not in self.block_start:
            index = bisect.bisect_right(self._starts, pc) - 1
            self.block_start[name] = self._starts[index] if index >= 0 else 0
        last = self._last_block.get(thread.tid)
        if last != name:
            if last is not None:
                edge = (last, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            self._last_block[thread.tid] = name
        kind = check_kind(insn)
        if kind is not None:
            site = self.sites.get(pc)
            if site is None:
                site = self.sites[pc] = [kind, 0, 0]
            site[1] += 1
            site[2] += cycles
        self._steps += 1
        if self._steps % SAMPLE_STRIDE == 0:
            self._sample(thread)

    def _track_values(self) -> dict[str, int]:
        """Current value of every counter track."""
        summary = self.check_summary()
        values = {
            f"blockprof.check_cycles.{cat}": summary[cat]["cycles"]
            for cat in CHECK_CATEGORIES
        }
        values["blockprof.cache_misses"] = sum(self.cache_misses.values())
        return values

    def _sample(self, thread) -> None:
        ts = self._machine.core_cycles[thread.core]
        self.samples.append((self._steps, ts, self._track_values()))

    # -- reports ---------------------------------------------------------

    def report(self, top: int | None = None) -> list[BlockRow]:
        """Per-block rows, cycles-descending with name tie-break."""
        total = sum(self.cycles.values()) or 1
        rows = [
            BlockRow(
                name=name,
                func=self.func_of(self.block_start[name]),
                start=self.block_start[name],
                cycles=cycles,
                instructions=self.instructions.get(name, 0),
                cache_misses=self.cache_misses.get(name, 0),
                cycle_share=cycles / total,
            )
            for name, cycles in self.cycles.items()
        ]
        rows.sort(key=lambda r: (-r.cycles, r.name))
        return rows[:top] if top else rows

    def function_report(self, top: int | None = None) -> list[FunctionRow]:
        """Per-function rows: block totals summed by function, plus the
        executed bnd/CFI check counts of its check sites.  Cycles
        descending with name tie-break, so equal rows never flip."""
        totals: dict[str, list[int]] = {}
        for name, cycles in self.cycles.items():
            entry = totals.setdefault(
                self.func_of(self.block_start[name]), [0, 0, 0, 0]
            )
            entry[0] += cycles
            entry[1] += self.instructions.get(name, 0)
        for addr, (cat, count, _cycles) in self.sites.items():
            if cat in ("bnd", "cfi"):
                entry = totals.setdefault(self.func_of(addr), [0, 0, 0, 0])
                entry[2 if cat == "bnd" else 3] += count
        total = sum(self.cycles.values()) or 1
        rows = [
            FunctionRow(name, cycles, insns, cycles / total, bnd, cfi)
            for name, (cycles, insns, bnd, cfi) in totals.items()
        ]
        rows.sort(key=lambda r: (-r.cycles, r.name))
        return rows[:top] if top else rows

    def edge_report(
        self, top: int | None = None
    ) -> list[tuple[str, str, int]]:
        """(src, dst, count) control-flow edges, count-descending."""
        rows = [(src, dst, n) for (src, dst), n in self.edges.items()]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows[:top] if top else rows

    def check_sites(self) -> list[CheckSiteRow]:
        """Every executed check site with its exact cycle cost."""
        rows = [
            CheckSiteRow(
                addr=addr,
                category=cat,
                block=self.symbolize(addr),
                func=self.func_of(addr),
                count=count,
                cycles=cycles,
            )
            for addr, (cat, count, cycles) in self.sites.items()
        ]
        rows.sort(key=lambda r: (-r.cycles, r.addr))
        return rows

    def check_summary(self) -> dict[str, dict]:
        """Per-category totals; every category is present (zeros kept),
        so decompositions never silently drop an axis."""
        summary = {
            cat: {"count": 0, "cycles": 0} for cat in CHECK_CATEGORIES
        }
        for _addr, (cat, count, cycles) in sorted(self.sites.items()):
            summary[cat]["count"] += count
            summary[cat]["cycles"] += cycles
        return summary

    # -- exporters -------------------------------------------------------

    def flamegraph_lines(self) -> list[str]:
        """Collapsed-stack lines (``func;block cycles``) for flamegraph
        tooling.  The function-entry block collapses onto the function
        frame itself; lines are sorted for byte-stable output."""
        folded: dict[str, int] = {}
        for row in self.report():
            frame = (
                row.func
                if row.name == row.func
                else f"{row.func};{row.name}"
            )
            folded[frame] = folded.get(frame, 0) + row.cycles
        return [f"{frame} {value}" for frame, value in sorted(folded.items())]

    def publish(self, registry) -> None:
        """Fold the profile into an obs registry: roll-up counters plus
        Perfetto counter-track samples on the cycle clock."""
        summary = self.check_summary()
        for cat in CHECK_CATEGORIES:
            registry.counter("blockprof.check_cycles", kind=cat).inc(
                summary[cat]["cycles"]
            )
            registry.counter("blockprof.check_count", kind=cat).inc(
                summary[cat]["count"]
            )
        registry.counter("blockprof.blocks").inc(len(self.cycles))
        registry.counter("blockprof.edges").inc(len(self.edges))
        # Close the trajectory with the final totals so short runs
        # (under one stride) still draw a track.
        wall = max(self._machine.core_cycles) if self._machine.core_cycles else 0
        final = (self._steps, wall, self._track_values())
        for _steps, ts, values in [*self.samples, final]:
            for track, value in sorted(values.items()):
                registry.add_counter_sample(track, ts, value)


def attach_block_profiler(machine) -> BlockProfiler:
    """Attach a fresh block profiler via the machine's step-hook API."""
    profiler = BlockProfiler(machine)
    machine.add_step_hook(profiler.on_step)
    return profiler


def detach_block_profiler(machine, profiler: BlockProfiler) -> None:
    """Stop a profiler attached with :func:`attach_block_profiler`."""
    machine.remove_step_hook(profiler.on_step)


def write_flamegraph(profiler: BlockProfiler, path: str) -> None:
    """Write the collapsed-stack profile to ``path`` (one frame per
    line, ``flamegraph.pl``/speedscope-compatible)."""
    with open(path, "w") as handle:
        for line in profiler.flamegraph_lines():
            handle.write(line + "\n")
