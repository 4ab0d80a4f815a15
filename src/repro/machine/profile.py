"""Per-function cycle profiling.

Attributes simulated cycles, instruction counts, and executed bnd/CFI
check counts to functions by symbolizing the program counter against the
linked binary's label map — the same magic-word anchoring ConfVerify
uses for procedure discovery.  Useful for understanding *where*
instrumentation overhead lands (e.g. Figure 7's claim that ~70% of
Privado's time is one tight loop).

The profiler registers through :meth:`Machine.add_step_hook` — the
supported observation API — rather than monkey-patching ``_step``, so
multiple observers compose and double-attachment is an error instead of
silent double counting.  The hook contract is engine-independent:
attribution is identical under the superblock and reference engines
(while a hook is attached the superblock engine steps one-instruction
blocks instead of whole fused ones, so every retired instruction is
reported with its exact cycle cost either way).

Usage::

    process = compile_and_load(src, OUR_MPX)
    profiler = attach_profiler(process.machine)
    process.run()
    for row in profiler.report(top=5):
        print(row.name, row.cycles, row.bnd_checks, row.cfi_checks)
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..backend import isa


@dataclass
class ProfileRow:
    name: str
    cycles: int
    instructions: int
    cycle_share: float
    bnd_checks: int = 0
    cfi_checks: int = 0


class Profiler:
    def __init__(self, binary):
        # Build sorted (start, name) ranges over the code space.
        # Function labels carry no dot; block labels ("f.bb.3") do.
        # Stubs and loader thunks get their own buckets.
        starts: list[tuple[int, str]] = []
        for name, addr in binary.label_addrs.items():
            is_function = "." not in name
            if is_function or name.startswith("stub."):
                starts.append((addr, name))
        starts.sort()
        self._starts = [s for s, _n in starts]
        self._names = [n for _s, n in starts]
        self.cycles: dict[str, int] = {}
        self.instructions: dict[str, int] = {}
        self.bnd_checks: dict[str, int] = {}
        self.cfi_checks: dict[str, int] = {}

    def symbolize(self, pc: int) -> str:
        index = bisect.bisect_right(self._starts, pc) - 1
        if index < 0:
            return "<prelude>"
        return self._names[index]

    def account(
        self, pc: int, cycles: int, insn: isa.Insn | None = None
    ) -> None:
        name = self.symbolize(pc)
        self.cycles[name] = self.cycles.get(name, 0) + cycles
        self.instructions[name] = self.instructions.get(name, 0) + 1
        if insn is not None:
            if isinstance(insn, isa.BndChk):
                self.bnd_checks[name] = self.bnd_checks.get(name, 0) + 1
            elif isinstance(insn, isa.CheckMagic):
                self.cfi_checks[name] = self.cfi_checks.get(name, 0) + 1

    def on_step(self, thread, pc: int, insn, cycles: int) -> None:
        """Machine step-hook entry point (see ``Machine.add_step_hook``)."""
        self.account(pc, cycles, insn)

    def report(self, top: int | None = None) -> list[ProfileRow]:
        total = sum(self.cycles.values()) or 1
        rows = [
            ProfileRow(
                name=name,
                cycles=cycles,
                instructions=self.instructions.get(name, 0),
                cycle_share=cycles / total,
                bnd_checks=self.bnd_checks.get(name, 0),
                cfi_checks=self.cfi_checks.get(name, 0),
            )
            for name, cycles in self.cycles.items()
        ]
        # Cycles-descending with the name as a tie-break, so functions
        # with equal cycle counts never flip between runs.
        rows.sort(key=lambda r: (-r.cycles, r.name))
        return rows[:top] if top else rows


def attach_profiler(machine) -> Profiler:
    """Attach a fresh profiler via the machine's step-hook API.

    Each call attaches an independent profiler; attaching the *same*
    hook twice raises (``Machine.add_step_hook`` rejects duplicates), so
    cycles can no longer be double-counted by accident.
    """
    profiler = Profiler(machine.binary)
    machine.add_step_hook(profiler.on_step)
    return profiler


def detach_profiler(machine, profiler: Profiler) -> None:
    """Stop a profiler attached with :func:`attach_profiler`."""
    machine.remove_step_hook(profiler.on_step)
