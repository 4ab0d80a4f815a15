"""The virtual CPU: executes linked binaries with cycle accounting.

The machine implements ConfISA exactly as the instrumentation expects:

* memory operands compute ``seg + (base & 0xffffffff) + ...`` when the
  32-bit segmentation addressing is in use, so fs/gs-prefixed accesses
  physically cannot escape their segment (Section 3);
* MPX bound checks compare against the ``bnd0``/``bnd1`` ranges the
  loader installed and fault on violation;
* CFI checks read *code as data*: ``CheckMagic`` fetches the 64-bit
  encoding of the word at the target address and compares it with the
  (re-negated) expected magic value (Section 4);
* unmapped accesses fault — guard areas are simply unmapped.

Two execution engines share these semantics:

* the **superblock** engine (default) fuses each basic block into one
  generated Python function (:mod:`repro.machine.superblock`), paying
  dispatch once per block with Stats/cycle accounting batched between
  fault points.  Where execution must be observed one instruction at a
  time — budget tails, step hooks, multi-thread quanta, and trusted
  callbacks — it steps through one-instruction blocks from the same
  generator, so there is a single fast implementation of the ISA;
* the **reference** engine is the one-``_step``-at-a-time dict-dispatch
  interpreter over the ``_i_*`` handlers below, kept as a debuggable
  executable specification (and the oracle the superblock engine is
  tested against).  Instructions the generator does not specialize run
  through these same handlers inline.

The engines are observably identical — simulated cycles, ``Stats``
counters, fault kinds/addresses, and the ``add_step_hook`` API agree
bit-for-bit (pinned by the differential suite under
``tests/machine/test_engine_equivalence.py``); only host wall-clock
differs.

Multi-threading is round-robin over a fixed number of cores with
per-core cycle counters and per-core L1 caches; simulated wall-clock
time is the maximum core time.
"""

from __future__ import annotations

from ..arith import MASK64, eval_bin, eval_un, signed
from ..backend import isa, regs
from ..errors import (
    FAULT_BOUNDS,
    FAULT_CFI,
    FAULT_CHKSTK,
    FAULT_EXEC,
    FAULT_UNMAPPED,
    MachineFault,
)
from ..link.layout import CODE_BASE, NATIVE_BASE, THREAD_STACK_SIZE
from . import costs
from .cache import LINE_SIZE, L1Cache
from .memory import Memory
from .superblock import BlockFuser

MASK32 = 0xFFFFFFFF

ENGINE_SUPERBLOCK = "superblock"
ENGINE_REFERENCE = "reference"
#: Every engine ``Machine`` accepts; the CLI and library entry points
#: offer exactly these, defaulting to ``DEFAULT_ENGINE``.
ENGINES = (ENGINE_SUPERBLOCK, ENGINE_REFERENCE)
DEFAULT_ENGINE = ENGINE_SUPERBLOCK


class Thread:
    __slots__ = (
        "tid",
        "regs",
        "pc",
        "alive",
        "core",
        "shadow",
        "pub_stack",
        "priv_stack",
        "waiting_on",
        "ready_time",
        "finish_time",
    )

    def __init__(self, tid: int, core: int):
        self.tid = tid
        self.regs = [0] * regs.NUM_GPRS
        self.pc = 0
        self.alive = True
        self.core = core
        self.shadow: list[int] = []
        self.pub_stack = (0, 0)
        self.priv_stack = (0, 0)
        # tid of a thread this one is blocked joining on (consumes no
        # core cycles while set).
        self.waiting_on: int | None = None
        # Virtual-time bookkeeping: a thread cannot execute before it
        # was spawned, and a joiner resumes no earlier than the target
        # finished.
        self.ready_time = 0
        self.finish_time = 0


class Stats:
    __slots__ = (
        "instructions",
        "bnd_checks",
        "cfi_checks",
        "calls",
        "t_calls",
        "loads",
        "stores",
        "faults",
    )

    def __init__(self):
        self.instructions = 0
        self.bnd_checks = 0
        self.cfi_checks = 0
        self.calls = 0
        self.t_calls = 0
        self.loads = 0
        self.stores = 0
        # Fault kind -> occurrence count (a fault normally ends the run,
        # but callers that catch-and-restart keep accumulating here).
        self.faults: dict[str, int] = {}


class Machine:
    def __init__(self, binary, natives, n_cores: int = 4,
                 engine: str = DEFAULT_ENGINE):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick from {ENGINES}")
        self.binary = binary
        self.config = binary.config
        self.layout = binary.layout
        self.code = binary.code
        self.natives = natives  # list of callables(machine, thread)
        self.mem = Memory()
        self.n_cores = n_cores
        self.caches = [L1Cache() for _ in range(n_cores)]
        self.core_cycles = [0] * n_cores
        self.threads: list[Thread] = []
        self.stats = Stats()
        self.exit_code: int | None = None
        # Architectural state installed by the loader:
        self.fs_base = 0
        self.gs_base = 0
        self.bnd = [(0, 0), (0, 0)]  # bnd0 (public), bnd1 (private)
        self._next_tid = 0
        # Post-load image captured by seal(); reset() rewinds to it.
        self._image_state = None
        # Step hooks: callables (thread, pc, insn, cycles) invoked after
        # every retired instruction.  Empty by default; the fast path
        # pays one truthiness test per instruction and nothing else.
        self._step_hooks: list = []
        # While hooks are attached, the cache-miss delta of the retiring
        # instruction (on the executing thread's core) is published here
        # before the hooks run, so profilers can attribute L1 events
        # per block without changing the hook signature.  Never updated
        # on the hook-free fast path.
        self.hook_cache_misses = 0
        self._dispatch = {
            isa.MagicWord: self._i_magic,
            isa.MovRI: self._i_mov_ri,
            isa.MovRR: self._i_mov_rr,
            isa.MovFuncAddr: self._i_mov_fa,
            isa.Alu: self._i_alu,
            isa.SetCC: self._i_setcc,
            isa.Load: self._i_load,
            isa.Store: self._i_store,
            isa.Lea: self._i_lea,
            isa.Push: self._i_push,
            isa.Pop: self._i_pop,
            isa.Jmp: self._i_jmp,
            isa.JmpTable: self._i_jmp_table,
            isa.Br: self._i_br,
            isa.CallD: self._i_call_d,
            isa.CallI: self._i_call_i,
            isa.RetPlain: self._i_ret,
            isa.JmpInd: self._i_jmp_ind,
            isa.JmpReg: self._i_jmp_reg,
            isa.CheckMagic: self._i_check_magic,
            isa.BndChk: self._i_bndchk,
            isa.ChkStk: self._i_chkstk,
            isa.TlsBase: self._i_tlsbase,
            isa.ShadowPush: self._i_shadow_push,
            isa.ShadowPop: self._i_shadow_pop,
            isa.Halt: self._i_halt,
            isa.Fail: self._i_fail,
        }
        self.engine = engine
        # The superblock engine's block generator and per-pc block
        # caches; None on the reference engine.
        self._fuser = None
        if engine == ENGINE_REFERENCE:
            self._step = self._step_reference
        else:
            self._fuser = BlockFuser(self)
            self._step = self._step_superblock

    # ------------------------------------------------------------------
    # Step hooks (the supported way to observe execution; replaces the
    # old pattern of monkey-patching ``_step``, which composed wrongly
    # when attached twice)

    def add_step_hook(self, hook) -> None:
        """Register ``hook(thread, pc, insn, cycles)`` to run after each
        retired instruction.  ``cycles`` is the simulated cost the
        instruction added to its core, cache penalties included; the
        instruction's cache-miss count is readable from
        ``machine.hook_cache_misses`` during the callback."""
        if hook in self._step_hooks:
            raise ValueError("step hook already attached")
        self._step_hooks.append(hook)

    def remove_step_hook(self, hook) -> None:
        self._step_hooks.remove(hook)

    # ------------------------------------------------------------------
    # Thread management

    def spawn(self, pc: int, stack_slot: int | None = None) -> Thread:
        tid = self._next_tid
        self._next_tid += 1
        slot = stack_slot if stack_slot is not None else tid
        thread = Thread(tid, core=tid % self.n_cores)
        thread.pc = pc
        pub_lo, pub_hi = self.layout.stack_range(False, slot)
        thread.pub_stack = (pub_lo, pub_hi)
        if self.layout.private is not None:
            thread.priv_stack = self.layout.stack_range(True, slot)
        # Leave headroom and keep 16-byte alignment.
        thread.regs[regs.RSP] = pub_hi - 64
        self.threads.append(thread)
        return thread

    @property
    def wall_cycles(self) -> int:
        return max(self.core_cycles)

    @property
    def total_cycles(self) -> int:
        return sum(self.core_cycles)

    # ------------------------------------------------------------------
    # Image snapshot / reset

    def seal(self):
        """Freeze the current state as this machine's *image* — the
        point ``reset()`` rewinds to.  The loader seals every machine
        at the end of ``load()``, so a loaded machine can always be
        rewound to its pristine post-load state without re-linking."""
        from .snapshot import MachineState

        self._image_state = MachineState.capture(self)
        return self._image_state

    def reset(self) -> None:
        """Restore the sealed post-load image in place: memory (lazy,
        copy-on-write), caches, cycle counters, Stats, threads, and
        protection state.  Step hooks stay attached."""
        if self._image_state is None:
            raise ValueError("machine was never sealed; cannot reset")
        self._image_state.restore(self)

    # ------------------------------------------------------------------
    # Execution

    def run(self, max_instructions: int = 500_000_000) -> int:
        """Run until every thread halts; returns main's exit code."""
        try:
            return self._run_loop(max_instructions)
        except MachineFault as fault:
            self.stats.faults[fault.kind] = (
                self.stats.faults.get(fault.kind, 0) + 1
            )
            raise

    def _run_loop(self, max_instructions: int) -> int:
        budget = max_instructions
        quantum = 64
        step = self._step
        while True:
            alive = [t for t in self.threads if t.alive]
            if not alive:
                break
            runnable = []
            for thread in alive:
                if thread.waiting_on is not None:
                    target = next(
                        (t for t in self.threads if t.tid == thread.waiting_on),
                        None,
                    )
                    if target is not None and target.alive:
                        continue  # blocked: burns no cycles
                    thread.waiting_on = None
                    if target is not None:
                        # Resume no earlier than the join target ended.
                        core = thread.core
                        self.core_cycles[core] = max(
                            self.core_cycles[core], target.finish_time
                        )
                # A core idles until the thread it hosts is spawned.
                if self.core_cycles[thread.core] < thread.ready_time:
                    self.core_cycles[thread.core] = thread.ready_time
                runnable.append(thread)
            if not runnable:
                raise MachineFault("deadlock", "all live threads blocked")
            if (
                self._fuser is not None
                and not self._step_hooks
                and len(alive) == 1
                and len(runnable) == 1
            ):
                # Single live thread on the superblock engine: stay in
                # the hot loop until the schedule could change.
                budget = self._run_hot_superblock(
                    runnable[0], budget, max_instructions
                )
                continue
            for thread in runnable:
                if not thread.alive:
                    continue
                for _ in range(quantum):
                    if not thread.alive:
                        break
                    # The budget gates *starting* an instruction, so a
                    # program whose final budgeted instruction halts it
                    # still returns its exit code instead of being
                    # misreported as evicted.
                    if budget <= 0:
                        raise MachineFault(
                            "instruction-budget-exhausted",
                            f"exceeded {max_instructions} instructions",
                        )
                    step(thread)
                    budget -= 1
        return self.exit_code if self.exit_code is not None else 0

    def _run_hot_superblock(self, thread: Thread, budget: int,
                            max_instructions: int) -> int:
        """The superblock hot loop: run the only live thread through
        lazily fused basic-block functions.

        The observable schedule is the generic loop's 64-instruction
        quantum grid: for a single thread it shows only at budget
        faults and schedule changes (thread died, blocked on a join,
        spawned another thread, or a step hook appeared), and
        everything in between is a pure performance detail.  So the
        relaxed phase runs whole blocks back to back with no quantum
        bookkeeping while more than one block's worth of budget
        remains, checking the schedule only after blocks that can
        change it (fuse marks blocks containing ``Halt`` or a native
        gateway as impure).  Once the budget gets close, or a schedule
        event fires mid-grid, the precise phase single-steps
        one-instruction blocks up to the exact quantum boundary the
        grid would have used, so budget faults and schedule-change
        returns land on bit-identical machine states.  The budget
        gates *starting* an instruction, never a program that halts on
        its final budgeted instruction.  Returns the remaining budget.
        """
        fuser = self._fuser
        blocks = fuser.blocks
        fuse = fuser.fuse
        singles = fuser.singles
        single = fuser.single
        n = len(blocks)
        threads = self.threads
        n_threads = len(threads)
        hooks = self._step_hooks
        budget0 = budget
        executed = 0
        while budget0 - executed > 64:
            pc = thread.pc
            if not 0 <= pc < n:
                raise MachineFault(FAULT_EXEC, f"pc out of code: {pc}")
            entry = blocks[pc] or fuse(pc)
            entry[0](thread)
            executed += entry[1]
            if entry[2]:
                continue
            if (
                not thread.alive
                or thread.waiting_on is not None
                or len(threads) != n_threads
                or hooks
            ):
                break
        while True:
            event = (
                not thread.alive
                or thread.waiting_on is not None
                or len(threads) != n_threads
                or hooks
            )
            if event:
                # Finish the quantum the event fell inside: the grid
                # only yields on a 64-instruction (or budget) boundary.
                target = min(-(-executed // 64) * 64, budget0)
            elif executed >= budget0:
                raise MachineFault(
                    "instruction-budget-exhausted",
                    f"exceeded {max_instructions} instructions",
                )
            else:
                target = min((executed // 64 + 1) * 64, budget0)
            while executed < target and thread.alive:
                pc = thread.pc
                if not 0 <= pc < n:
                    raise MachineFault(FAULT_EXEC, f"pc out of code: {pc}")
                (singles[pc] or single(pc))(thread)
                executed += 1
            if event:
                return budget0 - executed

    def _step_reference(self, thread: Thread) -> None:
        """One instruction via dict dispatch (the reference engine)."""
        pc = thread.pc
        if not 0 <= pc < len(self.code):
            # An explicit bounds check: Python's negative indexing would
            # otherwise let a negative PC silently wrap around and
            # execute the wrong instruction instead of faulting.
            raise MachineFault(FAULT_EXEC, f"pc out of code: {pc}")
        insn = self.code[pc]
        hooks = self._step_hooks
        if not hooks:
            self._retire(thread, insn)
            return
        cache = self.caches[thread.core]
        before = self.core_cycles[thread.core]
        misses_before = cache.misses
        self._retire(thread, insn)
        cycles = self.core_cycles[thread.core] - before
        self.hook_cache_misses = cache.misses - misses_before
        for hook in hooks:
            hook(thread, pc, insn, cycles)

    def _step_superblock(self, thread: Thread) -> None:
        """One instruction via its one-instruction generated block,
        reported to the step hooks exactly like the reference step.
        (The hook bookkeeping is repeated rather than shared with
        ``_step_reference``: a helper call per instruction made hooked
        runs about 20% slower.)"""
        pc = thread.pc
        singles = self._fuser.singles
        if not 0 <= pc < len(singles):
            raise MachineFault(FAULT_EXEC, f"pc out of code: {pc}")
        fn = singles[pc] or self._fuser.single(pc)
        hooks = self._step_hooks
        if not hooks:
            fn(thread)
            return
        core_cycles = self.core_cycles
        cache = self.caches[thread.core]
        before = core_cycles[thread.core]
        misses_before = cache.misses
        fn(thread)
        cycles = core_cycles[thread.core] - before
        self.hook_cache_misses = cache.misses - misses_before
        insn = self.code[pc]
        for hook in hooks:
            hook(thread, pc, insn, cycles)

    def _retire(self, thread: Thread, insn) -> None:
        """Charge and execute one instruction by the reference
        semantics.  The superblock generator calls this inline for the
        instruction kinds it does not specialize."""
        self.stats.instructions += 1
        self.core_cycles[thread.core] += costs.BASE_COST[insn.cost_class]
        self._dispatch[type(insn)](thread, insn)

    def charge(self, thread: Thread, cycles: int) -> None:
        self.core_cycles[thread.core] += cycles

    def publish_metrics(self, registry) -> None:
        """Snapshot execution counters into an obs registry.

        Counter names follow docs/OBSERVABILITY.md; calling this twice
        on the same registry accumulates (counters are monotonic).
        """
        stats = self.stats
        counter = registry.counter
        counter("machine.instructions").inc(stats.instructions)
        counter("machine.checks", kind="bnd").inc(stats.bnd_checks)
        counter("machine.checks", kind="cfi").inc(stats.cfi_checks)
        counter("machine.calls").inc(stats.calls)
        counter("machine.t_calls").inc(stats.t_calls)
        if self.config.separate_tu:
            counter("machine.t_stack_switches").inc(stats.t_calls)
        counter("machine.loads").inc(stats.loads)
        counter("machine.stores").inc(stats.stores)
        counter("machine.cycles.wall").inc(self.wall_cycles)
        counter("machine.cycles.total").inc(self.total_cycles)
        counter("machine.threads").inc(len(self.threads))
        counter("machine.cache.hits").inc(sum(c.hits for c in self.caches))
        counter("machine.cache.misses").inc(sum(c.misses for c in self.caches))
        for kind in sorted(stats.faults):
            counter("machine.faults", kind=kind).inc(stats.faults[kind])

    # ------------------------------------------------------------------
    # Operand helpers

    def _val(self, thread: Thread, operand) -> int:
        if isinstance(operand, isa.Imm):
            return operand.value & MASK64
        return thread.regs[operand]

    def effective_address(self, thread: Thread, mem: isa.Mem) -> int:
        if mem.abs is not None:
            addr = mem.abs + mem.disp
            if mem.index is not None:
                index = thread.regs[mem.index]
                if mem.use32:
                    index &= MASK32
                addr += index * mem.scale
        else:
            base = thread.regs[mem.base]
            if mem.use32:
                base &= MASK32
            addr = base + mem.disp
            if mem.index is not None:
                index = thread.regs[mem.index]
                if mem.use32:
                    index &= MASK32
                addr += index * mem.scale
        if mem.seg == isa.SEG_FS:
            addr += self.fs_base
        elif mem.seg == isa.SEG_GS:
            addr += self.gs_base
        return addr & MASK64

    def _touch(self, thread: Thread, addr: int, size: int = 1) -> None:
        """Charge L1 traffic for every cache line the access spans.

        An access crossing a 64-byte line boundary occupies both lines
        (the cache-pressure effect the Figure 6 OurMPX vs OurMPX-Sep
        gap is built on), so each spanned line is touched and each miss
        charged — not just the first.
        """
        cache = self.caches[thread.core]
        if (addr & (LINE_SIZE - 1)) + size <= LINE_SIZE:
            if not cache.access(addr):
                self.core_cycles[thread.core] += costs.CACHE_MISS_PENALTY
            return
        misses = cache.access_span(addr, size)
        if misses:
            self.core_cycles[thread.core] += (
                misses * costs.CACHE_MISS_PENALTY
            )

    def read_data(self, thread: Thread, addr: int, size: int) -> int:
        if addr >= CODE_BASE:
            word = self.read_code_word(addr)
            if size >= 8:
                return word
            # Sub-word reads of code-as-data truncate to the requested
            # width, exactly like sub-word reads of ordinary memory.
            return word & ((1 << (8 * size)) - 1)
        self._touch(thread, addr, size)
        return self.mem.read_int(addr, size)

    def write_data(self, thread: Thread, addr: int, size: int, value: int):
        if addr >= CODE_BASE:
            raise MachineFault(FAULT_UNMAPPED, "write to code space", addr=addr)
        self._touch(thread, addr, size)
        self.mem.write_int(addr, size, value)

    def read_code_word(self, addr: int) -> int:
        index = addr - CODE_BASE
        if 0 <= index < len(self.code):
            return self.code[index].encoding()
        raise MachineFault(FAULT_UNMAPPED, "code read out of range", addr=addr)

    # ------------------------------------------------------------------
    # Instruction semantics (reference engine)

    def _i_magic(self, t, insn):
        t.pc += 1

    def _i_mov_ri(self, t, insn):
        t.regs[insn.dst] = insn.imm & MASK64
        t.pc += 1

    def _i_mov_rr(self, t, insn):
        t.regs[insn.dst] = t.regs[insn.src]
        t.pc += 1

    def _i_mov_fa(self, t, insn):
        t.regs[insn.dst] = insn.value & MASK64
        t.pc += 1

    def _i_alu(self, t, insn):
        a = self._val(t, insn.a)
        if insn.op in ("neg", "not"):
            t.regs[insn.dst] = eval_un(insn.op, a)
        else:
            t.regs[insn.dst] = eval_bin(insn.op, a, self._val(t, insn.b))
        t.pc += 1

    def _i_setcc(self, t, insn):
        t.regs[insn.dst] = eval_bin(
            insn.op, self._val(t, insn.a), self._val(t, insn.b)
        )
        t.pc += 1

    def _i_load(self, t, insn):
        addr = self.effective_address(t, insn.mem)
        t.regs[insn.dst] = self.read_data(t, addr, insn.size)
        self.stats.loads += 1
        t.pc += 1

    def _i_store(self, t, insn):
        addr = self.effective_address(t, insn.mem)
        self.write_data(t, addr, insn.size, self._val(t, insn.src))
        self.stats.stores += 1
        t.pc += 1

    def _i_lea(self, t, insn):
        t.regs[insn.dst] = self.effective_address(t, insn.mem)
        t.pc += 1

    def _i_push(self, t, insn):
        rsp = (t.regs[regs.RSP] - 8) & MASK64
        t.regs[regs.RSP] = rsp
        self.write_data(t, rsp, 8, self._val(t, insn.src))
        t.pc += 1

    def _i_pop(self, t, insn):
        rsp = t.regs[regs.RSP]
        t.regs[insn.dst] = self.read_data(t, rsp, 8)
        t.regs[regs.RSP] = (rsp + 8) & MASK64
        t.pc += 1

    def _i_jmp(self, t, insn):
        t.pc = insn.addr

    def _i_jmp_table(self, t, insn):
        index = signed(t.regs[insn.reg]) - insn.base
        if not (0 <= index < len(insn.addrs)):
            raise MachineFault(FAULT_EXEC, "jump-table index out of range")
        # Table load + indirect branch.
        self.core_cycles[t.core] += 1 + costs.INDIRECT_JUMP_EXTRA
        t.pc = insn.addrs[index]

    def _i_br(self, t, insn):
        taken = eval_bin(insn.op, self._val(t, insn.a), self._val(t, insn.b))
        t.pc = insn.addr if taken else t.pc + 1

    def _i_call_d(self, t, insn):
        self.stats.calls += 1
        retaddr = CODE_BASE + t.pc + 1
        rsp = (t.regs[regs.RSP] - 8) & MASK64
        t.regs[regs.RSP] = rsp
        self.write_data(t, rsp, 8, retaddr)
        t.pc = insn.addr

    def _i_call_i(self, t, insn):
        self.stats.calls += 1
        target = t.regs[insn.reg]
        if not (CODE_BASE <= target < CODE_BASE + len(self.code)):
            raise MachineFault(FAULT_EXEC, "indirect call outside code",
                               addr=target)
        retaddr = CODE_BASE + t.pc + 1
        rsp = (t.regs[regs.RSP] - 8) & MASK64
        t.regs[regs.RSP] = rsp
        self.write_data(t, rsp, 8, retaddr)
        t.pc = target - CODE_BASE

    def _i_ret(self, t, insn):
        rsp = t.regs[regs.RSP]
        target = self.read_data(t, rsp, 8)
        t.regs[regs.RSP] = (rsp + 8) & MASK64
        if not (CODE_BASE <= target < CODE_BASE + len(self.code)):
            raise MachineFault(FAULT_EXEC, "return outside code", addr=target)
        t.pc = target - CODE_BASE

    def _i_jmp_ind(self, t, insn):
        addr = self.effective_address(t, insn.mem)
        target = self.read_data(t, addr, 8)
        self.core_cycles[t.core] += costs.INDIRECT_JUMP_EXTRA
        if target >= NATIVE_BASE:
            self._native(t, target - NATIVE_BASE)
            return
        if CODE_BASE <= target < CODE_BASE + len(self.code):
            t.pc = target - CODE_BASE
            return
        raise MachineFault(FAULT_EXEC, "indirect jump target", addr=target)

    def _i_jmp_reg(self, t, insn):
        target = t.regs[insn.reg] + insn.skip
        self.core_cycles[t.core] += costs.INDIRECT_JUMP_EXTRA
        # Strict upper bound: CODE_BASE + len(code) is one past the last
        # word and must fault here, not execute garbage.
        if not (CODE_BASE <= target < CODE_BASE + len(self.code)):
            raise MachineFault(FAULT_EXEC, "jump outside code", addr=target)
        t.pc = target - CODE_BASE

    def _i_check_magic(self, t, insn):
        self.stats.cfi_checks += 1
        target = t.regs[insn.reg]
        word = self.read_code_word(target)  # faults if not code
        expected = ~insn.inv_value & MASK64
        if word != expected:
            raise MachineFault(
                FAULT_CFI,
                f"magic mismatch at target (kind={insn.kind})",
                addr=target,
            )
        t.pc += 1

    def _i_bndchk(self, t, insn):
        self.stats.bnd_checks += 1
        if insn.mem is not None:
            addr = self.effective_address(t, insn.mem)
            self.core_cycles[t.core] += costs.BNDCHK_MEM_EXTRA
        else:
            addr = t.regs[insn.reg]
        lo, hi = self.bnd[insn.bnd]
        if not (lo <= addr < hi):
            raise MachineFault(
                FAULT_BOUNDS,
                f"bnd{insn.bnd} violation [{lo:#x},{hi:#x})",
                addr=addr,
            )
        t.pc += 1

    def _i_chkstk(self, t, insn):
        rsp = t.regs[regs.RSP]
        lo, hi = t.pub_stack
        if not (lo <= rsp <= hi):
            raise MachineFault(FAULT_CHKSTK, "rsp escaped its stack", addr=rsp)
        t.pc += 1

    def _i_tlsbase(self, t, insn):
        t.regs[insn.dst] = t.regs[regs.RSP] & ~(THREAD_STACK_SIZE - 1)
        t.pc += 1

    def _i_shadow_push(self, t, insn):
        t.shadow.append(self.read_data(t, t.regs[regs.RSP], 8))
        t.pc += 1

    def _i_shadow_pop(self, t, insn):
        actual = self.read_data(t, t.regs[regs.RSP], 8)
        if not t.shadow or t.shadow.pop() != actual:
            raise MachineFault(FAULT_CFI, "shadow stack mismatch")
        t.pc += 1

    def _i_halt(self, t, insn):
        t.alive = False
        t.finish_time = self.core_cycles[t.core]
        if t.tid == 0:
            self.exit_code = t.regs[regs.RAX]

    def _i_fail(self, t, insn):
        raise MachineFault(FAULT_CFI, "__debugbreak reached")

    # ------------------------------------------------------------------
    # Trusted dispatch

    def _native(self, t: Thread, index: int) -> None:
        self.stats.t_calls += 1
        if not (0 <= index < len(self.natives)):
            raise MachineFault(FAULT_EXEC, f"bad native index {index}")
        self.natives[index](self, t)
