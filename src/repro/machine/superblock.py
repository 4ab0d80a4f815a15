"""Basic-block code generation for the superblock engine.

The superblock engine is the machine's one fast implementation of the
ISA.  :class:`BlockFuser` walks ``machine.code`` from a block leader to
the next control-flow terminator and generates **one Python function
for the whole block**, with

* every common instruction shape (moves, ALU ops including div/mod,
  compares, loads, stores, push/pop, bnd/CFI/stack checks, direct
  calls, branches, returns, register jumps) inlined as straight-line
  statements specialized on its operands;
* ``Stats``/cycle accounting *batched*: every per-instruction charge in
  a block is statically known at fuse time, so the fault-free path pays
  one flush at block exit.  Exactness at faults is preserved by a
  deoptimization path — the block body runs under ``try/except
  MachineFault``, each fallible statement records its pc first, and the
  handler replays the cumulative pre-fault charges for that pc from a
  precomputed table before re-raising.  Counters, cycles, and the
  faulting ``t.pc`` are therefore bit-identical to per-instruction
  execution at any fault, while costing the hot path nothing;
* the rare kinds (jump tables, indirect calls and jumps, shadow-stack
  ops, anything unknown) run through the reference engine's ``_i_*``
  handler via :meth:`Machine._retire`, with accumulated accounting
  flushed and ``t.pc`` written first so the handler observes
  per-instruction-exact state.  Such a pc has no reconciliation entry:
  a fault there leaves exactly the reference engine's state.

A one-instruction block is the per-instruction case: :meth:`single`
generates those for the paths that must retire one instruction at a
time (budget tails, step hooks, multi-thread quanta, trusted
callbacks), so no path falls back to a second implementation.

Generation is lazy (the first time execution reaches a pc) and position
independent at the source level: generated sources embed only literals
and positional ``O{n}`` names for per-machine objects, so the compiled
code object is cached process-wide by source text.  A forked serving
instance therefore pays only a cheap ``exec`` of an already-compiled
code object per block it actually executes.

Blocks are capped at the scheduler quantum (64 instructions); the
driver in :meth:`Machine._run_hot_superblock` never lets a fused block
cross a quantum boundary, which keeps budget faults and multi-thread
interleavings bit-identical to the reference engine (pinned by
``tests/machine/test_engine_equivalence.py``).
"""

from __future__ import annotations

from ..arith import MASK64, SIGN_BIT, signed
from ..backend import isa, regs
from ..errors import (
    FAULT_BOUNDS,
    FAULT_CFI,
    FAULT_CHKSTK,
    FAULT_DIV,
    FAULT_EXEC,
    FAULT_PERM,
    FAULT_UNMAPPED,
    MachineFault,
)
from ..link.layout import CODE_BASE, THREAD_STACK_SIZE
from . import costs
from .cache import DEFAULT_SETS, LINE_BITS, LINE_SIZE
from .memory import PAGE_MASK, PAGE_SIZE

MASK32 = 0xFFFFFFFF
TWO64 = 1 << 64

#: Longest fusable block — one scheduler quantum.  Longer straight-line
#: runs are split; the tail simply starts its own block.
MAX_BLOCK = 64

#: Instructions that end a basic block (every way control can leave).
TERMINATORS = (
    isa.Jmp,
    isa.Br,
    isa.JmpTable,
    isa.CallD,
    isa.CallI,
    isa.RetPlain,
    isa.JmpInd,
    isa.JmpReg,
    isa.Halt,
    isa.Fail,
)

_SIGNED_SYMS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_EQ_SYMS = {"eq": "==", "ne": "!="}
_BIT_SYMS = {"and": "&", "or": "|", "xor": "^"}
_ALU_BINARY = frozenset(
    ("add", "sub", "mul", "div", "mod", "shl", "shr") + tuple(_BIT_SYMS)
)

#: Delegated instruction kinds that are known to be schedule-neutral:
#: they may fault (which propagates) but can never kill the thread,
#: spawn/unblock another one, or attach a step hook.  ``JmpInd`` is the
#: one gateway to natives (spawn/join/recv) and is deliberately absent;
#: so is ``Halt``.  Blocks containing only neutral work are "pure" and
#: let the driver skip its schedule checks.
_NEUTRAL_DELEGATES = frozenset(
    (isa.JmpTable, isa.CallI, isa.ShadowPush, isa.ShadowPop)
)

#: Process-wide source -> compiled code object cache.  Sources embed no
#: machine state (only literals and positional O{n} globals), so every
#: fork of an image — and every machine running the same code shape —
#: shares one compile.
_CODE_CACHE: dict[str, object] = {}


def code_cache_size() -> int:
    """Number of distinct block sources compiled so far (test hook)."""
    return len(_CODE_CACHE)


class BlockFuser:
    """Per-machine block generator and cache.

    ``fuse(pc) -> (fn, count, pure)``: ``fn`` runs the whole block
    starting at ``pc`` on a thread; ``count`` is how many instructions
    it retires; ``pure`` is True when the block cannot change the thread
    schedule (no ``Halt``, no native gateway), which lets the driver
    skip its per-block schedule checks.  ``single(pc) -> fn`` is the
    one-instruction block at ``pc``.  Both results are cached per pc in
    ``blocks`` / ``singles`` (``None`` until first reached).
    """

    def __init__(self, machine):
        self.machine = machine
        n = len(machine.code)
        self.blocks: list = [None] * n
        self.singles: list = [None] * n
        caches = machine.caches
        core_cycles = machine.core_cycles
        miss = costs.CACHE_MISS_PENALTY
        line_mask = LINE_SIZE - 1
        # The generated most-recently-used fast path indexes the set
        # array with a literal mask, so it is only valid for the
        # default L1 geometry; odd geometries fall back to access().
        self.inline_cache = all(
            getattr(cache, "_n_sets", 0) == DEFAULT_SETS
            for cache in caches
        )

        def touch(core, addr, size):
            # Span-aware L1 charge (Machine._touch with a core index).
            if (addr & line_mask) + size <= LINE_SIZE:
                if not caches[core].access(addr):
                    core_cycles[core] += miss
            else:
                misses = caches[core].access_span(addr, size)
                if misses:
                    core_cycles[core] += misses * miss

        # Shared globals for every generated block function.  All of
        # these are captured by reference; the loader and
        # MachineState.restore mutate them in place (never rebind), so
        # generated blocks stay coherent across loads and resets.
        self.base_ns = {
            "S": machine.stats,
            "C": core_cycles,
            "CACHES": caches,
            "BND": machine.bnd,
            "PAGES": machine.mem._pages,
            "RO": machine.mem._ro_pages,
            "MREAD": machine.mem.read_int,
            "MWRITE": machine.mem.write_int,
            "FB": int.from_bytes,
            "RCW": machine.read_code_word,
            "TOUCH": touch,
            "RETIRE": machine._retire,
            "MACH": machine,
            "MF": MachineFault,
            "FU": FAULT_UNMAPPED,
            "FP": FAULT_PERM,
            "FC": FAULT_CFI,
            "FBND": FAULT_BOUNDS,
            "FK": FAULT_CHKSTK,
            "FD": FAULT_DIV,
            "FE": FAULT_EXEC,
            "M": MASK64,
            "SB": SIGN_BIT,
            "T64": TWO64,
        }

    def fuse(self, pc: int):
        entry = self.blocks[pc] = self._generate(pc, MAX_BLOCK)
        return entry

    def single(self, pc: int):
        fn = self.singles[pc] = self._generate(pc, 1)[0]
        return fn

    def _generate(self, pc: int, limit: int):
        code = self.machine.code
        n = len(code)
        insns = []
        i = pc
        while i < n and len(insns) < limit:
            insn = code[i]
            insns.append((i, insn))
            if isinstance(insn, TERMINATORS):
                break
            i += 1
        emitter = _Emitter(self)
        for p, insn in insns:
            emitter.emit(p, insn)
        emitter.flush()
        last_p, last = insns[-1]
        if not isinstance(last, TERMINATORS):
            # Block split at the length limit or at the end of the code
            # space: fall through (an out-of-range pc faults in the
            # driver, exactly like the reference engine).
            emitter.lines.append(f"t.pc = {last_p + 1}")
        source = emitter.render()
        code_obj = _CODE_CACHE.get(source)
        if code_obj is None:
            code_obj = compile(source, "<superblock>", "exec")
            _CODE_CACHE[source] = code_obj
        ns = dict(self.base_ns)
        for index, obj in enumerate(emitter.objs):
            ns[f"O{index}"] = obj
        exec(code_obj, ns)
        return ns["_superblock"], len(insns), not emitter.impure


class _Emitter:
    """Generates the body of one fused block.

    Accounting discipline: per-instruction charges accumulate at *fuse
    time* in ``cum`` and are emitted as one flush at block exit (or
    before a delegated instruction, which does its own accounting).
    Every fallible inlined instruction first writes ``t.pc`` and
    registers the cumulative charges pending at that point — including
    its own pre-charges, exactly like the reference engine, which
    charges the base cost before it executes — in ``recon``; the
    generated ``except`` block replays those charges before re-raising,
    so machine state at any fault is bit-identical to per-instruction
    execution.  Post-charges that the reference applies after the fault
    point (``loads``/``stores``) join ``cum`` only after the fallible
    statement, so they are visible to later fault points but not to the
    instruction's own.  Dynamic cache-miss charges are applied inline,
    as the reference does, so they need no reconciliation.
    """

    #: cum/recon slots: instructions, cycles, loads, stores,
    #: cfi_checks, bnd_checks, calls.
    _FLUSH_STMTS = (
        "S.instructions += {}",
        "C[c] += {}",
        "S.loads += {}",
        "S.stores += {}",
        "S.cfi_checks += {}",
        "S.bnd_checks += {}",
        "S.calls += {}",
    )

    def __init__(self, fuser: BlockFuser):
        self.fuser = fuser
        self.code_end = CODE_BASE + len(fuser.machine.code)
        self.lines: list[str] = []
        self.objs: list = []
        self.cum = [0, 0, 0, 0, 0, 0, 0]
        self.recon: dict[int, tuple] = {}
        self.needs_cache = False
        self.h_pending = False
        self.impure = False

    # -- infrastructure ------------------------------------------------

    def render(self) -> str:
        head = [
            "def _superblock(t):",
            "    r = t.regs",
            "    c = t.core",
        ]
        if self.needs_cache:
            if self.fuser.inline_cache:
                head.append("    cache_ = CACHES[c]")
                head.append("    acc_ = cache_.access")
                head.append("    sets_ = cache_._sets")
                head.append("    h_ = 0")
            else:
                head.append("    acc_ = CACHES[c].access")
        lines = list(self.lines)
        if self.h_pending:
            lines.append("cache_.hits += h_")
        if not self.recon:
            body = ["    " + line for line in lines]
            return "\n".join(head + body) + "\n"
        rname = self._obj(self.recon)
        body = ["    try:"]
        body.extend("        " + line for line in lines)
        body.append("    except MF:")
        if self.h_pending:
            body.append("        cache_.hits += h_")
        body.append(f"        d_ = {rname}.get(t.pc)")
        body.append("        if d_ is not None:")
        for index, stmt in enumerate(self._FLUSH_STMTS):
            body.append("            " + stmt.format(f"d_[{index}]"))
        body.append("        raise")
        return "\n".join(head + body) + "\n"

    def flush(self) -> None:
        cum = self.cum
        for index, value in enumerate(cum):
            if value:
                self.lines.append(self._FLUSH_STMTS[index].format(value))
                cum[index] = 0

    def _obj(self, obj) -> str:
        self.objs.append(obj)
        return f"O{len(self.objs) - 1}"

    def _count(self, cost: int) -> None:
        self.cum[0] += 1
        self.cum[1] += cost

    def _simple(self, cost: int, stmt: str) -> None:
        self._count(cost)
        self.lines.append(stmt)

    def _pre(self, p: int, cost: int, *, cfi=0, bnd=0, calls=0) -> None:
        """Charge an inlined fallible instruction's pre-fault costs and
        snapshot the pending state its fault point must observe."""
        cum = self.cum
        cum[0] += 1
        cum[1] += cost
        cum[4] += cfi
        cum[5] += bnd
        cum[6] += calls
        self.recon[p] = tuple(cum)
        self.lines.append(f"t.pc = {p}")

    def _delegate(self, p: int, insn) -> None:
        """Retire ``insn`` through the reference semantics, inline."""
        if type(insn) not in _NEUTRAL_DELEGATES:
            self.impure = True
        # The handler (and anything it reaches — natives can observe
        # counters, or raise right through us) must see exact state:
        # flush static charges and any batched cache hits first.
        self.flush()
        if self.h_pending:
            self.lines.append("cache_.hits += h_")
            self.lines.append("h_ = 0")
        self.lines.append(f"t.pc = {p}")
        self.lines.append(f"RETIRE(t, {self._obj(insn)})")

    def _signed(self, operand, var: str) -> str:
        """The signed view of ``operand``: a folded literal for an
        immediate, else ``var`` after emitting its conversion."""
        if isinstance(operand, isa.Imm):
            return repr(signed(operand.value))
        lines = self.lines
        lines.append(f"{var} = r[{operand}]")
        lines.append(f"if {var} & SB:")
        lines.append(f"    {var} -= T64")
        return var

    @staticmethod
    def _operand(value) -> str:
        if isinstance(value, isa.Imm):
            return repr(value.value & MASK64)
        return f"r[{value}]"

    @staticmethod
    def _shift(value) -> str:
        if isinstance(value, isa.Imm):
            return repr(value.value & 63)
        return f"(r[{value}] & 63)"

    def _condition(self, insn) -> str | None:
        """A SetCC/Br condition as an expression (emitting any sign
        conversions first), or None for an op this generator does not
        know."""
        op = insn.op
        if op in _EQ_SYMS:
            return (
                f"{self._operand(insn.a)} {_EQ_SYMS[op]} "
                f"{self._operand(insn.b)}"
            )
        if op in _SIGNED_SYMS:
            x = self._signed(insn.a, "x_")
            y = self._signed(insn.b, "y_")
            return f"{x} {_SIGNED_SYMS[op]} {y}"
        return None

    def _cache_lines(self, var: str, size: int) -> list[str]:
        self.needs_cache = True
        if not self.fuser.inline_cache:
            return [
                f"if ({var} & {LINE_SIZE - 1}) + {size} <= {LINE_SIZE}:",
                f"    if not acc_({var}):",
                f"        C[c] += {costs.CACHE_MISS_PENALTY}",
                "else:",
                f"    TOUCH(c, {var}, {size})",
            ]
        # Replicates L1Cache.access's most-recently-used branch inline
        # (batching the hit count into h_); everything else — LRU
        # shuffles, misses — still goes through access().
        self.h_pending = True
        return [
            f"if ({var} & {LINE_SIZE - 1}) + {size} <= {LINE_SIZE}:",
            f"    ln_ = {var} >> {LINE_BITS}",
            f"    w_ = sets_[ln_ & {DEFAULT_SETS - 1}]",
            "    if w_ and w_[-1] == ln_:",
            "        h_ += 1",
            f"    elif not acc_({var}):",
            f"        C[c] += {costs.CACHE_MISS_PENALTY}",
            "else:",
            f"    TOUCH(c, {var}, {size})",
        ]

    def _addr_expr(self, mem_op: isa.Mem) -> str:
        """The effective-address expression, specialized for the shapes
        codegen emits; anything else calls the reference
        :meth:`Machine.effective_address` (still infallible)."""
        disp, scale = mem_op.disp, mem_op.scale
        if mem_op.abs is not None:
            const = mem_op.abs + disp
            if mem_op.index is None and mem_op.seg is None:
                return repr(const & MASK64)
            if mem_op.seg is None:
                idx = mem_op.index
                if mem_op.use32:
                    return (
                        f"(({const} + (r[{idx}] & {MASK32}) * {scale}) & M)"
                    )
                return f"(({const} + r[{idx}] * {scale}) & M)"
        elif not mem_op.use32 and mem_op.seg is None:
            base = mem_op.base
            if mem_op.index is None:
                return f"((r[{base}] + {disp}) & M)"
            return (
                f"((r[{base}] + {disp} + r[{mem_op.index}] * {scale}) & M)"
            )
        elif mem_op.use32:
            # fs/gs bases are read at execute time, like the reference.
            base = mem_op.base
            seg = ""
            if mem_op.seg == isa.SEG_FS:
                seg = " + MACH.fs_base"
            elif mem_op.seg == isa.SEG_GS:
                seg = " + MACH.gs_base"
            idx = mem_op.index
            if idx is None:
                return f"(((r[{base}] & {MASK32}) + {disp}{seg}) & M)"
            return (
                f"(((r[{base}] & {MASK32}) + {disp}"
                f" + (r[{idx}] & {MASK32}) * {scale}{seg}) & M)"
            )
        return f"MACH.effective_address(t, {self._obj(mem_op)})"

    def _read_stack(self) -> None:
        """``v_ = `` the 8-byte word at ``rsp_ = r[RSP]``, as
        ``Machine.read_data`` reads it (code-as-data above CODE_BASE)."""
        lines = self.lines
        lines.append(f"rsp_ = r[{regs.RSP}]")
        lines.append(f"if rsp_ >= {CODE_BASE}:")
        lines.append("    v_ = RCW(rsp_)")
        lines.append("else:")
        lines.extend(
            "    " + line for line in self._cache_lines("rsp_", 8)
        )
        lines.append(f"    o_ = rsp_ & {PAGE_MASK}")
        lines.append("    pg_ = PAGES.get(rsp_ - o_)")
        lines.append(f"    if pg_ is not None and o_ + 8 <= {PAGE_SIZE}:")
        lines.append('        v_ = FB(pg_[o_:o_ + 8], "little")')
        lines.append("    else:")
        lines.append("        v_ = MREAD(rsp_, 8)")

    # -- dispatch ------------------------------------------------------

    def emit(self, p: int, insn) -> None:
        method = _EMITTERS.get(type(insn))
        # An unknown kind or cost class fails inside RETIRE when it is
        # reached, like the reference engine — never at fuse time.
        cost = costs.BASE_COST.get(getattr(insn, "cost_class", None))
        if method is None or cost is None:
            self._delegate(p, insn)
            return
        method(self, p, insn, cost)

    # -- infallible straight-line instructions -------------------------

    def _e_magic(self, p, insn, cost):
        self._count(cost)

    def _e_mov_ri(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = {insn.imm & MASK64}")

    def _e_mov_rr(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = r[{insn.src}]")

    def _e_mov_fa(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = {insn.value & MASK64}")

    def _e_tlsbase(self, p, insn, cost):
        mask = ~(THREAD_STACK_SIZE - 1)
        self._simple(cost, f"r[{insn.dst}] = r[{regs.RSP}] & {mask}")

    def _e_lea(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = {self._addr_expr(insn.mem)}")

    def _e_alu(self, p, insn, cost):
        dst, op = insn.dst, insn.op
        if op == "neg":
            self._simple(cost, f"r[{dst}] = -{self._operand(insn.a)} & M")
            return
        if op == "not":
            self._simple(cost, f"r[{dst}] = ~{self._operand(insn.a)} & M")
            return
        if op not in _ALU_BINARY:
            self._delegate(p, insn)
            return
        if op in ("div", "mod"):
            self._divmod(p, insn, cost)
            return
        a, b = self._operand(insn.a), self._operand(insn.b)
        if op == "add":
            self._simple(cost, f"r[{dst}] = ({a} + {b}) & M")
        elif op == "sub":
            self._simple(cost, f"r[{dst}] = ({a} - {b}) & M")
        elif op in _BIT_SYMS:
            self._simple(cost, f"r[{dst}] = {a} {_BIT_SYMS[op]} {b}")
        elif op == "shl":
            self._simple(
                cost, f"r[{dst}] = ({a} << {self._shift(insn.b)}) & M"
            )
        elif op == "shr":
            self._count(cost)
            x = self._signed(insn.a, "x_")
            self.lines.append(
                f"r[{dst}] = ({x} >> {self._shift(insn.b)}) & M"
            )
        else:  # mul
            self._count(cost)
            x = self._signed(insn.a, "x_")
            y = self._signed(insn.b, "y_")
            self.lines.append(f"r[{dst}] = ({x} * {y}) & M")

    def _e_setcc(self, p, insn, cost):
        cond = self._condition(insn)
        if cond is None:
            self._delegate(p, insn)
            return
        self._simple(cost, f"r[{insn.dst}] = 1 if {cond} else 0")

    # -- fallible inlined instructions ---------------------------------

    def _divmod(self, p, insn, cost):
        # x86 semantics (arith.eval_bin): truncate toward zero; the
        # remainder takes the dividend's sign.
        self._pre(p, cost)
        lines = self.lines
        y = self._signed(insn.b, "y_")
        what = "division" if insn.op == "div" else "modulo"
        lines.append(f"if {y} == 0:")
        lines.append(f'    raise MF(FD, "{what} by zero")')
        x = self._signed(insn.a, "x_")
        if insn.op == "div":
            lines.append(f"q_ = abs({x}) // abs({y})")
            lines.append(f"if ({x} < 0) != ({y} < 0):")
        else:
            lines.append(f"q_ = abs({x}) % abs({y})")
            lines.append(f"if {x} < 0:")
        lines.append("    q_ = -q_")
        lines.append(f"r[{insn.dst}] = q_ & M")

    def _e_load(self, p, insn, cost):
        size = insn.size
        expr = self._addr_expr(insn.mem)
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"a_ = {expr}")
        lines.append(f"if a_ >= {CODE_BASE}:")
        if size >= 8:
            lines.append("    v_ = RCW(a_)")
        else:
            lines.append(f"    v_ = RCW(a_) & {(1 << (8 * size)) - 1}")
        lines.append("else:")
        lines.extend("    " + line for line in self._cache_lines("a_", size))
        lines.append(f"    o_ = a_ & {PAGE_MASK}")
        lines.append("    pg_ = PAGES.get(a_ - o_)")
        lines.append(f"    if pg_ is not None and o_ + {size} <= {PAGE_SIZE}:")
        lines.append(f'        v_ = FB(pg_[o_:o_ + {size}], "little")')
        lines.append("    else:")
        lines.append(f"        v_ = MREAD(a_, {size})")
        lines.append(f"r[{insn.dst}] = v_")
        self.cum[2] += 1

    def _e_store(self, p, insn, cost):
        size = insn.size
        expr = self._addr_expr(insn.mem)
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"a_ = {expr}")
        lines.append(f"if a_ >= {CODE_BASE}:")
        lines.append('    raise MF(FU, "write to code space", addr=a_)')
        lines.extend(self._cache_lines("a_", size))
        lines.append(f"v_ = {self._operand(insn.src)}")
        lines.append(f"o_ = a_ & {PAGE_MASK}")
        lines.append(f"if o_ + {size} <= {PAGE_SIZE}:")
        lines.append("    b_ = a_ - o_")
        lines.append("    rg_ = RO.get(b_)")
        lines.append("    if rg_ is not None:")
        lines.append("        for lo_, hi_ in rg_:")
        lines.append(f"            if a_ < hi_ and a_ + {size} > lo_:")
        lines.append(
            "                raise MF(FP, "
            '"write to read-only memory", addr=a_)'
        )
        lines.append("    pg_ = PAGES.get(b_)")
        lines.append("    if pg_ is not None:")
        lines.append(
            f"        pg_[o_:o_ + {size}] = "
            f'(v_ & {(1 << (8 * size)) - 1}).to_bytes({size}, "little")'
        )
        lines.append("    else:")
        lines.append(f"        MWRITE(a_, {size}, v_)")
        lines.append("else:")
        lines.append(f"    MWRITE(a_, {size}, v_)")
        self.cum[3] += 1

    def _e_push(self, p, insn, cost):
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"rsp_ = (r[{regs.RSP}] - 8) & M")
        lines.append(f"r[{regs.RSP}] = rsp_")
        lines.append(f"v_ = {self._operand(insn.src)}")
        lines.append(f"if rsp_ >= {CODE_BASE}:")
        lines.append('    raise MF(FU, "write to code space", addr=rsp_)')
        lines.extend(self._cache_lines("rsp_", 8))
        lines.append(f"o_ = rsp_ & {PAGE_MASK}")
        lines.append("pg_ = None")
        lines.append(
            f"if o_ + 8 <= {PAGE_SIZE} and not RO.get(rsp_ - o_):"
        )
        lines.append("    pg_ = PAGES.get(rsp_ - o_)")
        lines.append("if pg_ is not None:")
        lines.append('    pg_[o_:o_ + 8] = v_.to_bytes(8, "little")')
        lines.append("else:")
        lines.append("    MWRITE(rsp_, 8, v_)")

    def _e_pop(self, p, insn, cost):
        self._pre(p, cost)
        self._read_stack()
        self.lines.append(f"r[{insn.dst}] = v_")
        self.lines.append(f"r[{regs.RSP}] = (rsp_ + 8) & M")

    def _e_check_magic(self, p, insn, cost):
        self._pre(p, cost, cfi=1)
        lines = self.lines
        lines.append(f"x_ = r[{insn.reg}]")
        lines.append("w_ = RCW(x_)")
        lines.append(f"if w_ != {~insn.inv_value & MASK64}:")
        detail = f"magic mismatch at target (kind={insn.kind})"
        lines.append(f"    raise MF(FC, {detail!r}, addr=x_)")

    def _e_bndchk(self, p, insn, cost):
        if insn.mem is not None:
            # The fixed memory-form surcharge is charged before the
            # bounds comparison, so it batches with the base cost.
            cost += costs.BNDCHK_MEM_EXTRA
        self._pre(p, cost, bnd=1)
        lines = self.lines
        if insn.mem is not None:
            lines.append(f"a_ = {self._addr_expr(insn.mem)}")
        else:
            lines.append(f"a_ = r[{insn.reg}]")
        lines.append(f"lo_, hi_ = BND[{insn.bnd}]")
        lines.append("if not (lo_ <= a_ < hi_):")
        lines.append(
            f'    raise MF(FBND, f"bnd{insn.bnd} violation '
            '[{lo_:#x},{hi_:#x})", addr=a_)'
        )

    def _e_chkstk(self, p, insn, cost):
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"rsp_ = r[{regs.RSP}]")
        lines.append("lo_, hi_ = t.pub_stack")
        lines.append("if not (lo_ <= rsp_ <= hi_):")
        lines.append('    raise MF(FK, "rsp escaped its stack", addr=rsp_)')

    # -- terminators ---------------------------------------------------

    def _e_jmp(self, p, insn, cost):
        self._simple(cost, f"t.pc = {insn.addr}")

    def _e_br(self, p, insn, cost):
        cond = self._condition(insn)
        if cond is None:
            self._delegate(p, insn)
            return
        self._simple(cost, f"t.pc = {insn.addr} if {cond} else {p + 1}")

    def _e_call_d(self, p, insn, cost):
        self._pre(p, cost, calls=1)
        lines = self.lines
        lines.append(f"rsp_ = (r[{regs.RSP}] - 8) & M")
        lines.append(f"r[{regs.RSP}] = rsp_")
        lines.append(f"if rsp_ >= {CODE_BASE}:")
        lines.append('    raise MF(FU, "write to code space", addr=rsp_)')
        lines.append("TOUCH(c, rsp_, 8)")
        lines.append(f"MWRITE(rsp_, 8, {CODE_BASE + p + 1})")
        lines.append(f"t.pc = {insn.addr}")

    def _e_ret(self, p, insn, cost):
        self._pre(p, cost)
        lines = self.lines
        self._read_stack()
        lines.append(f"r[{regs.RSP}] = (rsp_ + 8) & M")
        lines.append(f"if not ({CODE_BASE} <= v_ < {self.code_end}):")
        lines.append('    raise MF(FE, "return outside code", addr=v_)')
        lines.append(f"t.pc = v_ - {CODE_BASE}")

    def _e_jmp_reg(self, p, insn, cost):
        # The indirect-jump surcharge is charged before the target
        # check, so it batches with the base cost.
        self._pre(p, cost + costs.INDIRECT_JUMP_EXTRA)
        lines = self.lines
        lines.append(f"x_ = r[{insn.reg}] + {insn.skip}")
        lines.append(f"if not ({CODE_BASE} <= x_ < {self.code_end}):")
        lines.append('    raise MF(FE, "jump outside code", addr=x_)')
        lines.append(f"t.pc = x_ - {CODE_BASE}")

    def _e_halt(self, p, insn, cost):
        self.impure = True
        self._count(cost)
        # finish_time reads the cycle counter, so the block's batched
        # charges must land first.
        self.flush()
        lines = self.lines
        lines.append(f"t.pc = {p}")
        lines.append("t.alive = False")
        lines.append("t.finish_time = C[c]")
        lines.append("if t.tid == 0:")
        lines.append(f"    MACH.exit_code = r[{regs.RAX}]")

    def _e_fail(self, p, insn, cost):
        self._pre(p, cost)
        self.lines.append('raise MF(FC, "__debugbreak reached")')


#: Instruction type -> emitter.  Types absent here (jump tables,
#: indirect calls and jumps, shadow-stack ops, unknown instructions)
#: are delegated to the reference semantics inside the block.
_EMITTERS = {
    isa.MagicWord: _Emitter._e_magic,
    isa.MovRI: _Emitter._e_mov_ri,
    isa.MovRR: _Emitter._e_mov_rr,
    isa.MovFuncAddr: _Emitter._e_mov_fa,
    isa.Alu: _Emitter._e_alu,
    isa.SetCC: _Emitter._e_setcc,
    isa.Load: _Emitter._e_load,
    isa.Store: _Emitter._e_store,
    isa.Lea: _Emitter._e_lea,
    isa.Push: _Emitter._e_push,
    isa.Pop: _Emitter._e_pop,
    isa.Jmp: _Emitter._e_jmp,
    isa.Br: _Emitter._e_br,
    isa.CallD: _Emitter._e_call_d,
    isa.RetPlain: _Emitter._e_ret,
    isa.JmpReg: _Emitter._e_jmp_reg,
    isa.CheckMagic: _Emitter._e_check_magic,
    isa.BndChk: _Emitter._e_bndchk,
    isa.ChkStk: _Emitter._e_chkstk,
    isa.TlsBase: _Emitter._e_tlsbase,
    isa.Halt: _Emitter._e_halt,
    isa.Fail: _Emitter._e_fail,
}
