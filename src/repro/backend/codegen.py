"""Code generation: IR functions -> ConfISA with instrumentation.

This stage implements the run-time half of the paper's scheme:

* frame layout with **lock-step public/private stacks** — every frame
  reserves the same size on both stacks; private locals and private
  spills live at ``rsp+off+OFFSET`` (MPX layouts) or ``gs:[esp+off]``
  (segmentation), Section 3;
* **MPX bounds checks** before non-stack memory accesses, with the
  paper's three optimizations: register-operand checks with small
  displacements elided (guard zones), check **coalescing** within a
  basic block, and rsp-based accesses exempted entirely thanks to the
  inline ``_chkstk`` enforcement (Section 5.1, "MPX Optimizations");
* **segmentation scheme** operand rewriting: fs/gs prefixes + 32-bit
  sub-registers (Section 3);
* **taint-aware CFI**: MCall magic + taint bits at entries, MRet magic
  at return sites, return/icall check sequences (Section 4);
* the x64 (Windows) calling convention: 4 argument registers, variadic
  arguments spilled to the *public* stack by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import BuildConfig
from ..errors import CodegenError
from ..ir import core as ir
from ..link.layout import ELIDE_LIMIT, MPX_STACK_OFFSET
from ..obs import events
from ..taint.lattice import PRIVATE, PUBLIC, Taint
from . import isa, regs
from .isa import Imm, Mem
from .regalloc import Assignment, allocate

WORD = 8


def _region_tag(taint: Taint) -> str:
    return "priv" if taint is PRIVATE else "pub"


@dataclass
class _FrameLayout:
    size: int = 0
    out_vararg_bytes: int = 0
    pub_spill_base: int = 0
    priv_spill_base: int = 0
    slot_offsets: dict[int, tuple[int, bool]] = None  # uid -> (off, is_private)


class FunctionCodegen:
    def __init__(
        self, func: ir.IRFunction, module: ir.IRModule, config: BuildConfig
    ):
        self._func = func
        self._module = module
        self._config = config
        self._out: list[isa.Insn] = []
        with events.span("compile.regalloc", function=func.name):
            self._assign: Assignment = allocate(func)
        self._frame = self._layout_frame()
        # Per-block set of already-checked MPX keys (coalescing).
        self._checked: set = set()
        # checkopt=off conservatively preserves every check: the
        # codegen-time MPX optimizations are disabled wholesale (the
        # certified post-codegen optimizer never runs either).
        naive = config.checkopt == "off"
        self._elide_small_disp = config.elide_small_disp and not naive
        self._coalesce_checks = config.coalesce_checks and not naive

    # ------------------------------------------------------------------
    # Frame layout

    def _layout_frame(self) -> _FrameLayout:
        frame = _FrameLayout(slot_offsets={})
        out_bytes = 0
        for block in self._func.blocks:
            for instr in block.instrs:
                if isinstance(instr, (ir.Call, ir.CallIndirect)):
                    n_var = len(instr.args) - instr.n_fixed
                    out_bytes = max(out_bytes, n_var * WORD)
        frame.out_vararg_bytes = out_bytes

        split = self._config.split_stacks
        pub_off = out_bytes
        priv_off = 0 if split else None  # private side tracked separately

        frame.pub_spill_base = pub_off
        pub_off += self._assign.n_spills_public * WORD
        if split:
            frame.priv_spill_base = priv_off
            priv_off += self._assign.n_spills_private * WORD
        else:
            frame.priv_spill_base = pub_off
            pub_off += self._assign.n_spills_private * WORD

        def place(offset: int, slot: ir.StackSlot) -> int:
            align = max(slot.align, 1)
            offset = (offset + align - 1) // align * align
            frame.slot_offsets[slot.uid] = (offset, False)
            return offset + slot.size

        for slot in self._func.slots:
            if split and slot.taint is PRIVATE:
                align = max(slot.align, 1)
                priv_off = (priv_off + align - 1) // align * align
                frame.slot_offsets[slot.uid] = (priv_off, True)
                priv_off += slot.size
            else:
                pub_off = place(pub_off, slot)

        total = max(pub_off, priv_off or 0)
        frame.size = (total + 15) // 16 * 16
        return frame

    # ------------------------------------------------------------------
    # Emission helpers

    def _emit(self, insn: isa.Insn) -> None:
        self._out.append(insn)

    def _label(self, name: str) -> None:
        self._emit(isa.Label(name))

    def _loc(self, vreg: ir.VReg):
        return self._assign.location(vreg)

    def _spill_mem(self, kind: str, index: int) -> Mem:
        if kind == "priv":
            off = self._frame.priv_spill_base + index * WORD
            return self._stack_mem(off, private=True)
        off = self._frame.pub_spill_base + index * WORD
        return self._stack_mem(off, private=False)

    def _stack_mem(
        self,
        disp: int,
        private: bool,
        index: int | None = None,
        scale: int = 1,
        region: str | None = None,
    ) -> Mem:
        """An rsp-relative operand, adjusted for the stack-split scheme.
        ``region`` overrides the tag the slot's stack implies."""
        seg = None
        use32 = False
        if private and self._config.split_stacks:
            if self._config.scheme == "seg":
                seg = isa.SEG_GS
                use32 = True
            else:
                disp += MPX_STACK_OFFSET
        elif self._config.scheme == "seg":
            seg = isa.SEG_FS
            use32 = True
        return Mem(
            base=regs.RSP,
            index=index,
            scale=scale,
            disp=disp,
            seg=seg,
            use32=use32,
            region=region or ("priv" if private else "pub"),
        )

    def _read(self, operand, scratch: int) -> "int | Imm":
        """Materialize an IR operand into a register id or an Imm."""
        if isinstance(operand, int):
            return Imm(operand)
        kind_loc = self._loc(operand)
        if kind_loc[0] == "reg":
            return kind_loc[1]
        _kind, skind, index = kind_loc
        self._emit(isa.Load(scratch, self._spill_mem(skind, index), WORD))
        self._invalidate_checks(scratch)
        return scratch

    def _write(self, vreg: ir.VReg):
        """Return (target_reg, flush) where flush() stores a spill."""
        kind_loc = self._loc(vreg)
        if kind_loc[0] == "reg":
            return kind_loc[1], lambda: None
        _kind, skind, index = kind_loc
        mem = self._spill_mem(skind, index)

        def flush(reg=regs.R10, mem=mem):
            self._emit(isa.Store(mem, reg, WORD))

        return regs.R10, flush

    # ------------------------------------------------------------------
    # Memory operands

    def _mem_operand(self, mref: ir.MemRef, scratch_pool: list[int]) -> Mem:
        """Translate an IR MemRef to an ISA operand (no checks yet)."""
        region = _region_tag(mref.region)
        if mref.slot is not None:
            off, is_priv = self._frame.slot_offsets[mref.slot.uid]
            index_reg = None
            if mref.index is not None:
                index_reg = self._as_reg(mref.index, scratch_pool)
            return self._stack_mem(
                off + mref.disp,
                private=is_priv,
                index=index_reg,
                scale=mref.scale,
                region=region,
            )
        if mref.global_name is not None:
            if mref.index is None:
                # Statically-placed operand: always in-region, no index
                # to escape through, so no check is needed.
                return Mem(
                    global_name=mref.global_name,
                    disp=mref.disp,
                    region=region,
                )
            # Indexed global access: materialize the base address and
            # fall through to the (checked, prefixed) register path.
            scratch = scratch_pool.pop()
            self._emit(
                isa.Lea(scratch, Mem(global_name=mref.global_name, region=region))
            )
            # The scratch now holds a *different* base: any coalesced
            # check mentioning it is stale.  (ConfVerify catches this
            # if forgotten — it did, during development.)
            self._invalidate_checks(scratch)
            index_reg = self._as_reg(mref.index, scratch_pool)
            mem = Mem(
                base=scratch,
                index=index_reg,
                scale=mref.scale,
                disp=mref.disp,
                region=region,
            )
            return self._apply_seg(mem)
        base = self._as_reg(mref.base, scratch_pool)
        index_reg = None
        if mref.index is not None:
            index_reg = self._as_reg(mref.index, scratch_pool)
        mem = Mem(
            base=base,
            index=index_reg,
            scale=mref.scale,
            disp=mref.disp,
            region=region,
        )
        return self._apply_seg(mem)

    def _as_reg(self, operand, scratch_pool: list[int]) -> int:
        if isinstance(operand, int):
            scratch = scratch_pool.pop()
            self._emit(isa.MovRI(scratch, operand))
            self._invalidate_checks(scratch)
            return scratch
        value = self._read(operand, scratch_pool[-1])
        if isinstance(value, Imm):  # pragma: no cover - _read on VReg
            raise CodegenError("expected register")
        if value == scratch_pool[-1]:
            scratch_pool.pop()
        return value

    def _apply_seg(self, mem: Mem) -> Mem:
        # Absolute/global operands hold full, statically-placed VAs;
        # only register-anchored operands need the fs/gs confinement.
        if self._config.scheme == "seg" and mem.base is not None:
            seg = isa.SEG_GS if mem.region == "priv" else isa.SEG_FS
            return replace(mem, seg=seg, use32=True)
        return mem

    # ------------------------------------------------------------------
    # MPX checks

    def _maybe_check(self, mem: Mem) -> None:
        if self._config.scheme != "mpx":
            return
        # rsp-based operands are exempt (inline _chkstk keeps rsp in
        # bounds), as are absolute/global operands (statically placed).
        if mem.base == regs.RSP:
            return
        if mem.global_name is not None or mem.abs is not None:
            return
        bnd = 1 if mem.region == "priv" else 0
        if (
            self._elide_small_disp
            and mem.index is None
            and abs(mem.disp) < ELIDE_LIMIT
            and mem.base is not None
        ):
            key = ("reg", mem.base, bnd)
            if self._coalesce_checks and key in self._checked:
                events.counter(
                    "codegen.checks", kind="bnd", outcome="coalesced"
                ).inc()
                return
            self._checked.add(key)
            events.counter(
                "codegen.checks", kind="bnd", outcome="emitted"
            ).inc()
            self._emit(isa.BndChk(bnd, reg=mem.base))
            return
        key = ("mem", mem.base, mem.index, mem.scale, mem.disp, bnd)
        if self._coalesce_checks and key in self._checked:
            events.counter(
                "codegen.checks", kind="bnd", outcome="coalesced"
            ).inc()
            return
        self._checked.add(key)
        events.counter("codegen.checks", kind="bnd", outcome="emitted").inc()
        self._emit(
            isa.BndChk(
                bnd,
                mem=Mem(
                    base=mem.base,
                    index=mem.index,
                    scale=mem.scale,
                    disp=mem.disp,
                ),
            )
        )

    def _invalidate_checks(self, written_reg: int | None) -> None:
        if written_reg is None:
            self._checked.clear()
            return
        stale = [
            key
            for key in self._checked
            if written_reg in (key[1], key[2] if len(key) > 4 else None)
        ]
        for key in stale:
            self._checked.discard(key)

    # ------------------------------------------------------------------
    # Function body

    def run(self) -> list[isa.Insn]:
        cfg = self._config
        fn = self._func
        if cfg.cfi and not cfg.shadow_stack:
            bits = isa.mcall_bits(
                [int(v.taint) for v in _sig_arg_taints(fn)],
                _sig_ret_bit(fn),
                len(fn.sig.params),
            )
            self._emit(isa.MagicWord("call", bits))
        self._label(fn.name)
        if cfg.shadow_stack:
            self._emit(isa.ShadowPush())
        for reg in self._assign.used_callee_saves:
            self._emit(isa.Push(reg))
        if self._frame.size:
            self._emit(
                isa.Alu("sub", regs.RSP, regs.RSP, Imm(self._frame.size))
            )
        if cfg.chkstk:
            self._emit(isa.ChkStk())
        self._move_params_in()
        for block in fn.blocks:
            self._checked.clear()
            if block is not fn.blocks[0]:
                self._label(_blk(fn.name, block.name))
            for instr in block.instrs:
                self._lower(instr)
        return self._out

    def _move_params_in(self) -> None:
        pairs = []
        for index, vreg in enumerate(self._func.param_vregs):
            src = regs.ARG_REGS[index]
            loc = self._loc(vreg)
            if loc[0] == "reg":
                pairs.append((src, loc[1]))
            else:
                self._emit(
                    isa.Store(self._spill_mem(loc[1], loc[2]), src, WORD)
                )
        self._parallel_moves(pairs)

    def _parallel_moves(self, pairs: list[tuple[int, int]]) -> None:
        """Emit reg->reg moves that may permute, using R10 to break
        cycles."""
        pending = [(s, d) for s, d in pairs if s != d]
        while pending:
            progressed = False
            sources = {s for s, _d in pending}
            for i, (s, d) in enumerate(pending):
                # Safe to emit when nothing still needs to read d.
                if d not in sources:
                    self._emit(isa.MovRR(d, s))
                    pending.pop(i)
                    progressed = True
                    break
            if not progressed:
                # A cycle: break it by parking one source in scratch.
                s, d = pending.pop(0)
                self._emit(isa.MovRR(regs.R10, s))
                pending.append((regs.R10, d))
        return

    # ------------------------------------------------------------------
    # Per-instruction lowering

    def _lower(self, instr: ir.Instr) -> None:
        cfg = self._config
        fn = self._func
        if isinstance(instr, ir.Const):
            dst, flush = self._write(instr.dst)
            self._emit(isa.MovRI(dst, instr.value))
            flush()
        elif isinstance(instr, ir.Copy):
            src = self._read(instr.src, regs.R11)
            dst, flush = self._write(instr.dst)
            if isinstance(src, Imm):
                self._emit(isa.MovRI(dst, src.value))
            elif src != dst:
                self._emit(isa.MovRR(dst, src))
            flush()
            self._invalidate_checks(dst)
        elif isinstance(instr, ir.Un):
            src = self._read(instr.src, regs.R11)
            dst, flush = self._write(instr.dst)
            self._emit(isa.Alu(instr.op, dst, src, Imm(0)))
            flush()
            self._invalidate_checks(dst)
        elif isinstance(instr, ir.Bin):
            a = self._read(instr.a, regs.R11)
            b = self._read(instr.b, regs.R10 if a != regs.R10 else regs.R11)
            dst, flush = self._write(instr.dst)
            if instr.op in isa.COND_OPS:
                self._emit(isa.SetCC(instr.op, dst, a, b))
            else:
                self._emit(isa.Alu(instr.op, dst, a, b))
            flush()
            self._invalidate_checks(dst)
        elif isinstance(instr, ir.Load):
            pool = [regs.R11, regs.R10]
            mem = self._mem_operand(instr.mem, pool)
            self._maybe_check(mem)
            dst, flush = self._write(instr.dst)
            self._emit(isa.Load(dst, mem, instr.size))
            flush()
            self._invalidate_checks(dst)
        elif isinstance(instr, ir.Store):
            pool = [regs.R11, regs.R10]
            mem = self._mem_operand(instr.mem, pool)
            if not pool:
                # Both scratches used for addressing: collapse them.
                lea_mem = Mem(
                    base=mem.base, index=mem.index, scale=mem.scale,
                    disp=mem.disp, seg=mem.seg, use32=mem.use32,
                    region=mem.region,
                )
                self._emit(isa.Lea(regs.R10, lea_mem))
                self._invalidate_checks(regs.R10)
                # After the Lea produced a full VA, re-apply the segment
                # prefix so the access is still confined to its region.
                mem = self._apply_seg(
                    Mem(base=regs.R10, seg=None, region=mem.region)
                )
                pool = [regs.R11]
            src = self._read(instr.src, pool[-1])
            self._maybe_check(mem)
            self._emit(isa.Store(mem, src, instr.size))
        elif isinstance(instr, ir.Lea):
            pool = [regs.R11, regs.R10]
            mem = self._mem_operand(instr.mem, pool)
            dst, flush = self._write(instr.dst)
            self._emit(isa.Lea(dst, mem))
            flush()
            self._invalidate_checks(dst)
        elif isinstance(instr, ir.LocalAddr):
            off, is_priv = self._frame.slot_offsets[instr.slot.uid]
            dst, flush = self._write(instr.dst)
            self._emit(isa.Lea(dst, self._stack_mem(off, private=is_priv)))
            flush()
        elif isinstance(instr, ir.GlobalAddr):
            dst, flush = self._write(instr.dst)
            gtaint = self._module.globals[instr.name].taint
            mem = Mem(global_name=instr.name, region=_region_tag(gtaint))
            self._emit(isa.Lea(dst, mem))
            flush()
        elif isinstance(instr, ir.FuncAddr):
            dst, flush = self._write(instr.dst)
            self._emit(isa.MovFuncAddr(dst, instr.fname))
            flush()
        elif isinstance(instr, ir.TlsBaseAddr):
            dst, flush = self._write(instr.dst)
            self._emit(isa.TlsBase(dst))
            flush()
        elif isinstance(instr, ir.VarArgAddr):
            dst, flush = self._write(instr.dst)
            base_disp = (
                self._frame.size
                + len(self._assign.used_callee_saves) * WORD
                + WORD  # skip the pushed return address
            )
            if isinstance(instr.index, int):
                mem = self._stack_mem(
                    base_disp + instr.index * WORD, private=False
                )
            else:
                idx = self._read(instr.index, regs.R11)
                if isinstance(idx, Imm):  # pragma: no cover
                    raise CodegenError("vararg index")
                mem = self._stack_mem(
                    base_disp, private=False, index=idx, scale=WORD
                )
            self._emit(isa.Lea(dst, mem))
            flush()
        elif isinstance(instr, (ir.Call, ir.CallIndirect)):
            self._lower_call(instr)
            self._checked.clear()
        elif isinstance(instr, ir.Jump):
            self._emit(isa.Jmp(_blk(fn.name, instr.target)))
        elif isinstance(instr, ir.Branch):
            cond = self._read(instr.cond, regs.R11)
            self._emit(
                isa.Br("ne", cond, Imm(0), _blk(fn.name, instr.if_true))
            )
            self._emit(isa.Jmp(_blk(fn.name, instr.if_false)))
        elif isinstance(instr, ir.SwitchBr):
            self._lower_switch_br(instr)
        elif isinstance(instr, ir.Ret):
            self._lower_ret(instr)
        else:  # pragma: no cover
            raise CodegenError(f"cannot lower {instr!r}")

    def _lower_switch_br(self, instr) -> None:
        from ..arith import wrap

        fn_name = self._func.name
        cond = self._read(instr.cond, regs.R11)
        default_label = _blk(fn_name, instr.default)
        values = [v for v, _t in instr.table]
        lo, hi = min(values), max(values)
        span = hi - lo + 1
        dense = len(values) >= 3 and span <= 2 * len(values) and span <= 512
        if self._config.pipeline == "vanilla" and dense:
            # Jump-table lowering (an indirect jump): range-guard, then
            # dispatch through a read-only table.
            if isinstance(cond, Imm):  # pragma: no cover - folded earlier
                cond_reg = regs.R11
                self._emit(isa.MovRI(cond_reg, cond.value))
            else:
                cond_reg = cond
            self._emit(isa.Br("lt", cond_reg, Imm(wrap(lo)), default_label))
            self._emit(isa.Br("gt", cond_reg, Imm(wrap(hi)), default_label))
            by_value = {v: t for v, t in instr.table}
            targets = [
                _blk(fn_name, by_value.get(lo + i, instr.default))
                for i in range(span)
            ]
            self._emit(isa.JmpTable(cond_reg, lo, targets))
            return
        # Compare chain: the only lowering ConfVerify accepts.
        for value, target in instr.table:
            self._emit(
                isa.Br("eq", cond, Imm(wrap(value)), _blk(fn_name, target))
            )
        self._emit(isa.Jmp(default_label))

    def _lower_call(self, instr) -> None:
        cfg = self._config
        n_fixed = instr.n_fixed
        # 1. Variadic arguments to the public outgoing area.
        for j, arg in enumerate(instr.args[n_fixed:]):
            src = self._read(arg, regs.R11)
            self._emit(
                isa.Store(self._stack_mem(j * WORD, private=False), src, WORD)
            )
        # 2. Fixed arguments into ARG_REGS (parallel-safe).
        reg_pairs: list[tuple[int, int]] = []
        imm_moves: list[tuple[int, int]] = []
        spill_loads: list[tuple[int, Mem]] = []
        for index, arg in enumerate(instr.args[:n_fixed]):
            target = regs.ARG_REGS[index]
            if isinstance(arg, int):
                imm_moves.append((target, arg))
                continue
            loc = self._loc(arg)
            if loc[0] == "reg":
                reg_pairs.append((loc[1], target))
            else:
                spill_loads.append((target, self._spill_mem(loc[1], loc[2])))
        self._parallel_moves(reg_pairs)
        for target, mem in spill_loads:
            self._emit(isa.Load(target, mem, WORD))
        for target, value in imm_moves:
            self._emit(isa.MovRI(target, value))
        # 3. The transfer itself.
        site_bits = isa.mcall_bits(
            [int(t) for t in instr.arg_taints],
            int(instr.ret_taint),
            n_fixed,
        )
        if isinstance(instr, ir.Call):
            target_label = instr.name
            if instr.name in self._module.externs:
                target_label = f"stub.{instr.name}"
            self._emit(isa.CallD(target_label, site_bits=site_bits))
        else:
            target = self._read(instr.target, regs.R11)
            if isinstance(target, Imm):  # pragma: no cover
                raise CodegenError("icall immediate")
            if cfg.cfi and not cfg.shadow_stack:
                events.counter(
                    "codegen.checks", kind="cfi", outcome="emitted"
                ).inc()
                self._emit(isa.CheckMagic(target, "call", site_bits))
            self._emit(isa.CallI(target))
        # 4. Return-site magic.
        if cfg.cfi and not cfg.shadow_stack:
            self._emit(isa.MagicWord("ret", isa.mret_bits(instr.ret_taint)))
        # 5. Result.
        if instr.dst is not None:
            loc = self._loc(instr.dst)
            if loc[0] == "reg":
                if loc[1] != regs.RAX:
                    self._emit(isa.MovRR(loc[1], regs.RAX))
            else:
                self._emit(
                    isa.Store(self._spill_mem(loc[1], loc[2]), regs.RAX, WORD)
                )

    def _lower_ret(self, instr: ir.Ret) -> None:
        cfg = self._config
        if instr.value is not None:
            value = self._read(instr.value, regs.R11)
            if isinstance(value, Imm):
                self._emit(isa.MovRI(regs.RAX, value.value))
            elif value != regs.RAX:
                self._emit(isa.MovRR(regs.RAX, value))
        elif cfg.instrumented:
            # Void return: rax is dead and conservatively private, but
            # the magic encodes a public return bit — clear it so no
            # private residue rides back to the caller.
            self._emit(isa.MovRI(regs.RAX, 0))
        if self._frame.size:
            self._emit(
                isa.Alu("add", regs.RSP, regs.RSP, Imm(self._frame.size))
            )
        for reg in reversed(self._assign.used_callee_saves):
            self._emit(isa.Pop(reg))
        if cfg.shadow_stack:
            self._emit(isa.ShadowPop())
            self._emit(isa.RetPlain())
            return
        if cfg.cfi:
            ret_bit = _sig_ret_bit(self._func)
            self._emit(isa.Pop(regs.R11))
            events.counter(
                "codegen.checks", kind="cfi", outcome="emitted"
            ).inc()
            self._emit(isa.CheckMagic(regs.R11, "ret", isa.mret_bits(ret_bit)))
            self._emit(isa.JmpReg(regs.R11, skip=1))
        else:
            self._emit(isa.RetPlain())


def _blk(fn_name: str, block_name: str) -> str:
    # Block names already carry the function prefix from IRFunction.
    return block_name if block_name.startswith(fn_name) else f"{fn_name}.{block_name}"


def _sig_arg_taints(fn: ir.IRFunction):
    return [p for p in fn.sig.params]


def _sig_ret_bit(fn: ir.IRFunction) -> int:
    from ..minic.types import VoidType

    if isinstance(fn.sig.ret, VoidType):
        return 0
    taint = fn.sig.ret.taint
    return int(taint)


def compile_function(
    func: ir.IRFunction, module: ir.IRModule, config: BuildConfig
):
    """Compile one IR function to instructions + CFI metadata."""
    from ..link.objfile import CompiledFunction
    from ..minic.types import VoidType

    with events.span("codegen.function", function=func.name):
        gen = FunctionCodegen(func, module, config)
        insns = tuple(gen.run())
    arg_taints = [p.taint for p in func.sig.params]
    ret_taint = (
        PUBLIC if isinstance(func.sig.ret, VoidType) else func.sig.ret.taint
    )
    entry_bits = isa.mcall_bits(
        [int(t) for t in arg_taints], int(ret_taint), len(arg_taints)
    )
    return CompiledFunction(
        name=func.name,
        insns=insns,
        entry_bits=entry_bits,
        arg_taints=list(arg_taints),
        ret_taint=ret_taint,
        n_args=len(arg_taints),
    )


def compile_module(module: ir.IRModule, config: BuildConfig):
    """Compile every function in a module into a UObject."""
    from ..link.objfile import UObject

    with events.span("compile.codegen", config=config.name):
        functions = [
            compile_function(func, module, config)
            for func in module.functions.values()
        ]
    imports = sorted(module.externs.values(), key=lambda e: e.name)
    externals = sorted(module.u_externs.values(), key=lambda e: e.name)
    return UObject(
        name=module.name,
        functions=functions,
        globals=dict(module.globals),
        imports=imports,
        config=config,
        externals=externals,
        libraries=list(module.libraries),
    )
