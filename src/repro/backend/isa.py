"""ConfISA: the abstract x64-flavoured target instruction set.

The ISA keeps exactly the properties the ConfLLVM scheme relies on:

* memory operands of the x64 shape ``seg:[base + index*scale + disp]``
  with optional 32-bit sub-register addressing (the segmentation
  scheme's ``fs+eax`` trick);
* MPX-style bound checks against the ``bnd0``/``bnd1`` registers;
* code that is *readable as data*: each word of the code space has a
  deterministic 64-bit encoding, so the magic-sequence machinery (the
  uniqueness scan at link time, and the runtime ``cmp [r], imm`` of the
  CFI checks) is real, not pretend;
* magic words executing as no-ops, so direct calls fall past a callee's
  entry sequence and CFI returns skip over return-site markers.

Arithmetic is 3-address rather than x64's 2-address form — a cosmetic
simplification that changes nothing the scheme checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..arith import MASK64, wrap
from ..ir.core import _computed_once
from . import regs

COND_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})

# Segment selector constants for memory operands.
SEG_NONE = None
SEG_FS = "fs"  # public segment
SEG_GS = "gs"  # private segment

MAGIC_PREFIX_BITS = 59
MAGIC_TAINT_BITS = 5


@dataclass(frozen=True, slots=True)
class Mem:
    """A memory operand.

    Exactly one of ``base`` (register id) or ``abs`` (absolute address,
    produced by the linker for globals) anchors the operand.  ``region``
    tags which region the access must land in ('pub'/'priv') — it is
    *metadata* consumed by the instrumentation pass and the verifier,
    not by the machine.
    """

    base: int | None = None
    index: int | None = None
    scale: int = 1
    disp: int = 0
    seg: str | None = None
    use32: bool = False
    abs: int | None = None
    global_name: str | None = None  # pre-link; linker resolves to abs
    region: str = "pub"

    def __repr__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(regs.name(self.base) + ("32" if self.use32 else ""))
        if self.abs is not None:
            parts.append(f"{self.abs:#x}")
        if self.global_name is not None:
            parts.append(f"@{self.global_name}")
        if self.index is not None:
            parts.append(f"{regs.name(self.index)}*{self.scale}")
        if self.disp:
            parts.append(f"{self.disp:+d}")
        body = "+".join(parts) or "0"
        prefix = f"{self.seg}:" if self.seg else ""
        return f"{prefix}[{body}]"


class Insn:
    """Base class for instructions (one code word each).

    Words are frozen: the linker builds patched copies with
    ``dataclasses.replace``, so one compiled unit can be linked any
    number of times, and a word's encoding is computed once."""

    __slots__ = ()
    cost_class = "alu"

    @_computed_once
    def _encoding(self) -> int:
        digest = hashlib.blake2b(repr(self).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little") & MASK64

    def encoding(self) -> int:
        """Deterministic 64-bit encoding of this word, used for the
        magic-uniqueness scan and for reads of code memory."""
        return self._encoding


@dataclass(frozen=True, repr=False)
class Label(Insn):
    """Pseudo-instruction: marks an address; occupies no code word."""

    name: str

    def __repr__(self):
        return f"{self.name}:"


@dataclass(frozen=True, repr=False)
class MagicWord(Insn):
    """A 64-bit magic-sequence word (data; executes as a no-op).

    ``kind`` is 'call' (procedure entry: 4 argument taint bits + return
    taint bit) or 'ret' (return site: return taint bit + 4 zero bits).
    The linker fills in ``value`` once the 59-bit prefixes are chosen.
    """

    kind: str
    taint_bits: int
    value: int = 0
    cost_class = "nop"

    def encoding(self) -> int:
        return self.value & MASK64

    def __repr__(self):
        return f"magic.{self.kind} bits={self.taint_bits:05b} ({self.value:#x})"


@dataclass(frozen=True, repr=False)
class MovRI(Insn):
    dst: int
    imm: int

    def __repr__(self):
        return f"mov {regs.name(self.dst)}, {self.imm:#x}"


@dataclass(frozen=True, repr=False)
class MovRR(Insn):
    dst: int
    src: int

    def __repr__(self):
        return f"mov {regs.name(self.dst)}, {regs.name(self.src)}"


@dataclass(frozen=True, repr=False)
class MovFuncAddr(Insn):
    """Materialize a function's address (patched by the linker).

    In instrumented binaries the value points at the function's MCall
    magic word, so CFI checks at indirect call sites can read it.
    """

    dst: int
    func: str
    value: int = 0

    def __repr__(self):
        return f"mov {regs.name(self.dst)}, &{self.func} ({self.value:#x})"


@dataclass(frozen=True, repr=False)
class Alu(Insn):
    """3-address ALU op; ops as in the IR (add/sub/.../shr)."""

    op: str
    dst: int
    a: "int | Imm"
    b: "int | Imm"

    def __repr__(self):
        return (
            f"{self.op} {regs.name(self.dst)}, {_opnd(self.a)}, {_opnd(self.b)}"
        )


@dataclass(frozen=True, repr=False)
class Imm:
    """An immediate ALU operand (distinguished from register ids)."""

    value: int

    def __repr__(self):
        return f"${self.value}"


@dataclass(frozen=True, repr=False)
class SetCC(Insn):
    op: str  # one of COND_OPS
    dst: int
    a: "int | Imm"
    b: "int | Imm"

    def __repr__(self):
        return f"set{self.op} {regs.name(self.dst)}, {_opnd(self.a)}, {_opnd(self.b)}"


@dataclass(frozen=True, repr=False)
class Load(Insn):
    dst: int
    mem: Mem
    size: int
    cost_class = "mem"

    def __repr__(self):
        return f"load{self.size} {regs.name(self.dst)}, {self.mem!r}"


@dataclass(frozen=True, repr=False)
class Store(Insn):
    mem: Mem
    src: "int | Imm"
    size: int
    cost_class = "mem"

    def __repr__(self):
        return f"store{self.size} {self.mem!r}, {_opnd(self.src)}"


@dataclass(frozen=True, repr=False)
class Lea(Insn):
    dst: int
    mem: Mem

    def __repr__(self):
        return f"lea {regs.name(self.dst)}, {self.mem!r}"


@dataclass(frozen=True, repr=False)
class Push(Insn):
    src: "int | Imm"
    cost_class = "mem"

    def __repr__(self):
        return f"push {_opnd(self.src)}"


@dataclass(frozen=True, repr=False)
class Pop(Insn):
    dst: int
    cost_class = "mem"

    def __repr__(self):
        return f"pop {regs.name(self.dst)}"


@dataclass(frozen=True, repr=False)
class Jmp(Insn):
    target: str
    addr: int = -1
    cost_class = "branch"

    def __repr__(self):
        return f"jmp {self.target}"


@dataclass(frozen=True, repr=False)
class Br(Insn):
    """Compare-and-branch (folds x64's cmp+jcc into one word)."""

    op: str
    a: "int | Imm"
    b: "int | Imm"
    target: str
    addr: int = -1
    cost_class = "branch"

    def __repr__(self):
        return f"b{self.op} {_opnd(self.a)}, {_opnd(self.b)}, {self.target}"


@dataclass(frozen=True, repr=False)
class JmpTable(Insn):
    """Jump-table dispatch: ``pc = table[reg - base]``.

    Only the *vanilla* pipeline emits this (dense switches).  ConfLLVM
    disables jump-table lowering — ConfVerify rejects indirect jumps —
    and uses compare chains instead (Section 4, "Indirect jumps").
    The table itself is part of the instruction word (conceptually:
    read-only memory next to the code).
    """

    reg: int
    base: int
    targets: list[str] = field(default_factory=list)
    addrs: list[int] = field(default_factory=list)
    cost_class = "jmptable"

    def __repr__(self):
        return (
            f"jmp table[{regs.name(self.reg)} - {self.base}] "
            f"({len(self.targets)} entries)"
        )


@dataclass(frozen=True, repr=False)
class CallD(Insn):
    """Direct call: pushes the return address, jumps to the label.

    ``site_bits`` records the call site's register taints so the linker
    can perform the static direct-call taint check and ConfVerify can
    re-check it against the callee's magic word.
    """

    target: str
    addr: int = -1
    site_bits: int = 0
    cost_class = "call"

    def __repr__(self):
        return f"call {self.target} bits={self.site_bits:05b}"


@dataclass(frozen=True, repr=False)
class CallI(Insn):
    """Indirect call through a register (CFI-checked beforehand)."""

    reg: int
    cost_class = "call"

    def __repr__(self):
        return f"call {regs.name(self.reg)}"


@dataclass(frozen=True, repr=False)
class RetPlain(Insn):
    """Vanilla return; only the Base pipeline emits it."""

    cost_class = "call"

    def __repr__(self):
        return "ret"


@dataclass(frozen=True, repr=False)
class JmpInd(Insn):
    """Memory-indirect jump; only linker-generated T-import stubs use
    it, through the read-only externals table (ConfVerify enforces
    this)."""

    mem: Mem
    cost_class = "branch"

    def __repr__(self):
        return f"jmp {self.mem!r}"


@dataclass(frozen=True, repr=False)
class JmpReg(Insn):
    """Jump to reg+skip; the tail of the CFI return sequence (the
    ``add r, 8; jmp r`` of Section 4)."""

    reg: int
    skip: int = 1
    cost_class = "branch"

    def __repr__(self):
        return f"jmp {regs.name(self.reg)}+{self.skip}"


@dataclass(frozen=True, repr=False)
class CheckMagic(Insn):
    """The CFI compare: fault unless ``code[reg]`` equals the expected
    magic word.  Stores the *bitwise negation* of the expected word so
    the magic sequence itself never appears in instruction encodings
    (the paper's M_ret_inverted trick); the comparison negates again.

    Folds the paper's ``mov r2, ~M; not r2; cmp [r1], r2; jne fail``
    into one word with an equivalent cost.
    """

    reg: int
    kind: str  # 'call' or 'ret'
    taint_bits: int
    inv_value: int = 0
    cost_class = "cfi"

    def __repr__(self):
        return (
            f"chkmagic.{self.kind} [{regs.name(self.reg)}], "
            f"~{self.inv_value:#x} bits={self.taint_bits:05b}"
        )


@dataclass(frozen=True, repr=False)
class BndChk(Insn):
    """MPX bound check (bndcl+bndcu pair folded into one word of cost
    2x a single check).  ``bnd`` is 0 (public) or 1 (private).  The
    operand is either a register or a full memory operand; register
    checks are cheaper (the paper's observation)."""

    bnd: int
    reg: int | None = None
    mem: Mem | None = None
    cost_class = "bndchk"

    def __repr__(self):
        what = regs.name(self.reg) if self.reg is not None else repr(self.mem)
        return f"bndchk bnd{self.bnd}, {what}"


@dataclass(frozen=True, repr=False)
class ChkStk(Insn):
    """Inline ``_chkstk``: fault if rsp escaped the thread's stack."""

    cost_class = "alu"

    def __repr__(self):
        return "chkstk"


@dataclass(frozen=True, repr=False)
class TlsBase(Insn):
    """Compute the TLS base: mask the low 20 bits of rsp to zero
    (Section 3, multi-threading support)."""

    dst: int

    def __repr__(self):
        return f"tlsbase {regs.name(self.dst)}"


@dataclass(frozen=True, repr=False)
class ShadowPush(Insn):
    """Shadow-stack ablation: record the return address on entry."""

    cost_class = "mem"

    def __repr__(self):
        return "shadowpush"


@dataclass(frozen=True, repr=False)
class ShadowPop(Insn):
    """Shadow-stack ablation: check [rsp] against the shadow top."""

    cost_class = "shadow"

    def __repr__(self):
        return "shadowpop"


@dataclass(frozen=True, repr=False)
class Halt(Insn):
    """Terminate the program (the loader plants the top-level return
    here)."""

    cost_class = "nop"

    def __repr__(self):
        return "halt"


@dataclass(frozen=True, repr=False)
class Fail(Insn):
    """__debugbreak: unconditional CFI failure trap."""

    cost_class = "nop"

    def __repr__(self):
        return "fail"


def _opnd(x) -> str:
    if isinstance(x, Imm):
        return repr(x)
    return regs.name(x)


def mcall_bits(arg_taints: list, ret_taint, n_args: int) -> int:
    """Encode entry taint bits: arg0..arg3 then return; unused argument
    registers are conservatively private (bit 1), per Section 4."""
    bits = 0
    for i in range(4):
        if i < n_args:
            bit = int(arg_taints[i])
        else:
            bit = 1
        bits |= bit << i
    bits |= int(ret_taint) << 4
    return bits


def mret_bits(ret_taint) -> int:
    """Return-site taint bits: 1 taint bit padded with four zeros."""
    return int(ret_taint)


# ---------------------------------------------------------------------------
# Check-site classification.
#
# Every instruction the instrumentation passes insert to *enforce*
# confidentiality falls into one of these categories; the linker records
# the classification of every code address in ``Binary.check_sites`` so
# profilers and the verifier agree on what counts as a check.  The
# categories line up with the paper's Fig. 5-8 overhead decomposition:
# MPX bound checks, magic-sequence CFI checks, the magic words
# themselves (zero-cost landing pads), stack probes, and the
# shadow-stack ablation.

CHECK_CATEGORIES = ("bnd", "cfi", "magic", "chkstk", "shadow")

_CHECK_KINDS = {
    BndChk: "bnd",
    CheckMagic: "cfi",
    MagicWord: "magic",
    ChkStk: "chkstk",
    ShadowPush: "shadow",
    ShadowPop: "shadow",
}


def check_kind(insn: Insn) -> str | None:
    """The check category of ``insn``, or None for ordinary code."""
    return _CHECK_KINDS.get(type(insn))
