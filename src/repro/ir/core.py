"""The compiler's intermediate representation.

A small, explicitly-typed three-address IR playing the role LLVM IR
plays for ConfLLVM.  It is *not* SSA: virtual registers are assigned
freely, and locals start as stack slots; the ``promote_slots`` pass
(our mem2reg analogue) later turns non-address-taken scalar slots into
virtual registers.

Taint is first-class metadata: every virtual register, stack slot, and
memory access carries a concrete :class:`~repro.taint.lattice.Taint`
(qualifier inference has already run by the time IR exists).  The
backend uses the access ``region`` to pick the MPX bounds register or
fs/gs segment prefix, and slot/vreg taints to pick the public or the
private stack.

IR nodes — instructions, :class:`MemRef`, :class:`StackSlot` and
:class:`VReg` — are immutable (frozen dataclasses whose sequence fields
are tuples).  A pass rewrites a block by replacing nodes, so the
certified pass manager can snapshot a function by sharing them and
compare old and new nodes by value.  Blocks and functions stay mutable.

Because a node never changes, what is derived from its fields alone is
computed once and kept on the node: its :attr:`IRNode.encoding` (the
text the witness digest hashes) and an instruction's registers
(:attr:`Instr.use_regs`, :attr:`Instr.vregs`).  ``dataclasses.replace``
builds a fresh node, so these can never go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

from ..errors import IRError
from ..minic.types import FuncType
from ..taint.lattice import PUBLIC, Taint

BIN_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "mod",
        "and", "or", "xor", "shl", "shr",
        "eq", "ne", "lt", "le", "gt", "ge",
    }
)
UN_OPS = frozenset({"neg", "not"})

Operand = object  # VReg | int


@dataclass(frozen=True, eq=False, slots=True)
class VReg:
    """A virtual register with a fixed taint.

    Compared and hashed by identity: two registers with the same id are
    the same register only if they are the same object.
    """

    id: int
    taint: Taint
    hint: str = ""

    def __repr__(self) -> str:
        tag = "H" if self.taint is Taint.PRIVATE else "L"
        suffix = f".{self.hint}" if self.hint else ""
        return f"%{self.id}{tag}{suffix}"


def _encode(value) -> str:
    """Field-value text of one node field: injective for the types IR
    fields hold (registers, nodes, ints, strings, taints, None, and
    tuples of these), and independent of ``hash()`` and object ids."""
    cls = type(value)
    if cls is VReg:
        return f"%{value.id}:{int(value.taint)}:{value.hint!r}"
    if cls is int or cls is str or value is None or cls is bool:
        return repr(value)
    if cls is tuple:
        return "(" + ",".join(map(_encode, value)) + ")"
    if cls is Taint:
        return f"T{int(value)}"
    return value.encoding


class _computed_once:
    """A node attribute computed on first read and then stored on the
    node (like ``functools.cached_property``).

    It stores with ``object.__setattr__`` instead of writing the
    instance ``__dict__``: on CPython 3.11, touching ``__dict__`` gives
    up the compact attribute layout and makes every later field read of
    the node several times slower."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, node, owner=None):
        if node is None:
            return self
        value = self.func(node)
        object.__setattr__(node, self.name, value)
        return value


class IRNode:
    """Base of the frozen IR dataclasses (instructions, MemRef,
    StackSlot)."""

    @_computed_once
    def encoding(self) -> str:
        """``Class(field, ...)`` over every field value, computed once.
        Equal encodings mean equal fields, whatever ``repr`` omits."""
        cls = type(self)
        getter = _FIELD_GETTERS.get(cls)
        if getter is None:
            getter = _FIELD_GETTERS[cls] = _field_getter(cls)
        return f"{cls.__name__}({','.join(map(_encode, getter(self)))})"


def _field_getter(cls):
    """A function returning the tuple of a node's field values."""
    names = [f.name for f in fields(cls)]
    if len(names) == 1:
        (name,) = names
        return lambda node: (getattr(node, name),)
    return attrgetter(*names)


_FIELD_GETTERS: dict[type, object] = {}


@dataclass(frozen=True)
class StackSlot(IRNode):
    """A named chunk of a function's frame, on the stack of its taint."""

    uid: int
    name: str
    size: int
    align: int
    taint: Taint
    address_taken: bool = False

    def __repr__(self) -> str:
        tag = "H" if self.taint is Taint.PRIVATE else "L"
        return f"slot:{self.name}.{self.uid}{tag}"


# ---------------------------------------------------------------------------
# Instructions


class Instr(IRNode):
    """Base class.  ``uses``/``defs`` drive dataflow and regalloc."""

    def uses(self) -> tuple[VReg, ...]:
        return self.use_regs

    @_computed_once
    def use_regs(self) -> tuple[VReg, ...]:
        """The registers the instruction reads."""
        return tuple(v for v in self._use_operands() if isinstance(v, VReg))

    @_computed_once
    def vregs(self) -> tuple[VReg, ...]:
        """Every register the instruction names: its uses, then its
        defs."""
        return (*self.use_regs, *self.defs())

    def defs(self) -> list[VReg]:
        return []

    def _use_operands(self) -> list[Operand]:
        return []

    @property
    def is_terminator(self) -> bool:
        return False


@dataclass(frozen=True)
class Const(Instr):
    dst: VReg
    value: int

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = const {self.value}"


@dataclass(frozen=True)
class Copy(Instr):
    dst: VReg
    src: Operand

    def _use_operands(self):
        return [self.src]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = {self.src!r}"


@dataclass(frozen=True)
class Un(Instr):
    op: str
    dst: VReg
    src: Operand

    def _use_operands(self):
        return [self.src]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = {self.op} {self.src!r}"


@dataclass(frozen=True)
class Bin(Instr):
    op: str
    dst: VReg
    a: Operand
    b: Operand

    def _use_operands(self):
        return [self.a, self.b]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = {self.op} {self.a!r}, {self.b!r}"


@dataclass(frozen=True)
class MemRef(IRNode):
    """An IR memory reference: exactly one of ``base`` (a pointer
    register), ``slot`` (frame-relative) or ``global_name`` is set, plus
    an optional scaled index register and constant displacement.

    ``region`` is the taint of the memory the access must land in; the
    backend turns it into an MPX bounds check or an fs/gs prefix.  Slot
    references compile to rsp-relative operands, which the paper's
    ``_chkstk`` optimization exempts from checks when the displacement
    is constant and small.
    """

    region: Taint
    base: VReg | None = None
    slot: "StackSlot | None" = None
    global_name: str | None = None
    index: VReg | None = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self):
        anchors = sum(
            x is not None for x in (self.base, self.slot, self.global_name)
        )
        assert anchors == 1, "MemRef needs exactly one anchor"

    def regs(self) -> list[VReg]:
        out = []
        if self.base is not None:
            out.append(self.base)
        if self.index is not None:
            out.append(self.index)
        return out

    def __repr__(self):
        tag = "H" if self.region is Taint.PRIVATE else "L"
        anchor = self.base or self.slot or f"@{self.global_name}"
        parts = [f"{anchor!r}"]
        if self.index is not None:
            parts.append(f"{self.index!r}*{self.scale}")
        if self.disp:
            parts.append(str(self.disp))
        return f"{tag}[{' + '.join(parts)}]"


@dataclass(frozen=True)
class Load(Instr):
    """``dst = size-byte load mem`` (zero-extending for size 1)."""

    dst: VReg
    mem: MemRef
    size: int

    def _use_operands(self):
        return list(self.mem.regs())

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = load{self.size} {self.mem!r}"


@dataclass(frozen=True)
class Store(Instr):
    mem: MemRef
    src: Operand
    size: int

    def _use_operands(self):
        return [*self.mem.regs(), self.src]

    def __repr__(self):
        return f"store{self.size} {self.mem!r}, {self.src!r}"


@dataclass(frozen=True)
class Lea(Instr):
    """Materialize the effective address of a memory reference."""

    dst: VReg
    mem: MemRef

    def _use_operands(self):
        return list(self.mem.regs())

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = lea {self.mem!r}"


@dataclass(frozen=True)
class LocalAddr(Instr):
    dst: VReg
    slot: StackSlot

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = addr {self.slot!r}"


@dataclass(frozen=True)
class GlobalAddr(Instr):
    dst: VReg
    name: str

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = addr @{self.name}"


@dataclass(frozen=True)
class FuncAddr(Instr):
    dst: VReg
    fname: str

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = funcaddr {self.fname}"


@dataclass(frozen=True)
class Call(Instr):
    """Direct call.  ``arg_taints``/``ret_taint`` snapshot the callee
    signature so the backend can emit magic-sequence taint bits without
    consulting the symbol table."""

    dst: VReg | None
    name: str
    args: tuple[Operand, ...]
    arg_taints: tuple[Taint, ...]
    ret_taint: Taint
    n_fixed: int  # args beyond n_fixed are variadic (public, stack-passed)

    def _use_operands(self):
        return list(self.args)

    def defs(self):
        return [self.dst] if self.dst is not None else []

    def __repr__(self):
        args = ", ".join(repr(a) for a in self.args)
        dst = f"{self.dst!r} = " if self.dst else ""
        return f"{dst}call {self.name}({args})"


@dataclass(frozen=True)
class CallIndirect(Instr):
    dst: VReg | None
    target: VReg
    args: tuple[Operand, ...]
    arg_taints: tuple[Taint, ...]
    ret_taint: Taint
    n_fixed: int

    def _use_operands(self):
        return [self.target, *self.args]

    def defs(self):
        return [self.dst] if self.dst is not None else []

    def __repr__(self):
        args = ", ".join(repr(a) for a in self.args)
        dst = f"{self.dst!r} = " if self.dst else ""
        return f"{dst}icall {self.target!r}({args})"


@dataclass(frozen=True)
class TlsBaseAddr(Instr):
    """The current thread's TLS base (rsp masked to the stack base)."""

    dst: VReg

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = tlsbase"


@dataclass(frozen=True)
class VarArgAddr(Instr):
    """Address of the index-th variadic slot of the *current* frame."""

    dst: VReg
    index: Operand

    def _use_operands(self):
        return [self.index]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = varargaddr {self.index!r}"


# Terminators


@dataclass(frozen=True)
class Jump(Instr):
    target: str

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        return f"jump {self.target}"


@dataclass(frozen=True)
class Branch(Instr):
    cond: VReg
    if_true: str
    if_false: str

    def _use_operands(self):
        return [self.cond]

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        return f"branch {self.cond!r} ? {self.if_true} : {self.if_false}"


@dataclass(frozen=True)
class SwitchBr(Instr):
    """Multi-way branch.  The backend lowers it to a jump table under
    the vanilla pipeline (when dense) or to a compare chain under
    ConfLLVM, which disables jump-table lowering because ConfVerify
    rejects indirect jumps (Section 4, "Indirect jumps")."""

    cond: VReg
    table: tuple[tuple[int, str], ...]  # (case value, block label)
    default: str

    def _use_operands(self):
        return [self.cond]

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        arms = ", ".join(f"{v}->{t}" for v, t in self.table)
        return f"switch {self.cond!r} [{arms}] else {self.default}"


@dataclass(frozen=True)
class Ret(Instr):
    value: Operand | None

    def _use_operands(self):
        return [self.value] if self.value is not None else []

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        return f"ret {self.value!r}" if self.value is not None else "ret"


# ---------------------------------------------------------------------------
# Blocks / functions / module


@dataclass
class Block:
    name: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        return self.instrs[-1]

    def successors(self) -> list[str]:
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, Branch):
            return [term.if_true, term.if_false]
        if isinstance(term, SwitchBr):
            return [t for _v, t in term.table] + [term.default]
        return []


class IRFunction:
    def __init__(self, name: str, sig: FuncType, param_names: list[str]):
        self.name = name
        self.sig = sig
        self.param_names = param_names
        self.blocks: list[Block] = []
        self.slots: list[StackSlot] = []
        self.param_vregs: list[VReg] = []
        self._next_vreg = 0
        self._next_slot = 0
        self._next_block = 0
        # Lowering provenance, stamped by the frontend: identifies the
        # as-lowered (pre-optimization) body.  Optimization witnesses
        # carry it so the checker can reject a witness replayed against
        # a different function (see repro.opt.witness).
        self.origin = ""

    def new_vreg(self, taint: Taint, hint: str = "") -> VReg:
        vreg = VReg(self._next_vreg, taint, hint)
        self._next_vreg += 1
        return vreg

    def new_slot(
        self,
        name: str,
        size: int,
        align: int,
        taint: Taint,
        address_taken: bool = False,
    ) -> StackSlot:
        slot = StackSlot(
            self._next_slot, name, size, align, taint, address_taken
        )
        self._next_slot += 1
        self.slots.append(slot)
        return slot

    def new_block(self, hint: str = "bb") -> Block:
        block = Block(f"{self.name}.{hint}.{self._next_block}")
        self._next_block += 1
        self.blocks.append(block)
        return block

    def block_map(self) -> dict[str, Block]:
        return {b.name: b for b in self.blocks}

    def __repr__(self) -> str:
        lines = [f"func {self.name} {self.sig!r}:"]
        for slot in self.slots:
            lines.append(f"  {slot!r} size={slot.size}")
        for block in self.blocks:
            lines.append(f" {block.name}:")
            for instr in block.instrs:
                lines.append(f"    {instr!r}")
        return "\n".join(lines)


@dataclass
class IRGlobal:
    name: str
    size: int
    align: int
    taint: Taint
    init_bytes: bytes | None = None  # None means zero-init
    read_only: bool = False


@dataclass
class ExternSig:
    """A trusted (T) function's annotated signature."""

    name: str
    sig: FuncType
    arg_taints: list[Taint] = field(default_factory=list)
    ret_taint: Taint = PUBLIC


class IRModule:
    def __init__(self, name: str = "U"):
        self.name = name
        self.functions: dict[str, IRFunction] = {}
        self.globals: dict[str, IRGlobal] = {}
        self.externs: dict[str, ExternSig] = {}
        # Untrusted functions declared but defined in *another* unit
        # (separate compilation); resolved by the multi-object linker.
        self.u_externs: dict[str, ExternSig] = {}

    def add_function(self, func: IRFunction) -> None:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func

    def __repr__(self) -> str:
        parts = [f"module {self.name}"]
        parts.extend(repr(g) for g in self.globals.values())
        parts.extend(repr(f) for f in self.functions.values())
        return "\n".join(parts)
