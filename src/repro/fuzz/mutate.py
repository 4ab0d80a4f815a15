"""Security-relevant binary mutation operators for the kill harness.

Each operator models one way a buggy or malicious compiler could weaken
the ConfLLVM instrumentation while leaving the binary loadable: drop or
retarget a bounds check, strip an fs/gs prefix or widen a 32-bit
sub-register, flip MCall/MRet taint bits, forge or clone a magic word,
perturb ``rsp`` arithmetic or skip ``chkstk``, redirect a direct call
past its taint check, smuggle in an indirect jump or a segment-register
write.  ConfVerify must reject ("kill") every mutant; an accepted
("surviving") mutant is a verifier soundness finding.

Operators only propose *ground-truth-unsound* sites: each site is
selected by an independent structural argument (encoded in the site
predicate, not by asking the verifier) that the mutation genuinely
weakens a guarantee.  The two subtle cases are the MPX evidence
mutations, where "drop this check" is only unsound if no *other* check
in the same basic block still covers the access — the site scanner
replays the verifier's per-block evidence bookkeeping (same keys, same
invalidation on redefinition and calls) and only selects checks that
are the **sole** evidence for some access — and the taint-flow
mutations, where redirecting a private store to public memory is only a
violation if the stored value is provably private on every path (a
same-block private load feeds it, with no intervening call or
redefinition; the dataflow join is a max, so a straight-line private
witness is a lower bound).  That keeps the kill target at 100%: a
survivor is a real finding, never an "equivalent mutant".

Mutants never execute — they exist only to be shown to the verifier —
so the canonical NOP used to erase an instruction is ``ChkStk`` (the
one instruction with no dataflow effect at all in the verifier).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from ..backend import isa, regs
from ..link.layout import ELIDE_LIMIT
from ..link.objfile import Binary

_SIMPLE_INSNS = (
    isa.Alu,
    isa.MovRI,
    isa.MovRR,
    isa.SetCC,
    isa.Lea,
    isa.Load,
    isa.Store,
    isa.Push,
)


def _nop() -> isa.Insn:
    # ChkStk is `pass` to the verifier's dataflow: erasing an
    # instruction with it perturbs nothing except the erased check.
    return isa.ChkStk()


@dataclass(frozen=True)
class Site:
    """One concrete mutation opportunity inside a binary."""

    operator: str
    index: int  # code address the mutation anchors at
    description: str
    # VerifyError reasons the ground-truth argument predicts.  Any
    # VerifyError kills the mutant; one of these reasons kills it *with
    # attribution* (the harness reports mismatches separately so a
    # check masking another check's job stays visible).
    expected: tuple[str, ...]


@dataclass
class Mutant:
    site: Site
    binary: Binary  # the mutated deep copy


class Operator:
    """A named mutation operator: site enumeration + application."""

    def __init__(
        self,
        name: str,
        find: Callable[["_Context"], list[Site]],
        apply: Callable[[Binary, Site], None],
    ):
        self.name = name
        self.find = find
        self.apply = apply


# ---------------------------------------------------------------------------
# Structural context: procedures, blocks, reachability — recomputed
# independently of the verifier so site predicates are a second opinion,
# not a tautology.


@dataclass
class _Access:
    """One memory access observed by the block scanner."""

    addr: int
    kind: str  # "load" | "store"
    mem: isa.Mem
    region: str | None  # region the verifier would derive, None if none
    covering: frozenset[int]  # alive check addrs whose shape covers it
    src: int | None = None  # store source register, if a register
    src_def: "_Access | None" = None  # load that defined src, if traceable


class _Context:
    def __init__(self, binary: Binary):
        self.binary = binary
        self.code = binary.code
        self.scheme = binary.config.scheme
        self.stub_addrs = {
            addr
            for name, addr in binary.label_addrs.items()
            if name.startswith("stub.")
        }
        self.procs = self._find_procs()
        self.reachable = self._reachable_addrs()

    def _find_procs(self) -> list[tuple[int, int]]:
        """[(magic addr, end)] with end exclusive, mirroring the linker
        layout: procedures run from each MCall word to the next, the
        last one ending where the import stubs start."""
        entries = [
            addr
            for addr, word in enumerate(self.code)
            if isinstance(word, isa.MagicWord) and word.kind == "call"
        ]
        stub_start = (
            min(self.stub_addrs) if self.stub_addrs else len(self.code)
        )
        return [
            (entry, entries[i + 1] if i + 1 < len(entries) else stub_start)
            for i, entry in enumerate(entries)
        ]

    def _reachable_addrs(self) -> set[int]:
        """Addresses control flow can reach, walking each procedure from
        its entry: calls fall through their return-site magic, the CFI
        return sequence and ``fail`` terminate.  Mutating unreachable
        code is vacuous (it cannot execute and the verifier never
        dataflows it), so dataflow-dependent sites exclude it."""
        reachable: set[int] = set()
        for magic_addr, end in self.procs:
            worklist = [magic_addr + 1]
            while worklist:
                addr = worklist.pop()
                while magic_addr < addr < end and addr not in reachable:
                    reachable.add(addr)
                    insn = self.code[addr]
                    if isinstance(insn, isa.Jmp):
                        worklist.append(insn.addr)
                        break
                    if isinstance(insn, isa.Br):
                        worklist.append(insn.addr)
                    elif isinstance(insn, isa.Fail):
                        break
                    elif isinstance(insn, isa.Pop):
                        nxt = self.code[addr + 1] if addr + 1 < end else None
                        if (
                            isinstance(nxt, isa.CheckMagic)
                            and nxt.kind == "ret"
                        ):
                            reachable.update((addr + 1, addr + 2))
                            break
                    addr += 1
        return reachable

    def blocks(self) -> Iterator[tuple[int, int]]:
        """(leader, end) pairs of reachable verifier basic blocks — the
        same leader set ``BinaryVerifier._build_blocks`` derives."""
        for entry, proc_end in self.procs:
            leaders = {entry + 1}
            for addr in range(entry + 1, proc_end):
                insn = self.code[addr]
                if isinstance(insn, (isa.Jmp, isa.Br)):
                    leaders.add(insn.addr)
                    leaders.add(addr + 1)
            ordered = sorted(x for x in leaders if entry < x < proc_end)
            for i, leader in enumerate(ordered):
                if leader not in self.reachable:
                    continue
                end = ordered[i + 1] if i + 1 < len(ordered) else proc_end
                yield leader, end


_SHAPE_MEM = "mem"
_SHAPE_REG = "reg"


def _check_shape(chk: isa.BndChk):
    if chk.mem is not None:
        m = chk.mem
        return (_SHAPE_MEM, m.base, m.index, m.scale, m.disp)
    return (_SHAPE_REG, chk.reg)


def _shape_covers(shape, mem: isa.Mem) -> bool:
    """Does a check of this shape provide evidence for this operand,
    per ``_operand_region``'s key-matching rules?"""
    if shape[0] == _SHAPE_REG:
        return (
            shape[1] == mem.base
            and mem.index is None
            and abs(mem.disp) < ELIDE_LIMIT
        )
    return shape[1:] == (mem.base, mem.index, mem.scale, mem.disp)


def _shape_regs(shape) -> tuple:
    """Registers whose redefinition invalidates a check of this shape."""
    return shape[1:3] if shape[0] == _SHAPE_MEM else shape[1:2]


def _mpx_dynamic(mem: isa.Mem) -> bool:
    """Is this operand one the MPX scheme covers with BndChk evidence
    (register-anchored, not rsp, not a linked global)?"""
    return (
        mem.base is not None
        and mem.base != regs.RSP
        and mem.abs is None
        and mem.global_name is None
        and mem.seg is None
    )


def _defines(insn: isa.Insn) -> int | None:
    """The register an instruction redefines, if any."""
    if isinstance(
        insn,
        (isa.MovRI, isa.MovRR, isa.MovFuncAddr, isa.Alu, isa.SetCC,
         isa.Lea, isa.Load, isa.Pop, isa.TlsBase),
    ):
        return insn.dst
    return None


def _scan_block(ctx: _Context, leader: int, end: int) -> list[_Access]:
    """Replay the verifier's per-block bookkeeping for one reachable
    block: which checks are alive at each access (same keys, same
    invalidation on redefinition) and which register was last defined
    by which load.  Calls wipe both maps — the verifier clears evidence
    and rewrites every register's taint at call boundaries."""
    code = ctx.code
    alive: dict[int, tuple] = {}  # check addr -> shape
    definer: dict[int, _Access] = {}  # reg -> defining load access
    accesses: list[_Access] = []
    addr = leader
    while addr < end:
        insn = code[addr]
        if isinstance(insn, isa.MagicWord):
            addr += 1
            continue
        if isinstance(insn, isa.BndChk):
            alive[addr] = _check_shape(insn)
            addr += 1
            continue
        if isinstance(insn, isa.CallD):
            alive.clear()
            definer.clear()
            addr += 2  # the call and its return-site magic word
            continue
        if isinstance(insn, isa.CheckMagic):
            if insn.kind != "call":
                break  # malformed; the verifier rejects it regardless
            alive.clear()
            definer.clear()
            addr += 3  # check, CallI, return-site magic word
            continue
        if isinstance(insn, (isa.Jmp, isa.Br, isa.Fail)):
            break
        if isinstance(insn, isa.Pop):
            nxt = code[addr + 1] if addr + 1 < len(code) else None
            if isinstance(nxt, isa.CheckMagic) and nxt.kind == "ret":
                break  # CFI return sequence terminates the block
        acc = None
        if isinstance(insn, (isa.Load, isa.Store)):
            acc = _observe_access(ctx, insn, addr, alive, definer)
            if acc is not None:
                accesses.append(acc)
        defined = _defines(insn)
        if defined is not None:
            stale = [
                caddr
                for caddr, shape in alive.items()
                if defined in _shape_regs(shape)
            ]
            for caddr in stale:
                del alive[caddr]
            if acc is not None and acc.kind == "load":
                definer[defined] = acc
            else:
                definer.pop(defined, None)
        addr += 1
    return accesses


def _observe_access(
    ctx: _Context,
    insn,
    addr: int,
    alive: dict[int, tuple],
    definer: dict[int, _Access],
) -> _Access | None:
    mem = insn.mem
    kind = "load" if isinstance(insn, isa.Load) else "store"
    src = None
    src_def = None
    if kind == "store" and not isinstance(insn.src, isa.Imm):
        src = insn.src
        src_def = definer.get(src)
    if ctx.scheme == "seg":
        if mem.seg is None:
            return None
        region = "priv" if mem.seg == isa.SEG_GS else "pub"
        return _Access(addr, kind, mem, region, frozenset(), src, src_def)
    if not _mpx_dynamic(mem):
        return None
    covering = frozenset(
        caddr for caddr, shape in alive.items() if _shape_covers(shape, mem)
    )
    # Region as _operand_region derives it: bnd0 evidence wins ties.
    region = None
    for bnd, name in ((0, "pub"), (1, "priv")):
        if any(ctx.code[caddr].bnd == bnd for caddr in covering):
            region = name
            break
    return _Access(addr, kind, mem, region, covering, src, src_def)


# ---------------------------------------------------------------------------
# 1. MPX evidence mutations


def _find_drop_bndchk(ctx: _Context) -> list[Site]:
    """Drop a bounds check that is the *sole* alive evidence for some
    access in its block.  (A check shadowed by another covering check
    is not a valid site: the access would still verify — an equivalent
    mutant.)"""
    if ctx.scheme != "mpx":
        return []
    sites: dict[int, Site] = {}
    for leader, end in ctx.blocks():
        for acc in _scan_block(ctx, leader, end):
            if len(acc.covering) != 1:
                continue
            (caddr,) = acc.covering
            if caddr in sites:
                continue
            chk = ctx.code[caddr]
            sites[caddr] = Site(
                "drop-bound-check",
                caddr,
                f"drop the bnd{chk.bnd} check @{caddr}, the sole "
                f"evidence for the {acc.kind} @{acc.addr}",
                ("missing-bounds-check",),
            )
    return [sites[a] for a in sorted(sites)]


def _apply_nop_out(binary: Binary, site: Site) -> None:
    binary.code[site.index] = _nop()


def _patch(binary: Binary, site: Site, **changes) -> None:
    """Replace the site's word with a copy carrying ``changes`` (words
    are frozen)."""
    binary.code[site.index] = replace(binary.code[site.index], **changes)


def _xor_field(binary: Binary, site: Site, name: str, mask: int) -> None:
    word = binary.code[site.index]
    _patch(binary, site, **{name: getattr(word, name) ^ mask})


def _patch_mem(binary: Binary, site: Site, **changes) -> None:
    mem = binary.code[site.index].mem
    _patch(binary, site, mem=replace(mem, **changes))


def _find_flip_store_guard(ctx: _Context) -> list[Site]:
    """Retarget the bnd1 check guarding a store at bnd0 (private-region
    evidence becomes public-region evidence) when the stored value is
    provably private: a same-block private load defines the source, the
    flipped check is not part of that load's own evidence, and no call
    or redefinition intervenes.  The verifier must then see a private
    value stored to public memory."""
    if ctx.scheme != "mpx":
        return []
    sites = []
    seen: set[int] = set()
    for leader, end in ctx.blocks():
        for acc in _scan_block(ctx, leader, end):
            if acc.kind != "store" or acc.region != "priv":
                continue
            if len(acc.covering) != 1:
                continue
            (caddr,) = acc.covering
            if caddr in seen or ctx.code[caddr].bnd != 1:
                continue
            load = acc.src_def
            if (
                load is None
                or load.region != "priv"
                or caddr in load.covering
            ):
                continue
            seen.add(caddr)
            sites.append(
                Site(
                    "flip-store-guard",
                    caddr,
                    f"retarget the bnd1 check @{caddr} at bnd0; the "
                    f"store @{acc.addr} writes the private load "
                    f"@{load.addr}",
                    ("store-taint-mismatch",),
                )
            )
    return sites


def _apply_flip_bnd(binary: Binary, site: Site) -> None:
    _xor_field(binary, site, "bnd", 1)


# ---------------------------------------------------------------------------
# 2. Segmentation prefixes (seg scheme)


def _seg_operand_sites(ctx: _Context, name: str, what: str) -> list[Site]:
    if ctx.scheme != "seg":
        return []
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        mem = getattr(insn, "mem", None)
        if (
            isinstance(insn, (isa.Load, isa.Store, isa.Lea))
            and mem is not None
            and mem.seg is not None
            and mem.base is not None
            and mem.abs is None
        ):
            sites.append(
                Site(
                    name,
                    addr,
                    f"{what} on the {type(insn).__name__.lower()} @{addr}",
                    ("unprefixed-operand",),
                )
            )
    return sites


def _find_strip_prefix(ctx: _Context) -> list[Site]:
    return _seg_operand_sites(
        ctx, "strip-seg-prefix", "strip the fs/gs prefix"
    )


def _apply_strip_prefix(binary: Binary, site: Site) -> None:
    _patch_mem(binary, site, seg=None, use32=False)


def _find_widen_subreg(ctx: _Context) -> list[Site]:
    return _seg_operand_sites(
        ctx, "widen-subregister", "widen the 32-bit sub-register to 64 bits"
    )


def _apply_widen_subreg(binary: Binary, site: Site) -> None:
    _patch_mem(binary, site, use32=False)


def _find_swap_store_segment(ctx: _Context) -> list[Site]:
    """gs -> fs on a store whose source a same-block gs load proves
    private: the private value would land in public memory."""
    if ctx.scheme != "seg":
        return []
    sites = []
    for leader, end in ctx.blocks():
        for acc in _scan_block(ctx, leader, end):
            if (
                acc.kind == "store"
                and acc.mem.seg == isa.SEG_GS
                and acc.src_def is not None
                and acc.src_def.region == "priv"
            ):
                sites.append(
                    Site(
                        "swap-store-segment",
                        acc.addr,
                        f"retarget the private store @{acc.addr} (fed by "
                        f"the gs load @{acc.src_def.addr}) from gs to fs",
                        ("store-taint-mismatch",),
                    )
                )
    return sites


def _apply_swap_segment(binary: Binary, site: Site) -> None:
    _patch_mem(binary, site, seg=isa.SEG_FS)


# ---------------------------------------------------------------------------
# 3. Magic words: taint bits, forgeries, clones


def _find_flip_entry_ret_bit(ctx: _Context) -> list[Site]:
    """Flip the return-taint bit of an MCall word.  The procedure's own
    CFI return sequence still checks the original bit, so the entry
    magic and the return check must disagree (and any direct call site
    targeting the procedure must disagree with its return-site word)."""
    return [
        Site(
            "flip-mcall-ret-bit",
            entry,
            f"flip the entry magic's return-taint bit @{entry}",
            ("return-taint-mismatch", "return-site-taint-mismatch"),
        )
        for entry, _ in ctx.procs
    ]


def _apply_flip_magic_bit4(binary: Binary, site: Site) -> None:
    _xor_field(binary, site, "value", 0x10)


def _find_flip_ret_site_bit(ctx: _Context) -> list[Site]:
    """Flip the taint bit of a return-site MRet word: the verifier
    re-derives the callee's return taint and must spot the mismatch."""
    sites = []
    for addr in sorted(ctx.reachable):
        word = ctx.code[addr]
        if (
            isinstance(word, isa.MagicWord)
            and word.kind == "ret"
            and isinstance(ctx.code[addr - 1], (isa.CallD, isa.CallI))
        ):
            sites.append(
                Site(
                    "flip-mret-site-bit",
                    addr,
                    f"flip the return-site taint bit @{addr}",
                    ("return-site-taint-mismatch",),
                )
            )
    return sites


def _apply_flip_magic_bit0(binary: Binary, site: Site) -> None:
    _xor_field(binary, site, "value", 0x1)


def _plain_sites(ctx: _Context) -> Iterator[int]:
    """Reachable simple instructions whose replacement cannot be
    confused with breaking an adjacent multi-word pattern."""
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if not isinstance(insn, _SIMPLE_INSNS):
            continue
        prev = ctx.code[addr - 1] if addr > 0 else None
        if isinstance(prev, isa.CheckMagic):
            continue
        if (
            isinstance(prev, isa.Alu)
            and prev.dst == regs.RSP
            and prev.op == "sub"
        ):
            continue
        yield addr


def _find_forge_ret_magic(ctx: _Context) -> list[Site]:
    """Forge a ret-kind magic word carrying the *MCall* prefix: a
    CFI-check-passing indirect-call target that is not a procedure
    entry.  The uniqueness scan skips MagicWord instances, so only the
    magic placement check can catch it."""
    return [
        Site(
            "forge-ret-magic",
            addr,
            f"plant an MCall-prefixed ret-kind word @{addr}",
            ("bad-magic-word",),
        )
        for addr in _plain_sites(ctx)
    ]


def _apply_forge_ret_magic(binary: Binary, site: Site) -> None:
    binary.code[site.index] = isa.MagicWord(
        "ret", 0, (binary.mcall_prefix << 5) | 0x1F
    )


def _find_clone_ret_magic(ctx: _Context) -> list[Site]:
    """Clone a legitimate MRet word into the middle of a block: a spare
    landing pad for a corrupted return address."""
    return [
        Site(
            "clone-ret-magic",
            addr,
            f"clone an MRet word into the block body @{addr}",
            ("stray-ret-magic",),
        )
        for addr in _plain_sites(ctx)
    ]


def _apply_clone_ret_magic(binary: Binary, site: Site) -> None:
    binary.code[site.index] = isa.MagicWord(
        "ret", 0, binary.mret_prefix << 5
    )


def _find_forge_call_magic(ctx: _Context) -> list[Site]:
    """A call-kind word whose value does not carry the MCall prefix:
    the placement scan must reject it outright."""
    return [
        Site(
            "forge-call-magic",
            addr,
            f"plant a wrong-prefix call-kind word @{addr}",
            ("bad-magic-word",),
        )
        for addr in _plain_sites(ctx)
    ]


def _apply_forge_call_magic(binary: Binary, site: Site) -> None:
    binary.code[site.index] = isa.MagicWord(
        "call", 0, ((binary.mcall_prefix ^ 0x3) << 5) | 0x1F
    )


def _find_clobber_prefix(ctx: _Context) -> list[Site]:
    """Declare some ordinary word's encoding to *be* the magic prefix
    (equivalently: a linker that chose a non-unique magic).  The
    uniqueness scan is the only line of defence."""
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if not isinstance(insn, isa.MagicWord):
            return [
                Site(
                    "clobber-magic-prefix",
                    addr,
                    f"declare the encoding of the word @{addr} to be the "
                    "mcall prefix",
                    ("magic-not-unique", "bad-magic-word"),
                )
            ]
    return []


def _apply_clobber_prefix(binary: Binary, site: Site) -> None:
    binary.mcall_prefix = binary.code[site.index].encoding() >> 5


# ---------------------------------------------------------------------------
# 4. Calls and returns


def _find_redirect_call(ctx: _Context) -> list[Site]:
    """Redirect a direct call one word past its target's entry — past
    the magic word, so the callee-side taint contract is never
    established.  Calls to import stubs are excluded: stubs are
    contiguous one-word slots, so ``+1`` could name the *next* stub, a
    legitimate callee."""
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if isinstance(insn, isa.CallD) and insn.addr not in ctx.stub_addrs:
            sites.append(
                Site(
                    "redirect-direct-call",
                    addr,
                    f"retarget the call @{addr} one word past the entry",
                    ("call-to-non-procedure",),
                )
            )
    return sites


def _apply_redirect_call(binary: Binary, site: Site) -> None:
    _patch(binary, site, addr=binary.code[site.index].addr + 1)


def _find_drop_icall_check(ctx: _Context) -> list[Site]:
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if isinstance(insn, isa.CheckMagic) and insn.kind == "call":
            sites.append(
                Site(
                    "drop-icall-check",
                    addr,
                    f"erase the CheckMagic before the indirect call @{addr}",
                    ("unchecked-indirect-call",),
                )
            )
    return sites


def _find_retarget_icall_check(ctx: _Context) -> list[Site]:
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if isinstance(insn, isa.CheckMagic) and insn.kind == "call":
            sites.append(
                Site(
                    "retarget-icall-check",
                    addr,
                    f"point the CheckMagic @{addr} at a non-MCall word",
                    ("bad-icall-check",),
                )
            )
    return sites


def _apply_retarget_icall_check(binary: Binary, site: Site) -> None:
    # Flip a bit inside the 59-bit prefix portion of the expected word.
    _xor_field(binary, site, "inv_value", 1 << 6)


def _find_flip_icall_ret_bit(ctx: _Context) -> list[Site]:
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if isinstance(insn, isa.CheckMagic) and insn.kind == "call":
            sites.append(
                Site(
                    "flip-icall-ret-bit",
                    addr,
                    f"flip the expected return-taint bit of the "
                    f"indirect-call check @{addr}",
                    ("return-site-taint-mismatch",),
                )
            )
    return sites


def _apply_flip_icall_ret_bit(binary: Binary, site: Site) -> None:
    _xor_field(binary, site, "inv_value", 1 << 4)


def _find_break_ret_sequence(ctx: _Context) -> list[Site]:
    """Perturb the ``jmp reg+1`` tail of the CFI return so execution
    would resume at the wrong offset from the checked MRet word."""
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if (
            isinstance(insn, isa.JmpReg)
            and insn.skip == 1
            and isinstance(ctx.code[addr - 1], isa.CheckMagic)
        ):
            sites.append(
                Site(
                    "break-ret-sequence",
                    addr,
                    f"change the return jmp skip @{addr} from 1 to 2",
                    ("ret-check-pattern",),
                )
            )
    return sites


def _apply_break_ret_sequence(binary: Binary, site: Site) -> None:
    _patch(binary, site, skip=2)


def _find_drop_ret_check(ctx: _Context) -> list[Site]:
    """Erase the CheckMagic of the return sequence: the naked register
    jump that remains is an uncontrolled indirect jump."""
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if (
            isinstance(insn, isa.CheckMagic)
            and insn.kind == "ret"
            and isinstance(ctx.code[addr - 1], isa.Pop)
        ):
            sites.append(
                Site(
                    "drop-ret-check",
                    addr,
                    f"erase the return-sequence CheckMagic @{addr}",
                    ("indirect-jump",),
                )
            )
    return sites


# ---------------------------------------------------------------------------
# 5. Stack discipline


def _find_skip_chkstk(ctx: _Context) -> list[Site]:
    if not ctx.binary.config.chkstk:
        return []
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        prev = ctx.code[addr - 1] if addr > 0 else None
        if (
            isinstance(insn, isa.ChkStk)
            and isinstance(prev, isa.Alu)
            and prev.dst == regs.RSP
            and prev.op == "sub"
        ):
            sites.append(
                Site(
                    "skip-chkstk",
                    addr,
                    f"skip the chkstk after the frame extension @{addr - 1}",
                    ("missing-chkstk",),
                )
            )
    return sites


def _apply_skip_chkstk(binary: Binary, site: Site) -> None:
    # Cannot NOP with ChkStk here (it *is* one); this ALU self-add is
    # dataflow-neutral (r10's taint maps to itself).
    binary.code[site.index] = isa.Alu("add", regs.R10, regs.R10, isa.Imm(0))


def _find_rsp_nonconstant(ctx: _Context) -> list[Site]:
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if (
            isinstance(insn, isa.Alu)
            and insn.dst == regs.RSP
            and insn.op in ("add", "sub")
            and isinstance(insn.b, isa.Imm)
        ):
            sites.append(
                Site(
                    "perturb-rsp-delta",
                    addr,
                    f"make the rsp adjustment @{addr} data-dependent",
                    ("rsp-non-constant-arith",),
                )
            )
    return sites


def _apply_rsp_nonconstant(binary: Binary, site: Site) -> None:
    _patch(binary, site, b=regs.R11)


def _find_rsp_overwrite(ctx: _Context) -> list[Site]:
    return [
        Site(
            "rsp-overwrite",
            addr,
            f"replace the instruction @{addr} with `mov rsp, r11`",
            ("rsp-overwrite",),
        )
        for addr in _plain_sites(ctx)
    ]


def _apply_rsp_overwrite(binary: Binary, site: Site) -> None:
    binary.code[site.index] = isa.MovRR(regs.RSP, regs.R11)


# ---------------------------------------------------------------------------
# 6. Control-flow escapes


def _find_insert_indirect_jump(ctx: _Context) -> list[Site]:
    return [
        Site(
            "insert-indirect-jump",
            addr,
            f"replace the instruction @{addr} with `jmp r11`",
            ("indirect-jump",),
        )
        for addr in _plain_sites(ctx)
    ]


def _apply_insert_indirect_jump(binary: Binary, site: Site) -> None:
    binary.code[site.index] = isa.JmpReg(regs.R11, 0)


def _find_segment_write(ctx: _Context) -> list[Site]:
    return [
        Site(
            "segment-register-write",
            addr,
            f"replace the instruction @{addr} with `mov gs, r11`",
            ("segment-register-write",),
        )
        for addr in _plain_sites(ctx)
    ]


def _apply_segment_write(binary: Binary, site: Site) -> None:
    binary.code[site.index] = isa.MovRR(regs.GS, regs.R11)


def _find_retarget_jump(ctx: _Context) -> list[Site]:
    """Point a direct jump outside its procedure."""
    sites = []
    for addr in sorted(ctx.reachable):
        insn = ctx.code[addr]
        if isinstance(insn, (isa.Jmp, isa.Br)):
            sites.append(
                Site(
                    "retarget-jump",
                    addr,
                    f"point the jump @{addr} outside every procedure",
                    ("jump-outside-procedure",),
                )
            )
    return sites


def _apply_retarget_jump(binary: Binary, site: Site) -> None:
    _patch(binary, site, addr=len(binary.code) + 17)


def _find_retarget_stub(ctx: _Context) -> list[Site]:
    sites = []
    for name, addr in sorted(ctx.binary.label_addrs.items()):
        if name.startswith("stub.") and isinstance(ctx.code[addr], isa.JmpInd):
            sites.append(
                Site(
                    "retarget-stub",
                    addr,
                    f"point the import stub {name} outside the externals "
                    "table",
                    ("bad-stub",),
                )
            )
    return sites


def _apply_retarget_stub(binary: Binary, site: Site) -> None:
    _patch_mem(binary, site, abs=binary.code[site.index].mem.abs + 4096)


# ---------------------------------------------------------------------------
# Registry


MUTATION_OPERATORS: list[Operator] = [
    Operator("drop-bound-check", _find_drop_bndchk, _apply_nop_out),
    Operator("flip-store-guard", _find_flip_store_guard, _apply_flip_bnd),
    Operator("strip-seg-prefix", _find_strip_prefix, _apply_strip_prefix),
    Operator("widen-subregister", _find_widen_subreg, _apply_widen_subreg),
    Operator(
        "swap-store-segment", _find_swap_store_segment, _apply_swap_segment
    ),
    Operator(
        "flip-mcall-ret-bit", _find_flip_entry_ret_bit, _apply_flip_magic_bit4
    ),
    Operator(
        "flip-mret-site-bit", _find_flip_ret_site_bit, _apply_flip_magic_bit0
    ),
    Operator("forge-ret-magic", _find_forge_ret_magic, _apply_forge_ret_magic),
    Operator("clone-ret-magic", _find_clone_ret_magic, _apply_clone_ret_magic),
    Operator(
        "forge-call-magic", _find_forge_call_magic, _apply_forge_call_magic
    ),
    Operator(
        "clobber-magic-prefix", _find_clobber_prefix, _apply_clobber_prefix
    ),
    Operator(
        "redirect-direct-call", _find_redirect_call, _apply_redirect_call
    ),
    Operator("drop-icall-check", _find_drop_icall_check, _apply_nop_out),
    Operator(
        "retarget-icall-check",
        _find_retarget_icall_check,
        _apply_retarget_icall_check,
    ),
    Operator(
        "flip-icall-ret-bit",
        _find_flip_icall_ret_bit,
        _apply_flip_icall_ret_bit,
    ),
    Operator(
        "break-ret-sequence",
        _find_break_ret_sequence,
        _apply_break_ret_sequence,
    ),
    Operator("drop-ret-check", _find_drop_ret_check, _apply_nop_out),
    Operator("skip-chkstk", _find_skip_chkstk, _apply_skip_chkstk),
    Operator(
        "perturb-rsp-delta", _find_rsp_nonconstant, _apply_rsp_nonconstant
    ),
    Operator("rsp-overwrite", _find_rsp_overwrite, _apply_rsp_overwrite),
    Operator(
        "insert-indirect-jump",
        _find_insert_indirect_jump,
        _apply_insert_indirect_jump,
    ),
    Operator(
        "segment-register-write", _find_segment_write, _apply_segment_write
    ),
    Operator("retarget-jump", _find_retarget_jump, _apply_retarget_jump),
    Operator("retarget-stub", _find_retarget_stub, _apply_retarget_stub),
]

_BY_NAME = {op.name: op for op in MUTATION_OPERATORS}


def operator_names() -> list[str]:
    return [op.name for op in MUTATION_OPERATORS]


def enumerate_sites(binary: Binary) -> list[Site]:
    """All ground-truth-unsound mutation sites of a verified binary, in
    deterministic (operator, code address) order."""
    ctx = _Context(binary)
    sites: list[Site] = []
    for op in MUTATION_OPERATORS:
        sites.extend(op.find(ctx))
    return sites


def apply_site(binary: Binary, site: Site) -> Mutant:
    """Deep-copy the binary and apply one mutation."""
    clone = copy.deepcopy(binary)
    _BY_NAME[site.operator].apply(clone, site)
    return Mutant(site, clone)


def build_mutant(binary: Binary, operator: str, index: int) -> Mutant:
    """Rebuild a specific mutant from its (operator, code address) pair
    — the corpus replay path.  Raises when the pair no longer names a
    site (e.g. codegen changed since the case was recorded)."""
    op = _BY_NAME.get(operator)
    if op is None:
        raise ValueError(f"unknown mutation operator {operator!r}")
    ctx = _Context(binary)
    for site in op.find(ctx):
        if site.index == index:
            return apply_site(binary, site)
    raise ValueError(
        f"no {operator!r} site at code address {index} in this binary"
    )


def enumerate_mutants(binary: Binary) -> Iterator[Mutant]:
    """Yield every mutant of a binary (one deep copy per mutant)."""
    for site in enumerate_sites(binary):
        yield apply_site(binary, site)
