"""One test per documented ConfVerify check, from hand-mutated binaries.

The verifier docstring (src/repro/verifier/verify.py) documents the
property suite; this file pins every reachable rejection reason to a
minimal hand-crafted binary mutation, so each check is individually
exercised — independent of the fuzzing harness that sweeps the same
space randomly (tests/fuzz).

Three reasons are intentionally absent because they are unreachable
from a linked binary and marked ``pragma: no cover`` in the verifier:
``magic-in-body`` (a call magic always starts a new procedure),
``unknown-instruction`` (the ISA is closed), and ``unknown-import``
(stub labels and the import table are built from the same list).
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro import BASE, OUR_MPX, OUR_SEG, compile_source
from repro.backend import isa, regs
from repro.errors import VerifyError
from repro.link.layout import MPX_STACK_OFFSET
from repro.runtime.trusted import T_PROTOTYPES
from repro.verifier.verify import verify_binary

# A single source exercising every instrumentation shape the checks
# guard: a direct call, an indirect call through a function pointer, a
# global array, a loop (conditional branches), and a private heap copy
# (bound-checked private loads feeding bound-checked private stores).
SRC = T_PROTOTYPES + r"""
int inc(int x) { return x + 1; }

// Big enough local frame to force a sub-rsp extension (and so a
// chkstk) rather than push-only frame setup.
int big(int x) {
    int buf[64];
    int i = 0;
    while (i < 64) { buf[i] = i; i = i + 1; }
    return buf[x & 63];
}

int g_arr[8];

int main() {
    int (*fp)(int);
    fp = &inc;
    int acc = fp(3);
    acc = acc + inc(4) + big(5);
    g_arr[2] = acc;
    private char *p = malloc_priv(16);
    private char *q = malloc_priv(16);
    p[1] = (private char)(acc & 255);
    q[2] = p[1];
    int i = 0;
    while (i < 4) { g_arr[i] = i + acc; i = i + 1; }
    p[3] = q[2];
    free_priv(p);
    free_priv(q);
    return g_arr[2] & 255;
}
"""


def _nop() -> isa.Alu:
    return isa.Alu("add", regs.R10, regs.R10, isa.Imm(0))


@pytest.fixture(scope="module")
def mpx_binary():
    binary = compile_source(SRC, OUR_MPX)
    verify_binary(binary)
    return binary


@pytest.fixture(scope="module")
def seg_binary():
    binary = compile_source(SRC, OUR_SEG)
    verify_binary(binary)
    return binary


def mutated(binary):
    return copy.deepcopy(binary)


def patch(binary, at, **changes):
    """Replace the (frozen) word at address ``at`` with a copy carrying
    ``changes``."""
    binary.code[at] = replace(binary.code[at], **changes)


def patch_mem(binary, at, **changes):
    patch(binary, at, mem=replace(binary.code[at].mem, **changes))


def flip(binary, at, name, mask):
    patch(binary, at, **{name: getattr(binary.code[at], name) ^ mask})


def reject(binary, *reasons: str) -> VerifyError:
    with pytest.raises(VerifyError) as excinfo:
        verify_binary(binary)
    assert excinfo.value.reason in reasons, (
        f"rejected for {excinfo.value.reason!r}, wanted one of {reasons}"
    )
    return excinfo.value


def find(binary, pred, start: int = 0) -> int:
    for addr in range(start, len(binary.code)):
        if pred(binary.code[addr], addr):
            return addr
    raise AssertionError("expected instruction pattern not found")


def body_start(binary) -> int:
    """Address of the first procedure entry magic (end of preamble)."""
    return find(
        binary,
        lambda i, a: isinstance(i, isa.MagicWord) and i.kind == "call",
    )


def plain_alu_addr(binary) -> int:
    """A reachable straight-line ALU op that is safe to replace."""
    start = body_start(binary)
    return find(
        binary,
        lambda i, a: isinstance(i, isa.Alu)
        and i.dst not in (regs.RSP, regs.R10)
        and not isinstance(binary.code[a - 1], (isa.CallD, isa.CallI)),
        start,
    )


# ---------------------------------------------------------------------------
# Configuration gate


def test_config_not_verifiable_without_instrumentation():
    binary = compile_source(SRC, BASE)
    reject(binary, "config-not-verifiable")


# ---------------------------------------------------------------------------
# Magic uniqueness + placement


def test_magic_not_unique(mpx_binary):
    b = mutated(mpx_binary)
    addr = plain_alu_addr(b)
    # Declare the prefix such that an ordinary instruction encodes it.
    b.mcall_prefix = b.code[addr].encoding() >> 5
    reject(b, "magic-not-unique", "bad-magic-word")


def test_bad_magic_word_entry_prefix(mpx_binary):
    b = mutated(mpx_binary)
    flip(b, body_start(b), "value", 1 << 7)
    reject(b, "bad-magic-word")


def test_bad_magic_word_ret_site_prefix(mpx_binary):
    b = mutated(mpx_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.MagicWord) and i.kind == "ret"
        and isinstance(b.code[a - 1], (isa.CallD, isa.CallI)),
    )
    flip(b, addr, "value", 1 << 6)
    reject(b, "bad-magic-word")


def test_stray_ret_magic_mid_procedure(mpx_binary):
    b = mutated(mpx_binary)
    site = find(
        b, lambda i, a: isinstance(i, isa.MagicWord) and i.kind == "ret"
    )
    word = b.code[site]
    b.code[plain_alu_addr(b)] = isa.MagicWord(
        "ret", word.taint_bits, value=word.value
    )
    reject(b, "stray-ret-magic")


def test_no_procedures(mpx_binary):
    b = mutated(mpx_binary)
    for addr, insn in enumerate(b.code):
        if isinstance(insn, isa.MagicWord) and insn.kind == "call":
            b.code[addr] = isa.Fail()
    reject(b, "no-procedures")


# ---------------------------------------------------------------------------
# CFG recovery: stubs and jump targets


def test_bad_stub_wrong_instruction(mpx_binary):
    b = mutated(mpx_binary)
    stub = min(
        a for n, a in b.label_addrs.items() if n.startswith("stub.")
    )
    b.code[stub] = isa.Fail()
    reject(b, "bad-stub")


def test_bad_stub_outside_externals_table(mpx_binary):
    b = mutated(mpx_binary)
    stub = min(
        a for n, a in b.label_addrs.items() if n.startswith("stub.")
    )
    patch_mem(b, stub, abs=b.code[stub].mem.abs + 4096)
    reject(b, "bad-stub")


def test_jump_outside_procedure(mpx_binary):
    b = mutated(mpx_binary)
    addr = find(
        b, lambda i, a: isinstance(i, isa.Jmp), body_start(b)
    )
    patch(b, addr, addr=len(b.code) + 17)
    reject(b, "jump-outside-procedure")


# ---------------------------------------------------------------------------
# Register discipline: rsp, segment registers, stack growth


def test_rsp_overwrite(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.MovRR(regs.RSP, regs.RAX)
    reject(b, "rsp-overwrite")


def _frame_extension_addr(binary) -> int:
    """The `sub rsp, imm` opening a large frame (chkstk follows)."""
    addr = find(
        binary,
        lambda i, a: isinstance(i, isa.Alu) and i.dst == regs.RSP
        and i.op == "sub" and isinstance(i.b, isa.Imm),
        body_start(binary),
    )
    assert isinstance(binary.code[addr + 1], isa.ChkStk)
    return addr


def test_rsp_non_constant_arith(mpx_binary):
    b = mutated(mpx_binary)
    patch(b, _frame_extension_addr(b), b=regs.R11)
    reject(b, "rsp-non-constant-arith")


def test_missing_chkstk(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_frame_extension_addr(b) + 1] = _nop()
    reject(b, "missing-chkstk")


def test_segment_register_write(seg_binary):
    b = mutated(seg_binary)
    b.code[plain_alu_addr(b)] = isa.MovRR(regs.GS, regs.RAX)
    reject(b, "segment-register-write")


# ---------------------------------------------------------------------------
# Control transfers: returns, plain rets, indirect jumps, halts


def _return_sequence(binary, last: bool = False) -> int:
    """Address of a Pop starting a Pop/CheckMagic/JmpReg return."""
    hits = [
        a
        for a in range(len(binary.code) - 2)
        if isinstance(binary.code[a], isa.Pop)
        and isinstance(binary.code[a + 1], isa.CheckMagic)
        and binary.code[a + 1].kind == "ret"
    ]
    assert hits, "no return sequence found"
    return hits[-1] if last else hits[0]


def test_plain_ret(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.RetPlain()
    reject(b, "plain-ret")


def test_indirect_jump(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.JmpReg(regs.R11, 0)
    reject(b, "indirect-jump")


def test_halt_in_procedure(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.Halt()
    reject(b, "halt-in-procedure")


def test_stray_checkmagic(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.CheckMagic(
        regs.RAX, "ret", 0, inv_value=0
    )
    reject(b, "stray-checkmagic")


def test_ret_check_pattern_broken_jmp(mpx_binary):
    b = mutated(mpx_binary)
    pop = _return_sequence(b)
    patch(b, pop + 2, skip=2)
    reject(b, "ret-check-pattern")


def test_fallthrough_out_of_procedure(mpx_binary):
    b = mutated(mpx_binary)
    pop = _return_sequence(b, last=True)
    for offset in range(3):  # erase Pop, CheckMagic, JmpReg
        b.code[pop + offset] = _nop()
    reject(b, "fallthrough-out-of-procedure")


def test_return_taint_mismatch_entry_bit(mpx_binary):
    b = mutated(mpx_binary)
    flip(b, body_start(b), "value", 1 << 4)
    # Depending on which procedure the flipped magic belongs to, either
    # its own return check or a call site to it trips first.
    reject(b, "return-taint-mismatch", "return-site-taint-mismatch")


# ---------------------------------------------------------------------------
# Direct calls


def _direct_call_addr(binary) -> int:
    entry = binary.func_magic_addrs["inc"] + 1
    return find(
        binary,
        lambda i, a: isinstance(i, isa.CallD) and i.addr == entry,
    )


def test_call_to_non_procedure(mpx_binary):
    b = mutated(mpx_binary)
    call = _direct_call_addr(b)
    patch(b, call, addr=b.code[call].addr + 1)
    reject(b, "call-to-non-procedure")


def test_call_taint_mismatch(mpx_binary):
    b = mutated(mpx_binary)
    call = _direct_call_addr(b)
    arg = regs.ARG_REGS[0]
    definer = max(
        a
        for a in range(body_start(b), call)
        if getattr(b.code[a], "dst", None) == arg
    )
    # Redefine the public argument from the private stack region (the
    # one private source that needs no MPX evidence).
    b.code[definer] = isa.Load(
        arg, isa.Mem(base=regs.RSP, disp=MPX_STACK_OFFSET), 8
    )
    reject(b, "call-taint-mismatch")


def test_missing_return_site_magic(mpx_binary):
    b = mutated(mpx_binary)
    call = _direct_call_addr(b)
    assert isinstance(b.code[call + 1], isa.MagicWord)
    b.code[call + 1] = _nop()
    reject(b, "missing-return-site-magic")


def test_return_site_taint_mismatch(mpx_binary):
    b = mutated(mpx_binary)
    call = _direct_call_addr(b)
    flip(b, call + 1, "value", 1)  # flip the site's expected ret taint
    reject(b, "return-site-taint-mismatch")


# ---------------------------------------------------------------------------
# Indirect calls


def _icall_check_addr(binary) -> int:
    return find(
        binary,
        lambda i, a: isinstance(i, isa.CheckMagic) and i.kind == "call",
        body_start(binary),
    )


def test_unchecked_indirect_call(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_icall_check_addr(b)] = _nop()
    reject(b, "unchecked-indirect-call")


def test_bad_icall_check(mpx_binary):
    b = mutated(mpx_binary)
    flip(b, _icall_check_addr(b), "inv_value", 1 << 6)
    reject(b, "bad-icall-check")


def test_icall_check_pattern(mpx_binary):
    b = mutated(mpx_binary)
    check = _icall_check_addr(b)
    # Erase the CallI and its ret-site magic (otherwise the now
    # call-less magic trips the placement check first).
    b.code[check + 1] = _nop()
    b.code[check + 2] = _nop()
    reject(b, "icall-check-pattern")


def test_private_function_pointer(mpx_binary):
    b = mutated(mpx_binary)
    check_addr = _icall_check_addr(b)
    reg = b.code[check_addr].reg
    definer = max(
        a
        for a in range(body_start(b), check_addr)
        if getattr(b.code[a], "dst", None) == reg
    )
    b.code[definer] = isa.Load(
        reg, isa.Mem(base=regs.RSP, disp=MPX_STACK_OFFSET), 8
    )
    reject(b, "private-function-pointer")


# ---------------------------------------------------------------------------
# Memory-operand evidence: MPX checks, segment prefixes, static operands


def test_missing_bounds_check(mpx_binary):
    b = mutated(mpx_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.BndChk) and i.bnd == 1,
        body_start(b),
    )
    b.code[addr] = _nop()
    reject(b, "missing-bounds-check")


def test_store_taint_mismatch(seg_binary):
    b = mutated(seg_binary)
    start = body_start(b)
    load = find(
        b,
        lambda i, a: isinstance(i, isa.Load) and i.mem.seg == isa.SEG_GS,
        start,
    )
    src = b.code[load].dst
    store = find(
        b,
        lambda i, a: isinstance(i, isa.Store) and i.src == src
        and i.mem.seg == isa.SEG_GS,
        load,
    )
    patch_mem(b, store, seg=isa.SEG_FS)  # privately-loaded byte -> public
    reject(b, "store-taint-mismatch")


def test_unprefixed_operand(seg_binary):
    b = mutated(seg_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.Load) and i.mem.seg is not None
        and i.mem.base is not None,
        body_start(b),
    )
    patch_mem(b, addr, seg=None)
    reject(b, "unprefixed-operand")


def _global_access_addr(binary) -> int:
    return find(
        binary,
        lambda i, a: isinstance(i, (isa.Load, isa.Store))
        and i.mem.abs is not None,
        body_start(binary),
    )


def test_indexed_static_operand(mpx_binary):
    b = mutated(mpx_binary)
    patch_mem(b, _global_access_addr(b), index=regs.RCX)
    reject(b, "indexed-static-operand")


def test_static_operand_outside_regions(mpx_binary):
    b = mutated(mpx_binary)
    patch_mem(b, _global_access_addr(b), abs=(1 << 47) - 16)
    reject(b, "static-operand-outside-regions")
