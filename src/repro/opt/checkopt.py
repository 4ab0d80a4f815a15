"""Post-codegen check optimizer (the ``--checkopt=aggressive`` tier).

Runs between codegen and linking, on each function's pre-link ISA
stream.  Three transforms, each *verifier-legal by construction* — they
only rewrite within the extended basic block (no Label / branch / call
in between), mirroring exactly the evidence rules ConfVerify's
``_flow_block`` applies, so ``verify_binary`` and
``verify_check_sites`` accept the optimized binary unchanged:

* **redundant-check elision** — delete a ``BndChk`` whose key is
  already available: an earlier surviving check in the same extended
  block established an equal or covering key, and no instruction in
  between redefines the key's registers (available-check dataflow, the
  same invalidation rule the verifier applies);
* **lea rematerialization dedup** — delete the second of two identical
  global-address ``Lea``s into the same register when nothing between
  them redefines that register.  The machine state is unchanged (the
  register already holds that address) and the verifier still sees the
  register defined public by the first lea; deleting the
  rematerialization *extends check lifetimes*, turning the checks that
  followed it into redundant checks for the elision above;
* **check widening** — rewrite a memory-form ``BndChk`` (no index,
  displacement within the verifier's ±1 MiB ``ELIDE_LIMIT``) into the
  cheaper register form.  The linker's guard pages (``GUARD_SIZE``)
  give the bounds the same slack the verifier's elision rule assumes,
  and the register key covers strictly more later accesses.

Like the IR passes, every rewrite is certified: the optimizer emits a
:class:`CheckOptWitness` whose edits :func:`check_checkopt_witness`
replays against the pre/post streams — re-deriving provider coverage,
register liveness, and block boundaries from the pre-stream itself.  A
failed witness keeps the function's original (unoptimized, still
verified) stream and bumps ``opt.witness_rejected``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..backend import isa
from ..link.layout import ELIDE_LIMIT
from ..obs import events
from .witness import WitnessError

#: Instructions that end an extended basic block for check evidence:
#: labels (potential join points), control transfers, and calls (the
#: verifier clears its ``checked`` set at all of these, and calls may
#: clobber caller-save registers at runtime).
_BOUNDARY = (
    isa.Label,
    isa.Jmp,
    isa.Br,
    isa.JmpTable,
    isa.JmpInd,
    isa.JmpReg,
    isa.CallD,
    isa.CallI,
    isa.CheckMagic,
    isa.RetPlain,
    isa.Fail,
    isa.Halt,
)


def _defined_regs(insn) -> tuple[int, ...]:
    """Registers an instruction writes — the verifier's ``define`` sites."""
    if isinstance(
        insn,
        (
            isa.MovRI,
            isa.MovRR,
            isa.MovFuncAddr,
            isa.Alu,
            isa.SetCC,
            isa.Lea,
            isa.Load,
            isa.Pop,
            isa.TlsBase,
        ),
    ):
        return (insn.dst,)
    return ()


def _check_key(chk: isa.BndChk) -> tuple:
    if chk.mem is not None:
        return (
            "mem",
            chk.mem.base,
            chk.mem.index,
            chk.mem.scale,
            chk.mem.disp,
            chk.bnd,
        )
    return ("reg", chk.reg, chk.bnd)


def _key_regs(key: tuple) -> tuple:
    if key[0] == "mem":
        return tuple(r for r in (key[1], key[2]) if r is not None)
    return (key[1],)


def _widenable(chk: isa.BndChk) -> bool:
    return (
        chk.mem is not None
        and chk.mem.base is not None
        and chk.mem.index is None
        and chk.mem.abs is None
        and chk.mem.global_name is None
        and abs(chk.mem.disp) < ELIDE_LIMIT
    )


def _widen(chk: isa.BndChk) -> isa.BndChk:
    return isa.BndChk(chk.bnd, reg=chk.mem.base)


def _covers(provider_key: tuple, key: tuple) -> bool:
    """Does evidence ``provider_key`` satisfy an access needing ``key``?

    Mirrors ``_operand_region``: an exact key match, or a register key
    covering a no-index memory key on the same base within the elidable
    displacement window.  The provider's registers are always a subset
    of the covered key's, so any write invalidating the provider also
    invalidates the covered key — coverage never outlives its subject.
    """
    if provider_key == key:
        return True
    return (
        provider_key[0] == "reg"
        and key[0] == "mem"
        and key[1] == provider_key[1]  # same base
        and key[2] is None  # no index
        and abs(key[4]) < ELIDE_LIMIT
        and key[5] == provider_key[2]  # same bnd
    )


def _dedupable_lea(insn) -> bool:
    return (
        isinstance(insn, isa.Lea)
        and insn.mem.global_name is not None
        and insn.mem.base is None
        and insn.mem.index is None
    )


def insns_digest(insns: list) -> str:
    return hashlib.sha256(
        "\n".join(repr(i) for i in insns).encode()
    ).hexdigest()


@dataclass
class CheckOptWitness:
    """One function's check-optimization edit script.

    ``edits`` entries are keyed by *pre-stream* index:
    ``("elide", i, j)`` — the check at ``i`` is covered by the
    surviving check at ``j``; ``("dedup-lea", i, j)`` — the lea at
    ``i`` duplicates the surviving lea at ``j``; ``("widen", i)`` —
    the memory-form check at ``i`` becomes register-form.
    """

    function: str
    pre_digest: str
    post_digest: str = ""
    edits: list[tuple] = field(default_factory=list)


def optimize_checks(
    insns: list, function: str
) -> tuple[list, CheckOptWitness]:
    """One forward dataflow pass over a function's ISA stream.

    Returns the rewritten stream and its witness (empty ``edits`` means
    nothing fired).  The input list is not mutated.
    """
    witness = CheckOptWitness(function, insns_digest(insns))
    checked: dict[tuple, int] = {}  # available key -> provider index
    leas: dict[tuple, int] = {}  # (dst, mem repr) -> provider index
    out: list = []
    for i, insn in enumerate(insns):
        if isinstance(insn, _BOUNDARY):
            checked.clear()
            leas.clear()
            out.append(insn)
            continue
        if _dedupable_lea(insn):
            lkey = (insn.dst, repr(insn.mem))
            provider = leas.get(lkey)
            if provider is not None:
                # Identical address already in the register: deleting
                # the remat leaves both machine and verifier state
                # unchanged, so the check evidence on dst survives.
                witness.edits.append(("dedup-lea", i, provider))
                continue
            _invalidate(checked, leas, insn.dst)
            leas[lkey] = i
            out.append(insn)
            continue
        if isinstance(insn, isa.BndChk):
            widened = False
            if _widenable(insn):
                insn = _widen(insn)
                widened = True
            key = _check_key(insn)
            provider = checked.get(key)
            if provider is None and key[0] == "mem" and key[2] is None \
                    and abs(key[4]) < ELIDE_LIMIT:
                provider = checked.get(("reg", key[1], key[5]))
            if provider is not None:
                witness.edits.append(("elide", i, provider))
                continue
            if widened:
                witness.edits.append(("widen", i))
            checked[key] = i
            out.append(insn)
            continue
        for reg in _defined_regs(insn):
            _invalidate(checked, leas, reg)
        out.append(insn)
    witness.post_digest = insns_digest(out)
    return out, witness


def _invalidate(checked: dict, leas: dict, reg: int) -> None:
    for key in [k for k in checked if reg in _key_regs(k)]:
        del checked[key]
    for key in [k for k in leas if k[0] == reg]:
        del leas[key]


# ---------------------------------------------------------------------------
# The translation checker: replays the edit script against the
# pre-stream, re-deriving every claim.


def check_checkopt_witness(
    witness: CheckOptWitness, pre: list, post: list
) -> None:
    """Validate an edit script against the pre/post ISA streams."""
    name = witness.function
    if witness.pre_digest != insns_digest(pre):
        raise WitnessError(f"{name}: stale pre-stream digest in witness")
    if witness.post_digest != insns_digest(post):
        raise WitnessError(f"{name}: stale post-stream digest in witness")

    deleted: set[int] = set()
    widened: set[int] = set()
    for edit in witness.edits:
        kind, i = edit[0], edit[1]
        if i < 0 or i >= len(pre):
            raise WitnessError(f"{name}: edit index {i} out of range")
        if kind in ("elide", "dedup-lea"):
            if i in deleted:
                raise WitnessError(f"{name}: index {i} deleted twice")
            deleted.add(i)
        elif kind == "widen":
            widened.add(i)
        else:
            raise WitnessError(f"{name}: unknown edit {edit!r}")
    if deleted & widened:
        raise WitnessError(f"{name}: edit both deletes and widens a site")

    # The post stream must be exactly the edit script applied to pre.
    expected = []
    for i, insn in enumerate(pre):
        if i in deleted:
            continue
        if i in widened:
            if not (isinstance(insn, isa.BndChk) and _widenable(insn)):
                raise WitnessError(
                    f"{name}: widen at {i} targets a non-widenable "
                    f"instruction {insn!r}"
                )
            insn = _widen(insn)
        expected.append(insn)
    if [repr(x) for x in expected] != [repr(x) for x in post]:
        raise WitnessError(
            f"{name}: post stream is not the edit script applied to pre"
        )

    def clear_path(j: int, i: int, regs: tuple) -> None:
        """No boundary and no write to ``regs`` between j and i in the
        *post* ordering (deleted instructions never execute)."""
        for k in range(j + 1, i):
            if k in deleted:
                continue
            between = pre[k]
            if isinstance(between, _BOUNDARY):
                raise WitnessError(
                    f"{name}: edit at {i} crosses a block boundary at {k}"
                )
            if any(r in regs for r in _defined_regs(between)):
                raise WitnessError(
                    f"{name}: evidence for edit at {i} is killed by a "
                    f"register write at {k}"
                )

    for edit in witness.edits:
        if edit[0] == "elide":
            _, i, j = edit
            if not (0 <= j < i) or j in deleted:
                raise WitnessError(
                    f"{name}: elide at {i} names an invalid provider {j}"
                )
            subject = pre[i]
            provider = pre[j]
            if not isinstance(subject, isa.BndChk) or not isinstance(
                provider, isa.BndChk
            ):
                raise WitnessError(
                    f"{name}: elide at {i} does not involve two checks"
                )
            key = _check_key(subject)
            provider_key = _check_key(
                _widen(provider) if j in widened else provider
            )
            if not _covers(provider_key, key):
                raise WitnessError(
                    f"{name}: check at {j} does not cover the one "
                    f"elided at {i}"
                )
            clear_path(j, i, _key_regs(provider_key))
        elif edit[0] == "dedup-lea":
            _, i, j = edit
            if not (0 <= j < i) or j in deleted:
                raise WitnessError(
                    f"{name}: dedup at {i} names an invalid provider {j}"
                )
            subject = pre[i]
            provider = pre[j]
            if not (_dedupable_lea(subject) and _dedupable_lea(provider)):
                raise WitnessError(
                    f"{name}: dedup at {i} is not a global-lea pair"
                )
            if repr(subject) != repr(provider):
                raise WitnessError(
                    f"{name}: deduped lea at {i} differs from its "
                    f"provider at {j}"
                )
            clear_path(j, i, (subject.dst,))


# ---------------------------------------------------------------------------
# Driver: certify and commit per function.


def run_checkopt(obj, config) -> None:
    """Optimize every function of a pre-link unit in place.

    Each function's edit script is validated by
    :func:`check_checkopt_witness` before being committed; a rejected
    witness keeps that function's original stream.
    """
    registry = events.active()
    with events.span("compile.checkopt"):
        for func in obj.functions:
            optimized, witness = optimize_checks(func.insns, func.name)
            if not witness.edits:
                continue
            try:
                check_checkopt_witness(witness, func.insns, optimized)
            except WitnessError:
                if registry is not None:
                    events.counter(
                        "opt.witness_rejected", **{"pass": "checkopt"}
                    ).inc()
                continue
            func.insns = tuple(optimized)
            if registry is not None:
                for edit in witness.edits:
                    events.counter(
                        "opt.checkopt", kind=edit[0]
                    ).inc()
