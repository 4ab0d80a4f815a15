"""Certified pass framework tests: witness emission, validation,
rejection-and-revert, and the bounded fixpoint loop."""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import repro
from repro.frontend import lower_program
from repro.ir import Call, Const, Load, MemRef, VReg, verify_module
from repro.ir.core import Lea
from repro.minic import analyze, parse
from repro.obs import events
from repro.opt import (
    MAX_ITERATIONS,
    Obligation,
    Pass,
    WitnessError,
    apply_pass,
    check_witness,
    function_digest,
    optimize_module,
    run_certified_pass,
    snapshot_function,
)
from repro.opt.pipeline import DCE, ITER_PASSES, PROMOTE_SLOTS
from repro.runtime.trusted import T_PROTOTYPES
from repro.taint import Taint

SOURCE = """
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i + 0; }
    return s * 1;
}

int main() { return f(5); }
"""


DECLASSIFY = T_PROTOTYPES + """
int main() {
    private int secret = 42;
    return declassify_int(secret + 0);
}
"""


def ir_of(source=SOURCE):
    return lower_program(analyze(parse(source)))


def blocks_repr(func):
    return {b.name: [repr(i) for i in b.instrs] for b in func.blocks}


def emit_witness(pass_obj, func):
    """Run one pass the way the build does, returning (snapshot,
    accepted witness)."""
    applied = apply_pass(pass_obj, func)
    assert applied, f"{pass_obj.name} made no change on the test input"
    snapshot, witness = applied
    check_witness(witness, snapshot, func)
    return snapshot, witness


class TestAcceptance:
    def test_real_passes_accepted_and_applied(self):
        module = ir_of()
        f = module.functions["f"]
        before = function_digest(f)
        changed, witness = run_certified_pass(PROMOTE_SLOTS, f)
        assert changed and witness is not None
        assert witness.post_digest == function_digest(f) != before
        assert witness.obligations
        verify_module(module)

    def test_unchanged_pass_returns_no_witness(self):
        module = ir_of("int main() { return 0; }")
        f = module.functions["main"]
        changed, witness = run_certified_pass(DCE, f)
        assert not changed and witness is None

    def test_full_pipeline_accepts_everything(self):
        registry = events.Registry()
        with events.use(registry):
            module = optimize_module(ir_of())
        snap = registry.metrics_snapshot()
        rejected = {
            k: v for k, v in snap.items() if "witness_rejected" in k
        }
        assert not rejected, rejected
        verify_module(module)

    def test_optimized_function_digests_deterministic(self):
        def digests():
            module = optimize_module(ir_of())
            return {
                name: function_digest(func)
                for name, func in module.functions.items()
            }

        assert digests() == digests()


class TestRejection:
    def corrupt_and_expect(self, mutate):
        module = ir_of()
        f = module.functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        mutate(witness)
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot, f)

    def test_stale_pre_digest(self):
        self.corrupt_and_expect(
            lambda w: setattr(w, "pre_digest", "0" * 64)
        )

    def test_stale_post_digest(self):
        self.corrupt_and_expect(
            lambda w: setattr(w, "post_digest", "0" * 64)
        )

    def test_dropped_obligations(self):
        self.corrupt_and_expect(lambda w: w.obligations.clear())

    def test_phantom_obligation_on_unchanged_block(self):
        self.corrupt_and_expect(
            lambda w: w.obligations.append(
                Obligation("taint", "__phantom__@0", ("rewrite", (), ()))
            )
        )

    def test_wrong_pass_name_rejected(self):
        module = ir_of()
        f = module.functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        witness.pass_name = "no_such_pass"
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot, f)

    def test_taint_flip_rejected(self):
        module = ir_of()
        f = module.functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        flipped = False
        for i, ob in enumerate(witness.obligations):
            if ob.claim[:1] == ("promoted",):
                witness.obligations[i] = Obligation(
                    ob.kind,
                    ob.site,
                    (ob.claim[0], ob.claim[1], ob.claim[2] ^ 1),
                )
                flipped = True
                break
        assert flipped
        with pytest.raises(WitnessError):
            check_witness(witness, snapshot, f)

    @pytest.mark.parametrize(
        "refs, reason",
        [
            (("lea",), "address taken via lea"),
            (("disp",), "has a partial access; not promotable"),
            (("size",), "has a partial access; not promotable"),
            # The first offending reference in program order decides.
            (("disp", "lea"), "has a partial access; not promotable"),
            (("lea", "disp"), "address taken via lea"),
        ],
    )
    def test_promotability_is_rederived_from_the_pre_ir(self, refs, reason):
        """A promoted slot whose pre-IR references are not all whole-slot
        direct loads and stores is rejected, whatever the pass claims."""
        f = ir_of().functions["f"]
        snapshot, witness = emit_witness(PROMOTE_SLOTS, f)
        uid = next(
            int(ob.site[len("slot:"):])
            for ob in witness.obligations
            if ob.site.startswith("slot:")
        )
        slot = next(s for s in snapshot.slots if s.uid == uid)
        mem = MemRef(slot.taint, slot=slot)
        bad = {
            "lea": lambda: Lea(snapshot.new_vreg(Taint.PUBLIC), mem),
            "disp": lambda: Load(
                snapshot.new_vreg(slot.taint), replace(mem, disp=4),
                slot.size,
            ),
            "size": lambda: Load(snapshot.new_vreg(slot.taint), mem, 1),
        }
        snapshot.blocks[0].instrs[0:0] = [bad[ref]() for ref in refs]
        witness.pre_digest = function_digest(snapshot)
        with pytest.raises(WitnessError, match=f"slot {uid} {reason}$"):
            check_witness(witness, snapshot, f)


class TestRevert:
    def assert_reverted(self, fn, func):
        """Run ``fn`` as a certified pass and require the checker to
        reject it and restore ``func`` exactly."""
        before = [list(b.instrs) for b in func.blocks]
        digest = function_digest(func)
        registry = events.Registry()
        with events.use(registry):
            changed, witness = run_certified_pass(Pass("dce", fn), func)
        assert not changed and witness is None
        assert [b.instrs for b in func.blocks] == before
        assert function_digest(func) == digest
        snap = registry.metrics_snapshot()
        assert snap.get("opt.witness_rejected{pass=dce}") == 1

    def test_bad_pass_is_reverted_and_counted(self):
        """A pass that rewrites without justification is rolled back."""

        def evil(func, witness=None):
            # Delete the first instruction of the entry block and claim
            # nothing: the changed-block coverage check must fire.
            func.blocks[0].instrs.pop(0)
            return True

        module = ir_of()
        f = module.functions["f"]
        before = blocks_repr(f)
        registry = events.Registry()
        with events.use(registry):
            changed, witness = run_certified_pass(Pass("dce", evil), f)
        assert not changed and witness is None
        assert blocks_repr(f) == before  # reverted in place
        snap = registry.metrics_snapshot()
        assert snap.get("opt.witness_rejected{pass=dce}") == 1

    def test_taint_laundering_pass_is_reverted(self):
        """A vreg's taint cannot be flipped in place (the IR is frozen),
        and a pass that launders one by swapping in a PUBLIC register
        with the same id is caught, whatever it claims."""
        f = ir_of(DECLASSIFY).functions["main"]
        secret = next(
            v
            for block in f.blocks
            for instr in block.instrs
            for v in instr.defs()
            if v.taint is Taint.PRIVATE
        )
        with pytest.raises(FrozenInstanceError):
            secret.taint = Taint.PUBLIC

        def launder(func, witness=None):
            for block in func.blocks:
                for i, instr in enumerate(block.instrs):
                    dst = getattr(instr, "dst", None)
                    if dst is not None and dst.taint is Taint.PRIVATE:
                        public = replace(dst, taint=Taint.PUBLIC)
                        block.instrs[i] = replace(instr, dst=public)
                        return True
            return False

        self.assert_reverted(launder, f)

    def test_call_taint_flip_is_reverted(self):
        """``Call.__repr__`` omits ``arg_taints``: flipping the taint a
        call passes its argument at must still count as a change."""

        def flip(func, witness=None):
            for block in func.blocks:
                for i, instr in enumerate(block.instrs):
                    if is_declassify(instr):
                        block.instrs[i] = replace(
                            instr, arg_taints=(Taint.PUBLIC,)
                        )
                        return True
            return False

        def is_declassify(instr):
            return isinstance(instr, Call) and instr.name == "declassify_int"

        f = ir_of(DECLASSIFY).functions["main"]
        call = next(
            i for b in f.blocks for i in b.instrs if is_declassify(i)
        )
        assert tuple(call.arg_taints) == (Taint.PRIVATE,)
        self.assert_reverted(flip, f)

    def test_index_free_scale_change_is_reverted(self):
        """``MemRef.__repr__`` omits ``scale`` without an index: a pass
        that changes only that field must still count as a change."""

        def rescale(func, witness=None):
            for block in func.blocks:
                for i, instr in enumerate(block.instrs):
                    if isinstance(instr, Load) and instr.mem.index is None:
                        mem = replace(instr.mem, scale=instr.mem.scale + 1)
                        block.instrs[i] = replace(instr, mem=mem)
                        assert repr(block.instrs[i]) == repr(instr)
                        return True
            return False

        self.assert_reverted(rescale, ir_of().functions["f"])


def _changed_values(value):
    """Values of the same kind as ``value`` that differ from it in one
    field (for a register or a nested node: each of its fields)."""
    if isinstance(value, VReg):
        return [
            replace(value, id=value.id + 1000),
            replace(value, taint=Taint(1 - int(value.taint))),
            replace(value, hint=value.hint + "x"),
        ]
    if isinstance(value, Taint):
        return [Taint(1 - int(value))]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, str):
        return [value + "x"]
    if value is None:
        return [0]
    if isinstance(value, tuple):
        if not value:
            return [(0,)]
        return [(v, *value[1:]) for v in _changed_values(value[0])]
    out = []
    for fld in fields(value):
        for new in _changed_values(getattr(value, fld.name)):
            try:
                out.append(replace(value, **{fld.name: new}))
            except AssertionError:
                continue  # e.g. a MemRef needs exactly one anchor
    return out


class TestFunctionDigest:
    def test_snapshot_digest_equals_function_digest(self):
        for func in ir_of(ALL_NODES).functions.values():
            assert function_digest(snapshot_function(func)) == (
                function_digest(func)
            )

    def test_every_single_field_change_changes_the_digest(self):
        checked = 0
        for func in ir_of(ALL_NODES).functions.values():
            base = function_digest(func)
            for s, slot in enumerate(func.slots):
                for new_slot in _changed_values(slot):
                    copy = snapshot_function(func)
                    copy.slots[s] = new_slot
                    assert function_digest(copy) != base, new_slot
                    checked += 1
            for b, block in enumerate(func.blocks):
                for i, instr in enumerate(block.instrs):
                    for new_instr in _changed_values(instr):
                        assert new_instr != instr
                        copy = snapshot_function(func)
                        copy.blocks[b].instrs[i] = new_instr
                        assert function_digest(copy) != base, new_instr
                        checked += 1
            assert function_digest(func) == base
        assert checked > 100

    def test_digest_does_not_depend_on_the_hash_seed(self):
        code = (
            "from repro.frontend import lower_program\n"
            "from repro.minic import analyze, parse\n"
            "from repro.opt import function_digest, optimize_module\n"
            f"module = lower_program(analyze(parse({ALL_NODES!r})))\n"
            "optimize_module(module)\n"
            "for func in module.functions.values():\n"
            "    print(func.name, function_digest(func))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert "main" in outputs.pop()

    def test_pre_digest_is_stamped_from_the_pre_pass_function(self):
        f = ir_of().functions["f"]
        before = function_digest(f)
        snapshot, witness = apply_pass(PROMOTE_SLOTS, f)
        assert witness.pre_digest == before == function_digest(snapshot)
        assert witness.post_digest == function_digest(f) != before


# Lowers to every kind of node: slots, registers, memory references,
# direct and indirect calls, switches and stores.
ALL_NODES = T_PROTOTYPES + """
int g[4];
int id(int x) { return x; }
int main() {
    int a[4];
    int (*p)(int);
    p = id;
    int i = 0;
    switch (g[1]) { case 1: i = 2; break; default: i = 3; }
    a[i] = p(i);
    return declassify_int((private int)a[i]);
}
"""


class TestFrozenIR:
    def test_no_ir_node_field_is_assignable(self):
        module = ir_of(ALL_NODES)
        nodes = []
        for func in module.functions.values():
            nodes.extend(func.slots)
            nodes.extend(func.param_vregs)
            for block in func.blocks:
                for instr in block.instrs:
                    nodes.append(instr)
                    nodes.extend(instr.uses())
                    nodes.extend(instr.defs())
                    if getattr(instr, "mem", None) is not None:
                        nodes.append(instr.mem)
        kinds = {type(n).__name__ for n in nodes}
        assert {
            "VReg", "StackSlot", "MemRef", "Call", "CallIndirect", "SwitchBr",
            "Store",
        } <= kinds
        for node in nodes:
            for fld in fields(node):
                value = getattr(node, fld.name)
                assert not isinstance(value, list), (node, fld.name)
                with pytest.raises(FrozenInstanceError):
                    setattr(node, fld.name, value)


class TestBoundedFixpoint:
    def test_ping_pong_terminates_at_cap(self, monkeypatch):
        """Two passes that undo each other stop at MAX_ITERATIONS."""
        from repro.opt import pipeline

        def is_marker(instr):
            return isinstance(instr, Const) and instr.value == 77777

        def ping(func, witness=None):
            entry = func.blocks[0]
            if entry.instrs and is_marker(entry.instrs[0]):
                return False
            entry.instrs.insert(
                0, Const(func.new_vreg(Taint.PUBLIC), 77777)
            )
            return True

        def pong(func, witness=None):
            entry = func.blocks[0]
            if entry.instrs and is_marker(entry.instrs[0]):
                entry.instrs.pop(0)
                return True
            return False

        monkeypatch.setattr(
            pipeline,
            "ITER_PASSES",
            (Pass("dce", ping), Pass("dce", pong)),
        )
        # Accept every witness: the cap, not certification, must stop
        # the ping-pong.
        monkeypatch.setattr(
            pipeline, "check_witness", lambda *a, **k: None
        )
        module = ir_of("int main() { return 0; }")
        registry = events.Registry()
        with events.use(registry):
            optimize_module(module, verify=False)
        snap = registry.metrics_snapshot()
        iters = snap["opt.fixpoint_iters{pipeline=confllvm}"]
        assert iters["max"] == MAX_ITERATIONS

    def test_real_pipeline_converges_under_cap(self):
        registry = events.Registry()
        with events.use(registry):
            optimize_module(ir_of())
        snap = registry.metrics_snapshot()
        iters = snap["opt.fixpoint_iters{pipeline=confllvm}"]
        assert iters["max"] < MAX_ITERATIONS

    def test_iter_passes_are_certified_passes(self):
        assert all(isinstance(p, Pass) for p in ITER_PASSES)
