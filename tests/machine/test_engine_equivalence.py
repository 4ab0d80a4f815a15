"""Differential suite: the fast engine must be observably identical
to the reference engine.

The superblock engine is a pure performance transformation — simulated
cycle counts, Stats counters, fault kinds/details/addresses, cache
hits/misses, final register state, obs spans/metrics, and step-hook
callbacks must all agree bit-for-bit with the one-step-at-a-time
reference interpreter.  This suite pins that contract with the random
``ProgramGen`` corpus across BASE/OUR_MPX/OUR_SEG plus hand-built fault
programs, adds budget-boundary cases where the superblock engine's
relaxed quantum grid has to realign with per-instruction execution,
and runs a threaded server whose round-robin quanta retire one
instruction at a time.
"""

from __future__ import annotations

import pytest

from repro import BASE, OUR_MPX, OUR_SEG
from repro.apps.dirserver import QUIT_QUERY, dirserver_mt_source, make_query
from repro.backend import isa, regs
from repro.compiler import compile_source
from repro.errors import MachineFault
from repro.link.layout import CODE_BASE
from repro.link.loader import load
from repro.machine.cpu import ENGINE_REFERENCE, ENGINE_SUPERBLOCK, ENGINES
from repro.obs import events, export
from repro.obs.blockprof import attach_block_profiler
from repro.runtime.trusted import TrustedRuntime

from tests.integration.test_differential import ProgramGen
from tests.machine.test_semantics_fixes import make_machine

CORPUS_SEEDS = (0, 7, 23, 481, 9001, 31337)
CONFIGS = (BASE, OUR_MPX, OUR_SEG)
FAST_ENGINES = (ENGINE_SUPERBLOCK,)
ALL_ENGINES = ENGINES


def machine_signature(machine):
    stats = machine.stats
    return {
        "exit_code": machine.exit_code,
        "core_cycles": tuple(machine.core_cycles),
        "instructions": stats.instructions,
        "bnd_checks": stats.bnd_checks,
        "cfi_checks": stats.cfi_checks,
        "calls": stats.calls,
        "t_calls": stats.t_calls,
        "loads": stats.loads,
        "stores": stats.stores,
        "faults": dict(stats.faults),
        "cache": tuple((c.hits, c.misses) for c in machine.caches),
        "regs": tuple(tuple(t.regs) for t in machine.threads),
        "pcs": tuple(t.pc for t in machine.threads),
    }


def run_engine(binary, engine):
    """Run a binary under one engine inside a fresh obs registry;
    returns (exit_code_or_fault, machine signature, obs signature)."""
    registry = events.Registry()
    with events.use(registry):
        process = load(binary, runtime=TrustedRuntime(), engine=engine)
        try:
            outcome = ("exit", process.run())
        except MachineFault as fault:
            outcome = ("fault", fault.kind, fault.detail, fault.addr)
    obs_sig = (
        export.cycle_span_signature(registry),
        registry.metrics_snapshot(),
    )
    return outcome, machine_signature(process.machine), obs_sig


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_program_identical_across_engines(seed, config):
    source = ProgramGen(seed).gen()
    binary = compile_source(source, config, seed=seed)
    reference = run_engine(binary, "reference")
    for engine in FAST_ENGINES:
        assert run_engine(binary, engine) == reference, engine


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_engine_selection_is_exposed(engine):
    machine = make_machine([isa.Halt()], engine=engine)
    assert machine.engine == engine
    machine.run()
    assert machine.stats.instructions == 1


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        make_machine([isa.Halt()], engine="jit")


class TestFaultEquivalence:
    """Fault kind, detail, address, and pre-fault accounting agree."""

    def fault_programs(self):
        data = 0x10000100
        return {
            "negative-pc": [isa.Jmp("x", addr=-5)],
            "pc-past-end": [isa.MovRI(regs.RAX, 1)],  # falls off the end
            "jmp-reg-past-end": [
                isa.MovRI(regs.RAX, CODE_BASE + 2),
                isa.JmpReg(regs.RAX, skip=0),
            ],
            "div-zero": [
                isa.MovRI(regs.RAX, 3),
                isa.MovRI(regs.RBX, 0),
                isa.Alu("div", regs.RAX, regs.RAX, regs.RBX),
                isa.Halt(),
            ],
            "unmapped": [
                isa.MovRI(regs.RBX, 0x500),
                isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 8),
                isa.Halt(),
            ],
            "write-code-space": [
                isa.MovRI(regs.RBX, CODE_BASE),
                isa.Store(isa.Mem(base=regs.RBX), isa.Imm(1), 8),
                isa.Halt(),
            ],
            "debugbreak": [isa.Fail()],
            "budget": [
                isa.MovRI(regs.RAX, data),
                isa.Jmp("loop", addr=0),
            ],
        }

    @pytest.mark.parametrize(
        "name",
        [
            "negative-pc",
            "pc-past-end",
            "jmp-reg-past-end",
            "div-zero",
            "unmapped",
            "write-code-space",
            "debugbreak",
            "budget",
        ],
    )
    def test_fault_identical(self, name):
        code = self.fault_programs()[name]
        results = {}
        for engine in ALL_ENGINES:
            machine = make_machine(code, engine=engine)
            try:
                machine.run(max_instructions=10_000)
                outcome = ("exit", machine.exit_code)
            except MachineFault as fault:
                outcome = ("fault", fault.kind, fault.detail, fault.addr)
            results[engine] = (outcome, machine_signature(machine))
        for engine in FAST_ENGINES:
            assert results[engine] == results["reference"], engine
        assert results["reference"][0][0] == "fault"


class TestOperandShapes:
    """Every ALU and compare op under every register/immediate operand
    shape (negative values included, so signed views, shifts, and
    div/mod rounding are exercised), plus the control transfers the
    generator emits itself (``JmpReg``, ``RetPlain``) and one it runs
    through the reference handler (``JmpTable``).  Each result is mixed
    into an accumulator, so any divergence shows in the final
    registers; the program also runs one instruction at a time under a
    step hook."""

    ALU_OPS = ("add", "sub", "mul", "div", "mod", "and", "or", "xor",
               "shl", "shr", "neg", "not")
    CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

    def program(self):
        A, B, ACC, T = regs.RAX, regs.RBX, regs.RCX, regs.RDX
        shapes = (
            (A, B), (isa.Imm(-7), B), (A, isa.Imm(3)),
            (isa.Imm(-7), isa.Imm(3)), (isa.Imm(5), isa.Imm(-2)),
        )
        code = [isa.MovRI(A, -7), isa.MovRI(B, 3), isa.MovRI(ACC, 1)]

        def mix():
            code.append(isa.Alu("mul", ACC, ACC, isa.Imm(31)))
            code.append(isa.Alu("add", ACC, ACC, T))

        for op in self.ALU_OPS:
            for a, b in shapes:
                code.append(isa.Alu(op, T, a, b))
                mix()
        for op in self.CMP_OPS:
            for a, b in shapes:
                code.append(isa.SetCC(op, T, a, b))
                mix()
                # Taken skips the increment.
                code.append(isa.Br(op, a, b, "skip", addr=len(code) + 2))
                code.append(isa.Alu("add", ACC, ACC, isa.Imm(1)))
        # Register jump over a trap, a call/return pair, a jump table.
        code.append(isa.MovRI(T, CODE_BASE + len(code) + 3))
        code.append(isa.JmpReg(T, skip=0))
        code.append(isa.Fail())
        call = len(code)
        code.append(isa.CallD("f", addr=call + 4))
        code.append(isa.MovRI(T, 6))
        code.append(isa.JmpTable(T, 5, ["a", "b"], addrs=[call + 7,
                                                          call + 8]))
        code.append(isa.Fail())
        code.append(isa.Alu("add", ACC, ACC, isa.Imm(13)))  # f
        code.append(isa.RetPlain())
        code.append(isa.Fail())
        code.append(isa.Fail())
        code.append(isa.MovRR(regs.RAX, ACC))  # case 6
        code.append(isa.Halt())
        return code

    @pytest.mark.parametrize("hooked", (False, True))
    def test_operand_shapes_identical(self, hooked):
        signatures = {}
        for engine in ALL_ENGINES:
            machine = make_machine(self.program(), engine=engine)
            stream = []
            if hooked:
                machine.add_step_hook(
                    lambda t, pc, insn, cycles: stream.append((pc, cycles))
                )
            machine.run()
            signatures[engine] = (machine_signature(machine), stream)
        for engine in FAST_ENGINES:
            assert signatures[engine] == signatures["reference"], engine


class TestStepHookEquivalence:
    SOURCE = """
int helper(int x) { return x * 3 + 1; }
int main() {
  int i; int acc; acc = 0;
  for (i = 0; i < 40; i = i + 1) { acc = (acc + helper(i)) & 0xffff; }
  return acc & 255;
}
"""

    def hook_stream(self, engine, config):
        binary = compile_source(self.SOURCE, config, seed=3)
        process = load(binary, runtime=TrustedRuntime(), engine=engine)
        stream = []

        def hook(thread, pc, insn, cycles):
            stream.append((thread.tid, pc, type(insn).__name__, cycles))

        process.machine.add_step_hook(hook)
        process.run()
        return stream

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_hook_callbacks_identical(self, config):
        reference = self.hook_stream("reference", config)
        for engine in FAST_ENGINES:
            assert self.hook_stream(engine, config) == reference, engine

    def test_profiler_identical(self):
        reports = {}
        for engine in ALL_ENGINES:
            binary = compile_source(self.SOURCE, OUR_MPX, seed=3)
            process = load(binary, runtime=TrustedRuntime(), engine=engine)
            profiler = attach_block_profiler(process.machine)
            process.run()
            reports[engine] = [
                (r.name, r.cycles, r.instructions, r.bnd_checks,
                 r.cfi_checks)
                for r in profiler.function_report()
            ]
        for engine in FAST_ENGINES:
            assert reports[engine] == reports["reference"], engine

    def test_hook_attached_mid_run_sees_identical_tail(self):
        # Attaching a hook mid-run kicks the superblock engine off its
        # single-thread hot loop at the next quantum boundary — the
        # remaining callbacks must still match the reference engine.
        streams = {}
        for engine in ALL_ENGINES:
            binary = compile_source(self.SOURCE, BASE, seed=3)
            process = load(binary, runtime=TrustedRuntime(), engine=engine)
            machine = process.machine
            stream = []

            def tail_hook(thread, pc, insn, cycles, _s=stream):
                _s.append((pc, type(insn).__name__, cycles))

            # Deterministic arming point: run a bounded prefix (the
            # budget fault leaves the machine resumable), then attach
            # the hook and finish the program.
            try:
                machine.run(max_instructions=500)
            except MachineFault as fault:
                assert fault.kind == "instruction-budget-exhausted"
            machine.add_step_hook(tail_hook)
            process.run()
            streams[engine] = (machine.stats.instructions, stream)
        for engine in FAST_ENGINES:
            assert streams[engine] == streams["reference"], engine


class TestBlockProfilerEquivalence:
    """Block/edge/check-site attribution and counter samples are
    engine-independent — the acceptance contract for the profiling
    tier."""

    def blockprof_signature(self, binary, engine):
        from repro.obs.blockprof import attach_block_profiler

        process = load(binary, runtime=TrustedRuntime(), engine=engine)
        profiler = attach_block_profiler(process.machine)
        try:
            process.run()
        except MachineFault as fault:
            pass
        return {
            "cycles": sorted(profiler.cycles.items()),
            "instructions": sorted(profiler.instructions.items()),
            "cache_misses": sorted(profiler.cache_misses.items()),
            "edges": sorted(profiler.edges.items()),
            "sites": sorted(
                (addr, tuple(entry))
                for addr, entry in profiler.sites.items()
            ),
            "samples": profiler.samples,
            "flamegraph": profiler.flamegraph_lines(),
        }

    @pytest.mark.parametrize("seed", (7, 481))
    @pytest.mark.parametrize(
        "config", (OUR_MPX, OUR_SEG), ids=lambda c: c.name
    )
    def test_corpus_attribution_identical(self, seed, config):
        source = ProgramGen(seed).gen()
        binary = compile_source(source, config, seed=seed)
        reference = self.blockprof_signature(binary, "reference")
        for engine in FAST_ENGINES:
            assert self.blockprof_signature(binary, engine) == reference, (
                engine
            )

    def test_structured_program_attribution_identical(self):
        binary = compile_source(
            TestStepHookEquivalence.SOURCE, OUR_MPX, seed=3
        )
        reference = self.blockprof_signature(binary, "reference")
        for engine in FAST_ENGINES:
            assert self.blockprof_signature(binary, engine) == reference, (
                engine
            )
        assert reference["sites"]  # checks actually executed


class TestBudgetBoundary:
    """The instruction budget gates *starting* an instruction: a
    program whose final budgeted instruction halts it must return its
    exit code, not be misreported as evicted.  Regression tests for the
    off-by-one where ``budget <= 0`` was checked before
    ``thread.alive``, run across both engines (the superblock
    engine additionally realigns its relaxed quantum grid here)."""

    def straight_line(self, n_movs):
        code = [isa.MovRI(regs.RAX, 41) for _ in range(n_movs)]
        code.append(isa.MovRI(regs.RAX, 42))
        code.append(isa.Halt())
        return code

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("n_movs", (4, 100))  # within / past a quantum
    def test_exact_budget_halt_returns_exit_code(self, engine, n_movs):
        code = self.straight_line(n_movs)
        machine = make_machine(code, engine=engine)
        exit_code = machine.run(max_instructions=len(code))
        assert exit_code == 42
        assert machine.stats.instructions == len(code)
        assert "instruction-budget-exhausted" not in machine.stats.faults

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("n_movs", (4, 100))
    def test_one_instruction_short_still_evicts(self, engine, n_movs):
        code = self.straight_line(n_movs)
        machine = make_machine(code, engine=engine)
        with pytest.raises(MachineFault) as excinfo:
            machine.run(max_instructions=len(code) - 1)
        assert excinfo.value.kind == "instruction-budget-exhausted"
        assert machine.stats.instructions == len(code) - 1
        assert machine.exit_code is None

    def test_budget_fault_state_identical_across_engines(self):
        # Evict a spin loop on a budget that lands mid-block and
        # mid-quantum; retired counts and pcs must agree bit-for-bit.
        code = [
            isa.MovRI(regs.RAX, 0),
            isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
            isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
            isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
            isa.Jmp("loop", addr=1),
            isa.Halt(),
        ]
        signatures = {}
        for engine in ALL_ENGINES:
            machine = make_machine(code, engine=engine)
            with pytest.raises(MachineFault) as excinfo:
                machine.run(max_instructions=1001)
            assert excinfo.value.kind == "instruction-budget-exhausted"
            signatures[engine] = machine_signature(machine)
        for engine in FAST_ENGINES:
            assert signatures[engine] == signatures["reference"], engine


class TestMultiThreadEquivalence:
    """A 2-worker threaded dirserver never runs in the single-thread hot
    loop: its round-robin quanta retire one instruction at a time (on
    the superblock engine, through one-instruction generated blocks),
    with natives spawning, joining, and blocking on channels in
    between.  Normal runs, budget faults that land mid-schedule, and
    step-hooked runs must all agree with the reference engine."""

    N_WORKERS = 2
    PER_WORKER = 2
    _binary = None

    def process(self, engine):
        if TestMultiThreadEquivalence._binary is None:
            TestMultiThreadEquivalence._binary = compile_source(
                dirserver_mt_source(self.N_WORKERS), OUR_MPX, seed=5
            )
        runtime = TrustedRuntime()
        runtime.set_password("alice", b"pw123")
        for w in range(self.N_WORKERS):
            for i in range(self.PER_WORKER):
                entry = (w * self.PER_WORKER + i) * 2
                runtime.channel(10 + w).feed(
                    make_query(runtime, entry, "alice")
                )
            runtime.channel(10 + w).feed(QUIT_QUERY)
        return load(self._binary, runtime=runtime, engine=engine), runtime

    def observe(self, engine, max_instructions=500_000_000, hook=False):
        process, runtime = self.process(engine)
        machine = process.machine
        stream = []
        if hook:
            def on_step(thread, pc, insn, cycles):
                stream.append(
                    (thread.tid, pc, cycles, machine.hook_cache_misses)
                )

            machine.add_step_hook(on_step)
        try:
            outcome = ("exit", process.run(max_instructions))
        except MachineFault as fault:
            outcome = ("fault", fault.kind, fault.detail, fault.addr)
        wire = tuple(
            bytes(runtime.channel(110 + w).drain_out())
            for w in range(self.N_WORKERS)
        )
        live = sum(t.alive for t in machine.threads)
        return (outcome, machine_signature(machine), wire, stream), live

    def test_threaded_run_identical(self):
        reference, _ = self.observe(ENGINE_REFERENCE)
        assert reference[0] == ("exit", self.N_WORKERS * self.PER_WORKER)
        assert len(reference[1]["regs"]) == 1 + self.N_WORKERS
        for engine in FAST_ENGINES:
            assert self.observe(engine)[0] == reference, engine

    def test_budget_fault_mid_schedule_identical(self):
        # Main populates the directory before it spawns the workers;
        # aim between the workers' first and last retired instruction.
        stream = self.observe(ENGINE_REFERENCE, hook=True)[0][3]
        workers = [i for i, (tid, *_) in enumerate(stream) if tid != 0]
        budget = (workers[0] + workers[-1]) // 2 + 37
        reference, live = self.observe(ENGINE_REFERENCE, budget)
        assert reference[0][:2] == ("fault", "instruction-budget-exhausted")
        assert live > 1
        for engine in FAST_ENGINES:
            assert self.observe(engine, budget)[0] == reference, engine

    def test_step_hook_stream_identical(self):
        reference, _ = self.observe(ENGINE_REFERENCE, hook=True)
        assert len({tid for tid, *_ in reference[3]}) == 1 + self.N_WORKERS
        for engine in FAST_ENGINES:
            assert self.observe(engine, hook=True)[0] == reference, engine
