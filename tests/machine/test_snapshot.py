"""Snapshot/restore foundations: COW memory, cache state, and
``Machine.seal()``/``reset()`` bit-identical replay.

The serving tier (``repro.serve``) is built on these primitives; this
module tests them in isolation so a fleet failure can be bisected to
the layer that broke.
"""

from __future__ import annotations

import pytest

from repro import OUR_MPX, TrustedRuntime, compile_and_load
from repro.errors import MachineFault
from repro.machine.cache import L1Cache
from repro.machine.memory import PAGE_SIZE, Memory
from repro.runtime.trusted import T_PROTOTYPES

from tests.machine.test_engine_equivalence import machine_signature


class TestMemorySnapshot:
    def test_restore_rewinds_contents(self):
        mem = Memory()
        mem.map_range(0x1000, 0x1000 + 4 * PAGE_SIZE)
        mem.write_bytes(0x1000, b"before")
        state = mem.snapshot_state()
        mem.write_bytes(0x1000, b"mutated")
        mem.write_bytes(0x2000, b"new page")
        mem.restore_state(state)
        assert mem.read_bytes(0x1000, 6) == b"before"
        assert mem.read_bytes(0x2000, 8) == bytes(8)

    def test_snapshot_is_immune_to_later_writes(self):
        """COW for real: writes after a restore must never leak into
        the frozen pages another restore will re-materialize from."""
        mem = Memory()
        mem.map_range(0, PAGE_SIZE)
        mem.write_bytes(16, b"frozen")
        state = mem.snapshot_state()
        mem.restore_state(state)
        mem.write_bytes(16, b"dirty!")
        assert state.pages[0][16:22] == b"frozen"
        mem.restore_state(state)
        assert mem.read_bytes(16, 6) == b"frozen"

    def test_restore_preserves_mapping_and_protection(self):
        mem = Memory()
        mem.map_range(0x4000, 0x6000)
        mem.protect_read_only(0x4100, 0x4200)
        state = mem.snapshot_state()
        mem.restore_state(state)
        assert mem.is_mapped(0x4000, 0x2000)
        assert not mem.is_mapped(0x3000)
        with pytest.raises(MachineFault):
            mem.write_bytes(0x4180, b"x")
        with pytest.raises(MachineFault):
            mem.read_bytes(0x7000, 1)

    def test_restore_onto_fresh_memory(self):
        """A brand-new Memory (fork path) adopts mapping, protection,
        and contents from the state."""
        source = Memory()
        source.map_range(0, 2 * PAGE_SIZE)
        source.protect_read_only(64, 128)
        source.write_bytes_unprotected(64, b"ro data")
        state = source.snapshot_state()
        fresh = Memory()
        fresh.restore_state(state)
        assert fresh.read_bytes(64, 7) == b"ro data"
        with pytest.raises(MachineFault):
            fresh.write_bytes(64, b"nope")
        assert fresh.content_signature() == source.content_signature()

    def test_mapping_changes_after_snapshot_are_rewound(self):
        mem = Memory()
        mem.map_range(0, PAGE_SIZE)
        state = mem.snapshot_state()
        mem.map_range(0x10000, 0x11000)  # bumps the prot stamp
        mem.restore_state(state)
        assert not mem.is_mapped(0x10000)

    def test_content_signature_ignores_materialization(self):
        a = Memory()
        a.map_range(0, 4 * PAGE_SIZE)
        a.write_bytes(0x1000, b"payload")
        state = a.snapshot_state()
        b = Memory()
        b.restore_state(state)
        # a has materialized pages, b has none — same signature.
        assert a.content_signature() == b.content_signature()
        # Zeroing a page drops it from the signature entirely.
        a.write_bytes(0x1000, bytes(PAGE_SIZE))
        assert 0x1000 not in a.content_signature()


class TestCacheSnapshot:
    def test_roundtrip(self):
        cache = L1Cache()
        for addr in (0, 64, 128, 4096, 0, 64):
            cache.access(addr)
        state = cache.snapshot_state()
        hits, misses = cache.hits, cache.misses
        for addr in (8192, 12288):
            cache.access(addr)
        cache.restore_state(state)
        assert (cache.hits, cache.misses) == (hits, misses)
        assert cache.snapshot_state() == state

    def test_geometry_mismatch_rejected(self):
        cache = L1Cache()
        state = cache.snapshot_state()
        small = L1Cache(n_sets=len(state[2]) // 2)
        with pytest.raises(ValueError):
            small.restore_state(state)


# A program whose replay exercises every piece of restored state:
# allocator (malloc/free), RNG (rand), channel I/O (recv/send), both
# stacks, and arithmetic on what it read.
RESET_SOURCE = T_PROTOTYPES + r"""
int main() {
    char buf[32];
    int got = recv(0, buf, 8);
    int *scratch = (int*)malloc_pub(64);
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        scratch[i] = buf[i] * (rand_int(97) + 1);
        acc = acc + scratch[i];
    }
    free_pub((char*)scratch);
    send(1, buf, got);
    return acc & 0x7F;
}
"""


class TestMachineReset:
    @pytest.mark.parametrize("engine", ("superblock", "reference"))
    def test_two_resets_are_bit_identical(self, engine):
        runtime = TrustedRuntime()
        process = compile_and_load(
            RESET_SOURCE, OUR_MPX, runtime=runtime, engine=engine
        )

        def one_run():
            runtime.channel(0).feed(b"abcdefgh")
            exit_code = process.run()
            wire = bytes(runtime.channel(1).drain_out())
            return exit_code, wire, machine_signature(process.machine), (
                process.machine.mem.content_signature()
            )

        first = one_run()
        process.reset()
        second = one_run()
        process.reset()
        third = one_run()
        assert first == second == third
        assert first[1] == b"abcdefgh"

    def test_reset_replays_rng_and_allocator(self):
        """rand() and malloc() sequences restart from the image point,
        not from wherever the last run left them."""
        runtime = TrustedRuntime()
        process = compile_and_load(
            RESET_SOURCE, OUR_MPX, runtime=runtime
        )
        runtime.channel(0).feed(b"xxxxyyyy")
        code1 = process.run()
        process.reset()
        runtime.channel(0).feed(b"xxxxyyyy")
        code2 = process.run()
        assert code1 == code2

    def test_unsealed_machine_reset_raises(self):
        from repro.compiler import compile_source
        from repro.machine.cpu import Machine

        binary = compile_source(
            T_PROTOTYPES + "int main() { return 0; }", OUR_MPX
        )
        runtime = TrustedRuntime()
        machine = Machine(binary, runtime.natives_for(binary))
        with pytest.raises(ValueError):
            machine.reset()

    def test_core_count_mismatch_rejected(self):
        from repro.compiler import compile_source
        from repro.machine.cpu import Machine
        from repro.machine.snapshot import MachineState

        binary = compile_source(
            T_PROTOTYPES + "int main() { return 0; }", OUR_MPX
        )
        runtime = TrustedRuntime()
        big = Machine(binary, runtime.natives_for(binary), n_cores=4)
        small = Machine(binary, runtime.natives_for(binary), n_cores=2)
        with pytest.raises(ValueError):
            MachineState.capture(big).restore(small)
