"""The MiniC program generator: determinism and well-typedness."""

from __future__ import annotations

import pytest

from repro import BASE, OUR_MPX, OUR_SEG, compile_and_load, compile_source
from repro.errors import MachineFault
from repro.fuzz.gen import generate_source
from repro.runtime.trusted import T_PROTOTYPES
from repro.verifier.verify import verify_binary


def test_same_seed_same_source():
    assert generate_source(7) == generate_source(7)


def test_different_seeds_differ():
    assert generate_source(7) != generate_source(8)


def test_source_embeds_prototypes():
    assert generate_source(0).startswith(T_PROTOTYPES)


def test_size_scales_the_program():
    assert len(generate_source(3, size=30)) > len(generate_source(3, size=4))


@pytest.mark.parametrize("seed", range(4))
def test_generated_programs_compile_everywhere(seed):
    source = generate_source(seed)
    for config in (BASE, OUR_MPX, OUR_SEG):
        compile_source(source, config)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("config", (OUR_MPX, OUR_SEG), ids=lambda c: c.name)
def test_instrumented_builds_verify(seed, config):
    verify_binary(compile_source(generate_source(seed), config))


def test_generated_programs_terminate():
    """Loop bodies never assign their own counter, so every generated
    program exits well inside a small budget (seeds 13 and 25 used to
    emit ``w10 = 45; w10 -= 1;`` inside ``while (w10 > 0)``)."""
    for seed in range(40):
        process = compile_and_load(generate_source(seed), OUR_MPX)
        try:
            process.run(max_instructions=50_000)
        except MachineFault as fault:
            pytest.fail(f"seed {seed}: {fault}")
