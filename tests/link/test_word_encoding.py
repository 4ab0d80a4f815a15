"""Frozen ISA words cache their encoding: for every word of the 44
seed-1 SPEC binaries, the cached ``encoding()`` equals the encoding
recomputed from scratch, on the linked word and on a fresh copy."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro import BASE, OUR_MPX, OUR_SEG
from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.arith import MASK64
from repro.backend import isa
from repro.build import BuildSession

CONFIGS = (BASE, OUR_MPX, OUR_SEG, OUR_MPX.variant(checkopt="aggressive"))


def fresh_encoding(word: isa.Insn) -> int:
    if isinstance(word, isa.MagicWord):
        return word.value & MASK64
    digest = hashlib.blake2b(repr(word).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & MASK64


@pytest.fixture(scope="module")
def spec_binaries():
    session = BuildSession()
    return [
        session.build(kernel_source(name), config, seed=1,
                      verify=config.instrumented)
        for name in SPEC_NAMES
        for config in CONFIGS
    ]


def test_cached_encoding_equals_recomputed(spec_binaries):
    assert len(spec_binaries) == 44
    words = 0
    for binary in spec_binaries:
        for word in binary.code:
            expected = fresh_encoding(word)
            assert word.encoding() == expected
            assert word.encoding() == expected  # the cached read
            assert replace(word).encoding() == expected
            words += 1
    assert words > 40_000


def test_library_words_shared_across_links(spec_binaries):
    """Words the linker needs not patch are the library unit's own
    objects, so their encodings are computed once per session."""
    mpx = [b for b in spec_binaries if b.config == OUR_MPX]
    first, second = mpx[0], mpx[1]
    start = first.label_addrs["mini_strlen"]
    end = first.label_addrs["mini_memcpy"]
    assert second.label_addrs["mini_strlen"] == start
    shared = [
        a is b
        for a, b in zip(first.code[start:end], second.code[start:end])
    ]
    assert any(shared)
