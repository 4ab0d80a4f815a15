"""repro.fuzz: the adversarial fuzzing and mutation-kill harness.

Three engines share one seeded, reproducible harness (the same seed
always yields the same programs, the same mutants, and the same
verdicts):

* **program fuzzing** (:mod:`repro.fuzz.gen` + :func:`fuzz_programs`)
  generates random well-typed MiniC programs and differentially checks
  Base vs OurMPX vs OurSeg results, the superblock vs reference
  machine engines, and cold-vs-warm object-cache builds;
* **binary mutation** (:mod:`repro.fuzz.mutate` + :func:`fuzz_mutants`)
  applies security-relevant mutations to verified binaries and asserts
  ConfVerify kills every mutant (the mutation-kill score);
* **minimization + corpus** (:mod:`repro.fuzz.minimize`,
  :mod:`repro.fuzz.corpus`) shrink findings and persist them as
  deterministic regression cases under ``tests/fuzz/corpus``.

See docs/FUZZING.md for the harness design and mutation taxonomy.
"""

from .corpus import CorpusCase, load_corpus, replay_corpus, save_case
from .gen import generate_source
from .harness import (
    FuzzReport,
    fuzz_mutants,
    fuzz_programs,
    run_fuzz,
)
from .minimize import ddmin_lines
from .mutate import MUTATION_OPERATORS, Mutant, enumerate_mutants

__all__ = [
    "generate_source",
    "fuzz_programs",
    "fuzz_mutants",
    "run_fuzz",
    "FuzzReport",
    "Mutant",
    "MUTATION_OPERATORS",
    "enumerate_mutants",
    "ddmin_lines",
    "CorpusCase",
    "load_corpus",
    "save_case",
    "replay_corpus",
]
