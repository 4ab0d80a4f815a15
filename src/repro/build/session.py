"""The staged build driver.

A :class:`BuildSession` decomposes the old monolithic ``compile_source``
into explicit stages, each yielding a named, fingerprinted
:class:`StageResult`::

    parse -> sema (taint inference) -> lower -> opt -> codegen -> checkopt

Fingerprints chain: every stage's fingerprint hashes its own inputs
together with its predecessor's fingerprint, so two pipelines agree on
a stage fingerprint iff they agree on everything that could influence
that stage's output.  The certified stages additionally fold their
accepted witness digests into the chain (the ``opt`` stage hashes
``module.opt_witness_digest``; the ``checkopt`` stage hashes the check
optimizer's witness digest), so a change in certification behaviour —
a rejected witness, a different edit script — invalidates downstream
fingerprints.  The checkopt stage's product is a pre-link
:class:`~repro.link.objfile.UObject` — the separate-compilation unit
the linker consumes (one per source file, like the paper's U dll
objects); the stage itself is a no-op unless ``config.checkopt`` is
``"aggressive"``, in which case the post-codegen check optimizer
(:mod:`repro.opt.checkopt`) rewrites each function's ISA stream under
translation validation.

Sessions optionally carry

* an :class:`~repro.build.cache.ObjectCache`: ``compile_unit`` looks up
  the (format version, source hash, config fingerprint, seed) key
  before running any stage, and a hit deserializes the stored object
  instead of compiling — no parse/sema/lower/opt/codegen spans are
  recorded, only a ``build.cache.hit`` counter.

One process-wide *default session* backs the compatibility wrappers
``repro.compile_source`` / ``repro.compile_and_load``; scope a custom
session (with a cache) via :class:`use_session`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass

from ..backend.codegen import compile_module
from ..config import BuildConfig
from ..frontend.lower import lower_program
from ..link.linker import link
from ..link.objfile import Binary, UObject
from ..minic.parser import parse
from ..minic.sema import analyze
from ..obs import events
from ..opt.checkopt import run_checkopt
from ..opt.pipeline import optimize_module
from .cache import ObjectCache
from .serialize import (
    FORMAT_VERSION,
    SerializeError,
    config_fingerprint,
    dump_uobject,
    load_uobject,
    object_cache_key,
    source_hash,
)

#: Pipeline stage names, in order.
STAGES = ("parse", "sema", "lower", "opt", "codegen", "checkopt")


@dataclass(frozen=True)
class StageResult:
    """One stage's named, hashable product.

    ``fingerprint`` identifies the stage *output* by construction (it
    chains the predecessor's fingerprint with this stage's inputs);
    ``value`` is the in-memory artifact (AST, checked program, IR
    module, or UObject).
    """

    stage: str
    fingerprint: str
    value: object


@dataclass(frozen=True)
class BuildRequest:
    """One (source, config) build unit for :meth:`BuildSession.build_many`."""

    source: str
    config: BuildConfig
    entry: str = "main"
    filename: str = "<input>"
    seed: int | None = None
    verify: bool = False


def _chain(stage: str, parent: str, *parts) -> str:
    payload = "\0".join((stage, parent, *(repr(p) for p in parts)))
    return hashlib.sha256(payload.encode()).hexdigest()


class BuildSession:
    """Staged compile/link driver with an optional object cache.

    ``jobs`` is accepted for existing callers and ignored: builds run serially.
    """

    def __init__(self, cache: ObjectCache | None = None, jobs: int = 1):
        self.cache = cache

    # ------------------------------------------------------------------
    # Stages.  Span names and nesting are identical to the historical
    # monolithic driver, so observability output is unchanged.

    def stage_parse(self, source: str, filename: str = "<input>") -> StageResult:
        program = parse(source, filename)
        fp = _chain("parse", f"v{FORMAT_VERSION}", source_hash(source))
        return StageResult("parse", fp, program)

    def stage_sema(self, parsed: StageResult, config: BuildConfig) -> StageResult:
        with events.span("compile.sema"):
            checked = analyze(
                parsed.value,
                strict=config.strict,
                all_private=config.all_private,
            )
        fp = _chain(
            "sema", parsed.fingerprint, config.strict, config.all_private
        )
        return StageResult("sema", fp, checked)

    def stage_lower(
        self,
        semad: StageResult,
        config: BuildConfig,
        allow_undefined: bool = False,
    ) -> StageResult:
        with events.span("compile.lower"):
            module = lower_program(semad.value, allow_undefined=allow_undefined)
        fp = _chain("lower", semad.fingerprint, allow_undefined)
        return StageResult("lower", fp, module)

    def stage_opt(self, lowered: StageResult, config: BuildConfig) -> StageResult:
        module = optimize_module(lowered.value, pipeline=config.pipeline)
        fp = _chain(
            "opt",
            lowered.fingerprint,
            config.pipeline,
            module.opt_witness_digest,
        )
        return StageResult("opt", fp, module)

    def stage_codegen(
        self, opted: StageResult, config: BuildConfig
    ) -> StageResult:
        obj: UObject = compile_module(opted.value, config)
        fp = _chain("codegen", opted.fingerprint, config_fingerprint(config))
        return StageResult("codegen", fp, obj)

    def stage_checkopt(
        self, codegenned: StageResult, config: BuildConfig
    ) -> StageResult:
        obj: UObject = codegenned.value
        wdigest = ""
        if config.checkopt == "aggressive":
            wdigest = run_checkopt(obj, config)
        fp = _chain(
            "checkopt", codegenned.fingerprint, config.checkopt, wdigest
        )
        return StageResult("checkopt", fp, obj)

    # ------------------------------------------------------------------
    # Unit compilation (cache-aware).

    def compile_unit(
        self,
        source: str,
        config: BuildConfig,
        filename: str = "<input>",
        seed: int | None = None,
        allow_undefined: bool = False,
        use_cache: bool = True,
    ) -> UObject:
        """Compile one source unit to a pre-link :class:`UObject`.

        With a cache attached, a hit returns a fresh deserialized copy
        and skips every compile stage (including its obs spans); a miss
        compiles, then stores the unit *before* it is linked (linking
        patches instruction words in place).
        """
        digest = None
        if use_cache and self.cache is not None:
            digest = object_cache_key(source, config, seed, allow_undefined)
            data = self.cache.get(digest)
            if data is not None:
                try:
                    return load_uobject(data)
                except SerializeError:
                    # Corrupt or stale-format entry: recompile and
                    # overwrite rather than failing the build.
                    events.counter("build.cache.bad_entry").inc()
        result = self.stage_parse(source, filename)
        result = self.stage_sema(result, config)
        result = self.stage_lower(result, config, allow_undefined)
        result = self.stage_opt(result, config)
        result = self.stage_codegen(result, config)
        result = self.stage_checkopt(result, config)
        obj = result.value
        if digest is not None:
            self.cache.put(digest, dump_uobject(obj))
        return obj

    # ------------------------------------------------------------------
    # Linking and the one-call driver.

    def link_units(
        self,
        objs: UObject | list[UObject],
        entry: str = "main",
        seed: int | None = None,
    ) -> Binary:
        """Link one or more units, resolving cross-object externals."""
        return link(objs, entry=entry, seed=seed)

    def build(
        self,
        source: str,
        config: BuildConfig,
        entry: str = "main",
        filename: str = "<input>",
        seed: int | None = None,
        verify: bool = False,
    ) -> Binary:
        """Compile and link one source; the classic ``compile_source``."""
        with events.span("compile.total", config=config.name,
                         filename=filename):
            obj = self.compile_unit(
                source, config, filename=filename, seed=seed
            )
            binary = self.link_units(obj, entry=entry, seed=seed)
            if verify:
                from ..verifier.verify import verify_binary

                verify_binary(binary)
        return binary

    def build_many(
        self, requests: list[BuildRequest], jobs: int | None = None
    ) -> list[Binary]:
        """Build each request through :meth:`build`, in request order
        (``jobs`` is ignored, as in ``__init__``)."""
        return [
            self.build(r.source, r.config, entry=r.entry,
                       filename=r.filename, seed=r.seed, verify=r.verify)
            for r in requests
        ]


# ---------------------------------------------------------------------------
# The process-wide default session behind compile_source/compile_and_load.

_lock = threading.Lock()
_default: BuildSession | None = None


def default_session() -> BuildSession:
    """The active process-wide session (created lazily).

    A fresh default session attaches an :class:`ObjectCache` at
    ``$REPRO_CACHE_DIR`` when that variable is set.
    """
    global _default
    with _lock:
        if _default is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR")
            _default = BuildSession(
                cache=ObjectCache(cache_dir) if cache_dir else None
            )
        return _default


def set_default_session(session: BuildSession | None) -> BuildSession | None:
    """Install ``session`` as the process default; returns the previous."""
    global _default
    with _lock:
        previous = _default
        _default = session
        return previous


class use_session:
    """Context manager scoping a default-session override."""

    def __init__(self, session: BuildSession):
        self._session = session
        self._previous: BuildSession | None = None

    def __enter__(self) -> BuildSession:
        self._previous = set_default_session(self._session)
        return self._session

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_default_session(self._previous)
        return False
