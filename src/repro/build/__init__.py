"""The staged build layer: separate compilation and object caching.

This package turns the one-shot ``compile_source`` pipeline into a real
separate-compilation toolchain, mirroring the paper's per-unit compile
-> object file -> linker structure (Sections 4 and 6):

* :class:`~repro.build.session.BuildSession` — the staged driver.  Each
  stage (parse -> sema/taint -> lower -> opt -> codegen -> checkopt)
  produces a named :class:`~repro.build.session.StageResult`;
  ``compile_unit`` yields a pre-link :class:`~repro.link.objfile.UObject`
  and ``build`` links (+optionally verifies) it into a ``Binary``.
* :mod:`~repro.build.serialize` — a stable, versioned on-disk format
  for ``UObject`` and ``Binary`` (``dump_uobject``/``load_uobject``,
  ``dump_binary``/``load_binary``).  Byte equality of two dumps is the
  project's definition of "bit-identical" artifacts.
* :class:`~repro.build.cache.ObjectCache` — a content-addressed object
  store keyed by (format version, source hash, config fingerprint,
  seed, library signatures); hits skip every compile stage up to and
  including codegen.
* :mod:`~repro.build.library` — library units a source links against
  with ``use <name>;``, compiled once per session and configuration.

``BuildSession.build_many`` builds a batch of independent (source,
config) requests one after another on the calling thread, in request
order.

The classic entry points :func:`repro.compile_source` and
:func:`repro.compile_and_load` are thin wrappers over the process-wide
default session (see :func:`default_session` / :class:`use_session`).
"""

from __future__ import annotations

from .cache import ObjectCache
from .serialize import (
    FORMAT_VERSION,
    SerializeError,
    config_fingerprint,
    dump_binary,
    dump_uobject,
    load_binary,
    load_uobject,
    object_cache_key,
    source_hash,
)
from .session import (
    BuildRequest,
    BuildSession,
    StageResult,
    default_session,
    set_default_session,
    use_session,
)

__all__ = [
    "BuildRequest",
    "BuildSession",
    "FORMAT_VERSION",
    "ObjectCache",
    "SerializeError",
    "StageResult",
    "config_fingerprint",
    "default_session",
    "dump_binary",
    "dump_uobject",
    "load_binary",
    "load_uobject",
    "object_cache_key",
    "set_default_session",
    "source_hash",
    "use_session",
]
