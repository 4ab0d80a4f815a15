"""Stable, versioned serialization for build artifacts.

``UObject`` (the pre-link compilation unit) and ``Binary`` (the linked
program) both get a canonical byte representation:

* the envelope is canonical JSON (sorted keys, compact separators,
  ASCII) carrying a ``format`` version tag and a ``kind`` discriminator;
* every ISA instruction, memory operand, and metadata record is encoded
  as a tagged node ``{"$": <class>, "f": {<field>: <value>}}`` built
  from its dataclass fields, so the format tracks the ISA definition
  automatically;
* taints are tagged (they must round-trip to real ``Taint`` enum
  members — the linker compares them by identity) and byte strings are
  hex-encoded.

Canonical bytes give the project its equality oracle: two artifacts are
*bit-identical* iff their dumps compare equal, which is what the
cold/warm-cache determinism tests pin.

The same canonical encoding powers content addressing:
:func:`source_hash`, :func:`config_fingerprint`, and
:func:`object_cache_key` derive the cache key (format version, source
hash, config fingerprint, seed) used by
:class:`repro.build.cache.ObjectCache`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json

from ..backend import isa
from ..config import BuildConfig
from ..errors import ReproError
from ..ir.core import ExternSig, IRGlobal
from ..link.layout import make_layout
from ..link.objfile import Binary, CompiledFunction, UObject
from ..minic.types import (
    ArrayType,
    FuncType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
)
from ..taint.lattice import Taint
from .library import library_signatures

#: Bump whenever the encoded shape of a unit changes; cached objects
#: written under a different version are never read back.
#: v2: binaries carry the ``check_sites`` map (addr -> check category).
#: v3: BuildConfig gained the ``checkopt`` level (part of the config
#: fingerprint, so differently-checkopted units never share a cache
#: entry).
#: v4: units record the library units they use (``UObject.libraries``).
FORMAT_VERSION = 4

#: The linked-binary encoding's version, bumped when it changes (it
#: has not since v3), so binary bytes stay comparable across releases
#: that only change units.
BINARY_FORMAT_VERSION = 3


class SerializeError(ReproError):
    """An artifact could not be encoded or decoded."""


#: What decoding a well-formed envelope around a malformed document can
#: raise: a missing key, a wrong shape or type, an unknown field name,
#: an out-of-range enum value, or a failed constructor invariant.
_DECODE_ERRORS = (
    AssertionError, AttributeError, IndexError, KeyError, TypeError,
    ValueError,
)


# ---------------------------------------------------------------------------
# Tagged-node codec for ISA instructions and metadata dataclasses.

def _collect_node_classes() -> dict[str, type]:
    classes: dict[str, type] = {}
    for name in dir(isa):
        obj = getattr(isa, name)
        if not inspect.isclass(obj) or not dataclasses.is_dataclass(obj):
            continue
        if issubclass(obj, isa.Insn) or obj in (isa.Mem, isa.Imm):
            classes[obj.__name__] = obj
    classes["IRGlobal"] = IRGlobal
    classes["CompiledFunction"] = CompiledFunction
    return classes


_NODE_CLASSES = _collect_node_classes()

#: Node class -> its field names, computed on the first encode.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _enc(value):
    if isinstance(value, Taint):
        return {"$": "Taint", "v": int(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"$": "bytes", "h": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_enc(item) for item in value]
    cls = type(value)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if cls.__name__ not in _NODE_CLASSES or not dataclasses.is_dataclass(
            value
        ):
            raise SerializeError(
                f"cannot serialize {cls.__name__}: {value!r}"
            )
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(cls)
        )
    fields = {name: _enc(getattr(value, name)) for name in names}
    return {"$": cls.__name__, "f": fields}


def _dec(value):
    if isinstance(value, dict):
        tag = value.get("$")
        if tag == "Taint":
            return Taint(value["v"])
        if tag == "bytes":
            return bytes.fromhex(value["h"])
        cls = _NODE_CLASSES.get(tag)
        if cls is None:
            raise SerializeError(f"unknown node tag {tag!r}")
        fields = {name: _dec(v) for name, v in value["f"].items()}
        if cls is CompiledFunction:
            fields["insns"] = tuple(fields["insns"])
        return cls(**fields)
    if isinstance(value, list):
        return [_dec(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# MiniC type codec (for extern signatures).

def _enc_taint(taint) -> int:
    if isinstance(taint, Taint):
        return int(taint)
    raise SerializeError(
        f"signature taint is not concrete: {taint!r} (inference residue?)"
    )


def _enc_type(t: Type):
    if isinstance(t, VoidType):
        return {"$": "void"}
    if isinstance(t, IntType):
        return {"$": "int", "w": t.width, "t": _enc_taint(t.taint)}
    if isinstance(t, PointerType):
        return {"$": "ptr", "p": _enc_type(t.pointee), "t": _enc_taint(t.taint)}
    if isinstance(t, ArrayType):
        return {"$": "arr", "e": _enc_type(t.elem), "n": t.count}
    if isinstance(t, StructType):
        return {
            "$": "struct",
            "name": t.name,
            "t": _enc_taint(t.taint),
            "fields": [[f.name, _enc_type(f.type)] for f in t.fields],
        }
    if isinstance(t, FuncType):
        return {
            "$": "fn",
            "r": _enc_type(t.ret),
            "p": [_enc_type(p) for p in t.params],
            "v": t.varargs,
        }
    raise SerializeError(f"cannot serialize type {t!r}")


def _dec_type(doc) -> Type:
    tag = doc["$"]
    if tag == "void":
        return VoidType()
    if tag == "int":
        return IntType(doc["w"], Taint(doc["t"]))
    if tag == "ptr":
        return PointerType(_dec_type(doc["p"]), Taint(doc["t"]))
    if tag == "arr":
        return ArrayType(_dec_type(doc["e"]), doc["n"])
    if tag == "struct":
        struct = StructType(doc["name"], Taint(doc["t"]))
        struct.set_fields([(n, _dec_type(t)) for n, t in doc["fields"]])
        return struct
    if tag == "fn":
        return FuncType(
            _dec_type(doc["r"]), [_dec_type(p) for p in doc["p"]], doc["v"]
        )
    raise SerializeError(f"unknown type tag {tag!r}")


def _enc_sig(sig: ExternSig):
    return {
        "name": sig.name,
        "sig": _enc_type(sig.sig),
        "arg_taints": [_enc_taint(t) for t in sig.arg_taints],
        "ret_taint": _enc_taint(sig.ret_taint),
    }


def _dec_sig(doc) -> ExternSig:
    return ExternSig(
        name=doc["name"],
        sig=_dec_type(doc["sig"]),
        arg_taints=[Taint(t) for t in doc["arg_taints"]],
        ret_taint=Taint(doc["ret_taint"]),
    )


# ---------------------------------------------------------------------------
# Canonical envelope helpers.

def _canon(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _open_envelope(data: bytes, kind: str, expected: int) -> dict:
    try:
        doc = json.loads(data.decode())
    except (ValueError, UnicodeDecodeError) as error:
        raise SerializeError(f"corrupt {kind} artifact: {error}") from error
    if not isinstance(doc, dict):
        raise SerializeError(f"corrupt {kind} artifact: not an object")
    version = doc.get("format")
    if version != expected:
        raise SerializeError(
            f"unsupported {kind} format version {version!r} "
            f"(this toolchain writes v{expected})"
        )
    if doc.get("kind") != kind:
        raise SerializeError(
            f"artifact kind mismatch: expected {kind!r}, got {doc.get('kind')!r}"
        )
    return doc


def _malformed(kind: str, error: Exception) -> SerializeError:
    return SerializeError(
        f"malformed {kind} artifact: {type(error).__name__}: {error}"
    )


def _enc_config(config: BuildConfig) -> dict:
    return dataclasses.asdict(config)


def _dec_config(doc) -> BuildConfig:
    return BuildConfig(**doc)


# ---------------------------------------------------------------------------
# UObject.

def dump_uobject(obj: UObject) -> bytes:
    """Serialize a pre-link compilation unit to canonical bytes."""
    doc = {
        "format": FORMAT_VERSION,
        "kind": "uobject",
        "name": obj.name,
        "config": _enc_config(obj.config),
        "functions": [_enc(f) for f in obj.functions],
        # Pair list, not a JSON object: the linker places globals in
        # dict insertion order, and _canon sorts object keys.
        "globals": [[name, _enc(g)] for name, g in obj.globals.items()],
        "imports": [_enc_sig(s) for s in obj.imports],
        "externals": [_enc_sig(s) for s in obj.externals],
        "libraries": list(obj.libraries),
    }
    return _canon(doc)


def load_uobject(data: bytes) -> UObject:
    """Reconstruct a compilation unit from :func:`dump_uobject` bytes."""
    doc = _open_envelope(data, "uobject", FORMAT_VERSION)
    try:
        return UObject(
            name=doc["name"],
            functions=[_dec(f) for f in doc["functions"]],
            globals={name: _dec(g) for name, g in doc["globals"]},
            imports=[_dec_sig(s) for s in doc["imports"]],
            config=_dec_config(doc["config"]),
            externals=[_dec_sig(s) for s in doc["externals"]],
            libraries=list(doc["libraries"]),
        )
    except _DECODE_ERRORS as error:
        raise _malformed("uobject", error) from error


# ---------------------------------------------------------------------------
# Binary.

def dump_binary(binary: Binary) -> bytes:
    """Serialize a linked binary to canonical bytes.

    Byte equality of two dumps is the determinism contract's definition
    of "bit-identical binaries".
    """
    layout = binary.layout
    if layout is None:
        raise SerializeError("binary has no layout (not linked?)")
    doc = {
        "format": BINARY_FORMAT_VERSION,
        "kind": "binary",
        "config": _enc_config(binary.config),
        "code": [_enc(insn) for insn in binary.code],
        "label_addrs": dict(sorted(binary.label_addrs.items())),
        "func_magic_addrs": dict(sorted(binary.func_magic_addrs.items())),
        "global_addrs": dict(sorted(binary.global_addrs.items())),
        "global_inits": [
            [addr, _enc(init)] for addr, init in binary.global_inits
        ],
        "imports": [_enc_sig(s) for s in binary.imports],
        "externals_table_addr": binary.externals_table_addr,
        "entry": binary.entry,
        "mcall_prefix": binary.mcall_prefix,
        "mret_prefix": binary.mret_prefix,
        "function_order": list(binary.function_order),
        "layout": {
            "scheme": layout.scheme,
            "split_memory": layout.split_memory,
            "pub_globals_size": layout.pub_globals_size,
            "priv_globals_size": layout.priv_globals_size,
        },
        "read_only_ranges": [[lo, hi] for lo, hi in binary.read_only_ranges],
        "check_sites": [
            [addr, kind] for addr, kind in sorted(binary.check_sites.items())
        ],
    }
    return _canon(doc)


def load_binary(data: bytes) -> Binary:
    """Reconstruct a linked, loadable binary from :func:`dump_binary`."""
    doc = _open_envelope(data, "binary", BINARY_FORMAT_VERSION)
    try:
        return _dec_binary(doc)
    except _DECODE_ERRORS as error:
        raise _malformed("binary", error) from error


def _dec_binary(doc: dict) -> Binary:
    binary = Binary(
        code=[_dec(insn) for insn in doc["code"]],
        label_addrs=dict(doc["label_addrs"]),
        func_magic_addrs=dict(doc["func_magic_addrs"]),
        global_addrs=dict(doc["global_addrs"]),
        global_inits=[(addr, _dec(init)) for addr, init in doc["global_inits"]],
        imports=[_dec_sig(s) for s in doc["imports"]],
        externals_table_addr=doc["externals_table_addr"],
        entry=doc["entry"],
        config=_dec_config(doc["config"]),
        mcall_prefix=doc["mcall_prefix"],
        mret_prefix=doc["mret_prefix"],
        function_order=list(doc["function_order"]),
    )
    lay = doc["layout"]
    binary.layout = make_layout(
        lay["scheme"],
        lay["split_memory"],
        lay["pub_globals_size"],
        lay["priv_globals_size"],
    )
    binary.read_only_ranges = [(lo, hi) for lo, hi in doc["read_only_ranges"]]
    binary.check_sites = {addr: kind for addr, kind in doc["check_sites"]}
    return binary


# ---------------------------------------------------------------------------
# Content addressing.

def _hexdigest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_hash(source: str) -> str:
    """Content hash of one compilation unit's source text."""
    return _hexdigest(source.encode())


def config_fingerprint(config: BuildConfig) -> str:
    """Content hash of every field of a build configuration."""
    return _hexdigest(_canon(_enc_config(config)))


def object_cache_key(
    source: str,
    config: BuildConfig,
    seed: int | None,
    allow_undefined: bool = False,
) -> str:
    """The content-addressed cache key for one compiled unit.

    Key components: serialization format version, source hash, config
    fingerprint, link seed, the separate-compilation mode flag, and the
    (name, signature digest) pairs of the library units the source may
    use (:func:`~repro.build.library.library_signatures`).  Distinct
    configs and distinct seeds can never collide — each component is
    hashed into the digest.
    """
    parts = "\0".join(
        (
            f"v{FORMAT_VERSION}",
            source_hash(source),
            config_fingerprint(config),
            repr(seed),
            repr(bool(allow_undefined)),
            repr(library_signatures(source)),
        )
    )
    return _hexdigest(parts.encode())
