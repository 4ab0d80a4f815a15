"""Library units: MiniC sources other units link against by name.

A unit says ``use libmini;`` at file scope.  The build driver then

* replaces the directive with bodiless prototypes of every function the
  library defines (:func:`resolve_uses`), so the unit type-checks
  against the library's signatures and lowers its calls to them as
  cross-object externals;
* keys the unit's cache entry on a digest of those signatures
  (:func:`library_signatures`), so a library body edit leaves using
  units cached while a signature edit rebuilds them;
* compiles the library itself once per (config, seed) and session, and
  links it ahead of the using units (``BuildSession.link_units``).

Libraries do not ``use`` other libraries, and export functions only:
their globals stay private to them.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from functools import lru_cache

from ..apps.libmini import LIBMINI
from ..errors import SemaError, SourceLocation
from ..minic import ast_nodes as ast
from ..minic.parser import parse

#: Library name -> MiniC source.
LIBRARIES: dict[str, str] = {"libmini": LIBMINI}


@dataclass(frozen=True)
class Library:
    """A library's exported interface, derived from its source."""

    name: str
    source: str
    #: Bodiless prototypes of every function the library defines, in
    #: definition order; their locations cite ``<name>:<line>``.
    prototypes: tuple[ast.FuncDef, ...]
    #: sha256 over the prototypes' signatures (types and names only).
    signature_digest: str


def library(name: str, loc: SourceLocation | None = None) -> Library:
    """The registered library ``name``; a SemaError at ``loc`` if none."""
    source = LIBRARIES.get(name)
    if source is None:
        raise SemaError(f"unknown library {name!r}", loc)
    return _load(name, source)


@lru_cache(maxsize=16)
def _load(name: str, source: str) -> Library:
    prototypes = tuple(
        replace(decl, body=None, extern=True, library=name)
        for decl in parse(source, name).decls
        if isinstance(decl, ast.FuncDef) and decl.body is not None
    )
    shapes = repr(
        [
            (
                proto.name,
                _shape(proto.ret_type),
                [_shape(p.decl_type) for p in proto.params],
                proto.varargs,
            )
            for proto in prototypes
        ]
    )
    digest = hashlib.sha256(shapes.encode()).hexdigest()
    return Library(name, source, prototypes, digest)


def _shape(texpr: ast.TypeExpr) -> tuple:
    func = texpr.func
    return (
        texpr.base,
        texpr.struct_name,
        texpr.private,
        texpr.ptr,
        texpr.array_len,
        None
        if func is None
        else ([_shape(p) for p in func.params], func.varargs),
    )


def resolve_uses(program: ast.Program) -> ast.Program:
    """``program`` with each ``use`` replaced by its library's
    prototypes, recording the libraries in ``use`` order.

    An unknown library, a repeated ``use``, and a function or global
    of the unit that a used library already defines are SemaErrors.
    """
    if not any(isinstance(decl, ast.Use) for decl in program.decls):
        return program
    decls: list[object] = []
    libraries: list[str] = []
    exported: dict[str, str] = {}
    for decl in program.decls:
        if not isinstance(decl, ast.Use):
            decls.append(decl)
            continue
        if decl.name in libraries:
            raise SemaError(f"duplicate 'use {decl.name};'", decl.loc)
        lib = library(decl.name, decl.loc)
        libraries.append(decl.name)
        decls.extend(lib.prototypes)
        for proto in lib.prototypes:
            exported[proto.name] = decl.name
    for decl in decls:
        defines = isinstance(decl, ast.GlobalVar) or (
            isinstance(decl, ast.FuncDef) and decl.body is not None
        )
        if defines and decl.name in exported:
            raise SemaError(
                f"{decl.name!r} is already defined by library "
                f"{exported[decl.name]!r}",
                decl.loc,
            )
    return ast.Program(decls, libraries=tuple(libraries))


def library_signatures(source: str) -> tuple[tuple[str, str], ...]:
    """(name, signature digest) of every library ``source`` names as a
    word: a superset of the libraries it uses, found without parsing,
    for the unit's cache key."""
    return tuple(
        (name, _load(name, text).signature_digest)
        for name, text in LIBRARIES.items()
        if re.search(rf"\b{re.escape(name)}\b", source)
    )
