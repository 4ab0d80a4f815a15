"""Abstract syntax tree for MiniC.

The parser produces *type expressions* (:class:`TypeExpr`) rather than
resolved types; semantic analysis converts them to
:mod:`repro.minic.types` values, choosing concrete taints for top-level
positions and fresh inference variables for locals (Section 2 of the
paper: only top-level definitions need annotations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SourceLocation

# --------------------------------------------------------------------------
# Type expressions


@dataclass
class FuncSigExpr:
    """Parameter list of a function-pointer declarator."""

    params: list["TypeExpr"]
    varargs: bool


@dataclass
class TypeExpr:
    """An unresolved type as written in source.

    ``private`` qualifies the *base* type (the innermost level), as in
    the paper's ``private int *p``.  ``ptr`` counts pointer levels
    applied outside the base.  ``func`` marks a function-pointer
    declarator ``ret (*name)(params)`` — in that case ``ptr`` levels and
    the base describe the return type.
    """

    base: str  # "int" | "char" | "void" | "struct"
    loc: SourceLocation
    struct_name: str | None = None
    private: bool = False
    ptr: int = 0
    array_len: int | None = None
    func: FuncSigExpr | None = None


# --------------------------------------------------------------------------
# Expressions


class Expr:
    loc: SourceLocation
    # Filled in by semantic analysis:
    type = None  # resolved Type


@dataclass
class IntLit(Expr):
    value: int
    loc: SourceLocation


@dataclass
class StringLit(Expr):
    value: bytes
    loc: SourceLocation


@dataclass
class Ident(Expr):
    name: str
    loc: SourceLocation


@dataclass
class Unary(Expr):
    op: str  # "-", "~", "!", "*", "&"
    operand: Expr
    loc: SourceLocation


@dataclass
class Binary(Expr):
    op: str  # arithmetic/comparison/logical/bitwise/shift
    left: Expr
    right: Expr
    loc: SourceLocation


@dataclass
class Assign(Expr):
    """``target = value`` or compound ``target op= value``."""

    target: Expr
    value: Expr
    loc: SourceLocation
    op: str | None = None  # None for plain "=", else "+", "-", ...


@dataclass
class IncDec(Expr):
    """``x++`` / ``--x``; only legal in value-discarding positions."""

    target: Expr
    delta: int  # +1 or -1
    loc: SourceLocation


@dataclass
class Call(Expr):
    callee: Expr
    args: list[Expr]
    loc: SourceLocation


@dataclass
class Index(Expr):
    base: Expr
    index: Expr
    loc: SourceLocation


@dataclass
class Member(Expr):
    base: Expr
    name: str
    arrow: bool
    loc: SourceLocation


@dataclass
class Cast(Expr):
    to: TypeExpr
    operand: Expr
    loc: SourceLocation


@dataclass
class SizeofType(Expr):
    of: TypeExpr
    loc: SourceLocation


@dataclass
class InitList(Expr):
    """A brace-enclosed list of integer constants (global arrays)."""

    values: list[int]
    loc: SourceLocation


@dataclass
class TlsBase(Expr):
    """``__tlsbase()`` — the per-thread TLS base: rsp with its low 20
    bits masked to zero (Section 3, multi-threading support)."""

    loc: SourceLocation


@dataclass
class VarArg(Expr):
    """``__vararg(i)`` — read the i-th variadic stack slot (public)."""

    index: Expr
    loc: SourceLocation


# --------------------------------------------------------------------------
# Statements


class Stmt:
    loc: SourceLocation


@dataclass
class Block(Stmt):
    stmts: list[Stmt]
    loc: SourceLocation


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Stmt | None
    loc: SourceLocation


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt
    loc: SourceLocation


@dataclass
class For(Stmt):
    init: Stmt | None
    cond: Expr | None
    step: Expr | None
    body: Stmt
    loc: SourceLocation


@dataclass
class SwitchCase:
    value: int
    stmts: list[Stmt]
    loc: SourceLocation


@dataclass
class Switch(Stmt):
    """C-style switch with fallthrough; case values are int literals."""

    cond: Expr
    cases: list[SwitchCase]
    default_stmts: "list[Stmt] | None"
    loc: SourceLocation


@dataclass
class Return(Stmt):
    value: Expr | None
    loc: SourceLocation


@dataclass
class Break(Stmt):
    loc: SourceLocation


@dataclass
class Continue(Stmt):
    loc: SourceLocation


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    loc: SourceLocation


@dataclass
class LocalDecl(Stmt):
    decl_type: TypeExpr
    name: str
    init: Expr | None
    loc: SourceLocation


# --------------------------------------------------------------------------
# Top-level declarations


@dataclass
class Param:
    decl_type: TypeExpr
    name: str
    loc: SourceLocation


@dataclass
class FuncDef:
    """A function definition or an ``extern``/``extern trusted``
    prototype.  ``trusted`` marks a T-library import whose annotated
    signature is *trusted* (the paper's exported-from-T interface)."""

    ret_type: TypeExpr
    name: str
    params: list[Param]
    varargs: bool
    body: Block | None
    loc: SourceLocation
    trusted: bool = False
    extern: bool = False
    # The library unit that defines this function, on the bodiless
    # prototypes a ``use`` directive stands for (see repro.build.library).
    library: str | None = None


@dataclass
class GlobalVar:
    decl_type: TypeExpr
    name: str
    init: Expr | None
    loc: SourceLocation


@dataclass
class StructDef:
    name: str
    fields: list[tuple[TypeExpr, str]]
    loc: SourceLocation


@dataclass
class Use:
    """A file-scope ``use <library>;`` directive: the unit links against
    that library unit and type-checks against its prototypes."""

    name: str
    loc: SourceLocation


@dataclass
class Program:
    decls: list[object] = field(default_factory=list)  # FuncDef|GlobalVar|StructDef|Use
    # The libraries the unit uses, in ``use`` order, once the build
    # driver has replaced each Use with its library's prototypes.
    libraries: tuple[str, ...] = ()
