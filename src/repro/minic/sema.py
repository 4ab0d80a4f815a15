"""Semantic analysis for MiniC: names, types, and taint constraints.

This stage performs what ConfLLVM's front-end and qualifier-inference
pass do together (Section 5.1):

* resolve names and check MiniC's typing rules;
* build the subtyping constraint set over taint qualifiers — top-level
  positions (globals, function signatures, struct fields, casts) get
  *concrete* taints from their ``private`` annotations, while locals
  and temporaries get fresh inference variables;
* solve the constraints (``repro.taint.solve``) and substitute the
  solution back into every type, so later stages see concrete taints;
* in strict mode (the paper's default for all experiments), reject
  branches on private data (implicit flows) at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ImplicitFlowError, SemaError, SourceLocation
from ..taint.lattice import PRIVATE, PUBLIC, Taint, TaintTerm, TaintVar, is_concrete, join
from ..taint.solve import ConstraintSet, Solution, solve
from . import ast_nodes as ast
from .types import (
    CHAR,
    INT,
    VOID,
    ArrayType,
    FuncType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    concretize,
    taint_positions,
)

_COMPARISONS = {"==", "!=", "<", ">", "<=", ">="}
_LOGICAL = {"&&", "||"}


@dataclass
class LocalSymbol:
    """A local variable (or parameter) within a function."""

    name: str
    type: Type
    loc: SourceLocation
    is_param: bool = False
    param_index: int = -1
    address_taken: bool = False
    uid: int = -1


@dataclass
class FunctionInfo:
    name: str
    type: FuncType
    param_names: list[str]
    trusted: bool
    extern: bool
    loc: SourceLocation
    body: ast.Block | None = None
    locals: list[LocalSymbol] = field(default_factory=list)
    varargs: bool = False
    # The library unit defining a function this unit only declares.
    library: str | None = None


@dataclass
class GlobalInfo:
    name: str
    type: Type
    loc: SourceLocation
    init_int: int | None = None
    init_string: bytes | None = None


@dataclass
class CheckedProgram:
    """Output of semantic analysis, consumed by IR lowering."""

    structs: dict[str, StructType]
    functions: dict[str, FunctionInfo]
    globals: dict[str, GlobalInfo]
    strings: list[bytes]
    implicit_flow_warnings: list[SourceLocation]
    ast: ast.Program


class Sema:
    def __init__(
        self,
        program: ast.Program,
        strict: bool = True,
        all_private: bool = False,
    ):
        self._program = program
        # In the all-private scenario branching on private data cannot
        # leak (there is nothing public to leak into), so strict mode
        # is moot (§5.1, "Implicit flows").
        self._strict = strict and not all_private
        self._all_private = all_private
        self._structs: dict[str, StructType] = {}
        self._functions: dict[str, FunctionInfo] = {}
        self._globals: dict[str, GlobalInfo] = {}
        self._strings: list[bytes] = []
        self._constraints = ConstraintSet()
        self._branch_terms: list[tuple[TaintTerm, SourceLocation]] = []
        self._typed_nodes: list[ast.Expr] = []
        self._local_uid = 0
        # Per-function state:
        self._scopes: list[dict[str, LocalSymbol]] = []
        self._current: FunctionInfo | None = None

    # ------------------------------------------------------------------
    # Type resolution

    def _resolve_type(
        self, texpr: ast.TypeExpr, concrete: bool, allow_void: bool = False
    ) -> Type:
        """Convert a TypeExpr to a Type.

        ``concrete`` selects the annotation policy: top-level positions
        default to PUBLIC; inferred positions (locals) get fresh
        TaintVars.  ``private`` always pins the base level to PRIVATE.
        """

        def level(label: str) -> TaintTerm:
            if concrete:
                # All-private mode: unannotated top-level data defaults
                # to private (pointer levels stay public so function
                # pointers remain callable).
                if self._all_private and label not in ("ptr", "fnptr"):
                    return PRIVATE
                return PUBLIC
            return TaintVar(label)

        if texpr.base == "void":
            base: Type = VOID
        elif texpr.base == "int":
            base = IntType(8, PRIVATE if texpr.private else level("int"))
        elif texpr.base == "char":
            base = IntType(1, PRIVATE if texpr.private else level("char"))
        else:
            struct = self._structs.get(texpr.struct_name or "")
            if struct is None:
                raise SemaError(
                    f"unknown struct {texpr.struct_name!r}", texpr.loc
                )
            if not struct.complete and texpr.ptr == 0:
                # Pointers to incomplete (self-referential) structs are
                # fine; by-value use of one is not.
                raise SemaError(
                    f"struct {texpr.struct_name!r} is incomplete here",
                    texpr.loc,
                )
            base = struct.with_taint(
                PRIVATE if texpr.private else level("struct")
            )
        if texpr.base == "void" and texpr.private:
            raise SemaError("void cannot be private", texpr.loc)

        result = base
        for _ in range(texpr.ptr):
            result = PointerType(result, level("ptr"))

        if texpr.func is not None:
            params = [
                self._resolve_type(p, concrete=True) for p in texpr.func.params
            ]
            ftype = FuncType(result, params, texpr.func.varargs)
            result = PointerType(ftype, level("fnptr"))
        elif texpr.array_len is not None:
            if isinstance(result, VoidType):
                raise SemaError("array of void", texpr.loc)
            result = ArrayType(result, texpr.array_len)

        if isinstance(result, VoidType) and not allow_void:
            raise SemaError("variable of type void", texpr.loc)
        return result

    # ------------------------------------------------------------------
    # Top-level collection

    def run(self) -> CheckedProgram:
        self._collect_structs()
        self._collect_signatures_and_globals()
        for decl in self._program.decls:
            if isinstance(decl, ast.FuncDef) and decl.body is not None:
                self._check_function(decl)
        solution = solve(self._constraints)
        warnings = self._handle_implicit_flows(solution)
        self._substitute(solution)
        return CheckedProgram(
            structs=self._structs,
            functions=self._functions,
            globals=self._globals,
            strings=self._strings,
            implicit_flow_warnings=warnings,
            ast=self._program,
        )

    def _collect_structs(self) -> None:
        # Two passes so structs can contain pointers to later structs.
        for decl in self._program.decls:
            if isinstance(decl, ast.StructDef):
                if decl.name in self._structs:
                    raise SemaError(f"duplicate struct {decl.name!r}", decl.loc)
                self._structs[decl.name] = StructType(decl.name)
        for decl in self._program.decls:
            if isinstance(decl, ast.StructDef):
                struct = self._structs[decl.name]
                fields: list[tuple[str, Type]] = []
                for texpr, fname in decl.fields:
                    ftype = self._resolve_type(texpr, concrete=True)
                    if isinstance(ftype, StructType) and not ftype.complete:
                        raise SemaError(
                            f"recursive struct field {fname!r}", texpr.loc
                        )
                    fields.append((fname, ftype))
                struct.set_fields(fields)

    def _collect_signatures_and_globals(self) -> None:
        for decl in self._program.decls:
            if isinstance(decl, ast.FuncDef):
                self._declare_function(decl)
            elif isinstance(decl, ast.GlobalVar):
                self._declare_global(decl)
            elif isinstance(decl, ast.Use):
                raise SemaError(
                    f"'use {decl.name};' is resolved by the build driver "
                    "(repro.build), not by semantic analysis",
                    decl.loc,
                )

    def _declare_function(self, decl: ast.FuncDef) -> None:
        # Trusted (T) signatures are part of the trusted interface and
        # keep their literal annotations even in all-private mode.
        saved_all_private = self._all_private
        if decl.trusted:
            self._all_private = False
        try:
            ret = self._resolve_type(
                decl.ret_type, concrete=True, allow_void=True
            )
            params = [
                self._resolve_type(p.decl_type, concrete=True)
                for p in decl.params
            ]
        finally:
            self._all_private = saved_all_private
        for p, ptype in zip(decl.params, params):
            if isinstance(ptype, ArrayType):
                raise SemaError("array parameters must be pointers", p.loc)
        if len(params) > 4:
            # The paper's x64 (Windows) calling convention: 4 argument
            # registers, whose taints the CFI magic sequence encodes.
            raise SemaError(
                "at most 4 fixed parameters are supported (the calling "
                "convention has 4 argument registers)",
                decl.loc,
            )
        ftype = FuncType(ret, params, decl.varargs)
        existing = self._functions.get(decl.name)
        if existing is not None:
            if not existing.type.same_shape(ftype):
                raise SemaError(
                    f"conflicting declarations of {decl.name!r}", decl.loc
                )
            if decl.body is not None:
                if existing.body is not None:
                    raise SemaError(f"redefinition of {decl.name!r}", decl.loc)
                existing.body = decl.body
                existing.extern = False
                existing.param_names = [p.name for p in decl.params]
            existing.library = existing.library or decl.library
            return
        self._functions[decl.name] = FunctionInfo(
            name=decl.name,
            type=ftype,
            param_names=[p.name for p in decl.params],
            trusted=decl.trusted,
            extern=decl.body is None,
            loc=decl.loc,
            body=decl.body,
            varargs=decl.varargs,
            library=decl.library,
        )

    def _declare_global(self, decl: ast.GlobalVar) -> None:
        if decl.name in self._globals:
            raise SemaError(f"duplicate global {decl.name!r}", decl.loc)
        gtype = self._resolve_type(decl.decl_type, concrete=True)
        info = GlobalInfo(decl.name, gtype, decl.loc)
        if decl.init is not None:
            info.init_int, info.init_string = self._const_init(decl.init, gtype)
        self._globals[decl.name] = info

    def _const_init(
        self, init: ast.Expr, gtype: Type
    ) -> tuple[int | None, bytes | None]:
        if isinstance(init, ast.InitList):
            if not isinstance(gtype, ArrayType) or not isinstance(
                gtype.elem, IntType
            ):
                raise SemaError(
                    "initializer lists need an int/char array", init.loc
                )
            if len(init.values) > gtype.count:
                raise SemaError("too many initializers", init.loc)
            width = gtype.elem.width
            data = b"".join(
                (v % (1 << (8 * width))).to_bytes(width, "little")
                for v in init.values
            )
            return None, data.ljust(gtype.size, b"\x00")
        if isinstance(init, ast.IntLit):
            return init.value, None
        if isinstance(init, ast.Unary) and init.op == "-":
            operand = init.operand
            if isinstance(operand, ast.IntLit):
                return -operand.value, None
        if isinstance(init, ast.StringLit):
            if isinstance(gtype, (PointerType, ArrayType)):
                return None, init.value + b"\x00"
            raise SemaError("string initializer needs char* or char[]", init.loc)
        raise SemaError("global initializer must be a constant", init.loc)

    # ------------------------------------------------------------------
    # Function bodies

    def _check_function(self, decl: ast.FuncDef) -> None:
        info = self._functions[decl.name]
        self._current = info
        self._scopes = [{}]
        for index, (pname, ptype) in enumerate(
            zip(info.param_names, info.type.params)
        ):
            symbol = LocalSymbol(
                pname, ptype, decl.loc, is_param=True, param_index=index
            )
            self._bind(symbol)
        assert decl.body is not None
        self._check_block(decl.body)
        self._current = None

    def _bind(self, symbol: LocalSymbol) -> None:
        scope = self._scopes[-1]
        if symbol.name in scope:
            raise SemaError(f"duplicate local {symbol.name!r}", symbol.loc)
        symbol.uid = self._local_uid
        self._local_uid += 1
        scope[symbol.name] = symbol
        assert self._current is not None
        self._current.locals.append(symbol)

    def _lookup_local(self, name: str) -> LocalSymbol | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _check_block(self, block: ast.Block) -> None:
        self._scopes.append({})
        for stmt in block.stmts:
            self._check_stmt(stmt)
        self._scopes.pop()

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            self._check_local_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._check_branch_cond(stmt.cond)
            self._check_stmt(stmt.then)
            if stmt.els is not None:
                self._check_stmt(stmt.els)
        elif isinstance(stmt, ast.While):
            self._check_branch_cond(stmt.cond)
            self._check_stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            self._scopes.append({})
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.cond is not None:
                self._check_branch_cond(stmt.cond)
            if stmt.step is not None:
                self._check_expr(stmt.step, discard=True)
            self._check_stmt(stmt.body)
            self._scopes.pop()
        elif isinstance(stmt, ast.Switch):
            self._check_switch(stmt)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, discard=True)
        else:  # pragma: no cover - parser produces no other nodes
            raise SemaError(f"unknown statement {type(stmt).__name__}", stmt.loc)

    def _check_local_decl(self, stmt: ast.LocalDecl) -> None:
        ltype = self._resolve_type(stmt.decl_type, concrete=False)
        symbol = LocalSymbol(stmt.name, ltype, stmt.loc)
        if stmt.init is not None:
            if isinstance(ltype, ArrayType):
                raise SemaError("array locals cannot have initializers", stmt.loc)
            itype = self._check_expr(stmt.init)
            self._check_shape_assignable(itype, ltype, stmt.loc)
            self._flow(itype, ltype, "initializer", stmt.loc)
        self._bind(symbol)
        stmt.symbol = symbol

    def _check_switch(self, stmt: ast.Switch) -> None:
        ctype = self._check_expr(stmt.cond)
        if not isinstance(ctype, IntType):
            raise SemaError("switch condition must be an integer", stmt.loc)
        # A switch is a (multi-way) branch: strict mode rejects private
        # scrutinees just like if/while conditions.
        self._note_branch(ctype.taint, stmt.loc)
        seen: set[int] = set()
        for case in stmt.cases:
            if case.value in seen:
                raise SemaError(
                    f"duplicate case label {case.value}", case.loc
                )
            seen.add(case.value)
        self._scopes.append({})
        for case in stmt.cases:
            for inner in case.stmts:
                self._check_stmt(inner)
        if stmt.default_stmts is not None:
            for inner in stmt.default_stmts:
                self._check_stmt(inner)
        self._scopes.pop()

    def _check_return(self, stmt: ast.Return) -> None:
        assert self._current is not None
        ret = self._current.type.ret
        if stmt.value is None:
            if not isinstance(ret, VoidType):
                raise SemaError("missing return value", stmt.loc)
            return
        if isinstance(ret, VoidType):
            raise SemaError("void function returns a value", stmt.loc)
        vtype = self._check_expr(stmt.value)
        self._flow(vtype, ret, "return value", stmt.loc)

    def _check_branch_cond(self, cond: ast.Expr) -> None:
        ctype = self._check_expr(cond)
        if not ctype.is_scalar:
            raise SemaError("branch condition must be scalar", cond.loc)
        self._note_branch(ctype.taint, cond.loc)

    def _note_branch(self, term: TaintTerm, loc: SourceLocation) -> None:
        """Record a branch condition's taint for implicit-flow handling."""
        self._branch_terms.append((term, loc))

    def _handle_implicit_flows(self, solution: Solution) -> list[SourceLocation]:
        warnings: list[SourceLocation] = []
        for term, loc in self._branch_terms:
            if solution.resolve(term) is PRIVATE:
                if self._strict:
                    raise ImplicitFlowError(
                        "branch on private data (implicit flow)", loc
                    )
                warnings.append(loc)
        return warnings

    # ------------------------------------------------------------------
    # Flow constraints

    def _flow(self, src: Type, dst: Type, reason: str, loc: SourceLocation) -> None:
        """Constrain a data flow from ``src`` into ``dst``.

        Outermost levels are covariant (src ⊑ dst); all inner positions
        of pointers are invariant, the standard soundness requirement
        for mutable references.
        """
        self._constraints.add_le(src.taint, dst.taint, reason, loc)
        if isinstance(src, PointerType) and isinstance(dst, PointerType):
            if dst.is_void_ptr or src.is_void_ptr:
                return
            self._invariant(src.pointee, dst.pointee, reason, loc)

    def _invariant(self, a: Type, b: Type, reason: str, loc: SourceLocation) -> None:
        for ta, tb in zip(taint_positions(a), taint_positions(b)):
            self._constraints.add_eq(ta, tb, reason + " (pointee)", loc)

    def _check_shape_assignable(
        self, src: Type, dst: Type, loc: SourceLocation
    ) -> None:
        if isinstance(dst, IntType) and isinstance(src, IntType):
            return  # int <-> char conversions are fine
        if isinstance(dst, PointerType) and isinstance(src, PointerType):
            if dst.is_void_ptr or src.is_void_ptr:
                return
            if src.pointee.same_shape(dst.pointee):
                return
            raise SemaError(
                f"incompatible pointer assignment ({src!r} to {dst!r}); "
                "use an explicit cast",
                loc,
            )
        if isinstance(dst, PointerType) and isinstance(src, IntType):
            raise SemaError("assigning int to pointer needs a cast", loc)
        if isinstance(dst, IntType) and isinstance(src, PointerType):
            raise SemaError("assigning pointer to int needs a cast", loc)
        raise SemaError(f"cannot assign {src!r} to {dst!r}", loc)

    # ------------------------------------------------------------------
    # Expressions

    def _set_type(self, node: ast.Expr, type_: Type) -> Type:
        node.type = type_
        self._typed_nodes.append(node)
        return type_

    def _decay(self, node: ast.Expr, type_: Type) -> Type:
        """Array-to-pointer decay for value contexts.

        The node is flagged so IR lowering knows the pointer value is
        the *address of in-place storage*, not a loaded pointer.
        """
        if isinstance(type_, ArrayType):
            node.decayed_array = True
            node.array_type = type_
            return PointerType(type_.elem, PUBLIC)
        return type_

    def _check_expr(self, node: ast.Expr, discard: bool = False) -> Type:
        type_ = self._check_expr_inner(node, discard)
        return type_

    def _check_expr_inner(self, node: ast.Expr, discard: bool) -> Type:
        if isinstance(node, ast.IntLit):
            return self._set_type(node, IntType(8, PUBLIC))
        if isinstance(node, ast.StringLit):
            self._strings.append(node.value + b"\x00")
            return self._set_type(node, PointerType(IntType(1, PUBLIC), PUBLIC))
        if isinstance(node, ast.Ident):
            return self._check_ident(node)
        if isinstance(node, ast.Unary):
            return self._check_unary(node)
        if isinstance(node, ast.Binary):
            return self._check_binary(node)
        if isinstance(node, ast.Assign):
            return self._check_assign(node)
        if isinstance(node, ast.IncDec):
            if not discard:
                raise SemaError("++/-- value is not supported; use x += 1", node.loc)
            ttype = self._check_expr(node.target)
            if not self._is_lvalue(node.target):
                raise SemaError("++/-- needs an lvalue", node.loc)
            if not ttype.is_scalar:
                raise SemaError("++/-- needs a scalar", node.loc)
            return self._set_type(node, ttype)
        if isinstance(node, ast.Call):
            return self._check_call(node)
        if isinstance(node, ast.Index):
            return self._check_index(node)
        if isinstance(node, ast.Member):
            return self._check_member(node)
        if isinstance(node, ast.Cast):
            return self._check_cast(node)
        if isinstance(node, ast.SizeofType):
            of = self._resolve_type(node.of, concrete=True)
            node.computed_size = of.size
            return self._set_type(node, IntType(8, PUBLIC))
        if isinstance(node, ast.VarArg):
            return self._check_vararg(node)
        if isinstance(node, ast.TlsBase):
            # The TLS base is an address into the (public) stack.
            return self._set_type(node, IntType(8, PUBLIC))
        raise SemaError(f"unknown expression {type(node).__name__}", node.loc)

    def _check_ident(self, node: ast.Ident) -> Type:
        symbol = self._lookup_local(node.name)
        if symbol is not None:
            node.binding = ("local", symbol)
            return self._set_type(node, self._decay(node, symbol.type))
        if node.name in self._globals:
            info = self._globals[node.name]
            node.binding = ("global", info)
            return self._set_type(node, self._decay(node, info.type))
        if node.name in self._functions:
            info = self._functions[node.name]
            node.binding = ("func", info)
            return self._set_type(node, PointerType(info.type, PUBLIC))
        raise SemaError(f"unknown identifier {node.name!r}", node.loc)

    def _is_lvalue(self, node: ast.Expr) -> bool:
        if isinstance(node, ast.Ident):
            return node.binding[0] in ("local", "global") and not isinstance(
                self._binding_type(node), ArrayType
            )
        if isinstance(node, ast.Unary) and node.op == "*":
            return True
        if isinstance(node, (ast.Index, ast.Member)):
            return True
        return False

    def _binding_type(self, node: ast.Ident) -> Type:
        kind, info = node.binding
        return info.type

    def _lvalue_storage_type(self, node: ast.Expr) -> Type:
        """The declared type of the storage an lvalue denotes (before
        array decay), used for address-of."""
        if isinstance(node, ast.Ident):
            return self._binding_type(node)
        assert node.type is not None
        return node.type

    def _check_unary(self, node: ast.Unary) -> Type:
        if node.op == "&":
            otype = self._check_expr(node.operand)
            if isinstance(node.operand, ast.Ident):
                kind, info = node.operand.binding
                if kind == "func":
                    return self._set_type(node, PointerType(info.type, PUBLIC))
                if kind == "local":
                    info.address_taken = True
                storage = info.type
            elif self._is_lvalue(node.operand):
                storage = self._lvalue_storage_type(node.operand)
            else:
                raise SemaError("cannot take address of rvalue", node.loc)
            if isinstance(storage, ArrayType):
                storage = storage.elem
            return self._set_type(
                node, PointerType(storage, TaintVar("addrof"))
            )
        otype = self._check_expr(node.operand)
        if node.op == "*":
            if not isinstance(otype, PointerType):
                raise SemaError("dereference of non-pointer", node.loc)
            if isinstance(otype.pointee, (VoidType, FuncType)):
                raise SemaError("dereference of void*/function pointer", node.loc)
            return self._set_type(node, self._decay(node, otype.pointee))
        if not isinstance(otype, IntType):
            raise SemaError(f"unary {node.op} needs an integer", node.loc)
        return self._set_type(node, IntType(8, otype.taint))

    def _join_terms(self, a: TaintTerm, b: TaintTerm, loc) -> TaintTerm:
        if is_concrete(a) and is_concrete(b):
            return join(a, b)
        if a is b:
            return a
        result = TaintVar("join")
        self._constraints.add_le(a, result, "operand", loc)
        self._constraints.add_le(b, result, "operand", loc)
        return result

    def _check_binary(self, node: ast.Binary) -> Type:
        ltype = self._check_expr(node.left)
        rtype = self._check_expr(node.right)
        if node.op in _LOGICAL:
            # Short-circuit operators branch on their operands.
            self._note_branch(ltype.taint, node.loc)
            self._note_branch(rtype.taint, node.loc)
            if not (ltype.is_scalar and rtype.is_scalar):
                raise SemaError("&&/|| need scalar operands", node.loc)
            return self._set_type(node, IntType(8, PUBLIC))
        if isinstance(ltype, PointerType) or isinstance(rtype, PointerType):
            return self._check_pointer_binary(node, ltype, rtype)
        if not (isinstance(ltype, IntType) and isinstance(rtype, IntType)):
            raise SemaError(f"invalid operands to {node.op}", node.loc)
        taint = self._join_terms(ltype.taint, rtype.taint, node.loc)
        return self._set_type(node, IntType(8, taint))

    def _check_pointer_binary(
        self, node: ast.Binary, ltype: Type, rtype: Type
    ) -> Type:
        if node.op in _COMPARISONS:
            taint = self._join_terms(ltype.taint, rtype.taint, node.loc)
            return self._set_type(node, IntType(8, taint))
        if node.op == "+" or node.op == "-":
            if isinstance(ltype, PointerType) and isinstance(rtype, IntType):
                return self._set_type(node, ltype)
            if (
                node.op == "-"
                and isinstance(ltype, PointerType)
                and isinstance(rtype, PointerType)
            ):
                taint = self._join_terms(ltype.taint, rtype.taint, node.loc)
                return self._set_type(node, IntType(8, taint))
            if (
                node.op == "+"
                and isinstance(ltype, IntType)
                and isinstance(rtype, PointerType)
            ):
                return self._set_type(node, rtype)
        raise SemaError(f"invalid pointer arithmetic {node.op}", node.loc)

    def _check_assign(self, node: ast.Assign) -> Type:
        ttype = self._check_expr(node.target)
        if not self._is_lvalue(node.target):
            raise SemaError("assignment target is not an lvalue", node.loc)
        vtype = self._check_expr(node.value)
        if node.op is not None:
            if not (isinstance(ttype, IntType) or isinstance(ttype, PointerType)):
                raise SemaError("compound assignment needs scalar", node.loc)
            if isinstance(ttype, PointerType) and node.op not in ("+", "-"):
                raise SemaError("invalid compound op on pointer", node.loc)
            if isinstance(ttype, PointerType) and not isinstance(vtype, IntType):
                raise SemaError("pointer += needs integer", node.loc)
            if isinstance(ttype, IntType) and not isinstance(vtype, IntType):
                raise SemaError("compound assignment needs integer value", node.loc)
            self._constraints.add_le(
                vtype.taint, ttype.taint, "compound assignment", node.loc
            )
            return self._set_type(node, ttype)
        self._check_shape_assignable(vtype, ttype, node.loc)
        self._flow(vtype, ttype, "assignment", node.loc)
        return self._set_type(node, ttype)

    def _check_call(self, node: ast.Call) -> Type:
        callee_type = self._check_expr(node.callee)
        if not (
            isinstance(callee_type, PointerType)
            and isinstance(callee_type.pointee, FuncType)
        ):
            raise SemaError("call of non-function", node.loc)
        ftype = callee_type.pointee
        is_direct = (
            isinstance(node.callee, ast.Ident) and node.callee.binding[0] == "func"
        )
        if not is_direct:
            # Indirect call: the function pointer must be public (the
            # CFI check requires a public target, Appendix A icall rule).
            self._constraints.add_le(
                callee_type.taint, PUBLIC, "indirect call target", node.loc
            )
        fixed = len(ftype.params)
        if len(node.args) < fixed or (len(node.args) > fixed and not ftype.varargs):
            raise SemaError(
                f"wrong number of arguments ({len(node.args)} for {fixed})",
                node.loc,
            )
        for arg, ptype in zip(node.args, ftype.params):
            atype = self._check_expr(arg)
            self._check_shape_assignable(atype, ptype, arg.loc)
            self._flow(atype, ptype, "argument", arg.loc)
        for arg in node.args[fixed:]:
            atype = self._check_expr(arg)
            if not atype.is_scalar:
                raise SemaError("variadic argument must be scalar", arg.loc)
            # Variadic arguments are spilled to the public stack, so
            # every taint position must be public.
            for term in taint_positions(atype):
                self._constraints.add_eq(
                    term, PUBLIC, "variadic argument", arg.loc
                )
        return self._set_type(node, self._decay(node, ftype.ret))

    def _check_index(self, node: ast.Index) -> Type:
        btype = self._check_expr(node.base)
        itype = self._check_expr(node.index)
        if not isinstance(itype, IntType):
            raise SemaError("array index must be an integer", node.loc)
        if isinstance(btype, PointerType):
            elem = btype.pointee
        elif isinstance(btype, ArrayType):  # pragma: no cover - decay hides this
            elem = btype.elem
        else:
            raise SemaError("indexing a non-pointer", node.loc)
        if isinstance(elem, (VoidType, FuncType)):
            raise SemaError("indexing void*/function pointer", node.loc)
        return self._set_type(node, self._decay(node, elem))

    def _check_member(self, node: ast.Member) -> Type:
        btype = self._check_expr(node.base)
        if node.arrow:
            if not isinstance(btype, PointerType) or not isinstance(
                btype.pointee, StructType
            ):
                raise SemaError("-> on non-struct-pointer", node.loc)
            struct = btype.pointee
        else:
            if not isinstance(btype, StructType):
                raise SemaError(". on non-struct", node.loc)
            struct = btype
        fld = struct.field(node.name)
        if fld is None:
            raise SemaError(
                f"struct {struct.name} has no field {node.name!r}", node.loc
            )
        # Fields inherit their outermost annotation from the variable.
        ftype = fld.type.with_taint(struct.taint)
        return self._set_type(node, self._decay(node, ftype))

    def _check_cast(self, node: ast.Cast) -> Type:
        self._check_expr(node.operand)
        to = self._resolve_type(node.to, concrete=True)
        # Casts deliberately generate no taint constraints: annotations
        # inside U are untrusted, and runtime checks catch lies.
        return self._set_type(node, to)

    def _check_vararg(self, node: ast.VarArg) -> Type:
        assert self._current is not None
        if not self._current.varargs:
            raise SemaError("__vararg outside a variadic function", node.loc)
        itype = self._check_expr(node.index)
        if not isinstance(itype, IntType):
            raise SemaError("__vararg index must be an integer", node.loc)
        return self._set_type(node, IntType(8, PUBLIC))

    # ------------------------------------------------------------------
    # Solution substitution

    def _substitute(self, solution: Solution) -> None:
        for node in self._typed_nodes:
            node.type = concretize(node.type, solution)
        for info in self._functions.values():
            info.type = concretize(info.type, solution)
            for symbol in info.locals:
                symbol.type = concretize(symbol.type, solution)
        for ginfo in self._globals.values():
            ginfo.type = concretize(ginfo.type, solution)


def analyze(
    program: ast.Program, strict: bool = True, all_private: bool = False
) -> CheckedProgram:
    """Run semantic analysis and qualifier inference on a parsed program."""
    return Sema(program, strict=strict, all_private=all_private).run()
