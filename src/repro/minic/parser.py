"""Recursive-descent parser for MiniC, with precedence climbing for
binary operators.

Nesting is bounded by ``MAX_NESTING``: each nested statement,
sub-expression, prefix/cast operand, and binary or postfix operator of
a chain counts one level.  Deeper input is a ``ParseError``, never a
``RecursionError``; anything within the bound also compiles.
"""

from __future__ import annotations

from ..errors import ParseError
from ..obs import events
from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    Cast,
    Continue,
    Expr,
    ExprStmt,
    For,
    FuncDef,
    FuncSigExpr,
    GlobalVar,
    Ident,
    If,
    IncDec,
    Index,
    InitList,
    IntLit,
    LocalDecl,
    Member,
    Param,
    Program,
    Return,
    SizeofType,
    Stmt,
    StringLit,
    StructDef,
    Switch,
    TlsBase,
    SwitchCase,
    TypeExpr,
    Unary,
    Use,
    VarArg,
    While,
)
from .lexer import tokenize
from .tokens import TK_CHAR, TK_EOF, TK_IDENT, TK_INT, TK_STRING, Token

_TYPE_STARTERS = {"int", "char", "void", "struct", "private"}

_ASSIGN_OPS = {
    "=": None,
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
    "&=": "&",
    "|=": "|",
    "^=": "^",
    "<<=": "<<",
    ">>=": ">>",
}

# Binary operator precedence tiers, loosest first; all left-associative.
_BINARY_TIERS = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_PRECEDENCE = {
    op: prec for prec, ops in enumerate(_BINARY_TIERS) for op in ops
}
_POSTFIX_OPS = {"(", "[", ".", "->", "++", "--"}

#: Fixed, not an option: every later compiler stage recurses over the
#: AST too, and this depth fits them all.
MAX_NESTING = 100


class Parser:
    def __init__(
        self,
        source: str,
        filename: str = "<input>",
        tokens: list[Token] | None = None,
    ):
        self._toks = tokens if tokens is not None else tokenize(source, filename)
        self._pos = 0
        self._depth = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._toks) - 1)
        return self._toks[index]

    def _next(self) -> Token:
        tok = self._toks[self._pos]
        if tok.kind != TK_EOF:
            self._pos += 1
        return tok

    def _expect_punct(self, spelling: str) -> Token:
        tok = self._next()
        if not tok.is_punct(spelling):
            raise ParseError(f"expected {spelling!r}, found {tok.text!r}", tok.loc)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind != TK_IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.loc)
        return tok

    def _accept_punct(self, spelling: str) -> bool:
        if self._peek().is_punct(spelling):
            self._next()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._next()
            return True
        return False

    def _enter(self) -> None:
        """Descend one nesting level (the caller restores the depth)."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"nesting too deep (more than {MAX_NESTING} levels)",
                self._peek().loc,
            )

    def _at_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.kind == "keyword" and tok.text in _TYPE_STARTERS

    # -- types and declarators ----------------------------------------------

    def _parse_type_prefix(self) -> TypeExpr:
        """Parse ``[private] base *...`` (no declarator)."""
        loc = self._peek().loc
        private = self._accept_keyword("private")
        tok = self._next()
        if tok.kind != "keyword" or tok.text not in ("int", "char", "void", "struct"):
            raise ParseError(f"expected type, found {tok.text!r}", tok.loc)
        struct_name = None
        if tok.text == "struct":
            struct_name = self._expect_ident().text
        texpr = TypeExpr(tok.text, loc, struct_name=struct_name, private=private)
        while self._accept_punct("*"):
            texpr.ptr += 1
        return texpr

    def _parse_declarator(self, texpr: TypeExpr) -> tuple[TypeExpr, str]:
        """Parse the declarator after a type prefix.

        Handles plain names, ``name[N]`` arrays, and function-pointer
        declarators ``(*name)(params)``.
        """
        if self._peek().is_punct("(") and self._peek(1).is_punct("*"):
            self._next()  # (
            self._next()  # *
            name = self._expect_ident().text
            self._expect_punct(")")
            self._expect_punct("(")
            params, varargs = self._parse_param_types()
            texpr.func = FuncSigExpr(params, varargs)
            return texpr, name
        name = self._expect_ident().text
        if self._accept_punct("["):
            tok = self._next()
            if tok.kind != TK_INT:
                raise ParseError("array length must be an integer literal", tok.loc)
            texpr.array_len = tok.value
            self._expect_punct("]")
        return texpr, name

    def _parse_param_types(self) -> tuple[list[TypeExpr], bool]:
        """Types-only parameter list (for function-pointer declarators)."""
        params: list[TypeExpr] = []
        varargs = False
        if self._accept_punct(")"):
            return params, varargs
        if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
            self._next()
            self._next()
            return params, varargs
        while True:
            if self._accept_punct("..."):
                varargs = True
                break
            texpr = self._parse_type_prefix()
            # Parameter name is optional in a type-only list.
            if self._peek().kind == TK_IDENT:
                self._next()
            params.append(texpr)
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return params, varargs

    def _parse_params(self) -> tuple[list[Param], bool]:
        params: list[Param] = []
        varargs = False
        if self._accept_punct(")"):
            return params, varargs
        if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
            self._next()
            self._next()
            return params, varargs
        while True:
            if self._accept_punct("..."):
                varargs = True
                break
            loc = self._peek().loc
            texpr = self._parse_type_prefix()
            texpr, name = self._parse_declarator(texpr)
            params.append(Param(texpr, name, loc))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return params, varargs

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while self._peek().kind != TK_EOF:
            program.decls.append(self._parse_top_decl())
        return program

    def _parse_top_decl(self):
        tok = self._peek()
        loc = tok.loc
        if tok.kind == TK_IDENT and tok.text == "use":
            # ``use`` is a directive only here, where no declaration can
            # start with an identifier; elsewhere it is a plain name.
            self._next()
            name = self._next()
            if name.kind != TK_IDENT:
                raise ParseError(
                    f"expected a library name after 'use', found "
                    f"{name.text!r}",
                    name.loc,
                )
            self._expect_punct(";")
            return Use(name.text, loc)
        if (
            self._peek().is_keyword("struct")
            and self._peek(1).kind == TK_IDENT
            and self._peek(2).is_punct("{")
        ):
            return self._parse_struct_def()
        extern = self._accept_keyword("extern")
        trusted = self._accept_keyword("trusted") if extern else False
        texpr = self._parse_type_prefix()
        texpr, name = self._parse_declarator(texpr)
        if texpr.func is None and self._peek().is_punct("("):
            self._next()
            params, varargs = self._parse_params()
            if self._accept_punct(";"):
                return FuncDef(
                    texpr, name, params, varargs, None, loc,
                    trusted=trusted, extern=True,
                )
            if extern:
                raise ParseError("extern function cannot have a body", loc)
            body = self._parse_block()
            return FuncDef(texpr, name, params, varargs, body, loc)
        init = None
        if self._accept_punct("="):
            if self._peek().is_punct("{"):
                init = self._parse_init_list()
            else:
                init = self._parse_expr()
        self._expect_punct(";")
        if extern:
            raise ParseError("extern variables are not supported", loc)
        return GlobalVar(texpr, name, init, loc)

    def _parse_init_list(self) -> InitList:
        loc = self._expect_punct("{").loc
        values: list[int] = []
        if not self._accept_punct("}"):
            while True:
                negative = self._accept_punct("-")
                tok = self._next()
                if tok.kind not in (TK_INT, TK_CHAR):
                    raise ParseError(
                        "initializer lists take integer constants", tok.loc
                    )
                values.append(-tok.value if negative else tok.value)
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
        return InitList(values, loc)

    def _parse_struct_def(self) -> StructDef:
        loc = self._next().loc  # struct
        name = self._expect_ident().text
        self._expect_punct("{")
        fields: list[tuple[TypeExpr, str]] = []
        while not self._accept_punct("}"):
            texpr = self._parse_type_prefix()
            texpr, fname = self._parse_declarator(texpr)
            self._expect_punct(";")
            fields.append((texpr, fname))
        self._expect_punct(";")
        return StructDef(name, fields, loc)

    # -- statements ------------------------------------------------------------

    def _parse_block(self) -> Block:
        loc = self._expect_punct("{").loc
        stmts: list[Stmt] = []
        while not self._accept_punct("}"):
            stmts.append(self._parse_stmt())
        return Block(stmts, loc)

    def _parse_stmt(self) -> Stmt:
        self._enter()
        stmt = self._parse_stmt_kind()
        self._depth -= 1
        return stmt

    def _parse_stmt_kind(self) -> Stmt:
        tok = self._peek()
        loc = tok.loc
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expr()
            self._expect_punct(")")
            then = self._parse_stmt()
            els = self._parse_stmt() if self._accept_keyword("else") else None
            return If(cond, then, els, loc)
        if tok.is_keyword("while"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expr()
            self._expect_punct(")")
            return While(cond, self._parse_stmt(), loc)
        if tok.is_keyword("for"):
            return self._parse_for(loc)
        if tok.is_keyword("switch"):
            return self._parse_switch(loc)
        if tok.is_keyword("return"):
            self._next()
            value = None if self._peek().is_punct(";") else self._parse_expr()
            self._expect_punct(";")
            return Return(value, loc)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return Break(loc)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return Continue(loc)
        if self._at_type():
            return self._parse_local_decl()
        expr = self._parse_expr()
        self._expect_punct(";")
        return ExprStmt(expr, loc)

    def _parse_for(self, loc) -> For:
        self._next()  # for
        self._expect_punct("(")
        init: Stmt | None = None
        if not self._accept_punct(";"):
            if self._at_type():
                init = self._parse_local_decl()
            else:
                init = ExprStmt(self._parse_expr(), loc)
                self._expect_punct(";")
        cond = None if self._peek().is_punct(";") else self._parse_expr()
        self._expect_punct(";")
        step = None if self._peek().is_punct(")") else self._parse_expr()
        self._expect_punct(")")
        return For(init, cond, step, self._parse_stmt(), loc)

    def _parse_switch(self, loc) -> Switch:
        self._next()  # switch
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[SwitchCase] = []
        default_stmts: list[Stmt] | None = None
        current: list[Stmt] | None = None
        while not self._accept_punct("}"):
            tok = self._peek()
            if self._accept_keyword("case"):
                if default_stmts is not None:
                    raise ParseError(
                        "case labels after default are not supported",
                        tok.loc,
                    )
                negative = self._accept_punct("-")
                vtok = self._next()
                if vtok.kind not in (TK_INT, TK_CHAR):
                    raise ParseError(
                        "case label must be an integer constant", vtok.loc
                    )
                self._expect_punct(":")
                value = -vtok.value if negative else vtok.value
                cases.append(SwitchCase(value, [], tok.loc))
                current = cases[-1].stmts
            elif self._accept_keyword("default"):
                self._expect_punct(":")
                if default_stmts is not None:
                    raise ParseError("duplicate default label", tok.loc)
                default_stmts = []
                current = default_stmts
            else:
                if current is None:
                    raise ParseError(
                        "statement before first case label", tok.loc
                    )
                current.append(self._parse_stmt())
        return Switch(cond, cases, default_stmts, loc)

    def _parse_local_decl(self) -> LocalDecl:
        loc = self._peek().loc
        texpr = self._parse_type_prefix()
        texpr, name = self._parse_declarator(texpr)
        init = self._parse_expr() if self._accept_punct("=") else None
        self._expect_punct(";")
        return LocalDecl(texpr, name, init, loc)

    # -- expressions -------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        """An assignment expression (right-associative)."""
        self._enter()
        expr = self._parse_binary(0)
        tok = self._peek()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            self._next()
            value = self._parse_expr()
            expr = Assign(expr, value, tok.loc, op=_ASSIGN_OPS[tok.text])
        self._depth -= 1
        return expr

    def _parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing: operators binding at least ``min_prec``."""
        depth = self._depth
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _PRECEDENCE.get(tok.text) if tok.kind == "punct" else None
            if prec is None or prec < min_prec:
                self._depth = depth
                return left
            self._enter()
            self._next()
            right = self._parse_binary(prec + 1)
            left = Binary(tok.text, left, right, tok.loc)

    def _parse_operand(self) -> Expr:
        """The operand of a prefix operator or cast, one level deeper."""
        self._enter()
        expr = self._parse_unary()
        self._depth -= 1
        return expr

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        loc = tok.loc
        if tok.kind == "punct" and tok.text in ("-", "~", "!", "*", "&"):
            self._next()
            return Unary(tok.text, self._parse_operand(), loc)
        if tok.is_punct("++") or tok.is_punct("--"):
            self._next()
            delta = 1 if tok.text == "++" else -1
            return IncDec(self._parse_operand(), delta, loc)
        if tok.is_keyword("sizeof"):
            self._next()
            self._expect_punct("(")
            texpr = self._parse_type_prefix()
            self._expect_punct(")")
            return SizeofType(texpr, loc)
        if tok.is_punct("(") and self._at_type(1):
            self._next()
            texpr = self._parse_type_prefix()
            # Abstract function-pointer declarator: (ret (*)(params)).
            if (
                self._peek().is_punct("(")
                and self._peek(1).is_punct("*")
                and self._peek(2).is_punct(")")
            ):
                self._next()  # (
                self._next()  # *
                self._next()  # )
                self._expect_punct("(")
                params, varargs = self._parse_param_types()
                texpr.func = FuncSigExpr(params, varargs)
            self._expect_punct(")")
            return Cast(texpr, self._parse_operand(), loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        depth = self._depth
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind != "punct" or tok.text not in _POSTFIX_OPS:
                self._depth = depth
                return expr
            self._enter()
            self._next()
            if tok.text == "(":
                args: list[Expr] = []
                if not self._accept_punct(")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept_punct(","):
                            break
                    self._expect_punct(")")
                if isinstance(expr, Ident) and expr.name == "__vararg":
                    if len(args) != 1:
                        raise ParseError("__vararg takes one argument", tok.loc)
                    expr = VarArg(args[0], tok.loc)
                elif isinstance(expr, Ident) and expr.name == "__tlsbase":
                    if args:
                        raise ParseError("__tlsbase takes no arguments", tok.loc)
                    expr = TlsBase(tok.loc)
                else:
                    expr = Call(expr, args, tok.loc)
            elif tok.text == "[":
                index = self._parse_expr()
                self._expect_punct("]")
                expr = Index(expr, index, tok.loc)
            elif tok.text in (".", "->"):
                name = self._expect_ident().text
                expr = Member(expr, name, tok.text == "->", tok.loc)
            else:
                expr = IncDec(expr, 1 if tok.text == "++" else -1, tok.loc)

    def _parse_primary(self) -> Expr:
        tok = self._next()
        if tok.kind == TK_INT or tok.kind == TK_CHAR:
            return IntLit(tok.value, tok.loc)
        if tok.kind == TK_STRING:
            return StringLit(tok.value, tok.loc)
        if tok.kind == TK_IDENT:
            return Ident(tok.text, tok.loc)
        if tok.is_punct("("):
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.loc)


def parse(source: str, filename: str = "<input>") -> Program:
    """Parse MiniC source text into a :class:`Program` AST."""
    with events.span("compile.lex", filename=filename):
        tokens = tokenize(source, filename)
    events.counter("frontend.tokens").inc(len(tokens))
    with events.span("compile.parse", filename=filename):
        return Parser(source, filename, tokens=tokens).parse_program()
