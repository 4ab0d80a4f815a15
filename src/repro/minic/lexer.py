"""Hand-written lexer for MiniC."""

from __future__ import annotations

from ..errors import LexError, SourceLocation
from .tokens import (
    KEYWORDS,
    PUNCTUATORS,
    TK_CHAR,
    TK_EOF,
    TK_IDENT,
    TK_INT,
    TK_KEYWORD,
    TK_PUNCT,
    TK_STRING,
    Token,
)

# ASCII only: str.isdigit() also accepts digits int() cannot parse
# (e.g. superscripts), and `"" in "0123"` is true at end of input.
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
}


class Lexer:
    """Converts MiniC source text into a list of tokens."""

    def __init__(self, source: str, filename: str = "<input>"):
        self._src = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1

    def _loc(self) -> SourceLocation:
        return SourceLocation(self._line, self._col, self._filename)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._src):
            return ""
        return self._src[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._src):
                return
            if self._src[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        while True:
            ch = self._peek()
            if not ch:
                return
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            elif ch == "#":
                # Preprocessor-style lines (#define is handled by the
                # driver's textual substitution; here we just skip them).
                while self._peek() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _lex_number(self) -> Token:
        loc = self._loc()
        start = self._pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() in _HEX_DIGITS:
                self._advance()
            text = self._src[start : self._pos]
            if len(text) == 2:
                raise LexError(f"hex literal {text!r} has no digits", loc)
            return Token(TK_INT, text, loc, value=int(text, 16))
        while self._peek() in _DIGITS:
            self._advance()
        text = self._src[start : self._pos]
        return Token(TK_INT, text, loc, value=int(text))

    def _lex_escape(self, loc: SourceLocation) -> int:
        self._advance()  # backslash
        ch = self._peek()
        if ch == "x":
            self._advance()
            digits = ""
            while self._peek() in _HEX_DIGITS and len(digits) < 2:
                digits += self._peek()
                self._advance()
            if not digits:
                raise LexError("empty hex escape", loc)
            return int(digits, 16)
        if ch not in _ESCAPES:
            raise LexError(f"unknown escape \\{ch}", loc)
        self._advance()
        return _ESCAPES[ch]

    def _lex_char(self) -> Token:
        loc = self._loc()
        self._advance()  # opening quote
        if self._peek() == "\\":
            value = self._lex_escape(loc)
        else:
            if not self._peek():
                raise LexError("unterminated char literal", loc)
            value = ord(self._peek())
            self._advance()
        if self._peek() != "'":
            raise LexError("unterminated char literal", loc)
        self._advance()
        return Token(TK_CHAR, "", loc, value=value)

    def _lex_string(self) -> Token:
        loc = self._loc()
        self._advance()  # opening quote
        data = bytearray()
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError("unterminated string literal", loc)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                data.append(self._lex_escape(loc))
            else:
                data.append(ord(ch))
                self._advance()
        return Token(TK_STRING, "", loc, value=bytes(data))

    def _lex_word(self) -> Token:
        loc = self._loc()
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._src[start : self._pos]
        kind = TK_KEYWORD if text in KEYWORDS else TK_IDENT
        return Token(kind, text, loc)

    def tokens(self) -> list[Token]:
        """Lex the whole input, returning tokens terminated by EOF."""
        result: list[Token] = []
        while True:
            self._skip_trivia()
            ch = self._peek()
            if not ch:
                result.append(Token(TK_EOF, "", self._loc()))
                return result
            if ch in _DIGITS:
                result.append(self._lex_number())
            elif ch == "'":
                result.append(self._lex_char())
            elif ch == '"':
                result.append(self._lex_string())
            elif ch.isalpha() or ch == "_":
                result.append(self._lex_word())
            else:
                loc = self._loc()
                for punct in PUNCTUATORS:
                    if self._src.startswith(punct, self._pos):
                        self._advance(len(punct))
                        result.append(Token(TK_PUNCT, punct, loc))
                        break
                else:
                    raise LexError(f"unexpected character {ch!r}", loc)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokens()
