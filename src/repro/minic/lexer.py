"""MiniC lexer: one compiled master regex, matched token by token.

Each alternative of :data:`_MASTER` is a named group; the group that
matched decides the token.  Identifiers follow ``str.isalpha``/
``str.isalnum`` (plus ``_``), numbers are ASCII digits only, and every
malformed input raises :class:`~repro.errors.LexError` at the position
of the offending token.
"""

from __future__ import annotations

import re

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

_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
}

# A well-formed escape: a named one, or \x with one or two hex digits.
_ESCAPE = r"""\\(?:[ntr0\\'"]|x[0-9a-fA-F]{1,2})"""

# A literal matches its longest well-formed prefix and an optional
# closing quote, so the match never backtracks, and when the quote is
# missing the character after the prefix tells which error it is.
_MASTER = re.compile(
    "|".join(
        (
            # Whitespace, // and # lines, complete /* */ comments.
            r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|#[^\n]*|/\*(?s:.*?)\*/)+)",
            r"(?P<open_comment>/\*)",
            r"(?P<hex>0[xX][0-9a-fA-F]*)",
            r"(?P<int>[0-9]+)",
            r"(?P<word>[A-Za-z_]\w*)",
            # Any other word character: an identifier iff isalpha().
            r"(?P<uword>[^\W\d]\w*)",
            rf"""(?P<str>"(?P<str_body>(?:[^"\\\n]+|{_ESCAPE})*)"""
            r"""(?P<str_end>"?))""",
            rf"""(?P<chr>'(?P<chr_body>[^\\]|{_ESCAPE})?(?P<chr_end>'?))""",
            "(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")",
        )
    )
)

_ESCAPE_RE = re.compile(_ESCAPE)


def _unescape(match: re.Match) -> str:
    text = match.group()
    if text[1] == "x":
        return chr(int(text[2:], 16))
    return chr(_ESCAPES[text[1]])


def _literal_bytes(body: str, loc: SourceLocation) -> bytes:
    """Decode a (well-formed) literal body to its byte values."""
    if "\\" in body:
        body = _ESCAPE_RE.sub(_unescape, body)
    try:
        return body.encode("latin-1")
    except UnicodeEncodeError as error:
        ch = body[error.start]
        raise LexError(
            f"character {ch!r} does not fit in a byte", loc
        ) from None


def _escape_error(source: str, pos: int, loc) -> LexError:
    """The error for the malformed escape starting at ``pos``."""
    ch = source[pos + 1 : pos + 2]
    if ch == "x":
        return LexError("empty hex escape", loc)
    return LexError(f"unknown escape \\{ch}", loc)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Lex ``source`` into a token list terminated by EOF."""
    match_at = _MASTER.match
    result: list[Token] = []
    append = result.append
    pos = 0
    line = 1
    line_start = 0  # index of the first character of the current line
    end = len(source)
    while pos < end:
        m = match_at(source, pos)
        group = m.lastgroup if m is not None else None
        if group == "skip":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rindex("\n") + 1
            pos = m.end()
            continue
        loc = SourceLocation(line, pos - line_start + 1, filename)
        if group is None:
            raise LexError(f"unexpected character {source[pos]!r}", loc)
        text = m.group()
        if group == "word":
            kind = TK_KEYWORD if text in KEYWORDS else TK_IDENT
            append(Token(kind, text, loc))
        elif group == "punct":
            append(Token(TK_PUNCT, text, loc))
        elif group == "int":
            append(Token(TK_INT, text, loc, value=int(text)))
        elif group == "hex":
            if len(text) == 2:
                raise LexError(f"hex literal {text!r} has no digits", loc)
            append(Token(TK_INT, text, loc, value=int(text, 16)))
        elif group == "str":
            # Errors in source order: the prefix, then what stopped it.
            value = _literal_bytes(m.group("str_body"), loc)
            if not m.group("str_end"):
                if source.startswith("\\", m.end()):
                    raise _escape_error(source, m.end(), loc)
                raise LexError("unterminated string literal", loc)
            append(Token(TK_STRING, "", loc, value=value))
        elif group == "chr":
            body = m.group("chr_body")
            if body is None and source.startswith("\\", m.end()):
                raise _escape_error(source, m.end(), loc)
            if body is None or not m.group("chr_end"):
                raise LexError("unterminated char literal", loc)
            value = _literal_bytes(body, loc)[0]
            append(Token(TK_CHAR, "", loc, value=value))
            if body == "\n":
                line += 1
                line_start = m.end() - 1
        elif group == "uword":
            if not text[0].isalpha():
                raise LexError(f"unexpected character {text[0]!r}", loc)
            kind = TK_KEYWORD if text in KEYWORDS else TK_IDENT
            append(Token(kind, text, loc))
        else:  # open_comment: a /* the skip group could not close
            raise LexError("unterminated block comment", loc)
        pos = m.end()
    eof = SourceLocation(line, pos - line_start + 1, filename)
    append(Token(TK_EOF, "", eof))
    return result
