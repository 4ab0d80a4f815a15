"""Lexer unit tests."""

import hashlib
import importlib.util
import pathlib

import pytest

from repro.apps.classifier import CLASSIFIER_SRC
from repro.apps.dirserver import DIRSERVER_SRC, dirserver_mt_source
from repro.apps.libmini import LIBMINI
from repro.apps.merklefs import merklefs_source
from repro.apps.minizip import MINIZIP_SRC
from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.apps.webserver import WEBSERVER_SRC
from repro.attacks import vulns
from repro.errors import LexError
from repro.minic.lexer import tokenize
from repro.minic.tokens import TK_CHAR, TK_EOF, TK_IDENT, TK_INT, TK_KEYWORD, TK_PUNCT, TK_STRING
from repro.runtime.trusted import T_PROTOTYPES
from repro.serve.apps import ECHO_SRC


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == TK_EOF

    def test_identifier(self):
        tok = tokenize("hello")[0]
        assert tok.kind == TK_IDENT
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        tok = tokenize("_foo42_bar")[0]
        assert tok.kind == TK_IDENT

    def test_keywords_recognized(self):
        for word in ("int", "char", "void", "private", "struct", "return",
                     "if", "else", "while", "for", "break", "continue",
                     "sizeof", "extern", "trusted"):
            tok = tokenize(word)[0]
            assert tok.kind == TK_KEYWORD, word

    def test_keyword_prefix_is_identifier(self):
        tok = tokenize("integer")[0]
        assert tok.kind == TK_IDENT

    def test_decimal_literal(self):
        tok = tokenize("12345")[0]
        assert tok.kind == TK_INT
        assert tok.value == 12345

    def test_hex_literal(self):
        tok = tokenize("0xDEAD")[0]
        assert tok.value == 0xDEAD

    def test_zero(self):
        assert tokenize("0")[0].value == 0


class TestCharAndString:
    def test_char_literal(self):
        tok = tokenize("'A'")[0]
        assert tok.kind == TK_CHAR
        assert tok.value == 65

    def test_char_escapes(self):
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\t'")[0].value == 9
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\\'")[0].value == 92
        assert tokenize(r"'\''")[0].value == 39

    def test_hex_escape(self):
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_string_literal(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind == TK_STRING
        assert tok.value == b"hello"

    def test_string_with_escapes(self):
        assert tokenize(r'"a\nb\0c"')[0].value == b"a\nb\x00c"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_unknown_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")


class TestPunctuation:
    def test_longest_match(self):
        assert texts("<<=") == ["<<="]
        assert texts("<<") == ["<<"]
        assert texts("<= <") == ["<=", "<"]
        assert texts("->") == ["->"]
        assert texts("...") == ["..."]

    def test_increment_vs_plus(self):
        assert texts("++ +") == ["++", "+"]

    def test_all_operators_lex(self):
        source = "+ - * / % & | ^ ~ ! < > = ( ) { } [ ] ; , . && || == !="
        assert all(k == TK_PUNCT for k in kinds(source)[:-1])

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("$")


class TestTrivia:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\n y */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_preprocessor_lines_skipped(self):
        assert texts("#define X 1\na") == ["a"]

    def test_locations_track_lines(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2
        assert toks[1].loc.col == 3


def token_tuples(source):
    return [
        (t.kind, t.text, t.value, t.loc.line, t.loc.col)
        for t in tokenize(source)
    ]


def lex_error(source):
    with pytest.raises(LexError) as info:
        tokenize(source)
    err = info.value
    return err.message, err.loc.line, err.loc.col


class TestPinnedEdgeCases:
    """Exact tokens and diagnostics, recorded from the character-by-
    character lexer this module's master regex replaced."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("x²", [(TK_IDENT, "x²", None, 1, 1), (TK_EOF, "", None, 1, 3)]),
            ("é", [(TK_IDENT, "é", None, 1, 1), (TK_EOF, "", None, 1, 2)]),
            ("_½", [(TK_IDENT, "_½", None, 1, 1), (TK_EOF, "", None, 1, 3)]),
            ("x٣", [(TK_IDENT, "x٣", None, 1, 1), (TK_EOF, "", None, 1, 3)]),
            ("'''", [(TK_CHAR, "", 39, 1, 1), (TK_EOF, "", None, 1, 4)]),
            ("'\n'", [(TK_CHAR, "", 10, 1, 1), (TK_EOF, "", None, 2, 2)]),
            ("'é'", [(TK_CHAR, "", 233, 1, 1), (TK_EOF, "", None, 1, 4)]),
            (r"'\x41'", [(TK_CHAR, "", 65, 1, 1), (TK_EOF, "", None, 1, 7)]),
            (r'"\x412"', [(TK_STRING, "", b"A2", 1, 1),
                          (TK_EOF, "", None, 1, 8)]),
            ('"é"', [(TK_STRING, "", b"\xe9", 1, 1),
                     (TK_EOF, "", None, 1, 4)]),
            ("0x1fg 08 00x1", [
                (TK_INT, "0x1f", 31, 1, 1), (TK_IDENT, "g", None, 1, 5),
                (TK_INT, "08", 8, 1, 7), (TK_INT, "00", 0, 1, 10),
                (TK_IDENT, "x1", None, 1, 12), (TK_EOF, "", None, 1, 14),
            ]),
            ("a\r\n\tb /* c\n d */ # e\n f // g\n h", [
                (TK_IDENT, "a", None, 1, 1), (TK_IDENT, "b", None, 2, 2),
                (TK_IDENT, "f", None, 4, 2), (TK_IDENT, "h", None, 5, 2),
                (TK_EOF, "", None, 5, 3),
            ]),
        ],
    )
    def test_tokens(self, source, expected):
        assert token_tuples(source) == expected

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("0x", ("hex literal '0x' has no digits", 1, 1)),
            ("0X;", ("hex literal '0X' has no digits", 1, 1)),
            ("'\\x", ("empty hex escape", 1, 1)),
            ("²", ("unexpected character '²'", 1, 1)),
            ("½", ("unexpected character '½'", 1, 1)),
            ("٣", ("unexpected character '٣'", 1, 1)),
            ("$", ("unexpected character '$'", 1, 1)),
            ("a\fb", ("unexpected character '\\x0c'", 1, 2)),
            ("/* never", ("unterminated block comment", 1, 1)),
            ("x\n  /* never", ("unterminated block comment", 2, 3)),
            ('"abc\n', ("unterminated string literal", 1, 1)),
            ('"abc\\n', ("unterminated string literal", 1, 1)),
            ("'a", ("unterminated char literal", 1, 1)),
            ("'", ("unterminated char literal", 1, 1)),
            ("''", ("unterminated char literal", 1, 1)),
            ("'';", ("unterminated char literal", 1, 1)),
            ("'\\'", ("unterminated char literal", 1, 1)),
            ("'\\x4g'", ("unterminated char literal", 1, 1)),
            ('"a\\q"', ("unknown escape \\q", 1, 1)),
            ("'\\q'", ("unknown escape \\q", 1, 1)),
            ('"\\', ("unknown escape \\", 1, 1)),
            ("'\\", ("unknown escape \\", 1, 1)),
            ('"a\\\nb"', ("unknown escape \\\n", 1, 1)),
        ],
    )
    def test_errors(self, source, expected):
        assert lex_error(source) == expected

    def test_characters_above_a_byte_are_lex_errors(self):
        assert lex_error("'—'") == (
            "character '—' does not fit in a byte", 1, 1
        )
        assert lex_error('x = "a—b";') == (
            "character '—' does not fit in a byte", 1, 5
        )


def _example_module(name):
    path = pathlib.Path(__file__).resolve().parents[2] / "examples"
    spec = importlib.util.spec_from_file_location(
        f"_lexer_example_{name}", path / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def in_repo_sources():
    """Every MiniC source the repo ships: apps, SPEC kernels, attack
    programs and examples."""
    quickstart = _example_module("quickstart")
    tour = _example_module("extensions_tour")
    sources = {
        "apps/classifier": CLASSIFIER_SRC,
        "apps/dirserver": DIRSERVER_SRC,
        "apps/dirserver_mt4": dirserver_mt_source(4),
        "apps/libmini": LIBMINI,
        "apps/merklefs4": merklefs_source(4),
        "apps/minizip": MINIZIP_SRC,
        "apps/webserver": WEBSERVER_SRC,
        "serve/echo": ECHO_SRC,
        "runtime/t_prototypes": T_PROTOTYPES,
    }
    for name in SPEC_NAMES:
        sources[f"spec/{name}"] = kernel_source(name)
    for name in ("MONGOOSE_SRC", "MINIZIP_DIRECT_SRC", "MINIZIP_CASTED_SRC",
                 "FORMAT_STRING_SRC", "ROP_SRC"):
        sources[f"attacks/{name}"] = getattr(vulns, name)
    for name in ("BUGGY", "FIXED", "LAUNDERED"):
        sources[f"examples/quickstart.{name}"] = getattr(quickstart, name)
    for name in ("SWITCHY", "CALLBACKS", "TLS", "ALL_PRIVATE"):
        sources[f"examples/extensions_tour.{name}"] = getattr(tour, name)
    return sources


def stream_digest(source):
    """sha256 over every token's (kind, text, value, line, col)."""
    h = hashlib.sha256()
    for tok in token_tuples(source):
        h.update(repr(tok).encode())
        h.update(b"\n")
    return h.hexdigest()


# Recorded from the character-by-character lexer.
PINNED_STREAMS = {
    "apps/classifier": "281433bf336c056731cf33893cf38b66f0f145dbee37cfde518295213aca6f09",
    "apps/dirserver": "da07c5b0f720237db8f7dfbc0205bf29fad8b52f0fcb58b22808dc1807dcd07f",
    "apps/dirserver_mt4": "1e5a20e3b9401f4e8ed07b97c83d499ed5e913c6b193343b278722977c039cb4",
    "apps/libmini": "2a999b8dcda8769145817767ca8366da704e79a78663649c42bc3394cafea6d2",
    "apps/merklefs4": "600f3527c3d8092648bd1c42cfdd15801593219e79d2c2862dc30e1d8893c9da",
    "apps/minizip": "3b441dc499b5b71153ea703b4da9d654c7bb8c5ae604bcdeda9c3536dcb190e7",
    "apps/webserver": "539f43e10ad4122f08bc0acaa552554c7396460777d18f07c01b71a366ced4e1",
    "serve/echo": "90d528671351f94f11dc73850d345b53f1fb40ffa38c92c756eefca54c172fd9",
    "runtime/t_prototypes": "23cc8fcd9682b87caffd99cb3968da421e56f569d01b29b16fca4ac312d9518d",
    "spec/bzip2": "3ec2ba74fec5acd70a2450f7997182457fd65ce9943e99da7a182762b2d5dcb9",
    "spec/gcc": "241312e3236b1a8144a8d015abdebdea0c98bacea0e602eaa4e14978817fc454",
    "spec/gobmk": "d76b614d9aa0dfee40f4b5ede41fd06f52b2e1095307f62d69f2ad3a4dc7a87f",
    "spec/h264ref": "861847da68201d6e2be1147aa120d5c2ef110241afba5a98c484444c7c42ad38",
    "spec/hmmer": "1bd0af9a8ba8df02916530fc8c90cce16627714fdecf6475ff02b4c6df34c26a",
    "spec/lbm": "33941428def94b8dbc468785987c46688cefb86b055fc5c20c2026c73d703a04",
    "spec/libquantum": "ecb4d139625c27be37295abbb56911e15b50d8adf72b1b7f4a7c50765153a0d5",
    "spec/mcf": "78cc11f0a72333db1595f30782929e2e63e87a9d6f96f7d896cb2c320b014856",
    "spec/milc": "018d0e2d70caf075e1ba35ea993184b76df046010e633f18128bfb43dc38cc14",
    "spec/sjeng": "78aa0bf1d8a52c72b29956f4e8dd7b56d819e8b8f2f6900002c3ac56645a723f",
    "spec/sphinx3": "fbfa947c5e2876cb8aacf78e9d3c082f938b8bd0404ead1c5ec45ee5cdb81dd0",
    "attacks/MONGOOSE_SRC": "04250cab0ea8c32b088813858af683634b52a7734aaf043d9a6bef738ef19fa6",
    "attacks/MINIZIP_DIRECT_SRC": "53b39dc519716705b17f74b53a8bec3f1ed59a7595f0c64531c2c6311e720013",
    "attacks/MINIZIP_CASTED_SRC": "42e5aeb2dc9ed443733126c12d01547e1c4544278ca31fe82bf55717034cff31",
    "attacks/FORMAT_STRING_SRC": "217cd5d0ac1b76402e9803edf63584cc980c77b74a30ca8befc4c874529a0737",
    "attacks/ROP_SRC": "b26d61f6b1a064626ab45d97a9ec5ded086c4fb664377256f7e9f1cdc8d4779f",
    "examples/quickstart.BUGGY": "b7035a61d0f72c582d175258f38dda758994469ae18c08593a79dbfa4f453967",
    "examples/quickstart.FIXED": "d1676a5edeebfc6e5a9bf4c9da06abf7e433b9613217e77a6cf86b8ab3292b84",
    "examples/quickstart.LAUNDERED": "86e67b6519c48c68a0c987544ba76e3c13145f3d9363190ae184bbb37ac0989c",
    "examples/extensions_tour.SWITCHY": "121e81ff3be59c6ae24d8bb751913ce8172eeb997d6e1e2b3e27beffec16c875",
    "examples/extensions_tour.CALLBACKS": "91be694e1c559c5860eb93d433fc67be8c6bdb9c3348c805fcf965a6baf6b961",
    "examples/extensions_tour.TLS": "1f56b38b6efb71aa2cea95d240a95f18cf8c057e8e30433d93874c7309ca1521",
    "examples/extensions_tour.ALL_PRIVATE": "a8baf206c3c8068d37ba7c47b14205071e4053a73bb6ba428e44369218b72954",
}


class TestPinnedStreams:
    def test_every_in_repo_source_is_pinned(self):
        assert set(in_repo_sources()) == set(PINNED_STREAMS)
        assert sum(name.startswith("spec/") for name in PINNED_STREAMS) == 11

    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_token_stream_unchanged(self, name):
        assert stream_digest(in_repo_sources()[name]) == PINNED_STREAMS[name]
