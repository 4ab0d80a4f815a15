"""Frontend robustness: arbitrary input must fail *gracefully*.

Whatever bytes arrive, the toolchain's answer is a successful
compilation or a `ReproError` subclass with a source location — never
an uncontrolled Python exception.  Nesting deeper than
``MAX_NESTING`` is a ``ParseError``; anything shallower compiles.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import OUR_MPX, compile_source
from repro.errors import ParseError, ReproError
from repro.minic import analyze, parse
from repro.minic.parser import MAX_NESTING

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=200,
)

token_soup = st.lists(
    st.sampled_from(
        [
            "int", "char", "void", "private", "struct", "if", "else",
            "while", "for", "return", "switch", "case", "default",
            "break", "continue", "sizeof", "extern", "trusted",
            "x", "y", "main", "f", "42", "'a'", '"s"',
            "{", "}", "(", ")", "[", "]", ";", ",", "*", "&", "+",
            "-", "=", "==", "->", ".", "...", ":", "<<", ">>",
        ]
    ),
    max_size=60,
).map(" ".join)


class TestGracefulFailure:
    @given(printable)
    @example("0x")
    @example("int x = 0X;")
    @example("²")
    @example("'\\x")
    @example('"—"')
    @example("'—'")
    @example("int f() { return " + "(" * 64 + "1" + ")" * 64 + "; }")
    @example("int f() { return " + "(" * 200 + "1" + ")" * 200 + "; }")
    @example("void f() { " + "{ " * 1000 + "int x;" + " }" * 1000 + " }")
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        try:
            analyze(parse(text))
        except ReproError:
            pass

    @given(token_soup)
    @settings(max_examples=300, deadline=None)
    def test_token_soup(self, soup):
        try:
            analyze(parse(soup))
        except ReproError:
            pass

    # The return statement and its expression are two levels.
    @given(st.integers(1, MAX_NESTING - 2))
    @settings(max_examples=30, deadline=None)
    def test_deep_expression_nesting(self, depth):
        source = (
            "int main() { return " + "(" * depth + "1" + ")" * depth + "; }"
        )
        compile_source(source, OUR_MPX)

    # The innermost declaration is one level below its block.
    @given(st.integers(1, MAX_NESTING - 1))
    @settings(max_examples=20, deadline=None)
    def test_deep_block_nesting(self, depth):
        source = (
            "int main() { " + "{ " * depth + "int x;" + " }" * depth
            + " return 0; }"
        )
        compile_source(source, OUR_MPX)

    # (program with nesting parameter d, levels the rest of it adds)
    NESTING_SHAPES = {
        "parens": (lambda d: "int main() { return " + "(" * d + "1"
                   + ")" * d + "; }", 2),
        "unary": (lambda d: "int main() { return " + "- " * d + "1; }", 2),
        "cast": (lambda d: "int main() { return " + "(int)" * d + "1; }", 2),
        "chain": (lambda d: "int main() { return 1" + " + 1" * d + "; }", 2),
        "blocks": (lambda d: "int main() { " + "{ " * d + "int x;"
                   + " }" * d + " return 0; }", 1),
        "if": (lambda d: "int main() { int x = 0; " + "if (x) " * d
               + "x = 1; return x; }", 3),
        "else-if": (lambda d: "int main() { int x = 0; "
                    + "if (x == 1) x = 2; else " * d + "x = 3; return x; }",
                    3),
    }

    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_nesting_limit_is_exact(self, shape):
        make, extra = self.NESTING_SHAPES[shape]
        compile_source(make(MAX_NESTING - extra), OUR_MPX)
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(make(MAX_NESTING - extra + 1))

    def test_truncated_everything(self):
        base = (
            'struct s { int a; };\nint g = 1;\n'
            'int f(int x) { if (x) { return g; } return 0; }\n'
        )
        for cut in range(len(base)):
            try:
                analyze(parse(base[:cut]))
            except ReproError:
                pass

    def test_null_bytes_and_unicode_rejected_cleanly(self):
        for text in ("int x\x00;", "int é;", "﻿int x;"):
            try:
                analyze(parse(text))
            except ReproError:
                pass
