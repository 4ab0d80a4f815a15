"""Frontend robustness: arbitrary input must fail *gracefully*.

Whatever bytes arrive, the toolchain's answer is a successful
compilation or a `ReproError` subclass with a source location — never
an uncontrolled Python exception.  (Recursion depth on pathological
nesting is bounded separately.)
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.minic import analyze, parse

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

    @given(st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_deep_expression_nesting(self, depth):
        source = "int f() { return " + "(" * depth + "1" + ")" * depth + "; }"
        analyze(parse(source))

    @given(st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_deep_block_nesting(self, depth):
        source = "void f() { " + "{ " * depth + "int x;" + " }" * depth + " }"
        analyze(parse(source))

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
