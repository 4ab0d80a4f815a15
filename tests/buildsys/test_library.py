"""Library units: ``use libmini;`` compiles against the library's
prototypes, the session compiles the library once per (config, seed),
and linking places it first without ever writing to a compiled unit.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro import BASE, OUR_MPX, OUR_SEG, compile_source
from repro.apps.libmini import LIBMINI
from repro.attacks.vulns import MINIZIP_DIRECT_SRC
from repro.backend import isa
from repro.build import BuildSession, dump_binary, dump_uobject
from repro.build.library import LIBRARIES, library
from repro.errors import ParseError, ReproError, SemaError, TaintError
from repro.link.loader import load
from repro.runtime.trusted import T_PROTOTYPES

BODY = """
char buf[64];

int main() {
    mini_strcpy(buf, "library");
    int n = mini_sprintf(buf + 16, "len=%d", mini_strlen(buf));
    print_str(buf + 16);
    return mini_strlen(buf) + n;
}
"""

USING = T_PROTOTYPES + "use libmini;" + BODY


class TestLinkedLikePasted:
    @pytest.mark.parametrize("config", [BASE, OUR_MPX, OUR_SEG],
                             ids=lambda c: c.name)
    def test_binary_bytes_equal_the_pasted_source(self, config):
        pasted = compile_source(T_PROTOTYPES + LIBMINI + BODY, config, seed=3)
        used = BuildSession().build(USING, config, seed=3)
        assert dump_binary(used) == dump_binary(pasted)

    def test_runs(self):
        process = load(BuildSession().build(USING, OUR_MPX, seed=3))
        assert process.run() == 7 + 5
        assert process.stdout == ["len=7"]

    def test_unit_records_the_library_and_declares_its_calls(self):
        obj = BuildSession().compile_unit(USING, OUR_MPX, seed=3)
        assert obj.libraries == ["libmini"]
        assert [f.name for f in obj.functions] == ["main"]
        assert {e.name for e in obj.externals} == {
            p.name for p in library("libmini").prototypes
        }

    def test_library_compiled_once_per_config_and_seed(self):
        session = BuildSession()
        for seed in (1, 1, 2):
            for config in (OUR_MPX, OUR_MPX, OUR_SEG):
                session.build(USING, config, seed=seed)
        assert len(session._libraries) == 4
        assert session.library_unit("libmini", OUR_MPX, 1) is \
            session.library_unit("libmini", OUR_MPX, 1)


class TestNonMutatingLink:
    def test_linking_twice_writes_nothing(self):
        session = BuildSession()
        obj = session.compile_unit(USING, OUR_MPX, seed=1)
        lib = session.library_unit("libmini", OUR_MPX, 1)
        obj_bytes, lib_bytes = dump_uobject(obj), dump_uobject(lib)
        first = session.link_units(obj, seed=1)
        first_bytes = dump_binary(first)
        second = session.link_units(obj, seed=2)
        assert (first.mcall_prefix, first.mret_prefix) != (
            second.mcall_prefix, second.mret_prefix
        )
        assert dump_uobject(obj) == obj_bytes
        assert dump_uobject(lib) == lib_bytes
        assert dump_binary(first) == first_bytes
        assert load(first).run() == load(second).run() == 12

    def test_linked_words_are_frozen(self):
        binary = BuildSession().build(USING, OUR_MPX, seed=1)
        call = next(w for w in binary.code if isinstance(w, isa.CallD))
        with pytest.raises(FrozenInstanceError):
            call.addr = 0
        mem_word = next(w for w in binary.code if getattr(w, "mem", None))
        with pytest.raises(FrozenInstanceError):
            mem_word.mem.abs = 0


class TestUseDiagnostics:
    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("use;", ParseError, "expected a library name after 'use'"),
            ("use 3;", ParseError, "expected a library name"),
            ("use libmini", ParseError, "expected ';'"),
            ("use nosuch;", SemaError, "unknown library 'nosuch'"),
            ("use libmini;\nuse libmini;", SemaError,
             "duplicate 'use libmini;'"),
            ("use libmini;\nint mini_strlen(char *s) { return 0; }",
             SemaError, "'mini_strlen' is already defined by library"),
            ("int mini_memcmp = 1;\nuse libmini;", SemaError,
             "'mini_memcmp' is already defined by library"),
            ("use libmini;\nint mini_strlen(int x);", SemaError,
             "conflicting declarations of 'mini_strlen'"),
            ("int f() { use libmini; return 0; }", ParseError,
             "expected ';'"),
        ],
    )
    def test_malformed_use_is_a_repro_error(self, text, error, message):
        with pytest.raises(error, match=message):
            BuildSession().build(text + "\nint main() { return 0; }",
                                 OUR_MPX)

    def test_unresolved_use_rejected_by_sema(self):
        from repro.minic import analyze, parse

        with pytest.raises(SemaError, match="resolved by the build driver"):
            analyze(parse("use libmini;"))

    def test_using_unit_errors_cite_its_own_lines(self):
        with pytest.raises(TaintError) as info:
            compile_source(MINIZIP_DIRECT_SRC, OUR_MPX)
        loc = info.value.loc
        assert (loc.filename, loc.line) == ("<input>", 34)
        assert "log_write(password" in MINIZIP_DIRECT_SRC.splitlines()[33]

    def test_library_errors_cite_the_library(self, monkeypatch):
        broken = LIBMINI.replace("int n = 0;", "int n = missing;", 1)
        line = LIBMINI[: LIBMINI.index("int n = 0;")].count("\n") + 1
        monkeypatch.setitem(LIBRARIES, "libmini", broken)
        with pytest.raises(SemaError) as info:
            BuildSession().build(USING, OUR_MPX, seed=1)
        assert (info.value.loc.filename, info.value.loc.line) == (
            "libmini", line
        )

    @pytest.mark.parametrize("order", ["before", "after"])
    def test_own_prototype_of_a_library_function(self, order):
        proto = "int mini_strlen(char *s);\n"
        source = (proto + "use libmini;" if order == "before"
                  else "use libmini;\n" + proto)
        binary = BuildSession().build(
            source + '\nint main() { return mini_strlen("abc"); }', OUR_MPX
        )
        assert load(binary).run() == 3

    def test_conflicting_prototype_cites_the_unit(self):
        with pytest.raises(ReproError) as info:
            BuildSession().build(
                "use libmini;\nint mini_atoi(int s);\n"
                "int main() { return 0; }",
                OUR_MPX,
            )
        assert info.value.loc.line == 2
