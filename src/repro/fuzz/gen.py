"""Seeded random well-typed MiniC program generator.

The source-level sibling of ``formal/gen.py``: where the formal
generator emits abstract commands with their Γ annotations, this one
emits *compilable MiniC* that is well-typed by construction —

* every branch/loop condition is public (strict mode holds);
* private values flow only into private sinks (locals, private
  globals/arrays, private heap blocks) or nowhere;
* every array/heap index is masked to the object's bounds, so the
  program is memory-safe and must behave identically under every
  build configuration;
* loops are bounded — a loop counter is readable in its body but never
  an assignment target — and there is no recursion, so every program
  terminates.

That makes generated programs usable as differential-testing inputs:
Base, OurMPX and OurSeg must produce the same exit code and the same
observable output, both machine engines must agree cycle-for-cycle,
and ConfVerify must accept the instrumented builds.  Any disagreement
is a toolchain bug, reproducible from the generating seed alone.
"""

from __future__ import annotations

import random

from ..runtime.trusted import T_PROTOTYPES

_BINOPS = ("+", "-", "*", "&", "|", "^")
_CMPOPS = ("<", "<=", ">", ">=", "==", "!=")

DEFAULT_SIZE = 12


class _Builder:
    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        self.size = max(3, size)
        self.lines: list[str] = []
        self.indent = 0
        # (name, is_private) int variables visible in the current scope.
        self.scopes: list[list[tuple[str, bool]]] = []
        # Loop counters: visible to expressions, never assigned.
        self.loop_counters: set[str] = set()
        self.counter = 0
        self.helpers: list[str] = []  # helper function names: int f(int,int)
        self.has_apply = False

    # -- emission -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def push_scope(self) -> None:
        self.scopes.append([])

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, private: bool) -> None:
        self.scopes[-1].append((name, private))

    def visible(self, private: bool | None = None) -> list[str]:
        names = []
        for scope in self.scopes:
            for name, is_priv in scope:
                if private is None or is_priv == private:
                    names.append(name)
        return names

    # -- expressions ----------------------------------------------------

    def expr(self, private: bool, depth: int = 0) -> str:
        """A MiniC int expression of the requested taint.

        Public expressions use only public atoms; private expressions
        may mix (public data flows upward for free).
        """
        rng = self.rng
        if depth >= 3 or rng.random() < 0.35:
            return self.atom(private)
        roll = rng.random()
        if roll < 0.70:
            op = rng.choice(_BINOPS)
            a = self.expr(private, depth + 1)
            b = self.expr(private, depth + 1)
            return f"({a} {op} {b})"
        if roll < 0.85:
            op = rng.choice(("<<", ">>"))
            return f"({self.expr(private, depth + 1)} {op} {rng.randrange(1, 6)})"
        # Comparison produces 0/1 of its operands' taint.
        op = rng.choice(_CMPOPS)
        a = self.expr(private, depth + 1)
        b = self.expr(private, depth + 1)
        return f"({a} {op} {b})"

    def atom(self, private: bool) -> str:
        rng = self.rng
        candidates = self.visible(private=False)
        if private:
            candidates = candidates + self.visible(private=True)
        if candidates and rng.random() < 0.7:
            return rng.choice(candidates)
        return str(rng.randrange(0, 64))

    def condition(self) -> str:
        """A public branch condition (strict mode: no private branches)."""
        op = self.rng.choice(_CMPOPS)
        return f"({self.expr(False, 1)} {op} {self.expr(False, 1)})"

    def index(self, size: int) -> str:
        """An always-in-bounds index expression (two's-complement `&`
        keeps even negative subexpressions inside [0, size))."""
        assert size & (size - 1) == 0, "array sizes are powers of two"
        return f"({self.expr(False, 1)} & {size - 1})"

    # -- statements -----------------------------------------------------

    def stmt_decl(self) -> None:
        if self.rng.random() < 0.3:
            name = self.fresh("s")
            self.emit(f"private int {name} = {self.expr(True)};")
            self.declare(name, True)
        else:
            name = self.fresh("x")
            self.emit(f"int {name} = {self.expr(False)};")
            self.declare(name, False)

    def stmt_assign(self) -> None:
        priv_targets = self.visible(private=True)
        pub_targets = [
            name for name in self.visible(private=False)
            if name not in self.loop_counters
        ]
        if priv_targets and self.rng.random() < 0.35:
            target = self.rng.choice(priv_targets)
            self.emit(f"{target} = {self.expr(True)};")
        elif pub_targets:
            target = self.rng.choice(pub_targets)
            self.emit(f"{target} = {self.expr(False)};")
        else:
            self.stmt_decl()

    def stmt_array(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            self.emit(f"g_nums[{self.index(16)}] = {self.expr(False)};")
        elif roll < 0.6:
            self.emit(f"g_snums[{self.index(16)}] = {self.expr(True)};")
        elif roll < 0.8:
            self.emit(
                f"g_pbuf[{self.index(32)}] = "
                f"(char)({self.expr(False)} & 255);"
            )
        else:
            self.emit(
                f"g_sbuf[{self.index(32)}] = "
                f"(private char)({self.expr(True)} & 255);"
            )

    def stmt_array_load(self) -> None:
        rng = self.rng
        if rng.random() < 0.5:
            name = self.fresh("x")
            src = rng.choice(
                (f"g_nums[{self.index(16)}]", f"g_pbuf[{self.index(32)}]")
            )
            self.emit(f"int {name} = {src};")
            self.declare(name, False)
        else:
            name = self.fresh("s")
            src = rng.choice(
                (f"g_snums[{self.index(16)}]",
                 f"(private int)g_sbuf[{self.index(32)}]")
            )
            self.emit(f"private int {name} = {src};")
            self.declare(name, True)

    def stmt_if(self, budget: int) -> None:
        self.emit(f"if {self.condition()} {{")
        self.indent += 1
        self.push_scope()
        self.block(max(1, budget // 2))
        self.pop_scope()
        self.indent -= 1
        if self.rng.random() < 0.5:
            self.emit("} else {")
            self.indent += 1
            self.push_scope()
            self.block(max(1, budget // 2))
            self.pop_scope()
            self.indent -= 1
        self.emit("}")

    def stmt_for(self, budget: int) -> None:
        var = self.fresh("i")
        bound = self.rng.randrange(2, 7)
        self.emit(f"for (int {var} = 0; {var} < {bound}; {var} += 1) {{")
        self.indent += 1
        self.push_scope()
        self.declare(var, False)
        self.loop_counters.add(var)
        self.block(max(1, budget // 2))
        self.pop_scope()
        self.indent -= 1
        self.emit("}")

    def stmt_while(self, budget: int) -> None:
        var = self.fresh("w")
        bound = self.rng.randrange(2, 6)
        self.emit(f"int {var} = {bound};")
        self.emit(f"while ({var} > 0) {{")
        self.indent += 1
        self.push_scope()
        self.declare(var, False)
        self.loop_counters.add(var)
        self.block(max(1, budget // 2))
        self.emit(f"{var} -= 1;")
        self.pop_scope()
        self.indent -= 1
        self.emit("}")

    def stmt_call(self) -> None:
        if not self.helpers:
            self.stmt_assign()
            return
        fn = self.rng.choice(self.helpers)
        a, b = self.expr(False, 1), self.expr(False, 1)
        if self.has_apply and self.rng.random() < 0.4:
            call = f"fn_apply({fn}, {a}, {b})"
        else:
            call = f"{fn}({a}, {b})"
        name = self.fresh("x")
        self.emit(f"int {name} = {call};")
        self.declare(name, False)

    def stmt_heap_copy(self) -> None:
        """A private heap-to-heap copy: the one statement shape whose
        instrumented code moves a privately-loaded register straight
        into a private store (the pattern the flip-store-guard and
        swap-store-segment mutation operators anchor on)."""
        src = self.fresh("hs")
        dst = self.fresh("hd")
        self.emit(f"private char *{src} = malloc_priv(32);")
        self.emit(f"private char *{dst} = malloc_priv(32);")
        self.emit(
            f"{src}[{self.index(32)}] = "
            f"(private char)({self.expr(True)} & 255);"
        )
        self.emit(f"{dst}[{self.index(32)}] = {src}[{self.index(32)}];")
        self.emit(f"free_priv({src});")
        self.emit(f"free_priv({dst});")

    def stmt_heap(self) -> None:
        rng = self.rng
        roll = rng.random()
        if roll >= 0.75:
            self.stmt_heap_copy()
            return
        ptr = self.fresh("hp")
        if roll < 0.45:
            self.emit(f"char *{ptr} = malloc_pub(32);")
            self.emit(f"{ptr}[{self.index(32)}] = "
                      f"(char)({self.expr(False)} & 255);")
            name = self.fresh("x")
            self.emit(f"int {name} = {ptr}[{self.index(32)}];")
            self.declare(name, False)
            self.emit(f"free_pub({ptr});")
        else:
            self.emit(f"private char *{ptr} = malloc_priv(32);")
            self.emit(f"{ptr}[{self.index(32)}] = "
                      f"(private char)({self.expr(True)} & 255);")
            name = self.fresh("s")
            self.emit(f"private int {name} = (private int){ptr}[{self.index(32)}];")
            self.declare(name, True)
            self.emit(f"free_priv({ptr});")

    def stmt_print(self) -> None:
        self.emit(f"print_int({self.expr(False)});")

    def block(self, budget: int) -> None:
        weighted = (
            (self.stmt_decl, 3),
            (self.stmt_assign, 3),
            (self.stmt_array, 3),
            (self.stmt_array_load, 2),
            (self.stmt_call, 2),
            (self.stmt_heap, 2),
            (self.stmt_print, 1),
        )
        choices = [fn for fn, w in weighted for _ in range(w)]
        remaining = budget
        while remaining > 0:
            if remaining >= 3 and self.rng.random() < 0.25:
                nested = self.rng.choice(
                    (self.stmt_if, self.stmt_for, self.stmt_while)
                )
                nested(remaining - 1)
                remaining -= 3
            else:
                self.rng.choice(choices)()
                remaining -= 1

    # -- top level ------------------------------------------------------

    def helper_function(self, name: str) -> None:
        self.emit(f"int {name}(int a, int b) {{")
        self.indent += 1
        self.push_scope()
        self.declare("a", False)
        self.declare("b", False)
        self.block(self.rng.randrange(2, 5))
        self.emit(f"return {self.expr(False)};")
        self.pop_scope()
        self.indent -= 1
        self.emit("}")
        self.emit("")

    def private_helper(self, name: str) -> None:
        self.emit(f"private int {name}(private int a, int b) {{")
        self.indent += 1
        self.push_scope()
        self.declare("a", True)
        self.declare("b", False)
        self.emit(f"private int acc = (a {self.rng.choice(_BINOPS)} b);")
        self.declare("acc", True)
        self.emit(f"return {self.expr(True)};")
        self.pop_scope()
        self.indent -= 1
        self.emit("}")
        self.emit("")

    def build(self) -> str:
        rng = self.rng
        # Globals: a public/private pair of int arrays and byte buffers,
        # plus a couple of scalars every function can touch.
        self.emit("int g_nums[16];")
        self.emit("private int g_snums[16];")
        self.emit("char g_pbuf[32];")
        self.emit("private char g_sbuf[32];")
        self.emit("int g_a;")
        self.emit("int g_b;")
        self.emit("private int g_secret;")
        self.emit("")
        self.push_scope()
        self.declare("g_a", False)
        self.declare("g_b", False)
        self.declare("g_secret", True)

        for _ in range(rng.randrange(1, 4)):
            name = self.fresh("fn_f")
            self.helper_function(name)
            self.helpers.append(name)
        priv_helper = None
        if rng.random() < 0.6:
            priv_helper = self.fresh("fn_p")
            self.private_helper(priv_helper)
        if rng.random() < 0.6:
            self.emit("int fn_apply(int (*f)(int, int), int a, int b) {")
            self.emit("    return f(a, b);")
            self.emit("}")
            self.emit("")
            self.has_apply = True

        self.emit("int main() {")
        self.indent += 1
        self.push_scope()
        self.block(self.size)
        if priv_helper is not None:
            self.emit(
                f"g_secret = {priv_helper}({self.expr(True, 1)}, "
                f"{self.expr(False, 1)});"
            )
        self.stmt_print()
        self.emit(f"return ({self.expr(False)}) & 127;")
        self.pop_scope()
        self.indent -= 1
        self.emit("}")
        return "\n".join(self.lines) + "\n"


def generate_source(seed: int, size: int = DEFAULT_SIZE) -> str:
    """Generate one well-typed MiniC program (with the T prototypes
    prepended, ready for ``compile_source``) from a seed.

    Deterministic: the same ``(seed, size)`` always yields the same
    source text, which is what makes every downstream finding
    reproducible from its seed alone.
    """
    rng = random.Random((seed << 8) ^ 0xF022)
    return T_PROTOTYPES + _Builder(rng, size).build()
