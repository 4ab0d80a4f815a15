"""The three injected vulnerabilities of Section 7.6.

Each attack comes as (vulnerable MiniC source, exploit driver).  The
drivers run the exploit against a configuration and report whether
private data leaked — reproducing the paper's result that the ``Base``
build leaks and every full-ConfLLVM build does not.

1. **Mongoose stale-stack leak** — a buffer-bounds bug in the
   plain-file path sends stale stack memory.  A first request makes
   the server stage a private file on the stack; a second request
   over-reads.  ConfLLVM stops it because the private file only ever
   touched the *private* stack, and the over-read is physically
   confined to the public region.

2. **Minizip password-to-log leak** — the encryption password is
   written to a log file.  The direct version is caught statically by
   qualifier inference; after pointer-cast laundering (which makes the
   leak statically invisible), the dynamic checks stop it.

3. **printf format string** — a variadic ``mini_sprintf`` with an
   attacker-controlled format reads extra "arguments" from the stack.
   The variadic area is on the public stack, so the over-read can only
   produce public bytes under ConfLLVM.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler import compile_and_load
from ..config import BuildConfig
from ..errors import MachineFault
from ..runtime.trusted import T_PROTOTYPES, TrustedRuntime

SECRET_FILE = b"TOPSECRET-data-0123456789abcdef!" * 8  # 256 bytes
SECRET_MARKER = b"TOPSECRET"
PASSWORD = b"hunter2!"


@dataclass
class AttackOutcome:
    """What happened when the exploit ran — machine-readable.

    ``attack``/``config`` name the experiment cell, so a list of
    outcomes (see :func:`run_all_attacks`) serializes straight into the
    paper's Section 7.6 table without re-deriving context from the
    call site.
    """

    leaked: bool
    faulted: bool
    fault_kind: str | None
    output: bytes
    attack: str = ""
    config: str = ""

    @property
    def stopped(self) -> bool:
        """The defense held: no private bytes reached the attacker."""
        return not self.leaked

    def to_dict(self) -> dict:
        """JSON-safe record (output hex-encoded and truncated)."""
        return {
            "attack": self.attack,
            "config": self.config,
            "leaked": self.leaked,
            "stopped": self.stopped,
            "faulted": self.faulted,
            "fault_kind": self.fault_kind,
            "output_hex": self.output[:64].hex(),
            "output_len": len(self.output),
        }


# ---------------------------------------------------------------------------
# 1. Mongoose: stale stack data via buffer over-read

MONGOOSE_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
char req[32];
int g_served = 0;

// Serve an encrypted private file: contents live in a private stack
// buffer and leave only through ssl_send.
void serve_private_file() {
    private char uri[16];
    for (int i = 0; i < 8; i++) { uri[i] = (private char)req[4 + i]; }
    uri[8] = 0;
    private char fbuf[256];
    int n = serve_file(uri, fbuf, 256);
    if (n > 0) { ssl_send(1, fbuf, n); }
}

// Serve a canned public page -- with an injected bounds bug: the
// attacker controls how far *below* the page buffer the copy starts.
// The output buffer is global so this frame is shallow and the
// over-read window overlaps the previous handler's (deeper) frame.
char out_page[1024];

void serve_public_page(int back) {
    char page[16];
    for (int i = 0; i < 16; i++) { page[i] = (char)('A' + i); }
    int o = 0;
    // VULNERABILITY: back > 0 starts the copy before page[0], leaking
    // stale stack bytes from deeper (previously used) frames.
    for (int i = 0 - back; i < 16; i++) {
        out_page[o] = page[i];
        o++;
    }
    send(1, out_page, o);
}

int main() {
    while (1) {
        int got = recv(0, req, 32);
        if (got < 32) { break; }
        if (req[0] == 'Q') { break; }
        if (req[0] == 'P') { serve_private_file(); }
        if (req[0] == 'X') {
            int *amount = (int*)(req + 16);
            serve_public_page(*amount);
        }
        g_served++;
    }
    return g_served;
}
"""
)


def run_mongoose_attack(config: BuildConfig, overread: int = 400) -> AttackOutcome:
    runtime = TrustedRuntime()
    runtime.add_file("secret00", SECRET_FILE)
    # Request 1: private file (stages secret bytes on the stack).
    req1 = b"P   secret00".ljust(32, b"\x00")
    # Request 2: public page with the over-read exploit.
    req2 = bytearray(b"X".ljust(16, b"\x00"))
    req2 += overread.to_bytes(8, "little") + b"\x00" * 8
    quit_req = b"Q".ljust(32, b"\x00")
    runtime.channel(0).feed(req1 + bytes(req2) + quit_req)
    process = compile_and_load(MONGOOSE_SRC, config, runtime=runtime)
    faulted = False
    kind = None
    try:
        process.run()
    except MachineFault as fault:
        faulted = True
        kind = fault.kind
    leaked_bytes = runtime.channel(1).drain_out()
    return AttackOutcome(
        leaked=SECRET_MARKER in leaked_bytes,
        faulted=faulted,
        fault_kind=kind,
        output=leaked_bytes,
        attack="mongoose-stale-stack",
        config=config.name,
    )


# ---------------------------------------------------------------------------
# 2. Minizip: explicit password leak to the log, hidden behind casts

MINIZIP_DIRECT_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
void do_compress(char *name, private char *password) {
    // BUG: logs the cleartext password.
    log_write(password, 8);
}
int main() {
    private char pw[16];
    read_passwd("user", pw, 16);
    do_compress("archive", pw);
    return 0;
}
"""
)

MINIZIP_CASTED_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
void do_compress(char *name, private char *password) {
    // The same bug laundered through casts: statically invisible.
    int addr = (int)password;
    char *laundered = (char*)addr;
    log_write(laundered, 8);
}
int main() {
    private char pw[16];
    read_passwd("user", pw, 16);
    do_compress("archive", pw);
    return 0;
}
"""
)


def run_minizip_attack(config: BuildConfig) -> AttackOutcome:
    runtime = TrustedRuntime()
    runtime.set_password("user", PASSWORD)
    process = compile_and_load(MINIZIP_CASTED_SRC, config, runtime=runtime)
    faulted = False
    kind = None
    try:
        process.run()
    except MachineFault as fault:
        faulted = True
        kind = fault.kind
    log = bytes(runtime.log)
    return AttackOutcome(
        leaked=PASSWORD[:8] in log,
        faulted=faulted,
        fault_kind=kind,
        output=log,
        attack="minizip-cast-leak",
        config=config.name,
    )


# ---------------------------------------------------------------------------
# 3. Format string: %d-laddered stack dump through a variadic function

FORMAT_STRING_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
char fmt[64];
char msg[256];

int main() {
    private char key[32];
    read_passwd("admin", key, 32);
    // Attacker-supplied format string arrives over the network.
    recv(0, fmt, 64);
    // VULNERABILITY: fmt is used with no arguments; every directive
    // reads a stale slot from the (public) variadic stack area.
    mini_sprintf(msg, fmt);
    send(1, msg, mini_strlen(msg));
    return 0;
}
"""
)


def run_format_string_attack(config: BuildConfig) -> AttackOutcome:
    runtime = TrustedRuntime()
    runtime.set_password("admin", PASSWORD + b"FORMATSECRET")
    fmt = b"%x.%x.%x.%x.%x.%x.%x.%x.%x.%x.%x.%x"
    runtime.channel(0).feed(fmt.ljust(64, b"\x00"))
    process = compile_and_load(FORMAT_STRING_SRC, config, runtime=runtime)
    faulted = False
    kind = None
    try:
        process.run()
    except MachineFault as fault:
        faulted = True
        kind = fault.kind
    dumped = runtime.channel(1).drain_out()
    # Only the first 16 bytes are distinctive secret content; zero
    # padding words would false-positive against any '0' in the dump.
    secret = PASSWORD + b"FORMATSECRET"
    secret_words = {
        b"%x" % int.from_bytes(secret[i : i + 8], "little")
        for i in range(0, 16, 8)
    }
    leaked = any(w in dumped for w in secret_words)
    return AttackOutcome(
        leaked=leaked,
        faulted=faulted,
        fault_kind=kind,
        output=dumped,
        attack="format-string",
        config=config.name,
    )


# ---------------------------------------------------------------------------
# 4. Control-flow hijack: return-address overwrite (ROP-style)

ROP_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
// A privileged routine the attacker wants to reach without
// authorization: it declassifies and transmits the secret.
void grant_access() {
    private char secret[16];
    read_passwd("vault", secret, 16);
    char out[16];
    encrypt(secret, out, 16);
    // The exploit goal is reaching this send of the *decrypted* value:
    // simulate the insider path by sending the raw key through the
    // log channel, which only this function may do after authz.
    log_write("ACCESS-GRANTED", 14);
    send(1, out, 16);
}

void handle(int idx, int value) {
    int scratch[4];
    // VULNERABILITY: attacker-controlled index writes beyond the
    // array — with idx aimed at the saved return address, this is the
    // classic stack-smash -> control-flow hijack.
    scratch[idx] = value;
}

int main() {
    char req[24];
    recv(0, req, 24);
    int *idx_field = (int*)req;
    int *val_field = (int*)(req + 8);
    handle(*idx_field, *val_field);
    return 0;
}
"""
)


def run_rop_attack(config: BuildConfig) -> AttackOutcome:
    """Overwrite handle()'s return address with grant_access's entry.

    The paper's taint-aware CFI stops this: the return check requires
    an MRet magic word at the target, and a procedure entry carries
    MCall — so diverting a return to a function entry faults.
    """
    from ..compiler import compile_source
    from ..link.layout import CODE_BASE
    from ..link.loader import load

    binary = compile_source(ROP_SRC, config)
    # The attacker learned grant_access's address (info leak assumed).
    target = CODE_BASE + binary.label_addrs["grant_access"]
    # handle's frame: scratch at offset 0; the saved return address
    # sits just above the frame: scratch[frame_size/8] (no saved
    # callee-saves in this tiny leaf).  Scan plausible slots.
    outcome = None
    for slot in range(2, 10):
        rt = TrustedRuntime()
        rt.set_password("vault", PASSWORD)
        req = slot.to_bytes(8, "little") + (target).to_bytes(8, "little")
        rt.channel(0).feed(req.ljust(24, b"\x00"))
        process = load(compile_source(ROP_SRC, config), runtime=rt)
        faulted = False
        kind = None
        try:
            process.run(max_instructions=5_000_000)
        except MachineFault as fault:
            faulted = True
            kind = fault.kind
        hijacked = b"ACCESS-GRANTED" in bytes(rt.log)
        outcome = AttackOutcome(
            leaked=hijacked,
            faulted=faulted,
            fault_kind=kind,
            output=rt.channel(1).drain_out(),
            attack="rop-return-hijack",
            config=config.name,
        )
        if hijacked:
            return outcome
        if faulted and kind == "cfi-check-failed":
            return outcome
    return outcome


ALL_ATTACKS = {
    "mongoose-stale-stack": run_mongoose_attack,
    "minizip-cast-leak": run_minizip_attack,
    "format-string": run_format_string_attack,
    "rop-return-hijack": run_rop_attack,
}


def run_all_attacks(configs) -> list[AttackOutcome]:
    """Run every Section 7.6 attack against every given config.

    Returns one :class:`AttackOutcome` per (attack, config) cell, in a
    stable order, each carrying its own ``attack``/``config`` labels —
    ``[o.to_dict() for o in run_all_attacks(...)]`` is the paper table.
    """
    outcomes = []
    for name, runner in ALL_ATTACKS.items():
        for config in configs:
            outcome = runner(config)
            # Belt and braces: the runners stamp these themselves, but
            # a forgotten label would silently corrupt the table.
            assert outcome.attack == name and outcome.config == config.name
            outcomes.append(outcome)
    return outcomes
