"""Serveable app registry: the uniform ``handle_request`` contract.

Each :class:`ServeApp` adapts one of the repo's request-loop apps
(webserver, dirserver, classifier, plus a tiny echo demo) to the
serving tier: how to set up its T-side state, how to encode a
deterministic request stream, and how to validate responses.  The
actual entrypoint is uniform — ``ServeInstance.handle_request(bytes)
-> bytes`` drives any of them — because all three apps already follow
the same shape: block on ``recv`` for a fixed-size request, write one
response to the reply channel, loop.

``build_app_image`` is the one-stop cold path: compile (+ConfVerify)
→ load → run to the first request wait → freeze as a
:class:`MachineImage`.  Everything after that is forks and resets.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Callable

from ..apps.classifier import CLASSIFIER_SRC, IMAGE_BYTES, make_image
from ..apps.dirserver import DIRSERVER_SRC, REQ_SIZE as DIR_REQ_SIZE, \
    make_query
from ..apps.webserver import REQ_SIZE as WEB_REQ_SIZE, WEBSERVER_SRC, \
    make_request
from ..compiler import compile_source
from ..link.loader import load
from ..machine.cpu import DEFAULT_ENGINE
from ..runtime.trusted import T_PROTOTYPES, TrustedRuntime
from .image import MachineImage, warm_image

# ---------------------------------------------------------------------------
# Echo: a deliberately tiny app for high-volume load tests and fault
# injection.  Protocol (16-byte requests):
#   byte 0: 'Q' quits the serve loop, anything else is a normal request
#   byte 1: ASCII digit; '0' divides by zero (a machine fault — the
#           fault-isolation tests use it as their verifier-style trap)
#   byte 2: 'S' spins forever (exercises per-request budgets/eviction)
# Response: 16 bytes — 'E', the echo of bytes 1..7, then 1000/digit as
# a little-endian word.

ECHO_SRC = T_PROTOTYPES + r"""
char req[16];
char resp[16];
int g_echoed = 0;

int main() {
    while (1) {
        int got = recv(0, req, 16);
        if (got < 16) { break; }
        if (req[0] == 'Q') { break; }
        int denom = (int)req[1] - '0';
        if (req[2] == 'S') {
            int spin = 1;
            while (spin > 0) { spin = spin + 1; }
        }
        int scaled = 1000 / denom;
        for (int i = 0; i < 8; i++) { resp[i] = req[i]; }
        resp[0] = 'E';
        int *out = (int*)(resp + 8);
        *out = scaled;
        send(1, resp, 16);
        g_echoed++;
    }
    return g_echoed;
}
"""

ECHO_REQ_SIZE = 16


def echo_request(index: int) -> bytes:
    digit = ord("1") + index % 9
    tail = bytes((index + i) & 0x7F for i in range(13))
    return bytes((ord("R"), digit, ord("N"))) + tail


def echo_fault_request() -> bytes:
    """Divides by zero inside the enclave — a machine fault."""
    return b"R0N" + b"\x00" * 13


def echo_spin_request() -> bytes:
    """Never finishes — exhausts any per-request budget."""
    return b"R5S" + b"\x00" * 13


def _echo_encode(runtime: TrustedRuntime, index: int) -> bytes:
    return echo_request(index)


def _echo_check(runtime, request: bytes, response: bytes) -> bool:
    if len(response) != 16 or response[0] != ord("E"):
        return False
    if response[1:8] != request[1:8]:
        return False
    scaled = struct.unpack_from("<q", response, 8)[0]
    return scaled == 1000 // (request[1] - ord("0"))


# ---------------------------------------------------------------------------
# Webserver: a fixed deterministic document set, requests round-robin
# over it, responses are whole-record session-key encrypted.

WEB_FILES = {
    "fileAAAA": b"A" * 512,
    "fileBBBB": bytes(range(256)) * 8,
    "fileCCCC": b"The quick brown fox jumps over the lazy dog. " * 40,
    "filetiny": b"ok",
}
_WEB_NAMES = tuple(WEB_FILES)


def _web_setup(runtime: TrustedRuntime) -> None:
    for name, data in WEB_FILES.items():
        runtime.add_file(name, data)


def _web_encode(runtime: TrustedRuntime, index: int) -> bytes:
    return make_request(_WEB_NAMES[index % len(_WEB_NAMES)])


def _web_check(runtime, request: bytes, response: bytes) -> bool:
    name = request[4:12].rstrip(b"\x00").decode()
    expected = WEB_FILES.get(name, b"")
    if len(response) != 16 + len(expected):
        return False
    plain = runtime.encrypt_with(runtime.session_key, response)
    if plain[:2] != b"OK":
        return False
    length = int.from_bytes(plain[8:16], "little")
    return length == len(expected) and plain[16:16 + length] == expected


# ---------------------------------------------------------------------------
# Dirserver: single bind user; the request stream mixes lookup hits
# (even ids below 20000) with misses.  With per-request image resets
# every request re-binds, which is exactly the fresh-instance
# semantics — the cached-bind fast path only matters within a batch.

_DIR_USER = "alice"
_DIR_PASSWORD = b"pw123"
_HASH_K = 2654435761


def _dir_setup(runtime: TrustedRuntime) -> None:
    runtime.set_password(_DIR_USER, _DIR_PASSWORD)


def _dir_encode(runtime: TrustedRuntime, index: int) -> bytes:
    if index % 3 == 2:  # a miss: odd ids are never populated
        entry_id = (index * _HASH_K) % 20000 | 1
    else:
        entry_id = 2 * ((index * 7919) % 10000)
    return make_query(runtime, entry_id, _DIR_USER)


def _dir_check(runtime, request: bytes, response: bytes) -> bool:
    if len(response) != 16:
        return False
    entry_id = struct.unpack_from("<q", request, 0)[0]
    status = struct.unpack_from("<q", response, 0)[0]
    if entry_id % 2 == 0 and 0 <= entry_id < 20000:
        return status == (entry_id // 2 * _HASH_K) & 0xFFFFFF
    return status < 0


# ---------------------------------------------------------------------------
# Classifier: encrypted 3 KB images in, an 8-byte class id out.


def _cls_encode(runtime: TrustedRuntime, index: int) -> bytes:
    return make_image(runtime, seed=index)


def _cls_check(runtime, request: bytes, response: bytes) -> bool:
    if len(response) != 8:
        return False
    return 0 <= struct.unpack("<q", response)[0] < 10


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeApp:
    """How the serving tier drives one app."""

    name: str
    source: str = field(repr=False)
    request_size: int
    #: Install T-side state (files, passwords) — runs before load, so
    #: it is part of the frozen image.
    setup: Callable[[TrustedRuntime], None] | None
    #: Deterministic request stream: index -> wire bytes.  Uses only
    #: the runtime's keys, so any runtime restored from the image (or
    #: sharing its seed) encodes identical bytes.
    encode_request: Callable[[TrustedRuntime, int], bytes]
    #: Validate a response against its request.
    check_response: Callable[[TrustedRuntime, bytes, bytes], bool]
    request_fd: int = 0
    response_fd: int = 1


SERVE_APPS: dict[str, ServeApp] = {
    app.name: app
    for app in (
        ServeApp(
            name="webserver",
            source=WEBSERVER_SRC,
            request_size=WEB_REQ_SIZE,
            setup=_web_setup,
            encode_request=_web_encode,
            check_response=_web_check,
        ),
        ServeApp(
            name="dirserver",
            source=DIRSERVER_SRC,
            request_size=DIR_REQ_SIZE,
            setup=_dir_setup,
            encode_request=_dir_encode,
            check_response=_dir_check,
        ),
        ServeApp(
            name="classifier",
            source=CLASSIFIER_SRC,
            request_size=IMAGE_BYTES,
            setup=None,
            encode_request=_cls_encode,
            check_response=_cls_check,
        ),
        ServeApp(
            name="echo",
            source=ECHO_SRC,
            request_size=ECHO_REQ_SIZE,
            setup=None,
            encode_request=_echo_encode,
            check_response=_echo_check,
        ),
    )
}


def build_app_image(
    app: ServeApp,
    config,
    *,
    seed: int | None = None,
    engine: str = DEFAULT_ENGINE,
    n_cores: int = 4,
    verify: bool = True,
    warm: bool = True,
):
    """The one cold pass: compile (+ConfVerify) → load → park at the
    request loop → freeze.  Returns ``(image, timings)`` where
    ``timings`` records the cold wall costs the fork path amortizes
    away (``build_wall_s``, ``load_wall_s``)."""
    runtime = TrustedRuntime()
    if app.setup is not None:
        app.setup(runtime)
    t0 = time.perf_counter()
    binary = compile_source(app.source, config, seed=seed, verify=verify)
    build_wall_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    process = load(binary, runtime=runtime, n_cores=n_cores, engine=engine)
    load_wall_s = time.perf_counter() - t0
    if warm:
        image = warm_image(process)
    else:
        image = MachineImage.snapshot(process)
    return image, {"build_wall_s": build_wall_s, "load_wall_s": load_wall_s}
