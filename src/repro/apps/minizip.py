"""Minizip: the file-compression tool of Section 7.6, as a full app.

The attack module (`repro.attacks`) carries the *injected-vulnerability*
variants; this is the honest tool: compress a file (RLE), protect the
archive with a password-derived keystream obtained from T, and
decompress/verify on the way back.  The password is private throughout;
only the encrypted archive is public.

Wire protocol (channel 0):
  'C' <name 8B>            compress file -> archive "<name>.z"
  'X' <name 8B>            extract archive "<name>.z" -> "<name>.out"
  'Q'                      quit
Responses (channel 1): 8-byte status per request (output size or <0).
"""

from __future__ import annotations

from ..runtime.trusted import T_PROTOTYPES

REQ_SIZE = 16

MINIZIP_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
// -------------------------------------------------------------- minizip
char req[16];
char in_name[16];
char out_name[16];
char file_buf[8192];
char work_buf[16448];
int g_ops = 0;

// RLE: (byte, runlen) pairs; runlen 1..255.
int rle_compress(char *dst, char *src, int n) {
    int o = 0;
    int i = 0;
    while (i < n) {
        char c = src[i];
        int run = 1;
        while (i + run < n && src[i + run] == c && run < 255) { run++; }
        dst[o] = c; o++;
        dst[o] = (char)run; o++;
        i += run;
    }
    return o;
}

int rle_expand(char *dst, char *src, int n, int max_out) {
    int o = 0;
    for (int i = 0; i + 1 < n; i += 2) {
        char c = src[i];
        int run = (int)src[i + 1];
        if (o + run > max_out) { return -1; }
        for (int r = 0; r < run; r++) { dst[o] = c; o++; }
    }
    return o;
}

void build_names(int extract) {
    for (int i = 0; i < 8; i++) { in_name[i] = req[1 + i]; }
    in_name[8] = 0;
    int n = mini_strlen(in_name);
    mini_strcpy(out_name, in_name);
    if (extract) {
        out_name[n] = '.'; out_name[n+1] = 'o'; out_name[n+2] = 'u';
        out_name[n+3] = 't'; out_name[n+4] = 0;
        in_name[n] = '.'; in_name[n+1] = 'z'; in_name[n+2] = 0;
    } else {
        out_name[n] = '.'; out_name[n+1] = 'z'; out_name[n+2] = 0;
    }
}

int do_compress() {
    build_names(0);
    int n = read_file(in_name, file_buf, 8192);
    if (n < 0) { return -1; }
    int z = rle_compress(work_buf, file_buf, n);
    write_file(out_name, work_buf, z);
    return z;
}

int do_extract() {
    build_names(1);
    int z = read_file(in_name, work_buf, 16448);
    if (z < 0) { return -1; }
    int n = rle_expand(file_buf, work_buf, z, 8192);
    if (n < 0) { return -2; }
    write_file(out_name, file_buf, n);
    return n;
}

int main() {
    while (1) {
        int got = recv(0, req, 16);
        if (got < 16) { break; }
        char op = req[0];
        if (op == 'Q') { break; }
        int status = -9;
        if (op == 'C') { status = do_compress(); }
        if (op == 'X') { status = do_extract(); }
        char resp[8];
        int *sp = (int*)resp;
        *sp = status;
        send(1, resp, 8);
        g_ops++;
    }
    return g_ops;
}
"""
)


def make_request(op: str, name: str) -> bytes:
    assert op in ("C", "X", "Q")
    return (op.encode() + name.encode().ljust(8, b"\x00")).ljust(
        REQ_SIZE, b"\x00"
    )
