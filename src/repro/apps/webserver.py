"""The NGINX stand-in (Section 7.2, Figure 6).

Structure mirrors the paper's deployment:

* OpenSSL lives in T (``ssl_recv``/``ssl_send``: session-key crypto on
  the wire, private plaintext buffers in U);
* request parsing, serving, and the logging module are in U;
* *everything* in U is private except the logging module's buffers;
* request URIs are private, so the log line routes them through the
  ``encrypt_log`` declassifier (keyed for the log administrator);
* file contents are private (``serve_file`` takes the private URI and
  fills a private buffer).

Requests are fixed-format lines ``GET <name-8-chars> <pad...>`` and
responses are ``OK <8-byte length><payload>``.  The Python harness in
the benchmarks drives a closed loop of clients over channel 0.
"""

from __future__ import annotations

from ..runtime.trusted import T_PROTOTYPES

# Maximum servable file (40 KB, the largest point in Figure 6).
MAX_FILE = 40 * 1024
REQ_SIZE = 32
HDR_SIZE = 16

WEBSERVER_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
// ------------------------------------------------------------- webserver
char log_line[256];        // the logging module's buffers are PUBLIC
char enc_uri[64];
int g_requests = 0;

// Requests arrive in clear (the paper's http throughput experiment);
// the URI and everything derived from the files is sensitive.
char req[32];
private char uri[16];

// Copy the URI out of the raw request (offset 4, 8 chars, NUL-padded).
// Public bytes may always flow *up* into private storage.
void parse_request() {
    for (int i = 0; i < 8; i++) { uri[i] = (private char)req[4 + i]; }
    uri[8] = 0;
}

// The logging module: public buffers only; the private URI enters only
// through the encrypt_log declassifier.
void log_request(int nbytes) {
    encrypt_log(uri, enc_uri, 8);
    enc_uri[8] = 0;
    int n = mini_sprintf(log_line, "GET uri=%s bytes=%d seq=%d\n",
                         enc_uri, nbytes, g_requests);
    log_write(log_line, n);
}

// --- the output chain (nginx-style chunked body processing) ---------
// Each stage keeps a mix of public bookkeeping and private data on its
// frame; under split stacks every one of these frames occupies lines
// on *both* stacks — the cache-pressure effect of Figure 6.

private int chunk_digest(private char *chunk, int words) {
    private int acc = (private int)0;
    private int carry = (private int)1;
    int step = words / 8;
    if (step < 1) { step = 1; }
    private int *w = (private int*)chunk;
    for (int i = 0; i < words; i += step) {
        acc += w[i] ^ carry;
        carry = acc >> 3;
    }
    return acc;
}

int chunk_meta(int seq, int len) {
    int hdr[4];
    hdr[0] = seq;
    hdr[1] = len;
    hdr[2] = seq * 31 + len;
    hdr[3] = hdr[2] ^ hdr[0];
    return hdr[3];
}

private int process_chunk(private char *dst, private char *src, int len,
                          int seq) {
    private char staging[64];
    int meta = chunk_meta(seq, len);
    int words = len / 8;
    mini_memcpy_words_priv(dst, src, len);
    for (int i = 0; i < 64; i++) { staging[i] = src[i % (len + 1)]; }
    private int digest = chunk_digest(staging, 8);
    return digest + (private int)meta;
}

int handle_request() {
    // Per-request working buffers live on the *private stack*, like
    // NGINX's per-request pools; U itself assembles the response
    // (only OpenSSL-grade primitives are in T).
    private char fcontents[40960];
    private char resp[40976];
    parse_request();
    int n = serve_file(uri, fcontents, 40960);
    if (n < 0) { n = 0; }
    // Response header: "OK" + length (bytes 8..15), private like the body.
    resp[0] = 'O'; resp[1] = 'K';
    private int *len_field = (private int*)(resp + 8);
    *len_field = n;
    // Emit the body as 2 KB chunks through the output chain.
    private int check = (private int)0;
    int offset = 0;
    int seq = 0;
    while (offset < n) {
        int len = n - offset;
        if (len > 2048) { len = 2048; }
        int padded = (len + 7) / 8 * 8;
        check += process_chunk(resp + 16 + offset, fcontents + offset,
                               padded, seq);
        offset += len;
        seq++;
    }
    ssl_send(1, resp, 16 + n);
    log_request(n);
    g_requests++;
    return n;
}

int main() {
    while (1) {
        int got = recv(0, req, 32);
        if (got < 32) { break; }
        if (req[0] == 'Q') { break; }
        handle_request();
    }
    return g_requests;
}
"""
)


def make_request(name: str) -> bytes:
    """Build one wire-format request for the harness (sent in clear)."""
    body = b"GET " + name.encode().ljust(8, b"\x00")
    return body.ljust(REQ_SIZE, b"\x00")


QUIT_REQUEST = b"Q".ljust(REQ_SIZE, b"\x00")
