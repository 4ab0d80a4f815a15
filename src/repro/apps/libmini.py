"""libmini: U-side utility routines, written in MiniC.

The paper deliberately keeps ``memcpy`` and ``sprintf`` inside U ("even
sprintf and memcpy would be in U") — bugs in them must be contained by
the instrumentation, not by trusting them.  Because the type system has
no label polymorphism (Section 8), byte-copy routines come in public
and private flavours.

``LIBMINI`` is the source of the ``libmini`` library unit
(:mod:`repro.build.library`): an application says ``use libmini;``, is
compiled against the library's prototypes, and is linked after the
library, which a build session compiles once per configuration.
"""

LIBMINI = r"""
// ---------------------------------------------------------------- libmini
int mini_strlen(char *s) {
    int n = 0;
    while (s[n] != 0) { n++; }
    return n;
}

void mini_memcpy(char *dst, char *src, int n) {
    for (int i = 0; i < n; i++) { dst[i] = src[i]; }
}

void mini_memcpy_priv(private char *dst, private char *src, int n) {
    for (int i = 0; i < n; i++) { dst[i] = src[i]; }
}

void mini_memset(char *dst, int value, int n) {
    for (int i = 0; i < n; i++) { dst[i] = (char)value; }
}

void mini_memset_priv(private char *dst, int value, int n) {
    for (int i = 0; i < n; i++) { dst[i] = (private char)value; }
}

// Word-wise copies for bulk data (n must be a multiple of 8).
void mini_memcpy_words(char *dst, char *src, int n) {
    int *d = (int*)dst;
    int *s = (int*)src;
    int w = n / 8;
    for (int i = 0; i < w; i++) { d[i] = s[i]; }
}

void mini_memcpy_words_priv(private char *dst, private char *src, int n) {
    private int *d = (private int*)dst;
    private int *s = (private int*)src;
    int w = n / 8;
    for (int i = 0; i < w; i++) { d[i] = s[i]; }
}

int mini_memcmp(char *a, char *b, int n) {
    for (int i = 0; i < n; i++) {
        if (a[i] != b[i]) { return (int)a[i] - (int)b[i]; }
    }
    return 0;
}

int mini_strcmp(char *a, char *b) {
    int i = 0;
    while (a[i] != 0 && b[i] != 0) {
        if (a[i] != b[i]) { break; }
        i++;
    }
    return (int)a[i] - (int)b[i];
}

void mini_strcpy(char *dst, char *src) {
    int i = 0;
    while (src[i] != 0) { dst[i] = src[i]; i++; }
    dst[i] = 0;
}

int mini_atoi(char *s) {
    int value = 0;
    int sign = 1;
    int i = 0;
    if (s[0] == '-') { sign = -1; i = 1; }
    while (s[i] >= '0' && s[i] <= '9') {
        value = value * 10 + ((int)s[i] - '0');
        i++;
    }
    return value * sign;
}

// Writes the decimal form of x at out, returns chars written.
int mini_itoa(int x, char *out) {
    int n = 0;
    if (x < 0) { out[n] = '-'; n++; x = 0 - x; }
    char tmp[24];
    int t = 0;
    if (x == 0) { tmp[t] = '0'; t++; }
    while (x > 0) { tmp[t] = (char)('0' + x % 10); t++; x = x / 10; }
    while (t > 0) { t--; out[n] = tmp[t]; n++; }
    out[n] = 0;
    return n;
}

// A classic variadic sprintf subset: %d %s %c %x %%.
// Deliberately trusts the format string: extra directives read stale
// slots from the (public) variadic area — the Section 7.6 format-
// string vulnerability, contained by the bounds enforcement.
int mini_sprintf(char *out, char *fmt, ...) {
    int o = 0;
    int argi = 0;
    int i = 0;
    while (fmt[i] != 0) {
        if (fmt[i] != '%') { out[o] = fmt[i]; o++; i++; continue; }
        i++;
        char c = fmt[i];
        i++;
        if (c == '%') { out[o] = '%'; o++; continue; }
        int v = __vararg(argi);
        argi++;
        if (c == 'd') {
            o = o + mini_itoa(v, out + o);
        }
        if (c == 'x') {
            char hx[20];
            int h = 0;
            if (v == 0) { hx[h] = '0'; h++; }
            while (v != 0) {
                int d = v & 15;
                if (d < 10) { hx[h] = (char)('0' + d); }
                else { hx[h] = (char)('a' + d - 10); }
                h++;
                v = (v >> 4) & 0x0fffffffffffffff;
            }
            while (h > 0) { h--; out[o] = hx[h]; o++; }
        }
        if (c == 's') {
            char *s = (char*)v;
            int k = 0;
            while (s[k] != 0) { out[o] = s[k]; o++; k++; }
        }
        if (c == 'c') { out[o] = (char)v; o++; }
    }
    out[o] = 0;
    return o;
}
"""
