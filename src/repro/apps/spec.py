"""SPEC CPU 2006 stand-in kernels (Figure 5 workloads).

The paper runs all C benchmarks of SPEC CPU 2006 except perlbench
(fork).  Real SPEC inputs are licensed and the suite needs a native
toolchain, so each benchmark is represented by a MiniC kernel with the
same *computational character* — the property the instrumentation
overhead actually depends on:

============ ==========================================================
bzip2        run-length + move-to-front coding over a byte buffer
gcc          symbol-table hashing with chained buckets (malloc-heavy)
mcf          Bellman-Ford relaxation over adjacency arrays (pointer-ish)
milc         3x3 fixed-point matrix products over lattice sites, with
             allocation churn (the allocator-sensitive benchmark)
gobmk        board scans and liberty counting on a 2-D array
hmmer        Viterbi dynamic programming over int tables
sjeng        fixed-depth negamax over a synthetic game tree
libquantum   gate application over a state vector (bit ops, streaming)
h264ref      sum-of-absolute-differences motion estimation
lbm          1-D lattice stencil sweep (streaming loads/stores)
sphinx3      Gaussian scoring: table-lookup dot products
============ ==========================================================

Like the paper's runs, the kernels use no private data: every byte is
public, so the measured overhead is pure instrumentation cost.
"""

from __future__ import annotations

from ..runtime.trusted import T_PROTOTYPES

_COMMON = T_PROTOTYPES + "use libmini;"

_KERNELS: dict[str, str] = {}

_KERNELS["bzip2"] = """
char src[4096];
char rle[8192];
char mtf[256];

int rle_encode(char *out, char *in, int n) {
    int o = 0;
    int i = 0;
    while (i < n) {
        char c = in[i];
        int run = 1;
        while (i + run < n && in[i + run] == c && run < 255) { run++; }
        out[o] = c; o++;
        out[o] = (char)run; o++;
        i += run;
    }
    return o;
}

int mtf_encode(char *buf, int n) {
    int sum = 0;
    for (int i = 0; i < 256; i++) { mtf[i] = (char)i; }
    for (int i = 0; i < n; i++) {
        char c = buf[i];
        int j = 0;
        while (mtf[j] != c) { j++; }
        sum += j;
        while (j > 0) { mtf[j] = mtf[j - 1]; j--; }
        mtf[0] = c;
    }
    return sum;
}

int main() {
    int seed = 12345;
    for (int i = 0; i < 4096; i++) {
        seed = seed * 1103515245 + 12345;
        src[i] = (char)((seed >> 16) & 7);
    }
    int check = 0;
    for (int round = 0; round < SCALE; round++) {
        int m = rle_encode(rle, src, 4096);
        check += mtf_encode(rle, m);
    }
    return check & 255;
}
"""

_KERNELS["gcc"] = """
struct sym { int name; int value; struct sym *next; };
struct sym *table[256];

int hash_name(int name) { return (name * 2654435761) & 255; }

void insert(int name, int value) {
    struct sym *s = (struct sym*)malloc_pub(sizeof(struct sym));
    int h = hash_name(name);
    s->name = name;
    s->value = value;
    s->next = table[h];
    table[h] = s;
}

int lookup(int name) {
    struct sym *s = table[hash_name(name)];
    while ((int)s != 0) {
        if (s->name == name) { return s->value; }
        s = s->next;
    }
    return -1;
}

void clear_table() {
    for (int h = 0; h < 256; h++) {
        struct sym *s = table[h];
        while ((int)s != 0) {
            struct sym *next = s->next;
            free_pub((char*)s);
            s = next;
        }
        table[h] = (struct sym*)0;
    }
}

// Token dispatch: a dense switch that the vanilla pipeline lowers to a
// jump table; ConfLLVM must use compare chains (jump tables disabled),
// which is part of the OurBare-vs-Base gap the paper reports.
int eval_op(int op, int a, int b) {
    switch (op) {
        case 0: return a + b;
        case 1: return a - b;
        case 2: return a * b;
        case 3: return a & b;
        case 4: return a | b;
        case 5: return a ^ b;
        case 6: return a << (b & 7);
        case 7: return a >> (b & 7);
        default: return a;
    }
}

int main() {
    int check = 0;
    for (int round = 0; round < SCALE; round++) {
        for (int i = 0; i < 600; i++) { insert(i * 7 + round, i); }
        for (int i = 0; i < 1200; i++) { check += lookup(i * 7 + round); }
        for (int i = 0; i < 2000; i++) {
            check = eval_op(i & 7, check, i) & 0xffffff;
        }
        clear_table();
    }
    return check & 255;
}
"""

_KERNELS["mcf"] = """
int dist[512];
int head[512];
int edge_to[4096];
int edge_w[4096];
int edge_next[4096];

int main() {
    int n = 512;
    int m = 0;
    int seed = 99;
    for (int i = 0; i < n; i++) { head[i] = -1; dist[i] = 1 << 30; }
    for (int i = 0; i < 4096; i++) {
        seed = seed * 1103515245 + 12345;
        int u = (seed >> 8) & 511;
        seed = seed * 1103515245 + 12345;
        int v = (seed >> 8) & 511;
        edge_to[m] = v;
        edge_w[m] = ((seed >> 20) & 63) + 1;
        edge_next[m] = head[u];
        head[u] = m;
        m++;
    }
    dist[0] = 0;
    for (int round = 0; round < SCALE * 6; round++) {
        for (int u = 0; u < n; u++) {
            int du = dist[u];
            if (du == 1 << 30) { continue; }
            int e = head[u];
            while (e >= 0) {
                int v = edge_to[e];
                int nd = du + edge_w[e];
                if (nd < dist[v]) { dist[v] = nd; }
                e = edge_next[e];
            }
        }
    }
    int check = 0;
    for (int i = 0; i < n; i++) { if (dist[i] < 1 << 30) { check += dist[i]; } }
    return check & 255;
}
"""

_KERNELS["milc"] = """
// 3x3 fixed-point (16.16) matrix products over lattice sites, with
// per-sweep allocation churn: the allocator-locality benchmark.
int mat_mul_into(int *c, int *a, int *b) {
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) {
            int acc = 0;
            for (int k = 0; k < 3; k++) {
                acc += (a[i * 3 + k] >> 8) * (b[k * 3 + j] >> 8);
            }
            c[i * 3 + j] = acc;
        }
    }
    return c[0];
}

int main() {
    int check = 0;
    int sites = 96;
    for (int sweep = 0; sweep < SCALE * 3; sweep++) {
        int *links[96];
        for (int s = 0; s < sites; s++) {
            links[s] = (int*)malloc_pub(9 * sizeof(int));
            for (int k = 0; k < 9; k++) {
                links[s][k] = ((s + 1) * (k + 3) + sweep) << 12;
            }
        }
        int staple[9];
        for (int s = 0; s + 2 < sites; s++) {
            check += mat_mul_into(staple, links[s], links[s + 1]);
            check += mat_mul_into(staple, staple, links[s + 2]);
        }
        for (int s = 0; s < sites; s++) { free_pub((char*)links[s]); }
    }
    return check & 255;
}
"""

_KERNELS["gobmk"] = """
char board[361];

int count_group(int start, char color, char *seen) {
    // Iterative flood fill over a 19x19 board.
    int stack[361];
    int top = 0;
    int size = 0;
    stack[top] = start; top++;
    seen[start] = 1;
    while (top > 0) {
        top--;
        int p = stack[top];
        size++;
        int row = p / 19;
        int col = p % 19;
        int q;
        if (row > 0)  { q = p - 19; if (seen[q] == 0 && board[q] == color) { seen[q] = 1; stack[top] = q; top++; } }
        if (row < 18) { q = p + 19; if (seen[q] == 0 && board[q] == color) { seen[q] = 1; stack[top] = q; top++; } }
        if (col > 0)  { q = p - 1;  if (seen[q] == 0 && board[q] == color) { seen[q] = 1; stack[top] = q; top++; } }
        if (col < 18) { q = p + 1;  if (seen[q] == 0 && board[q] == color) { seen[q] = 1; stack[top] = q; top++; } }
    }
    return size;
}

int main() {
    int seed = 7;
    int check = 0;
    for (int game = 0; game < SCALE * 4; game++) {
        for (int i = 0; i < 361; i++) {
            seed = seed * 1103515245 + 12345;
            board[i] = (char)((seed >> 13) & 1);
        }
        char seen[361];
        for (int i = 0; i < 361; i++) { seen[i] = 0; }
        for (int i = 0; i < 361; i++) {
            if (seen[i] == 0) { check += count_group(i, board[i], seen); }
        }
    }
    return check & 255;
}
"""

_KERNELS["hmmer"] = """
int match[64];
int insert_s[64];
int del[64];
int emit_m[64];
int emit_i[64];

int viterbi_row(int *obs, int n_obs) {
    int score = 0;
    for (int t = 0; t < n_obs; t++) {
        int o = obs[t];
        for (int s = 63; s > 0; s--) {
            int from_m = match[s - 1] + emit_m[(s + o) & 63];
            int from_i = insert_s[s - 1] + emit_i[(s + o) & 63];
            int from_d = del[s - 1] + 3;
            int best = from_m;
            if (from_i > best) { best = from_i; }
            if (from_d > best) { best = from_d; }
            match[s] = best;
            insert_s[s] = best - 7 + emit_i[o & 63];
            del[s] = best - 11;
        }
        score = match[63];
    }
    return score;
}

int main() {
    int obs[64];
    int seed = 5;
    for (int i = 0; i < 64; i++) {
        emit_m[i] = (i * 13) % 29;
        emit_i[i] = (i * 7) % 17;
        match[i] = 0; insert_s[i] = -5; del[i] = -9;
    }
    for (int i = 0; i < 64; i++) {
        seed = seed * 1103515245 + 12345;
        obs[i] = (seed >> 11) & 63;
    }
    int check = 0;
    for (int round = 0; round < SCALE * 4; round++) {
        check += viterbi_row(obs, 64);
    }
    return check & 255;
}
"""

_KERNELS["sjeng"] = """
int node_count;

int evaluate(int state) {
    return ((state * 2654435761) >> 16) & 1023;
}

int negamax(int state, int depth, int alpha, int beta) {
    node_count++;
    if (depth == 0) { return evaluate(state); }
    int best = -100000;
    for (int move = 0; move < 6; move++) {
        int child = state * 6 + move + 1;
        int score = 0 - negamax(child, depth - 1, 0 - beta, 0 - alpha);
        if (score > best) { best = score; }
        if (best > alpha) { alpha = best; }
        if (alpha >= beta) { break; }
    }
    return best;
}

int main() {
    int check = 0;
    node_count = 0;
    for (int root = 0; root < SCALE * 2; root++) {
        check += negamax(root, 5, -100000, 100000);
    }
    return (check + node_count) & 255;
}
"""

_KERNELS["libquantum"] = """
int state_re[2048];
int state_im[2048];

void hadamard_like(int target) {
    int mask = 1 << target;
    for (int i = 0; i < 2048; i++) {
        if ((i & mask) == 0) {
            int j = i | mask;
            int a = state_re[i];
            int b = state_re[j];
            state_re[i] = (a + b) >> 1;
            state_re[j] = (a - b) >> 1;
            a = state_im[i];
            b = state_im[j];
            state_im[i] = (a + b) >> 1;
            state_im[j] = (a - b) >> 1;
        }
    }
}

void cnot_like(int control, int target) {
    int cm = 1 << control;
    int tm = 1 << target;
    for (int i = 0; i < 2048; i++) {
        if ((i & cm) != 0 && (i & tm) == 0) {
            int j = i | tm;
            int t = state_re[i]; state_re[i] = state_re[j]; state_re[j] = t;
            t = state_im[i]; state_im[i] = state_im[j]; state_im[j] = t;
        }
    }
}

int main() {
    for (int i = 0; i < 2048; i++) { state_re[i] = i; state_im[i] = 2048 - i; }
    for (int round = 0; round < SCALE * 2; round++) {
        for (int q = 0; q < 11; q++) { hadamard_like(q); }
        for (int q = 0; q < 10; q++) { cnot_like(q, q + 1); }
    }
    int check = 0;
    for (int i = 0; i < 2048; i++) { check += state_re[i] & 3; }
    return check & 255;
}
"""

_KERNELS["h264ref"] = """
char frame_ref[4096];
char frame_cur[256];

int sad_16x16(int rx, int ry) {
    int sad = 0;
    for (int y = 0; y < 16; y++) {
        for (int x = 0; x < 16; x++) {
            int a = (int)frame_cur[y * 16 + x];
            int b = (int)frame_ref[(ry + y) * 64 + rx + x];
            int d = a - b;
            if (d < 0) { d = 0 - d; }
            sad += d;
        }
    }
    return sad;
}

int main() {
    int seed = 31;
    for (int i = 0; i < 4096; i++) {
        seed = seed * 1103515245 + 12345;
        frame_ref[i] = (char)((seed >> 9) & 255);
    }
    for (int i = 0; i < 256; i++) {
        seed = seed * 1103515245 + 12345;
        frame_cur[i] = (char)((seed >> 9) & 255);
    }
    int best = 1 << 30;
    for (int round = 0; round < SCALE; round++) {
        for (int ry = 0; ry < 48; ry += 4) {
            for (int rx = 0; rx < 48; rx += 4) {
                int s = sad_16x16(rx, ry);
                if (s < best) { best = s; }
            }
        }
    }
    return best & 255;
}
"""

_KERNELS["lbm"] = """
int cells_a[8192];
int cells_b[8192];

int main() {
    for (int i = 0; i < 8192; i++) { cells_a[i] = (i * 37) & 1023; }
    int *src = cells_a;
    int *dst = cells_b;
    for (int step = 0; step < SCALE * 4; step++) {
        for (int i = 1; i < 8191; i++) {
            int v = (src[i - 1] + 2 * src[i] + src[i + 1]) >> 2;
            dst[i] = v + ((src[i] - v) >> 3);
        }
        dst[0] = src[0];
        dst[8191] = src[8191];
        int *tmp = src; src = dst; dst = tmp;
    }
    int check = 0;
    for (int i = 0; i < 8192; i += 64) { check += src[i]; }
    return check & 255;
}
"""

_KERNELS["sphinx3"] = """
int means[1024];
int vars_inv[1024];
int feats[256];

int score_senone(int base, int *feat) {
    int score = 0;
    for (int d = 0; d < 32; d++) {
        int diff = feat[d] - means[base + d];
        score += (diff * diff) >> 8;
    }
    return 0 - score;
}

int main() {
    int seed = 17;
    for (int i = 0; i < 1024; i++) {
        seed = seed * 1103515245 + 12345;
        means[i] = (seed >> 12) & 255;
        vars_inv[i] = ((seed >> 20) & 15) + 1;
    }
    for (int i = 0; i < 256; i++) {
        seed = seed * 1103515245 + 12345;
        feats[i] = (seed >> 12) & 255;
    }
    int best = -(1 << 30);
    for (int round = 0; round < SCALE * 6; round++) {
        for (int frame = 0; frame < 8; frame++) {
            for (int senone = 0; senone < 31; senone++) {
                int s = score_senone(senone * 32, feats + frame * 32);
                if (s > best) { best = s; }
            }
        }
    }
    return best & 255;
}
"""

SPEC_NAMES = tuple(sorted(_KERNELS))


def kernel_source(name: str, scale: int = 1) -> str:
    """Full MiniC source of a SPEC kernel at a given workload scale
    (it says ``use libmini;``, so build it through ``repro.build``)."""
    body = _KERNELS[name].replace("SCALE", str(scale))
    return _COMMON + body
