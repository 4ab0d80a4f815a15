"""The integrity + thread-scaling experiment (Section 7.5, Figure 8).

A multi-threaded userspace file-read library that maintains a Merkle
hash tree over file contents.  The dual use of the scheme: file *data*
is private, the hash *tree* is public — ConfLLVM then guarantees the
integrity of the tree (nothing in U can accidentally clobber it with
private-derived data; only the hashing declassifier in T writes
hashes).

``main`` builds the tree over a memory-mapped file image, spawns N
reader threads that each verify-read the whole file in 1 KB blocks,
and joins them.  Until N exceeds the core count, wall time stays flat
(linear scaling), which is the Figure 8 shape.

The file size is scaled down from the paper's 2 GB to keep simulation
tractable; the per-thread work is what matters for scaling.
"""

from __future__ import annotations

from ..runtime.trusted import T_PROTOTYPES

FILE_BYTES = 64 * 1024
BLOCK = 1024
N_BLOCKS = FILE_BYTES // BLOCK

MERKLEFS_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
// ------------------------------------------------------------- merklefs
// Public hash tree (leaves + one root level folded for simplicity),
// private file data.
int tree[64];
int root_hash;
private char *file_data;
int g_bad_blocks = 0;

void build_tree() {
    file_data = malloc_priv(65536);
    // Fill the "memory-mapped file" with a pattern (word-wise).
    private int *words = (private int*)file_data;
    for (int w = 0; w < 8192; w++) {
        words[w] = (private int)(w * 2654435761);
    }
    root_hash = 0;
    for (int b = 0; b < 64; b++) {
        tree[b] = hash64(file_data + b * 1024, 1024);
        root_hash = root_hash ^ (tree[b] * 31 + b);
    }
}

// One reader: verify every block's hash and checksum-read the data.
int reader(int tid) {
    int ok = 0;
    private int checksum = (private int)0;
    for (int b = 0; b < 64; b++) {
        private char *block = file_data + b * 1024;
        int h = hash64(block, 1024);
        if (h == tree[b]) { ok++; }
        else { g_bad_blocks++; }
        private int *words = (private int*)block;
        for (int w = 0; w < 128; w++) {
            checksum += words[w];
        }
    }
    // Root re-check (public arithmetic over the public tree).
    int r = 0;
    for (int b = 0; b < 64; b++) { r = r ^ (tree[b] * 31 + b); }
    if (r != root_hash) { g_bad_blocks++; }
    return ok;
}

int main() {
    build_tree();
    int n_threads = N_THREADS;
    if (n_threads <= 1) {
        reader(0);
        return g_bad_blocks;
    }
    int tids[8];
    for (int t = 0; t < n_threads; t++) {
        tids[t] = thread_create((int)&reader, t);
    }
    for (int t = 0; t < n_threads; t++) {
        thread_join(tids[t]);
    }
    return g_bad_blocks;
}
"""
)


def merklefs_source(n_threads: int) -> str:
    return MERKLEFS_SRC.replace("N_THREADS", str(n_threads))
