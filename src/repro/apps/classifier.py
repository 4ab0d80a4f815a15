"""The Privado stand-in (Section 7.4, Figure 7).

An eleven-layer neural-network classifier over ten classes, running in
the all-private mode: the model parameters and the user image are both
private; only the class index leaves through the ``declassify_int``
declassifier (in T), exactly the enclave deployment of the paper.

Substitutions: the VM has no floating point, so the network uses 16.16
fixed-point arithmetic; ReLU is computed branch-free (an arithmetic-
shift mask) because strict mode — correctly — refuses branches on
private activations.  Torch's role (tensor loops) is played by the
plain matrix-vector kernels below; their tight multiply-accumulate
loops are what gives Figure 7 its damped overhead (check instructions
overlap compute).

Wire protocol (channel 0): 3 KB encrypted image -> 8-byte class id.
"""

from __future__ import annotations

from ..runtime.trusted import T_PROTOTYPES

IMAGE_BYTES = 3072  # "small (3 KB) files" in the paper
N_INPUT = 48  # 48 fixed-point features decoded from the image
N_HIDDEN = 24
N_LAYERS = 11  # input + 9 hidden-to-hidden + output
N_CLASSES = 10

CLASSIFIER_SRC = (
    T_PROTOTYPES
    + "use libmini;"
    + r"""
// ------------------------------------------------------------ classifier
// 16.16 fixed point. All model state is private (enclave contents).
private int w_in[1152];          // 24 x 48
private int w_hidden[5184];      // 9 layers x 24 x 24
private int w_out[240];          // 10 x 24
private int act_a[48];
private int act_b[48];
private char image[3072];
char wire[3072];
int g_classified = 0;

// Branch-free ReLU: mask = v >> 63 (all ones when negative).
private int relu(private int v) {
    private int mask = v >> 63;
    return v & ~mask;
}

void init_model() {
    // Deterministic pseudo-random private weights ("trained on
    // private inputs"); seeded in U, kept in the private region.
    private int seed = (private int)424243;
    for (int i = 0; i < 1152; i++) {
        seed = seed * 1103515245 + 12345;
        w_in[i] = (seed >> 24) & 0xffff;
    }
    for (int i = 0; i < 5184; i++) {
        seed = seed * 1103515245 + 12345;
        w_hidden[i] = (seed >> 24) & 0xffff;
    }
    for (int i = 0; i < 240; i++) {
        seed = seed * 1103515245 + 12345;
        w_out[i] = (seed >> 24) & 0xffff;
    }
}

void decode_image() {
    // Fold the 3 KB image into 48 fixed-point features (64 B each).
    for (int f = 0; f < 48; f++) {
        private int acc = (private int)0;
        for (int b = 0; b < 64; b++) {
            acc += (private int)image[f * 64 + b];
        }
        act_a[f] = acc << 8;
    }
}

void layer(private int *out, private int *in, private int *w,
           int n_out) {
    int n_in = 24;
    for (int o = 0; o < n_out; o++) {
        private int acc = (private int)0;
        for (int i = 0; i < n_in; i++) {
            acc += (w[o * n_in + i] >> 8) * (in[i] >> 8);
        }
        out[o] = relu(acc);
    }
}

int classify() {
    decode_image();
    // Input layer: 48 -> 24.
    for (int o = 0; o < 24; o++) {
        private int acc = (private int)0;
        for (int i = 0; i < 48; i++) {
            acc += (w_in[o * 48 + i] >> 8) * (act_a[i] >> 8);
        }
        act_b[o] = relu(acc);
    }
    // Nine hidden layers: 24 -> 24, ping-ponging buffers.
    for (int l = 0; l < 9; l++) {
        if ((l & 1) == 0) { layer(act_a, act_b, w_hidden + l * 576, 24); }
        else { layer(act_b, act_a, w_hidden + l * 576, 24); }
    }
    private int *last = act_b;
    // Output layer: 24 -> 10, branch-free argmax over private scores.
    private int best = (private int)(0 - (1 << 60));
    private int best_idx = (private int)0;
    for (int c = 0; c < 10; c++) {
        private int acc = (private int)0;
        for (int i = 0; i < 24; i++) {
            acc += (w_out[c * 24 + i] >> 8) * (last[i] >> 8);
        }
        // take = all-ones when acc > best (computed without branching)
        private int take = 0 - ((best - acc) >> 63 & 1);
        best = (acc & take) | (best & ~take);
        best_idx = ((private int)c & take) | (best_idx & ~take);
    }
    return declassify_int(best_idx);
}

int main() {
    init_model();
    while (1) {
        int got = recv(0, wire, 3072);
        if (got < 3072) { break; }
        decrypt(wire, image, 3072);
        int cls = classify();
        char out[8];
        int *cls_field = (int*)out;
        *cls_field = cls;
        send(1, out, 8);
        g_classified++;
    }
    return g_classified;
}
"""
)


def make_image(runtime, seed: int = 0) -> bytes:
    """An encrypted 3 KB image for the harness."""
    import random

    rng = random.Random(seed)
    plain = bytes(rng.randrange(256) for _ in range(IMAGE_BYTES))
    return runtime.encrypt_with(runtime.session_key, plain)
