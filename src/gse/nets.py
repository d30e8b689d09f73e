"""Hand-rolled differentiable nets for score and one-shot denoiser models.

Both nets share one structure: the signal is cut into fixed frames, a framewise
affine encoder embeds each frame, a single gated recurrent memory cell carries
context across frames (and across chunk boundaries when its state is threaded),
and a framewise affine decoder maps back to samples.  Processing is therefore
non-causal only *within* a frame; the recurrence is strictly left-to-right.
``ScoreNet`` and ``DenoiserNet`` subclass one private frame net that owns the
weights, the MAC count, the zero default of the recurrent state and the
forward; they differ only in their encoder input (the score net's frame is
[x_t | y | emb(t)]).

Training and inference share one forward path.  Weight matrices are stored
``(in, out)`` and C-contiguous, so a projection is ``rows @ w``.  Frames run in
blocks of ``ROW_BLOCK`` rows, max(1, ROW_BLOCK // bp) frames of bp state rows:
per block the encoder, the input half of the gates and the decoder are one
matmul each over the block's rows, and only the recurrent half of the gates
runs frame by frame.  Rows size a block so that a one-row request's block
products are large enough for OpenBLAS to split across two cores.

Padding.  Every hoisted matmul has its row count padded with zeros to a
multiple of ``ROW_ALIGN`` (8); with that padding OpenBLAS rounds each output
row the same whatever rows surround it (one row alone goes through gemv and
rounds differently).  The per-frame recurrent product pads a frame's B rows
to a multiple of ``STATE_ALIGN`` (4) from two rows on, because OpenBLAS's
Haswell and Zen kernels round a block of 3, 5 or 7 rows unlike the same rows
among more; one row stays a gemv.  That row invariance is what makes a
chunked forward with threaded state bit-identical to the whole-signal
forward, whichever way chunks and blocks cut the frames, and a batched row's
bits independent of its batch-mates (save under SkylakeX for output widths
past 32 that end 1-4 past a multiple of 8, hidden 65 say, once one product
passes OpenBLAS's small-matrix bound; no recipe width is one).  It is a
property of the BLAS kernels, not of NumPy, so ``TestRowInvariance`` in
``tests/test_nets.py`` checks it and ``tests/test_blas_kernels.py`` reruns
that and the batched-row check under each OpenBLAS kernel family the CPU can
run and at one and two BLAS threads.

The cell, a GRU without a reset gate (s <- s + u (c - s)), runs fused: the
gates are (H, 2H) matrices [0.5 W_u | W_c], so a frame is one product and one
tanh over [u | c], and u = (tanh + 1) / 2 = sigmoid(a_u).  Halving is exact,
so this rounds as the two-matrix cell does (``TestFusedCell``; OpenBLAS's gemv
breaks that only at widths that are not a multiple of 4).  The score net's
``enc_w`` splits into row views W_x, W_y, W_t, and ``ScoreNet.condition``
makes y @ W_y and emb(t) @ W_t + enc_b once per bind, so a forward projects
x_t alone; three padded partial sums moved outputs by about 4e-16.  Derived
weights (the fused gates, ``condition``) live with the caller, a bind or a
training step, never on the net: in-place weight edits show in the next bind.

Scratch memory.  A forward's buffers are frame-major, (frames, rows,
features), so a frame's rows form one contiguous block.  A forward's buffers,
fused gates, bias tiles (a block's rows of the gate bias and of dec_b: a
same-shape add is twice as fast as a row's broadcast) and copies of W_x and
dec_w come from one arena, each on GATE_ALIGN bytes: one allocation per bind,
and no BLAS operand left where the allocator put a weight.  The score net's
conditioning, made once per bind (``ScoreProvider.bind``), holds one such set
for y's shape, which the score forwards of a chunk's or a request's reverse
pass share.  The denoiser's one forward per bind, and every training forward
(``need_cache``: its buffers span all frames), makes its own.  Nothing a
forward returns is reused: its output, the score (raw output times the gain)
and the new state are fresh arrays (``tests/test_score.py::TestEvaluationScratch``).
A one-row state product runs through ``np.dot``, the same gemv without matmul's
ufunc set-up (2.7 against 3.0 us at H = 160, equal bits); block products and
padded state rows stay on ``np.matmul``, where ``np.dot`` ran 1-7 % slower.
``backward`` copies the frame-major cache back to batch-major, so that its
reductions sum rows in batch order.

All gradients are computed by hand (reverse-mode, backprop through time); the
test-suite checks every layer against central finite differences.  The denoiser
trains on the batch-mean negative SNR, each row's floored at -120 dB
(``denoiser_loss_and_grads``).
"""

from __future__ import annotations

import csv
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, DomainError, GseError
from .sde import SdeParams, make_rng, require_finite, sample_perturbed, std

__all__ = [
    "TimeEmbedding",
    "ScoreNet",
    "DenoiserNet",
    "TrainConfig",
    "TrainResult",
    "draw_matching_samples",
    "weighted_matching_loss_from_draws",
    "denoiser_loss_and_grads",
    "train_score",
    "train_denoiser",
    "save_checkpoint",
    "load_checkpoint",
]

SNR_LOSS_FLOOR_DB = -120.0
SNR_LOSS_EPS = 1e-12
#: Lowest and highest angular frequency of the diffusion-time embedding.
OMEGA_MIN, OMEGA_MAX = 1.0, 1000.0

#: Rows per block of hoisted projections, max(1, ROW_BLOCK // bp) frames of bp state rows.
#: Two BLAS threads ran the (M, 160) @ (160, 320) gate product at 0.96 us a row for M = 32,
#: 0.70 for M = 128 and 0.57 for M = 400; budgets of 256 and 512 rows took a 1 s request
#: 2-4 % further but raised its peak RSS by 3.1 and 4.6 MB, against 1.3 MB at 128.  A
#: 50 ms chunk (20 frames) fits in one block; on long signals blocks bound the scratch.
ROW_BLOCK = 128
#: Row counts of the hoisted matmuls are padded to a multiple of this.
ROW_ALIGN = 8
#: Pairs in the fixed probe set that training reports its progress on.
PROBE_SIZE = 8
#: From two rows on, the rows of a frame's recurrent state block are padded to
#: a multiple of this: OpenBLAS's Haswell and Zen kernels round a block of 3, 5
#: or 7 rows unlike the same rows among more.  One row stays a gemv.
STATE_ALIGN = 4
#: Byte alignment of the fused gate weights and the forward buffers: OpenBLAS's
#: gemv ran the B = 1 recurrent product 10-20 % slower on a matrix that starts
#: off a cache line.
GATE_ALIGN = 64


def _aligned_empty(*shapes: tuple) -> list[np.ndarray]:
    """Uninitialised float64 arrays of ``shapes`` from one block, each on GATE_ALIGN bytes."""
    lane = GATE_ALIGN // 8
    sizes = [math.prod(shape) for shape in shapes]
    raw = np.empty(sum(sizes) + lane * len(shapes))  # room to pad each start to a lane
    out, start = [], (-raw.__array_interface__["data"][0] % GATE_ALIGN) // 8
    for shape, n in zip(shapes, sizes):
        out.append(raw[start : start + n].reshape(shape))
        start += n + (-n % lane)
    return out


def _padded(m: int, align: int = ROW_ALIGN) -> int:
    return m + (-m % align)


def _state_rows(batch: int) -> int:
    """Rows of a frame's state block: B = 1 alone, else B padded to STATE_ALIGN."""
    return 1 if batch == 1 else _padded(batch, STATE_ALIGN)


def _pad_rows(x: np.ndarray) -> np.ndarray:
    """(M, K) copy of the M rows of (..., K) ``x`` in C order, zero-padded to a multiple of
    ROW_ALIGN rows; a transposed view is copied in the order it reads."""
    m = math.prod(x.shape[:-1])
    padded = np.zeros((_padded(m), x.shape[-1]))
    padded[:m].reshape(x.shape)[...] = x
    return padded


def _fuse_gates(p: dict, H: int, out) -> None:
    """Write [0.5 gate_u_k | gate_c_k] for k = w (input), u (recurrent), b (bias; into each row
    of a tile) into the first three arrays of ``out``."""
    for k, fused in zip("wub", out):
        np.multiply(p[f"gate_u_{k}"], 0.5, out=fused[..., :H])
        fused[..., H:] = p[f"gate_c_{k}"]


class _FrameBuffers:
    """The scratch of one forward shape of ``net`` (hidden width H, frame size F): B rows of
    ``frames`` frames, encoder input width d.

    A frame's B rows are padded to ``bp`` (``_state_rows``), a block holds
    ``block`` frames (up to ROW_BLOCK rows) and its rows are padded to a
    multiple of ROW_ALIGN.  ``cat`` holds a span of frames as [tanh(encoder)
    | new state] rows, ``G`` their gates (the input half, then in place
    [update | candidate]): all frames if ``whole`` (a training forward's
    cache), else one block; ``x``, ``pre`` and ``dec`` hold one block.  Pad
    rows of ``x`` stay zero; rows past a short last block keep the block
    before's values, which no kept row reads.  ``weights`` holds the fused
    gates, the gate bias's and dec_b's tiles (a block's rows) and copies of
    W_x = enc_w[:d] and dec_w, written from net's current weights.

    ``steps`` holds each frame's views, sliced once: the gate block, its flat
    runs without the last and without the first H lanes, the previous state,
    the previous [h | s] block's run from lane H, and the new state.  The run
    from lane H puts c - s where the run from lane 0 has u, so the cell's
    c - s and u * (c - s) are two contiguous ops instead of strided ones
    (their other lanes are bounded and unread).
    ``first`` replaces ``steps[0]`` in later blocks of a forward without a
    cache, whose previous state is ``cat``'s frame span - 1.
    """

    def __init__(self, net, batch: int, frames: int, d: int, whole: bool = False):
        H, F, p = net.hidden, net.frame_size, net.params
        self.bp = bp = _state_rows(batch)
        self.block = block = min(frames, max(1, ROW_BLOCK // bp))
        span = frames if whole else block
        rows, span_rows = _padded(block * bp), _padded(span * bp)
        made = (self.x, self.cat, self.s0, self.diff, self.step, self.scale, self.shift,
                self.pre, self.dec, self.G, self.rec, *self.weights) = _aligned_empty(
            (rows, d), (span_rows, 2 * H), *[(bp, 2 * H)] * 5, (rows, H), (rows, F),
            (span_rows, 2 * H), (bp, 2 * H), (H, 2 * H), (H, 2 * H), (rows, 2 * H), (rows, F),
            (d, H), (2 * H, F))
        for a in made[:5]:  # x, cat, s0, diff and step start zeroed
            a.fill(0.0)
        # s0 = [0 | initial state], a frame -1; diff's lanes H.. hold c - s; step = [u (c - s) | -]
        self.x_frames = self.x[: block * bp].reshape(block, bp, d)
        self.pre_frames = self.pre[: block * bp].reshape(block, bp, H)
        self.dec_frames = self.dec[: block * bp].reshape(block, bp, F)
        self.cat_frames = self.cat[: span * bp].reshape(span, bp, 2 * H)
        self.G_frames = self.G[: span * bp].reshape(span, bp, 2 * H)
        # u = (tanh + 1) / 2 as tanh * 0.5 + 0.5, the same bits; c = tanh * 1 + -0.0 = tanh
        self.scale[:, :H], self.shift[:, :H] = 0.5, 0.5
        self.scale[:, H:], self.shift[:, H:] = 1.0, -0.0
        run = (2 * bp - 1) * H
        # per frame as one flat run; iterating an array's first axis slices it cheaply
        G_runs = self.G[: span * bp].reshape(span, -1)
        cat_runs = self.cat[: span * bp].reshape(span, -1)
        s_new = list(self.cat_frames[..., H:])
        self.steps = list(zip(self.G_frames, G_runs[:, :run], G_runs[:, H:],
                              [self.s0[:, H:], *s_new[:-1]],
                              [self.s0.reshape(-1)[H:], *cat_runs[:-1, H:]], s_new))
        self.first = (*self.steps[0][:3], s_new[-1], cat_runs[-1, H:], s_new[0])
        self.diff_hi = self.diff.reshape(-1)[H:]
        self.step_lo, self.step_u = self.step.reshape(-1)[:run], self.step[:, :H]
        _fuse_gates(p, H, self.weights)
        for a, w in zip(self.weights[3:], (p["dec_b"], p["enc_w"][:d], p["dec_w"])):
            a[...] = w


class TimeEmbedding:
    """Geometric sinusoidal embedding of the diffusion time, t in [0, T]."""

    def __init__(self, dim: int = 32):
        if dim % 2 != 0 or dim < 2:
            raise ConfigError(f"embedding dim must be even and >= 2, got {dim}")
        half = dim // 2
        self.dim = dim
        self.omegas = OMEGA_MIN * (OMEGA_MAX / OMEGA_MIN) ** (np.arange(half) / max(half - 1, 1))

    def embed(self, t) -> np.ndarray:
        """[sin(omega t) | cos(omega t)]: (dim,) for one t, (len(t), dim) for a sequence."""
        phase = np.multiply.outer(np.asarray(t, dtype=np.float64), self.omegas)
        return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


class _FrameNet:
    """Encoder -> gated recurrent cell -> decoder, on (batch, frames, features);
    the weights, cost and forward that both frame nets share."""

    def __init__(self, d_in: int, frame_size: int, hidden: int, seed: int):
        if frame_size < 1 or hidden < 1:
            raise ConfigError("frame_size and hidden must be positive")
        self.d_in = d_in
        self.frame_size = frame_size
        self.hidden = hidden
        self.seed = seed
        self._params: dict[str, np.ndarray] | None = None

    def init_spec(self) -> dict[str, tuple[tuple[int, ...], float | None]]:
        """name -> (shape as drawn, (out, in) for matrices; init scale, None for zeros).

        Checkpoints store the arrays in these shapes (format 1).
        """
        h, f, d = self.hidden, self.frame_size, self.d_in
        return {
            "enc_w": ((h, d), 1.0 / math.sqrt(d)),
            "enc_b": ((h,), None),
            "gate_u_w": ((h, h), 1.0 / math.sqrt(h)),
            "gate_u_u": ((h, h), 1.0 / math.sqrt(h)),
            "gate_u_b": ((h,), None),
            "gate_c_w": ((h, h), 1.0 / math.sqrt(h)),
            "gate_c_u": ((h, h), 1.0 / math.sqrt(h)),
            "gate_c_b": ((h,), None),
            "dec_w": ((f, 2 * h), 0.5 / math.sqrt(2 * h)),
            "dec_b": ((f,), None),
        }

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Weights, matrices (in, out) and C-contiguous.

        Drawn from the seed on first use unless a checkpoint supplied them, so
        loading a checkpoint skips the random initialisation.
        """
        if self._params is None:
            rng = make_rng(self.seed)
            self._params = {
                k: np.zeros(shape) if scale is None
                else np.ascontiguousarray((rng.standard_normal(shape) * scale).T)
                for k, (shape, scale) in self.init_spec().items()
            }
        return self._params

    @params.setter
    def params(self, value: dict[str, np.ndarray]) -> None:
        self._params = value

    @property
    def state_dim(self) -> int:
        return self.hidden

    def macs_per_forward(self, n_samples: int) -> int:
        """Multiply-accumulates of the affine blocks over the frames of ``n_samples``."""
        h, f, d = self.hidden, self.frame_size, self.d_in
        if n_samples % f != 0:
            raise DimensionError(f"length {n_samples} not a multiple of frame_size {f}")
        return (n_samples // f) * (h * d + 4 * h * h + f * 2 * h)

    def forward_frames(self, x: np.ndarray, enc: tuple, state, need_cache: bool, inputs=None,
                       buf: _FrameBuffers | None = None):
        """x: (B, R, d) frames, state: (B, H), (H,) or None for zeros
        -> (out (B, R*F), state (B, H), cache).

        The encoder pre-activation is x @ enc_w[:d] plus each ``enc`` term,
        (H,) or frame-major (R, B, H): what the caller made once for many calls.
        ``inputs``, the encoder's input blocks in ``enc_w`` row order, default
        to (x,).  The scratch is ``buf``, buffers of x's shape holding the
        weights (fused gates, bias tiles, W_x and dec_w) that a conditioning
        wrote for its forwards; without it, or with ``need_cache``, it is made
        and written here from the current weights, which are read nowhere
        else.  ``out`` and the state are fresh arrays.

        One path for training and inference.  Per block of ROW_BLOCK rows
        (``buf.block`` frames), the encoder, the gates' input half and the
        decoder are one ``np.matmul`` each, on rows zero-padded to a multiple
        of ROW_ALIGN, plus a bias tile;
        per frame run one (B, H) @ (H, 2H) product with the fused recurrent half
        (``np.dot`` for one row, else ``np.matmul`` on B rows padded to
        STATE_ALIGN) and one tanh over [update | candidate] (the update half
        carries sigmoid's exact 1/2).  A padded matmul rounds each row the same
        whatever rows surround it (a BLAS property, guarded by
        ``TestRowInvariance``), so a chunked forward with threaded state is
        bit-identical to the whole-signal forward however chunks cut frames.

        The encoder writes tanh(h) into ``cat``'s left half, the cell writes
        each new state into its right half, and the decoder reads ``cat`` as
        it stands.  ``need_cache`` only decides whether every frame's ``cat``
        and ``G`` are kept for ``backward``; without it they hold one block.
        """
        B, R, d = x.shape
        H = self.hidden
        if need_cache or buf is None:
            buf = _FrameBuffers(self, B, R, d, need_cache)
        w_in, w_rec, b_g, b_dec, w_x, dec_w = buf.weights
        buf.s0[:B, H:] = 0.0 if state is None else state
        out = np.empty((B, R, self.frame_size))
        bp, cat, rec, s_new = buf.bp, buf.cat, buf.rec, buf.s0[:, H:]
        scale, shift, diff_hi, step_lo, step_u = (buf.scale, buf.shift, buf.diff_hi,
                                                  buf.step_lo, buf.step_u)
        matmul, add, multiply, subtract, tanh = np.matmul, np.add, np.multiply, np.subtract, np.tanh
        product = np.dot if bp == 1 else matmul  # the frame's (bp, H) @ (H, 2H)
        for k0 in range(0, R, buf.block):
            n = min(buf.block, R - k0)
            j0 = k0 if need_cache else 0
            rows = slice(j0 * bp, j0 * bp + _padded(n * bp))
            m = rows.stop - rows.start
            buf.x_frames[:n, :B] = x[:, k0 : k0 + n].swapaxes(0, 1)
            matmul(buf.x[:m], w_x, buf.pre[:m])
            pre = buf.pre_frames[:n, :B]
            for term in enc:
                pre += term if term.ndim == 1 else term[k0 : k0 + n]
            h = cat[rows, :H]
            tanh(buf.pre[:m], h)
            hg = buf.G[rows]
            matmul(h, w_in, hg)
            add(hg, b_g[:m], hg)
            steps = buf.steps[j0 : j0 + n]
            if j0 == 0 and k0 > 0:  # the state comes from the block before's last frame
                steps[0] = buf.first
            for g, g_lo, g_hi, s, prev_hi, s_new in steps:
                product(s, w_rec, rec)
                add(rec, g, g)
                tanh(g, g)
                multiply(g, scale, g)  # g = [u | c]
                add(g, shift, g)
                subtract(g_hi, prev_hi, diff_hi)  # c - s
                multiply(g_lo, diff_hi, step_lo)  # u * (c - s)
                add(s, step_u, s_new)  # s_new = s + u * (c - s)
            dec = buf.dec[:m]
            matmul(cat[rows], dec_w, dec)
            add(dec, b_dec[:m], dec)
            out[:, k0 : k0 + n] = buf.dec_frames[:n, :B].swapaxes(0, 1)
        # with need_cache the buffers are this call's own, so the cache may hold views
        cache = ((inputs or (x,), buf.s0[:B, H:], buf.cat_frames[:, :B], buf.G_frames[:, :B])
                 if need_cache else None)
        return out.reshape(B, -1), s_new[:B].copy(), cache

    def backward(self, cache, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d_loss/d_out; state input treated constant."""
        p = self.params
        inputs, state, *frame_major = cache
        cat, G = (np.ascontiguousarray(a.swapaxes(0, 1)) for a in frame_major)  # batch-major
        B, R, F = d_out.shape
        H = self.hidden
        flat = lambda a: a.reshape(-1, a.shape[-1])
        h, S = cat[..., :H], cat[..., H:]
        U, C = G[..., :H], G[..., H:]
        S_prev = np.concatenate([state[:, None], S[:, :-1]], axis=1)

        grads = {}
        grads["dec_w"] = flat(cat).T @ flat(d_out)
        grads["dec_b"] = d_out.sum(axis=(0, 1))
        d_cat = d_out @ p["dec_w"].T
        dh = d_cat[..., :H].copy()
        dS = d_cat[..., H:]

        DA = np.empty((B, R, H))  # d(update-gate preactivation)
        DB = np.empty((B, R, H))  # d(candidate preactivation)
        carry = np.zeros((B, H))
        for k in range(R - 1, -1, -1):
            g = dS[:, k] + carry
            u, c, sp = U[:, k], C[:, k], S_prev[:, k]
            da = g * (c - sp) * u * (1.0 - u)
            db = g * u * (1.0 - c * c)
            DA[:, k] = da
            DB[:, k] = db
            carry = g * (1.0 - u) + da @ p["gate_u_u"].T + db @ p["gate_c_u"].T
        grads["gate_u_w"] = flat(h).T @ flat(DA)
        grads["gate_u_u"] = flat(S_prev).T @ flat(DA)
        grads["gate_u_b"] = DA.sum(axis=(0, 1))
        grads["gate_c_w"] = flat(h).T @ flat(DB)
        grads["gate_c_u"] = flat(S_prev).T @ flat(DB)
        grads["gate_c_b"] = DB.sum(axis=(0, 1))
        dh += DA @ p["gate_u_w"].T + DB @ p["gate_c_w"].T
        de = dh * (1.0 - h * h)
        grads["enc_w"] = np.concatenate([flat(a).T @ flat(de) for a in inputs])
        grads["enc_b"] = de.sum(axis=(0, 1))
        return grads


def _frames(x: np.ndarray, frame_size: int) -> np.ndarray:
    if x.shape[-1] % frame_size != 0:
        raise DimensionError(
            f"signal length {x.shape[-1]} is not a multiple of frame_size {frame_size}"
        )
    return x.reshape(*x.shape[:-1], x.shape[-1] // frame_size, frame_size)


class _Conditioning(NamedTuple):
    y_term: np.ndarray  # (R, B, H): y @ W_y, frame-major as the forward reads it
    t_terms: np.ndarray  # (K, H): emb(t) @ W_t + enc_b, one row per time
    gains: list | None  # 1/std(t), one per time
    buf: _FrameBuffers | None  # the forwards' scratch for y's shape; None without gains


class ScoreNet(_FrameNet):
    """Conditional score model s(x_t, y, t); recurrent state threads across chunks.

    The decoder output is divided by std(t): the trainable part regresses the
    O(1) noise while the public output is the score itself.  The encoder
    pre-activation is (x_t @ W_x + y @ W_y) + (emb(t) @ W_t + enc_b).
    """

    kind = "score"

    def __init__(
        self,
        sde_params: SdeParams,
        frame_size: int = 80,
        hidden: int = 96,
        emb_dim: int = 32,
        seed: int = 0,
    ):
        self.sde_params = sde_params
        self.emb = TimeEmbedding(emb_dim)
        super().__init__(2 * frame_size + emb_dim, frame_size, hidden, seed)

    def gain(self, t: float) -> float:
        s = std(self.sde_params.clamp(t), self.sde_params)
        if s == 0.0:
            raise DomainError(f"std({t}) = 0; the score net's gain 1/std(t) is undefined")
        return 1.0 / s

    def embed_times(self, ts) -> np.ndarray:
        """Time-embedding rows (len(ts), emb_dim) at the clamped times; weight-free."""
        return self.emb.embed([self.sde_params.clamp(t) for t in ts])

    def condition(self, y, emb_rows: np.ndarray, gains=None) -> _Conditioning:
        """y's and the times' encoder terms, one padded matmul each, and with ``gains`` the
        forward buffers for y's shape with the forwards' weights in their arena: what
        a bind makes once for all of its score forwards.  A training forward (no gains) makes
        its own."""
        F, w = self.frame_size, self.params["enc_w"]
        yf = _frames(np.atleast_2d(y), F)
        B, R, _ = yf.shape
        y_term = (_pad_rows(yf.swapaxes(0, 1)) @ w[F : 2 * F])[: B * R].reshape(R, B, -1)
        t_terms = (_pad_rows(emb_rows) @ w[2 * F :])[: len(emb_rows)] + self.params["enc_b"]
        buf = None if gains is None else _FrameBuffers(self, B, R, F)
        return _Conditioning(y_term, t_terms, gains, buf)

    def raw_batch(self, x_t, y, ts, states=None, need_cache=False):
        """Pre-gain output on a (B, L) batch; returns (raw, states, cache)."""
        x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if x_t.shape != y.shape:
            raise DimensionError(f"x_t shape {x_t.shape} != y shape {y.shape}")
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        if ts.shape[0] != x_t.shape[0]:
            raise DimensionError("one time per batch item required")
        emb = self.embed_times(ts)
        cond = self.condition(y, emb)
        xf = _frames(x_t, self.frame_size)
        enc = (cond.y_term, np.broadcast_to(cond.t_terms, cond.y_term.shape))
        inputs = (xf, _frames(y, self.frame_size),
                  np.broadcast_to(emb[:, None], xf.shape[:2] + emb.shape[1:]))
        return self.forward_frames(xf, enc, states, need_cache, inputs)

    def forward(self, x_t: np.ndarray, y: np.ndarray, t: float, state=None, cond=None, point=0):
        """Score of a signal (L,), state (H,), or of rows (B, L), state (B, H).

        ``cond`` is a bind's ``condition`` of y and ``point`` the row of t in
        it; without it they are made here for t, to the same bits.  The
        scratch and the weights are ``cond``'s; the score and state are fresh.
        """
        x_t = np.asarray(x_t, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x_t.shape != y.shape:
            raise DimensionError(f"x_t shape {x_t.shape} != y shape {y.shape}")
        if cond is None:
            cond = self.condition(y, self.embed_times([t]), [self.gain(t)])
        enc = (cond.y_term, cond.t_terms[point])
        rows = x_t[None] if x_t.ndim == 1 else x_t
        score, states, _ = self.forward_frames(_frames(rows, self.frame_size), enc, state, False,
                                               buf=cond.buf)
        score *= cond.gains[point]  # the raw output is this call's own array
        return (score[0], states[0]) if x_t.ndim == 1 else (score, states)

    def hyperparams(self) -> dict:
        return {
            "frame_size": self.frame_size,
            "hidden": self.hidden,
            "emb_dim": self.emb.dim,
            "seed": self.seed,
        }


class DenoiserNet(_FrameNet):
    """One-shot signal estimator x_d = D(y); same family, no time conditioning."""

    kind = "denoiser"

    def __init__(self, frame_size: int = 80, hidden: int = 96, seed: int = 0):
        super().__init__(frame_size, frame_size, hidden, seed)

    def raw_batch(self, y, states=None, need_cache=False):
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        return self.forward_frames(_frames(y, self.frame_size), (self.params["enc_b"],), states,
                                   need_cache)

    def forward(self, y: np.ndarray, state=None):
        """Estimate of a signal (L,) or of B rows (B, L); returns (x_d, new_state), both fresh.

        It makes its own scratch and gate weights: a bind runs it once."""
        y = np.asarray(y, dtype=np.float64)
        out, new_states, _ = self.raw_batch(y, state)
        return (out[0], new_states[0]) if y.ndim == 1 else (out, new_states)

    def hyperparams(self) -> dict:
        return {"frame_size": self.frame_size, "hidden": self.hidden, "seed": self.seed}


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------


@dataclass
class MatchingDraws:
    """Frozen perturbation draws so a loss evaluation is a pure function of params."""

    x_t: np.ndarray  # (B, L)
    y: np.ndarray  # (B, L)
    z: np.ndarray  # (B, L)
    ts: np.ndarray  # (B,)


def draw_matching_samples(batch, params: SdeParams, rng: np.random.Generator) -> MatchingDraws:
    """t ~ U[t_eps, T] and one kernel draw per (x0, y) pair."""
    if len(batch) == 0:
        raise DomainError("empty batch")
    x0s = np.stack([np.asarray(p[0], dtype=np.float64) for p in batch])
    ys = np.stack([np.asarray(p[1], dtype=np.float64) for p in batch])
    ts = rng.uniform(params.t_eps, params.T, size=len(batch))
    xts = np.empty_like(x0s)
    zs = np.empty_like(x0s)
    for i, t in enumerate(ts):
        xts[i], zs[i] = sample_perturbed(x0s[i], ys[i], float(t), params, rng)
    return MatchingDraws(xts, ys, zs, ts)


def weighted_matching_loss_from_draws(net: ScoreNet, draws: MatchingDraws):
    """Variance-weighted objective (noise-prediction MSE): mean (raw + z)^2.

    Same minimizer as the literal matching loss, mean ||s + z / std(t)||^2;
    conditioning is flat in t, which is what makes small-scale training converge.
    """
    B, L = draws.x_t.shape
    raw, _, cache = net.raw_batch(draws.x_t, draws.y, draws.ts, need_cache=True)
    resid = raw + draws.z
    loss = float(np.mean(resid * resid))
    d_raw = 2.0 * resid / (B * L)
    grads = net.backward(cache, _frames(d_raw, net.frame_size))
    return loss, grads


def denoiser_loss_and_grads(net: DenoiserNet, batch):
    """Batch-mean SNR loss of the denoiser and its parameter gradient.

    Row i's loss is -10 log10(||x0||^2 / (||x0 - x_hat||^2 + 1e-12)) dB, floored at
    -120 (where it is flat: zero gradient); an infinite estimate, a diverged row,
    gives inf, and a silent reference raises DomainError.
    """
    x0s = np.stack([np.asarray(p[0], dtype=np.float64) for p in batch])
    ys = np.stack([np.asarray(p[1], dtype=np.float64) for p in batch])
    B = x0s.shape[0]
    x_hat, _, cache = net.raw_batch(ys, need_cache=True)
    losses = np.empty(B)
    d_out = np.zeros_like(x_hat)
    scale = 10.0 / math.log(10.0)
    for i, x0 in enumerate(x0s):
        r = x0 - x_hat[i]
        p_ref = float(np.sum(x0 * x0))
        if p_ref == 0.0:
            raise DomainError("reference signal has zero energy")
        p_err = float(np.sum(r * r)) + SNR_LOSS_EPS
        raw = math.inf if p_err == math.inf else -10.0 * math.log10(p_ref / p_err)
        losses[i] = max(raw, SNR_LOSS_FLOOR_DB)
        if raw > SNR_LOSS_FLOOR_DB:
            d_out[i] = scale * (-2.0 * r) / p_err / B
    grads = net.backward(cache, _frames(d_out, net.frame_size))
    return float(losses.mean()), grads


# --------------------------------------------------------------------------
# Optimizers and the training loop
# --------------------------------------------------------------------------


class _Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1.0 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1.0 - self.b2) * g * g
            params[k] -= self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)


class _Momentum:
    def __init__(self, params, lr, mu=0.9):
        self.lr, self.mu = lr, mu
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        for k, g in grads.items():
            self.v[k] = self.mu * self.v[k] - self.lr * g
            params[k] += self.v[k]


# TrainConfig.optimizer -> its class
_OPTIMIZERS = {"adam": _Adam, "momentum": _Momentum}


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"  # adam | momentum
    probe_every: int = 25

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if self.probe_every < 1:
            raise ConfigError(f"probe_every must be >= 1, got {self.probe_every}")
        require_finite(self, "learning_rate")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainResult:
    curve: list = field(default_factory=list)  # rows: (step, train_loss, probe_loss|None)
    final_probe_loss: float = math.nan

    def save_curve_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "train_loss", "probe_loss"])
            for step, train, probe in self.curve:
                w.writerow([step, f"{train:.10g}", "" if probe is None else f"{probe:.10g}"])


def _probe_pairs(pairs, cfg: TrainConfig):
    """The fixed probe set, PROBE_SIZE pairs from a stream of its own; (pairs, rng)."""
    if len(pairs) == 0:
        raise DomainError("training set is empty")
    rng = make_rng(cfg.seed + 104729)
    return [pairs[i] for i in rng.integers(0, len(pairs), size=PROBE_SIZE)], rng


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss raises DivergenceError
def _fit(net, pairs, cfg: TrainConfig, batch_loss_fn, probe_loss_fn) -> TrainResult:
    rng = make_rng(cfg.seed)
    opt = _OPTIMIZERS[cfg.optimizer](net.params, cfg.learning_rate)
    result = TrainResult()
    probe = probe_loss_fn()
    result.curve.append((0, probe, probe))
    for step in range(1, cfg.steps + 1):
        idx = rng.integers(0, len(pairs), size=cfg.batch_size)
        loss, grads = batch_loss_fn([pairs[i] for i in idx], rng)
        if not math.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads.values()):
            raise DivergenceError(f"non-finite loss/gradient at step {step} (loss={loss})")
        opt.step(net.params, grads)
        probe = probe_loss_fn() if step % cfg.probe_every == 0 or step == cfg.steps else None
        result.curve.append((step, loss, probe))
    result.final_probe_loss = probe_loss_fn()
    return result


def train_score(net: ScoreNet, pairs, params: SdeParams, cfg: TrainConfig) -> TrainResult:
    """Fit the score net on (x0, y) pairs with the variance-weighted matching objective."""
    probe_pairs, probe_rng = _probe_pairs(pairs, cfg)
    probe_draws = draw_matching_samples(probe_pairs, params, probe_rng)

    def batch_loss(batch, rng):
        return weighted_matching_loss_from_draws(net, draw_matching_samples(batch, params, rng))

    def probe_loss():
        return weighted_matching_loss_from_draws(net, probe_draws)[0]

    return _fit(net, pairs, cfg, batch_loss, probe_loss)


def train_denoiser(net: DenoiserNet, pairs, cfg: TrainConfig) -> TrainResult:
    """Fit the one-shot denoiser on (x0, y) pairs with the SNR loss."""
    probe_pairs, _ = _probe_pairs(pairs, cfg)

    def batch_loss(batch, rng):
        return denoiser_loss_and_grads(net, batch)

    def probe_loss():
        return denoiser_loss_and_grads(net, probe_pairs)[0]

    return _fit(net, pairs, cfg, batch_loss, probe_loss)


# --------------------------------------------------------------------------
# Checkpoints: versioned npz with config echo, seed, and all parameters
# --------------------------------------------------------------------------

CHECKPOINT_FORMAT = 1  # matrices stored (out, in), as drawn; transposed at this boundary


def save_checkpoint(path: str | Path, net, train_seed: int | None = None) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "kind": net.kind,
        "hyperparams": net.hyperparams(),
        "train_seed": train_seed,
    }
    if net.kind == "score":
        meta["sde_params"] = asdict(net.sde_params)
    arrays = {f"param_{k}": v.T for k, v in net.params.items()}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path):
    """Rebuild a net from a checkpoint; returns (net, meta).

    Every array is checked against the shape its stored hyperparams imply;
    anything unreadable or inconsistent raises ConfigError.
    """
    try:
        with np.load(path) as data:
            if "meta" not in data:
                raise ConfigError(f"{path}: not a checkpoint (missing meta)")
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ConfigError(f"{path}: unsupported checkpoint format {meta.get('format')}")
            hp = meta["hyperparams"]
            if meta["kind"] == "score":
                net = ScoreNet(SdeParams(**meta["sde_params"]), **hp)
            elif meta["kind"] == "denoiser":
                net = DenoiserNet(**hp)
            else:
                raise ConfigError(f"{path}: unknown net kind {meta['kind']!r}")
            params = {}
            for k, (shape, _) in net.init_spec().items():
                key = f"param_{k}"
                if key not in data:
                    raise ConfigError(f"{path}: missing parameter array {k}")
                stored = data[key]
                if stored.shape != shape:
                    raise ConfigError(
                        f"{path}: parameter {k} has shape {stored.shape}, "
                        f"hyperparams imply {shape}"
                    )
                params[k] = np.ascontiguousarray(stored.T, dtype=np.float64)
    except GseError:
        raise
    except (ValueError, EOFError, KeyError, TypeError, AttributeError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: unreadable checkpoint ({type(exc).__name__}: {exc})") from exc
    net.params = params
    return net, meta
