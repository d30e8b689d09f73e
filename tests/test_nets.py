"""Network forwards, manual backprop vs. finite differences, losses, training."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gse.audio import sdr_db
from gse.errors import ConfigError, DimensionError, DivergenceError, DomainError
from gse.nets import (
    GATE_ALIGN,
    ROW_ALIGN,
    ROW_BLOCK,
    STATE_ALIGN,
    DenoiserNet,
    ScoreNet,
    TimeEmbedding,
    TrainConfig,
    _FrameBuffers,
    _pad_rows,
    denoiser_loss_and_grads,
    draw_matching_samples,
    load_checkpoint,
    save_checkpoint,
    train_denoiser,
    train_score,
    weighted_matching_loss_from_draws,
)
from gse.score import GaussianPrior, analytic_gaussian_score
from gse.sde import SdeParams, make_rng, sample_perturbed

P = SdeParams()
WIDE = SdeParams(sigma_min=0.05, sigma_max=0.5)
#: Frames per block of the reference forwards below: a fixed cut, unlike the forward's
#: ROW_BLOCK rows, so that a reference never cuts blocks where the forward does.
REF_BLOCK = 32


# --------------------------------------------------------------------------
# Finite-difference oracle (shared with the acceptance suite)
# --------------------------------------------------------------------------


def central_difference(loss_fn, params, key, index, h=1e-5):
    """d loss / d params[key].flat[index] by central differences."""
    original = params[key].flat[index]
    params[key].flat[index] = original + h
    hi = loss_fn()
    params[key].flat[index] = original - h
    lo = loss_fn()
    params[key].flat[index] = original
    return (hi - lo) / (2.0 * h)


#: The layers of a frame net, each the parameters whose names start with its prefix.
LAYER_PREFIXES = ("enc", "gate_u", "gate_c", "dec")


def check_layer_gradients(net, loss_and_grads, probes_per_layer, rng, rel_tol=1e-4):
    """Probe random entries of every layer; returns the worst relative error."""
    layers = {p: [k for k in net.params if k.startswith(p + "_")] for p in LAYER_PREFIXES}
    assert sorted(sum(layers.values(), [])) == sorted(net.params)
    _, grads = loss_and_grads()
    worst = 0.0
    for layer, keys in layers.items():
        for _ in range(probes_per_layer):
            key = keys[int(rng.integers(len(keys)))]
            index = int(rng.integers(net.params[key].size))
            fd = central_difference(lambda: loss_and_grads()[0], net.params, key, index)
            an = grads[key].flat[index]
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-10)
            assert err < rel_tol, f"{layer}/{key}[{index}]: analytic {an} vs fd {fd}"
            worst = max(worst, err)
    return worst


def state_product(s, w):
    """s @ w through the call and the row padding of the forward's frame loop: one row
    is a gemv through ``np.dot``, B >= 2 rows are zero-padded to a multiple of
    STATE_ALIGN and go through ``np.matmul``."""
    b = len(s)
    if b == 1:
        return np.dot(s, w)
    padded = np.zeros((b + (-b % STATE_ALIGN), s.shape[1]))
    padded[:b] = s
    return np.matmul(padded, w)[:b]


def frozen_score_loss(net, params, seed=0, batch=3, length=12):
    rng = make_rng(seed)
    pairs = [(rng.normal(size=length), rng.normal(size=length)) for _ in range(batch)]
    draws = draw_matching_samples(pairs, params, rng)
    return lambda: weighted_matching_loss_from_draws(net, draws)


def frozen_denoiser_loss(net, seed=0, batch=3, length=12):
    rng = make_rng(seed)
    batch_pairs = [
        (rng.normal(size=length), rng.normal(size=length)) for _ in range(batch)
    ]
    return lambda: denoiser_loss_and_grads(net, batch_pairs)


class TestGradients:
    def test_score_net_layers_match_finite_differences(self):
        net = ScoreNet(WIDE, frame_size=4, hidden=6, seed=11)
        loss = frozen_score_loss(net, WIDE, seed=1)
        check_layer_gradients(net, loss, probes_per_layer=6, rng=make_rng(2))

    def test_denoiser_layers_match_finite_differences(self):
        net = DenoiserNet(frame_size=4, hidden=6, seed=13)
        loss = frozen_denoiser_loss(net, seed=5)
        check_layer_gradients(net, loss, probes_per_layer=6, rng=make_rng(6))


class TestTimeEmbedding:
    def test_shape_and_determinism(self):
        emb = TimeEmbedding(32)
        v = emb.embed(0.37)
        assert v.shape == (32,)
        np.testing.assert_array_equal(v, emb.embed(0.37))

    def test_geometric_frequency_ladder(self):
        emb = TimeEmbedding(32)
        assert emb.omegas[0] == pytest.approx(1.0)
        assert emb.omegas[-1] == pytest.approx(1000.0)
        ratios = emb.omegas[1:] / emb.omegas[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_rows_of_many_times_equal_one_at_a_time(self):
        emb = TimeEmbedding(32)
        ts = np.linspace(0.0, 1.0, 35)
        np.testing.assert_array_equal(emb.embed(ts), np.stack([emb.embed(t) for t in ts]))

    def test_dim_must_be_even(self):
        with pytest.raises(ConfigError):
            TimeEmbedding(7)


class TestForward:
    def test_zero_decoder_gives_zero_score(self):
        net = ScoreNet(P, frame_size=8, hidden=6, seed=0)
        net.params["dec_w"][:] = 0.0
        net.params["dec_b"][:] = 0.0
        rng = make_rng(1)
        s, _ = net.forward(rng.normal(size=32), rng.normal(size=32), 0.5)
        np.testing.assert_array_equal(s, np.zeros(32))

    def test_forward_is_deterministic(self):
        net = ScoreNet(P, frame_size=8, hidden=6, seed=0)
        rng = make_rng(2)
        x, y = rng.normal(size=(2, 24))
        a, sa = net.forward(x, y, 0.7)
        b, sb = net.forward(x, y, 0.7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sa, sb)

    @pytest.mark.parametrize("length", [800, 1600, 4000])
    def test_output_length_matches_input(self, length):
        net = ScoreNet(P, frame_size=80, hidden=4, seed=0)
        rng = make_rng(3)
        x = rng.normal(size=length)
        s, state = net.forward(x, x, 0.5)
        assert s.shape == (length,)
        assert state.shape == (net.state_dim,)

    def test_length_must_be_frame_multiple(self):
        net = ScoreNet(P, frame_size=80, hidden=4, seed=0)
        with pytest.raises(DimensionError):
            net.forward(np.zeros(90), np.zeros(90), 0.5)

    def test_chunked_forward_equals_whole_signal_forward(self):
        """The recurrent state carries everything: chunking is bit-exact."""
        net = ScoreNet(P, frame_size=8, hidden=10, seed=5)
        rng = make_rng(6)
        x, y = rng.normal(size=(2, 64))
        whole, state_whole = net.forward(x, y, 0.4)
        s1, mid = net.forward(x[:24], y[:24], 0.4)
        s2, state_chunked = net.forward(x[24:], y[24:], 0.4, state=mid)
        np.testing.assert_array_equal(whole, np.concatenate([s1, s2]))
        np.testing.assert_array_equal(state_whole, state_chunked)

    def test_training_forward_path_matches_inference_path(self):
        # the cached (training) forward hoists projections into batched matmuls;
        # it must agree with the per-frame inference path to rounding error
        net = ScoreNet(P, frame_size=8, hidden=10, seed=5)
        rng = make_rng(11)
        x_t = rng.normal(size=(4, 64))
        y = rng.normal(size=(4, 64))
        ts = rng.uniform(0.05, 1.0, size=4)
        fast, state_fast, cache = net.raw_batch(x_t, y, ts, need_cache=True)
        slow, state_slow, _ = net.raw_batch(x_t, y, ts, need_cache=False)
        assert cache is not None
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(state_fast, state_slow, rtol=1e-10, atol=1e-12)

    def test_denoiser_chunked_forward_equals_whole(self):
        net = DenoiserNet(frame_size=8, hidden=10, seed=7)
        y = make_rng(8).normal(size=64)
        whole, state_whole = net.forward(y)
        a, mid = net.forward(y[:16])
        b, state_chunked = net.forward(y[16:], state=mid)
        np.testing.assert_array_equal(whole, np.concatenate([a, b]))
        np.testing.assert_array_equal(state_whole, state_chunked)

    def test_a_reused_conditioning_starts_each_forward_afresh(self):
        """Nothing one forward leaves in a conditioning's buffers leaks into the next: at
        each of its times, with a None state after a stateful call and with frames past
        one block, every forward gives the bits of a plain forward."""
        net = ScoreNet(P, frame_size=8, hidden=12, seed=5)
        rng = make_rng(56)
        x, y = rng.normal(size=(2, 3, 8 * (ROW_BLOCK // STATE_ALIGN + 9)))
        state = rng.normal(size=(3, 12))
        ts = [0.4, 0.7, 0.2, 0.9]
        cond = net.condition(y, net.embed_times(ts), [net.gain(t) for t in ts])
        for point, s in [(0, state), (0, None), (1, None), (2, state), (3, None)]:
            got = net.forward(x, y, ts[point], s, cond, point)
            for a, b in zip(got, net.forward(x, y, ts[point], s)):
                np.testing.assert_array_equal(a, b)

    def test_mac_count_is_analytic(self):
        net = ScoreNet(P, frame_size=80, hidden=96, seed=0)
        d_in = 2 * 80 + 32
        per_frame = 96 * d_in + 4 * 96 * 96 + 80 * 2 * 96
        assert net.macs_per_forward(800) == 10 * per_frame
        den = DenoiserNet(frame_size=40, hidden=96, seed=0)
        per_frame = 96 * 40 + 4 * 96 * 96 + 40 * 2 * 96
        assert den.macs_per_forward(800) == 20 * per_frame
        with pytest.raises(DimensionError):
            net.macs_per_forward(801)


class TestRowInvariance:
    """The BLAS property the one forward path stands on.

    Row i of ``_pad_rows(X) @ W`` must not depend on how many rows surround it
    or where the slice starts; chunked == whole bit-exactness follows from it.
    Unpadded, OpenBLAS breaks it (M = 1 goes through gemv; some output widths
    round differently for some M), so a BLAS upgrade that breaks the padded
    case must fail here rather than silently in the streaming contract.
    """

    # (in, out) of the nets' hoisted matmuls: the acceptance recipe (score
    # hidden 160, denoiser hidden 96, frame 40) and the small test nets
    NET_SHAPES = [(112, 160), (160, 160), (320, 40), (40, 96), (96, 96), (192, 40),
                  (8, 10), (10, 10), (20, 8), (20, 4),
                  # the score net's encoder halves (x and y: frame 40; time rows: 32)
                  # and the fused gate inputs [update | candidate] of both nets
                  (40, 160), (32, 160), (160, 320), (96, 192)]

    @pytest.mark.parametrize("d_in", [10, 112])
    def test_rows_do_not_depend_on_their_neighbours(self, d_in):
        rng = make_rng(40)
        shapes = [(d_in, n) for n in range(1, 65)] + self.NET_SHAPES
        # 72 rows keep every width below OpenBLAS's small-matrix bound at d_in = 112; the
        # test below takes the nets' widths past it and across ROW_BLOCK
        X = rng.normal(size=(2 * 32 + ROW_ALIGN, max(k for k, _ in shapes)))
        for k, n in shapes:
            W = rng.normal(size=(k, n))
            whole = _pad_rows(X[:, :k]) @ W
            for rows in (1, 2, 3, 7, 8, 9, 20, 31, 32, 33):
                for offset in (0, 1, 5, 13, 32):
                    part = (_pad_rows(X[offset : offset + rows, :k]) @ W)[:rows]
                    assert np.array_equal(part, whole[offset : offset + rows]), (k, n, rows, offset)

    def test_net_rows_do_not_depend_on_their_neighbours_across_a_block(self):
        """The nets' widths, with row counts and offsets across ROW_BLOCK, against a whole
        of 2 ROW_BLOCK + ROW_ALIGN rows: every product size a block, a chunk or a
        conditioning of up to 264 rows makes, on both sides of OpenBLAS's SkylakeX
        small-matrix bound (it runs products of M * N * K <= 1e6 through a kernel of its
        own, so (8, 160) @ (160, 320) takes that kernel and (128, 160) @ (160, 320) not).

        Widths N > 32 with N % 8 in 1..4 are left out: the two kernels round their last
        columns unlike each other, so for them the contract breaks once one product crosses
        the bound (a 65- or 66-wide hidden state, whose gates are 130 or 132 wide), under
        SkylakeX only.  No recipe width is one of them.
        """
        rng = make_rng(47)
        X = rng.normal(size=(2 * ROW_BLOCK + ROW_ALIGN, max(k for k, _ in self.NET_SHAPES)))
        for k, n in self.NET_SHAPES:
            W = rng.normal(size=(k, n))
            whole = _pad_rows(X[:, :k]) @ W
            for rows in (1, 8, 9, 20, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1):
                for offset in (0, 1, 13, 32, ROW_BLOCK):
                    part = (_pad_rows(X[offset : offset + rows, :k]) @ W)[:rows]
                    assert np.array_equal(part, whole[offset : offset + rows]), (k, n, rows, offset)

    @pytest.mark.parametrize("k, n", [(160, 320), (96, 192)])
    def test_recurrent_rows_round_alike_from_two_rows_on(self, k, n):
        """The per-frame (B, H) @ (H, 2H) product pads B >= 2 rows to a multiple of
        STATE_ALIGN: for every row count M = 2..8 each row then rounds as it does
        among 16 rows, wherever it sits.

        This is what makes a batched row's bits independent of its batch-mates;
        M = 1 goes through gemv and may round differently (a solo run).  Unpadded,
        OpenBLAS's Haswell and Zen kernels round 3, 5 or 7 rows differently.
        """
        rng = make_rng(46)
        X, W = rng.normal(size=(16, k)), rng.normal(size=(k, n))
        whole = X @ W
        for rows in range(2, 9):
            for offset in (0, 1, 3, 16 - rows):
                part = state_product(X[offset : offset + rows], W)
                assert np.array_equal(part, whole[offset : offset + rows]), (k, n, rows, offset)

    def test_padding_is_zero_rows_to_the_alignment(self):
        x = make_rng(41).normal(size=(9, 3))
        padded = _pad_rows(x)
        assert padded.shape == (16, 3) and padded.flags.c_contiguous
        np.testing.assert_array_equal(padded[:9], x)
        assert not padded[9:].any()
        assert _pad_rows(x[:8]).shape == (8, 3)


class TestFrameProduct:
    """The frame loop's state product goes through ``np.dot`` for one row and ``np.matmul``
    for padded rows.  Both must round the forward's operands alike, so that a forward's
    bits do not hang on which of the two calls it makes.  ``tests/test_blas_kernels.py``
    reruns this under each OpenBLAS kernel family."""

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("hidden", [160, 96])  # the recipe's score net and denoiser
    def test_dot_and_matmul_round_the_frame_product_alike(self, batch, hidden):
        """At the forward's own operands: each frame's state rows, a strided (rows, H) view of
        the frame buffers, times the fused (H, 2H) recurrent gates, into the product buffer."""
        net = DenoiserNet(frame_size=40, hidden=hidden, seed=3)
        buf = _FrameBuffers(net, batch, 20, 40)
        rng = make_rng(48)
        buf.s0[...] = rng.normal(size=buf.s0.shape)
        buf.cat[...] = rng.normal(size=buf.cat.shape)
        w_rec = buf.weights[1]
        for step in buf.steps:
            s = step[3]
            assert s.shape == (batch, hidden) and s.strides[0] == 2 * hidden * 8
            np.dot(s, w_rec, buf.rec)
            want = buf.rec.copy()
            np.matmul(s, w_rec, buf.rec)
            assert buf.rec.tobytes() == want.tobytes()


def _sigmoid(a):
    """The overflow-safe logistic: (tanh(a / 2) + 1) / 2."""
    return (np.tanh(0.5 * a) + 1.0) * 0.5


def _textbook_cell(net, x, state):
    """The frame net with two weight matrices per gate, written out gate by gate.

    It hoists and pads the projections and pads the state rows as the net
    does, so that only the fused cell itself differs from ``_FrameNet.forward``.
    """
    p, H, F = net.params, net.hidden, net.frame_size
    B, R, d = x.shape
    out, s = np.empty((B, R, F)), state
    for k0 in range(0, R, REF_BLOCK):
        n = min(REF_BLOCK, R - k0)
        rows = B * n
        h = np.tanh(_pad_rows(x[:, k0 : k0 + n].reshape(rows, d)) @ p["enc_w"][:d] + p["enc_b"])
        a_u = (h @ p["gate_u_w"])[:rows].reshape(B, n, H) + p["gate_u_b"]
        a_c = (h @ p["gate_c_w"])[:rows].reshape(B, n, H) + p["gate_c_b"]
        states = []
        for k in range(n):
            u = _sigmoid(state_product(s, p["gate_u_u"]) + a_u[:, k])
            c = np.tanh(state_product(s, p["gate_c_u"]) + a_c[:, k])
            s = s + u * (c - s)
            states.append(s)
        cat = np.concatenate([h[:rows].reshape(B, n, H), np.stack(states, axis=1)], axis=-1)
        dec = (_pad_rows(cat.reshape(rows, 2 * H)) @ p["dec_w"])[:rows]
        out[:, k0 : k0 + n] = dec.reshape(B, n, F) + p["dec_b"]
    return out.reshape(B, -1), s


class TestFusedCell:
    """One (H, 2H) recurrent product and one tanh per frame, bit for bit the two-gate cell."""

    @pytest.mark.parametrize("batch, frames", [(1, 20), (3, 71), (8, 20), (1, 135)])
    def test_fused_cell_equals_the_textbook_cell(self, batch, frames):
        net = DenoiserNet(frame_size=40, hidden=96, seed=1)  # the recipe's widths
        rng = make_rng(50)
        y = rng.normal(size=(batch, frames * 40))
        state = rng.normal(size=(batch, 96))
        got, got_state, _ = net.raw_batch(y, state)
        want, want_state = _textbook_cell(net, y.reshape(batch, frames, 40), state)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_state, want_state)

    def test_fused_layout(self):
        net = DenoiserNet(frame_size=4, hidden=6, seed=2)
        w_in, w_rec, b = _FrameBuffers(net, 1, 1, net.frame_size).weights[:3]
        p = net.params
        np.testing.assert_array_equal(w_in, np.hstack([0.5 * p["gate_u_w"], p["gate_c_w"]]))
        np.testing.assert_array_equal(w_rec, np.hstack([0.5 * p["gate_u_u"], p["gate_c_u"]]))
        np.testing.assert_array_equal(
            b, np.broadcast_to(np.concatenate([0.5 * p["gate_u_b"], p["gate_c_b"]]), b.shape))
        assert all(a.ctypes.data % GATE_ALIGN == 0 for a in (w_in, w_rec, b))

    @pytest.mark.parametrize("hidden", [6, 96])
    @pytest.mark.parametrize("frames", [20, 71])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_arena_arrays_are_aligned_and_disjoint(self, batch, frames, hidden):
        """A forward's buffers, its fused gates, its two bias tiles and its copies of W_x and
        dec_w are carved from one arena: every array starts on GATE_ALIGN bytes and none
        overlaps another, at a forward's and at a training span.
        Each tile row holds the fused gate bias or dec_b, and the copies hold the weights."""
        net = DenoiserNet(frame_size=40, hidden=hidden, seed=1)
        rng = make_rng(57)
        for key in ("gate_u_b", "gate_c_b", "dec_b"):
            net.params[key][...] = rng.normal(size=net.params[key].shape)
        p = net.params
        b_fused = np.concatenate([0.5 * p["gate_u_b"], p["gate_c_b"]])
        names = ("x", "pre", "dec", "cat", "G", "s0", "rec", "diff", "step", "scale", "shift")
        bufs = [_FrameBuffers(net, batch, frames, 40, whole) for whole in (False, True)]
        for buf in bufs:
            arrays = [getattr(buf, name) for name in names] + list(buf.weights)
            assert all(a.ctypes.data % GATE_ALIGN == 0 for a in arrays)
            for a, b in itertools.combinations(arrays, 2):
                assert not np.shares_memory(a, b)
        for buf in bufs:
            b_g, b_dec, w_x, dec_w = buf.weights[2:]
            assert b_g.shape == (len(buf.x), 2 * hidden) and b_dec.shape == (len(buf.x), 40)
            np.testing.assert_array_equal(b_g, np.broadcast_to(b_fused, b_g.shape))
            np.testing.assert_array_equal(b_dec, np.broadcast_to(net.params["dec_b"], b_dec.shape))
            np.testing.assert_array_equal(w_x, net.params["enc_w"])
            np.testing.assert_array_equal(dec_w, net.params["dec_w"])

    @pytest.mark.parametrize("key, index", [
        ("gate_u_u", 7),  # the fused recurrent matrix
        ("gate_c_w", 3),  # the fused gate input
        # enc_w is (2 * 8 + 32, 12): rows 0-7 are W_x, 8-15 W_y, 16-47 W_t
        ("enc_w", 1 * 12 + 5),
        ("enc_w", 9 * 12 + 5),
        ("enc_w", 20 * 12 + 5),
        # the biases, which each bind writes into its bias tiles
        ("gate_u_b", 4),
        ("gate_c_b", 9),
        ("dec_b", 2),
        # the decoder, which each bind copies into its arena
        ("dec_w", 5 * 8 + 3),
    ])
    def test_in_place_weight_edits_show_in_the_next_forward(self, key, index):
        """Derived weights, the bias tiles and weight copies too, are never cached on the net:
        optimizers edit params in place, and a forward without a conditioning makes its own,
        as a bind does."""
        net = ScoreNet(P, frame_size=8, hidden=12, seed=5)
        x, y = make_rng(51).normal(size=(2, 64))
        before, _ = net.forward(x, y, 0.4)
        net.params[key].flat[index] += 0.5
        after, _ = net.forward(x, y, 0.4)
        assert not np.array_equal(before, after)

    def test_conditioned_forward_equals_plain_forward(self):
        """Terms made once for many times give the bits a forward for one time makes."""
        net = ScoreNet(P, frame_size=40, hidden=160, seed=0)
        rng = make_rng(52)
        x, y = rng.normal(size=(2, 800))
        state = rng.normal(size=160)
        ts = [0.03, 0.1, 0.5, 0.97, 1.0]
        cond = net.condition(y, net.embed_times(ts), [net.gain(t) for t in ts])
        for i, t in enumerate(ts):
            a, sa = net.forward(x, y, t, state, cond, i)
            b, sb = net.forward(x, y, t, state)
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(sa, sb)


def _fused_gates(net, d: int) -> tuple:
    """The fused gates that a forward's buffers hold: input half, recurrent half, bias (2H,)."""
    w_in, w_rec, b_tile = _FrameBuffers(net, 1, 1, d).weights[:3]
    return w_in, w_rec, b_tile[0]


def _batch_major_forward(core, x, enc, state, need_cache, gates, inputs):
    """``_FrameNet.forward_frames`` with its per-frame buffers batch-major, (B, R, 2H).

    The same ops on the same values, with rows in batch order and the
    recurrent product's rows padded as the forward pads them: the reference
    that the frame-major layout must match bit for bit.  Its cache is
    batch-major too; ``enc`` terms are (H,) or (B, R, H).
    """
    p = core.params
    B, R, d = x.shape
    H, F = core.hidden, core.frame_size
    w_in, w_rec, b_g = gates
    span = R if need_cache else min(R, REF_BLOCK)
    cat, G = np.empty((B, span, 2 * H)), np.empty((B, span, 2 * H))
    out, s = np.empty((B, R, F)), state
    for k0 in range(0, R, REF_BLOCK):
        n = min(REF_BLOCK, R - k0)
        rows = B * n
        j0 = k0 if need_cache else 0
        blk = cat[:, j0 : j0 + n]
        h = _pad_rows(x[:, k0 : k0 + n].reshape(rows, d)) @ p["enc_w"][:d]
        pre = h[:rows].reshape(B, n, H)
        for term in enc:
            pre += term if term.ndim == 1 else term[:, k0 : k0 + n]
        np.tanh(h, out=h)
        hg = (h @ w_in)[:rows]
        hg += b_g
        hg = hg.reshape(B, n, 2 * H)
        blk[..., :H] = pre
        for k in range(n):
            g, s_new = G[:, j0 + k], blk[:, k, H:]
            g[...] = state_product(s, w_rec)
            g += hg[:, k]
            np.tanh(g, out=g)
            u, c = g[:, :H], g[:, H:]
            u += 1.0
            u *= 0.5
            np.subtract(c, s, out=s_new)
            s_new *= u
            s_new += s
            s = s_new
        dec = _pad_rows(blk.reshape(rows, 2 * H)) @ p["dec_w"]
        out[:, k0 : k0 + n] = dec[:rows].reshape(B, n, F) + p["dec_b"]
    return out, s.copy(), (inputs, state, cat, G) if need_cache else None


def _batch_major_backward(core, cache, d_out):
    """``_FrameNet.backward`` on a batch-major cache: every reduction sums rows in batch order."""
    p, H = core.params, core.hidden
    inputs, state, cat, G = cache
    B, R, _ = d_out.shape
    flat = lambda a: a.reshape(-1, a.shape[-1])
    h, S, U, C = cat[..., :H], cat[..., H:], G[..., :H], G[..., H:]
    S_prev = np.concatenate([state[:, None], S[:, :-1]], axis=1)
    grads = {"dec_w": flat(cat).T @ flat(d_out), "dec_b": d_out.sum(axis=(0, 1))}
    d_cat = d_out @ p["dec_w"].T
    dh, dS = d_cat[..., :H].copy(), d_cat[..., H:]
    DA, DB, carry = np.empty((B, R, H)), np.empty((B, R, H)), np.zeros((B, H))
    for k in range(R - 1, -1, -1):
        g = dS[:, k] + carry
        u, c, sp = U[:, k], C[:, k], S_prev[:, k]
        DA[:, k] = da = g * (c - sp) * u * (1.0 - u)
        DB[:, k] = db = g * u * (1.0 - c * c)
        carry = g * (1.0 - u) + da @ p["gate_u_u"].T + db @ p["gate_c_u"].T
    for gate, D in (("u", DA), ("c", DB)):
        grads[f"gate_{gate}_w"] = flat(h).T @ flat(D)
        grads[f"gate_{gate}_u"] = flat(S_prev).T @ flat(D)
        grads[f"gate_{gate}_b"] = D.sum(axis=(0, 1))
    dh += DA @ p["gate_u_w"].T + DB @ p["gate_c_w"].T
    de = dh * (1.0 - h * h)
    grads["enc_w"] = np.concatenate([flat(a).T @ flat(de) for a in inputs])
    grads["enc_b"] = de.sum(axis=(0, 1))
    return grads


class TestFrameMajorLayout:
    """The forward's frame-major buffers, (R, B, 2H), against the batch-major reference.

    Outputs, final states, the cached ``cat``/``G`` and the gradients must
    keep every bit, at the recipe's widths, for row counts on both sides of
    gemv/gemm and frame counts that cross a block of ROW_BLOCK rows: 33 and 71
    frames at B >= 2, 135 frames at B = 1.
    """

    @staticmethod
    def _score_case(B, R, need_cache):
        net = ScoreNet(P, frame_size=40, hidden=160, seed=0)
        rng = make_rng(53)
        x, y = rng.normal(size=(2, B, R * 40))
        ts, state = rng.uniform(0.05, 1.0, size=B), rng.normal(size=(B, 160))
        got = net.raw_batch(x, y, ts, state, need_cache)
        # the parent's batch-major conditioning: y's term and the time terms per row
        F, w = 40, net.params["enc_w"]
        xf, yf = x.reshape(B, R, F), y.reshape(B, R, F)
        emb = net.embed_times(ts)
        y_term = (_pad_rows(yf.reshape(B * R, F)) @ w[F : 2 * F])[: B * R].reshape(B, R, -1)
        t_terms = (_pad_rows(emb) @ w[2 * F :])[:B] + net.params["enc_b"]
        enc = (y_term, np.broadcast_to(t_terms[:, None], y_term.shape))
        inputs = (xf, yf, np.broadcast_to(emb[:, None], (B, R, emb.shape[1])))
        want = _batch_major_forward(net, xf, enc, state, need_cache, _fused_gates(net, F),
                                    inputs)
        return net, got, want

    @staticmethod
    def _denoiser_case(B, R, need_cache):
        net = DenoiserNet(frame_size=40, hidden=96, seed=1)
        rng = make_rng(54)
        y, state = rng.normal(size=(B, R * 40)), rng.normal(size=(B, 96))
        got = net.raw_batch(y, state, need_cache)
        yf = y.reshape(B, R, 40)
        want = _batch_major_forward(net, yf, (net.params["enc_b"],), state, need_cache,
                                    _fused_gates(net, 40), (yf,))
        return net, got, want

    @pytest.mark.parametrize("need_cache", [False, True])
    @pytest.mark.parametrize("B, R", [*itertools.product([1, 2, 3, 5, 8], [20, 33, 71]),
                                      (1, ROW_BLOCK + 7)])
    @pytest.mark.parametrize("case", ["_score_case", "_denoiser_case"])
    def test_bit_identical_to_the_batch_major_loop(self, case, B, R, need_cache):
        net, (out, state, cache), (want_out, want_state, want_cache) = getattr(self, case)(
            B, R, need_cache)
        np.testing.assert_array_equal(out, want_out.reshape(B, -1))
        np.testing.assert_array_equal(state, want_state)
        if not need_cache:
            assert cache is None
            return
        cat, G = cache[2:]
        assert cat.shape == G.shape == (R, B, 2 * net.hidden)
        np.testing.assert_array_equal(cat.swapaxes(0, 1), want_cache[2])
        np.testing.assert_array_equal(G.swapaxes(0, 1), want_cache[3])
        d_out = make_rng(55).normal(size=(B, R, net.frame_size))
        grads = net.backward(cache, d_out)
        want_grads = _batch_major_backward(net, want_cache, d_out)
        assert grads.keys() == want_grads.keys()
        for key, g in grads.items():
            np.testing.assert_array_equal(g, want_grads[key], err_msg=key)


def _score_chunks(net, x, y, t, cuts):
    out, state = [], None
    for a, b in zip([0, *cuts], [*cuts, x.size]):
        s, state = net.forward(x[a:b], y[a:b], t, state=state)
        out.append(s)
    return np.concatenate(out), state


def _denoiser_chunks(net, y, cuts):
    out, state = [], None
    for a, b in zip([0, *cuts], [*cuts, y.size]):
        d, state = net.forward(y[a:b], state=state)
        out.append(d)
    return np.concatenate(out), state


class TestChunkBoundaries:
    """Chunked == whole, bit for bit, for cuts that stress the frame blocks."""

    FRAME = 4
    FRAMES = 2 * ROW_BLOCK + 7  # one row: three blocks, 128 + 128 + 7 frames
    CUTS = {
        "one-frame chunks at the start and inside a block": [1, 2, 136, 137],
        "cut inside a frame block": [129],
        "cut on a block edge, then ragged": [128, 141, 256],
    }

    @pytest.mark.parametrize("cuts", list(CUTS.values()), ids=list(CUTS))
    def test_score_net(self, cuts):
        net = ScoreNet(P, frame_size=self.FRAME, hidden=10, seed=5)
        x, y = make_rng(42).normal(size=(2, self.FRAMES * self.FRAME))
        whole, state_whole = net.forward(x, y, 0.4)
        chunked, state_chunked = _score_chunks(net, x, y, 0.4, [c * self.FRAME for c in cuts])
        np.testing.assert_array_equal(whole, chunked)
        np.testing.assert_array_equal(state_whole, state_chunked)

    @pytest.mark.parametrize("cuts", list(CUTS.values()), ids=list(CUTS))
    def test_denoiser(self, cuts):
        net = DenoiserNet(frame_size=self.FRAME, hidden=10, seed=7)
        y = make_rng(43).normal(size=self.FRAMES * self.FRAME)
        whole, state_whole = net.forward(y)
        chunked, state_chunked = _denoiser_chunks(net, y, [c * self.FRAME for c in cuts])
        np.testing.assert_array_equal(whole, chunked)
        np.testing.assert_array_equal(state_whole, state_chunked)

    def test_acceptance_shapes_one_frame_chunks(self):
        """The recipe's widths (score hidden 160, denoiser hidden 96, frame 40)."""
        frame, frames = 40, 24
        score = ScoreNet(P, frame_size=frame, hidden=160, seed=0)
        den = DenoiserNet(frame_size=frame, hidden=96, seed=1)
        x, y = make_rng(44).normal(size=(2, frames * frame))
        cuts = [k * frame for k in range(1, frames)]
        np.testing.assert_array_equal(score.forward(x, y, 0.7)[0],
                                      _score_chunks(score, x, y, 0.7, cuts)[0])
        np.testing.assert_array_equal(den.forward(y)[0], _denoiser_chunks(den, y, cuts)[0])


class TestMatchingLoss:
    def test_oracle_network_reaches_zero_loss(self):
        """A stub that returns the exact noise direction zeroes the objective."""
        rng = make_rng(10)
        pairs = [(rng.normal(size=8), rng.normal(size=8)) for _ in range(4)]
        draws = draw_matching_samples(pairs, P, rng)
        stub = SimpleNamespace(
            frame_size=4,
            raw_batch=lambda x_t, y, ts, states=None, need_cache=False: (-draws.z, None, None),
            backward=lambda cache, d_out: {},
        )
        loss, _ = weighted_matching_loss_from_draws(stub, draws)
        assert loss == 0.0

    def test_zero_network_loss_equals_noise_energy(self):
        """With raw = 0 the loss is exactly the mean of z^2 on the draws."""
        net = ScoreNet(P, frame_size=4, hidden=6, seed=1)
        net.params["dec_w"][:] = 0.0
        net.params["dec_b"][:] = 0.0
        rng = make_rng(11)
        pairs = [(rng.normal(size=8), rng.normal(size=8)) for _ in range(6)]
        draws = draw_matching_samples(pairs, P, rng)
        loss, _ = weighted_matching_loss_from_draws(net, draws)
        assert loss == pytest.approx(float(np.mean(draws.z**2)), rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            draw_matching_samples([], P, make_rng(0))


class TestSnrLoss:
    """The denoiser's training loss on a net whose only non-zero weight is ``dec_b``, so
    that its estimate of every input is ``dec_b`` repeated frame by frame."""

    @staticmethod
    def loss(estimate_frame, x0):
        net = DenoiserNet(frame_size=len(estimate_frame), hidden=3, seed=0)
        for weight in net.params.values():
            weight[:] = 0.0
        net.params["dec_b"][:] = estimate_frame
        with np.errstate(invalid="ignore"):  # an infinite estimate's gradient is NaN
            return denoiser_loss_and_grads(net, [(x0, np.ones_like(x0))])[0]

    def test_exact_recovery_hits_floor(self):
        frame = make_rng(0).normal(size=4)
        assert self.loss(frame, np.tile(frame, 25)) == -120.0

    def test_zero_estimate_gives_zero_db(self):
        x0 = make_rng(1).normal(size=50)
        assert self.loss(np.zeros(5), x0) == pytest.approx(0.0, abs=1e-9)

    def test_ten_percent_residual(self):
        frame = make_rng(2).normal(size=8)
        assert self.loss(1.1 * frame, np.tile(frame, 8)) == pytest.approx(-20.0, abs=1e-9)

    def test_silent_reference_rejected(self):
        with pytest.raises(DomainError):
            self.loss(np.ones(4), np.zeros(4))

    def test_infinite_estimate_gives_infinite_loss(self):
        """What ``denoiser_loss_and_grads`` records for a diverged row."""
        assert self.loss(np.full(4, np.inf), np.ones(4)) == math.inf


class TestTraining:
    def make_pairs(self, n=12, length=16, seed=20):
        rng = make_rng(seed)
        out = []
        for _ in range(n):
            x0 = rng.normal(0.0, 0.5, size=length)
            out.append((x0, x0 + rng.normal(0.0, 0.2, size=length)))
        return out

    def test_zero_learning_rate_is_a_no_op(self):
        net = ScoreNet(P, frame_size=4, hidden=6, seed=3)
        before = {k: v.copy() for k, v in net.params.items()}
        cfg = TrainConfig(steps=10, batch_size=2, learning_rate=0.0, seed=0, probe_every=2)
        result = train_score(net, self.make_pairs(), P, cfg)
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])
        probes = [probe for _, _, probe in result.curve if probe is not None]
        assert len(set(probes)) == 1  # flat probe curve

    def test_fixed_seed_reproduces_loss_curve(self):
        cfg = TrainConfig(steps=15, batch_size=3, learning_rate=1e-3, seed=7, probe_every=5)
        curves = []
        for _ in range(2):
            net = DenoiserNet(frame_size=4, hidden=8, seed=1)
            curves.append(train_denoiser(net, self.make_pairs(), cfg).curve)
        assert curves[0] == curves[1]

    def test_divergence_aborts_with_step_index(self):
        net = ScoreNet(P, frame_size=4, hidden=6, seed=3)
        cfg = TrainConfig(
            steps=60, batch_size=2, learning_rate=1e8, seed=0,
            optimizer="momentum", probe_every=1000,
        )
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="step"):
            train_score(net, self.make_pairs(), P, cfg)

    def test_momentum_optimizer_also_learns(self):
        net = DenoiserNet(frame_size=4, hidden=8, seed=2)
        cfg = TrainConfig(
            steps=120, batch_size=4, learning_rate=1e-3, seed=1,
            optimizer="momentum", probe_every=40,
        )
        result = train_denoiser(net, self.make_pairs(), cfg)
        probes = [probe for _, _, probe in result.curve if probe is not None]
        assert probes[-1] < probes[0]

    def test_trained_score_approximates_analytic_score(self):
        """Gaussian-only data, scalar chunks: the learned score converges to the
        closed form on a held-out (x_t, t) grid.

        The training range starts below the evaluation grid (t_eps=0.01 vs grid
        floor 0.03) because a one-sided data boundary biases the fit exactly at
        the edge; evaluating in the interior isolates the convergence claim from
        that boundary artifact.  The staged learning-rate decay is what lets the
        stochastic objective average down to the population score.
        """
        toy = SdeParams(sigma_min=0.1, sigma_max=0.5, t_eps=0.01)
        prior = GaussianPrior(m0=1.0, var0=0.01)
        y_const = 0.4
        rng = make_rng(30)
        pairs = [
            (rng.normal(prior.m0, math.sqrt(prior.var0), size=1), np.full(1, y_const))
            for _ in range(2048)
        ]
        net = ScoreNet(toy, frame_size=1, hidden=24, seed=8)
        for stage, (steps, lr, batch) in enumerate(
            [(2000, 3e-3, 64), (2000, 5e-4, 64), (1500, 1e-4, 256)]
        ):
            cfg = TrainConfig(
                steps=steps, batch_size=batch, learning_rate=lr, seed=stage, probe_every=steps
            )
            train_score(net, pairs, toy, cfg)

        num = den = 0.0
        y = np.full(1, y_const)
        rng = make_rng(999)
        for t in np.linspace(0.03, toy.T, 7):
            for _ in range(200):
                x0 = rng.normal(prior.m0, math.sqrt(prior.var0), size=1)
                x_t, _ = sample_perturbed(x0, y, float(t), toy, rng)
                learned, _ = net.forward(x_t, y, float(t))
                exact = analytic_gaussian_score(x_t, y, float(t), prior, toy)
                num += float(np.sum((learned - exact) ** 2))
                den += float(np.sum(exact**2))
        assert math.sqrt(num / den) < 0.15

    def test_denoiser_gains_at_least_5db_on_matched_noise(self, trained_models, eval_set):
        gains = []
        for clean, noisy in eval_set:
            scale = 0.9 / float(np.max(np.abs(noisy.samples)))
            x_hat, _ = trained_models.denoiser.forward(noisy.samples * scale)
            out_snr = sdr_db(clean.samples, x_hat / scale)
            in_snr = sdr_db(clean.samples, noisy.samples)
            gains.append(out_snr - in_snr)
        assert float(np.median(gains)) >= 5.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=-1)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="sgd")
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="learning_rate must be finite"):
                TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("name, value", [("steps", 2.5), ("batch_size", 2.0),
                                             ("probe_every", 1.5)])
    def test_counts_must_be_ints(self, name, value):
        """A float count used to pass: steps and batch_size then ended in a raw TypeError,
        and probe_every probed only at the steps it divides."""
        with pytest.raises(ConfigError, match=f"{name} must be an int >= ., got {value}"):
            TrainConfig(**{name: value})

    def test_loss_curve_csv(self, tmp_path):
        net = DenoiserNet(frame_size=4, hidden=6, seed=0)
        cfg = TrainConfig(steps=6, batch_size=2, learning_rate=1e-3, seed=0, probe_every=3)
        result = train_denoiser(net, self.make_pairs(), cfg)
        path = tmp_path / "curve.csv"
        result.save_curve_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,train_loss,probe_loss"
        assert len(lines) == 2 + cfg.steps  # header + step-0 row + one row per step


class TestCheckpoints:
    def test_score_round_trip_is_bit_exact(self, tmp_path):
        net = ScoreNet(WIDE, frame_size=8, hidden=10, seed=4)
        path = tmp_path / "score.npz"
        save_checkpoint(path, net, train_seed=99)
        loaded, meta = load_checkpoint(path)
        assert isinstance(loaded, ScoreNet)
        assert meta["kind"] == "score"
        assert meta["train_seed"] == 99
        assert meta["sde_params"]["sigma_max"] == WIDE.sigma_max
        for k in net.params:
            np.testing.assert_array_equal(loaded.params[k], net.params[k])
        x = make_rng(0).normal(size=16)
        np.testing.assert_array_equal(
            net.forward(x, x, 0.5)[0], loaded.forward(x, x, 0.5)[0]
        )

    def test_denoiser_round_trip(self, tmp_path):
        net = DenoiserNet(frame_size=8, hidden=10, seed=4)
        path = tmp_path / "den.npz"
        save_checkpoint(path, net)
        loaded, meta = load_checkpoint(path)
        assert isinstance(loaded, DenoiserNet)
        assert meta["hyperparams"] == net.hyperparams()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ConfigError, match="meta"):
            load_checkpoint(path)

    def test_weights_are_stored_transposed_at_the_file_boundary(self, tmp_path):
        """Format 1 keeps matrices (out, in); in memory they are (in, out)."""
        net = DenoiserNet(frame_size=8, hidden=10, seed=4)
        path = tmp_path / "den.npz"
        save_checkpoint(path, net)
        with np.load(path) as data:
            assert data["param_enc_w"].shape == (10, 8)
            assert data["param_dec_w"].shape == (8, 20)
            np.testing.assert_array_equal(data["param_dec_w"], net.params["dec_w"].T)
        loaded, _ = load_checkpoint(path)
        assert loaded.params["dec_w"].shape == (20, 8)
        assert all(v.flags.c_contiguous for v in loaded.params.values())

    def test_wrong_shape_array_rejected(self, tmp_path):
        net = ScoreNet(WIDE, frame_size=8, hidden=10, seed=4)
        path = tmp_path / "score.npz"
        save_checkpoint(path, net)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param_gate_c_u"] = np.zeros((10, 9))
        np.savez(path, **arrays)
        with pytest.raises(ConfigError, match="gate_c_u"):
            load_checkpoint(path)

    def test_non_npz_file_rejected(self, tmp_path):
        path = tmp_path / "score.npz"
        path.write_text("frame_size = 8\n")
        with pytest.raises(ConfigError, match="unreadable"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = DenoiserNet(frame_size=8, hidden=10, seed=4)
        path = tmp_path / "den.npz"
        save_checkpoint(path, net)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ConfigError, match="unreadable"):
            load_checkpoint(path)

    def test_bad_meta_json_rejected(self, tmp_path):
        path = tmp_path / "score.npz"
        np.savez(path, meta=np.frombuffer(b"{not json", dtype=np.uint8))
        with pytest.raises(ConfigError, match="unreadable"):
            load_checkpoint(path)
