import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import buffer_of, grad_check, project_scalar, tap_loop_depthwise_vjp, vjp_buffers, whole_buffer_conv

from lkcanet import ops
from lkcanet.autodiff import Var, backward, no_grad, record


def naive_conv2d(x, w, b, dilation, groups):
    """Independent reference: explicit loops over every index."""
    n, cin, h, width = x.shape
    cout, cin_g, k, _ = w.shape
    pad = (k - 1) * dilation // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, cout, h, width), dtype=np.float64)
    out_per_group = cout // groups
    for nn in range(n):
        for co in range(cout):
            g = co // out_per_group
            for y in range(h):
                for xx in range(width):
                    acc = 0.0
                    for ci in range(cin_g):
                        for i in range(k):
                            for j in range(k):
                                acc += (
                                    w[co, ci, i, j]
                                    * xp[nn, g * cin_g + ci, y + i * dilation, xx + j * dilation]
                                )
                    out[nn, co, y, xx] = acc + (b[co] if b is not None else 0.0)
    return out


# Conv cases shared by the oracle and gradient tests, one per implementation
# path: (x shape, weight shape, with bias, dilation, groups).
CONV_CASES = {
    "grouped3x3-d2": ((2, 4, 6, 6), (6, 2, 3, 3), True, 2, 2),
    # Taps wholly (rows at offset +-6) and partly in the padding.
    "depthwise-k7-d2-5x7": ((2, 3, 5, 7), (3, 1, 7, 7), True, 2, 3),
    "depthwise-k7-d2-5x7-nobias": ((2, 3, 5, 7), (3, 1, 7, 7), False, 2, 3),
    "depthwise-k5-d5-16x16": ((2, 4, 16, 16), (4, 1, 5, 5), True, 5, 4),
    "dense1x1": ((2, 4, 6, 6), (5, 4, 1, 1), True, 1, 1),
    "grouped1x1-fuse": ((2, 12, 6, 6), (4, 3, 1, 1), True, 1, 4),
    # groups == in channels with a depth multiplier of 2 stays on im2col.
    "depth-multiplier": ((2, 3, 6, 6), (6, 1, 3, 3), True, 2, 3),
}
GRAD_CASES = {"depthwise-k5-d3": ((1, 3, 6, 6), (3, 1, 5, 5), True, 3, 3), **CONV_CASES}


class TestConv2d:
    def test_identity_1x1(self):
        x = Var(np.random.default_rng(0).standard_normal((2, 3, 4, 4)))
        w = Var(np.eye(3).reshape(3, 3, 1, 1))
        out = ops.conv2d(x, w)
        assert np.allclose(out.value, x.value)

    def test_depthwise_center_impulse_identity(self):
        x = Var(np.random.default_rng(1).standard_normal((1, 4, 5, 5)))
        w = np.zeros((4, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        out = ops.conv2d(x, Var(w), groups=4)
        assert np.allclose(out.value, x.value)

    @pytest.mark.parametrize("case", list(CONV_CASES), ids=list(CONV_CASES))
    def test_against_naive_loop_oracle(self, case):
        # Image-scale single-precision data; the reference runs in float64.
        x_shape, w_shape, with_bias, dilation, groups = CONV_CASES[case]
        rng = np.random.default_rng(2)
        x = rng.random(x_shape, dtype=np.float32)
        w = rng.random(w_shape, dtype=np.float32) - 0.5
        b = rng.random(w_shape[0], dtype=np.float32) - 0.5 if with_bias else None
        out = ops.conv2d(Var(x), Var(w), None if b is None else Var(b), dilation=dilation, groups=groups)
        ref = naive_conv2d(
            x.astype(np.float64), w.astype(np.float64),
            None if b is None else b.astype(np.float64), dilation, groups,
        )
        assert out.value.dtype == np.float32
        assert np.abs(out.value - ref).max() <= 1e-6

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d(Var(np.ones((1, 2, 4, 4))), Var(np.ones((2, 2, 2, 2))))

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d(Var(np.ones((1, 3, 4, 4))), Var(np.ones((4, 1, 3, 3))), groups=2)
        with pytest.raises(ValueError):
            ops.conv2d(Var(np.ones((1, 4, 4, 4))), Var(np.ones((4, 4, 3, 3))), groups=2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        report = grad_check(
            lambda x, w, b: ops.conv2d(x, w, b, dilation=2, groups=2),
            [rng.standard_normal((2, 4, 5, 5)), rng.standard_normal((6, 2, 3, 3)), rng.standard_normal(6)],
            op_name="conv2d(d=2,g=2)",
            names=["x", "weight", "bias"],
        )
        assert report.passed, report.summary()

    @pytest.mark.parametrize("case", list(GRAD_CASES), ids=list(GRAD_CASES))
    def test_gradients_dilated_depthwise(self, case):
        x_shape, w_shape, with_bias, dilation, groups = GRAD_CASES[case]
        rng = np.random.default_rng(4)
        inputs = [rng.standard_normal(x_shape), rng.standard_normal(w_shape)]
        if with_bias:
            inputs.append(rng.standard_normal(w_shape[0]))
        report = grad_check(
            lambda x, w, b=None: ops.conv2d(x, w, b, dilation=dilation, groups=groups),
            inputs,
            op_name=f"conv2d({case})",
        )
        assert report.passed, report.summary()

    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        x = Var(rng.standard_normal((1, 2, 4, 4)))
        w = Var(rng.standard_normal((2, 2, 3, 3)))
        out = ops.conv2d(x, w)
        loss = project_scalar(out, np.zeros_like(out.value))
        backward(loss)
        assert np.allclose(x.grad, 0.0)
        assert np.allclose(w.grad, 0.0)

    def test_grouped_gradient_sparsity(self):
        # A loss on group-0 outputs must not touch other groups' weights or
        # input channels.
        rng = np.random.default_rng(6)
        x = Var(rng.standard_normal((1, 8, 4, 4)))
        w = Var(rng.standard_normal((8, 2, 3, 3)))
        out = ops.conv2d(x, w, groups=4)
        mask = np.zeros_like(out.value)
        mask[:, :2] = 1.0  # group 0 outputs only
        backward(project_scalar(out, mask))
        assert np.any(w.grad[:2] != 0)
        assert np.allclose(w.grad[2:], 0.0)
        assert np.any(x.grad[:, :2] != 0)
        assert np.allclose(x.grad[:, 2:], 0.0)

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 5, 5))
        y = rng.standard_normal((1, 3, 5, 5))
        w = Var(rng.standard_normal((4, 3, 3, 3)))
        a, b = 0.7, -1.3
        lhs = ops.conv2d(Var(a * x + b * y), w).value
        rhs = a * ops.conv2d(Var(x), w).value + b * ops.conv2d(Var(y), w).value
        assert np.abs(lhs - rhs).max() <= 1e-5

    @pytest.mark.parametrize("k,d", [(3, 1), (3, 2), (5, 5), (7, 7)])
    def test_effective_receptive_extent(self, k, d):
        # An all-ones kernel applied to a centered impulse spreads it over
        # exactly (k-1)*d + 1 pixels per axis.
        extent = (k - 1) * d + 1
        size = extent + 4
        x = np.zeros((1, 1, size, size))
        x[0, 0, size // 2, size // 2] = 1.0
        out = ops.conv2d(Var(x), Var(np.ones((1, 1, k, k))), dilation=d).value[0, 0]
        rows = np.nonzero(out.sum(axis=1))[0]
        cols = np.nonzero(out.sum(axis=0))[0]
        assert rows[-1] - rows[0] + 1 == extent
        assert cols[-1] - cols[0] + 1 == extent


class TestMatmulConvChunks:
    """Chunked convs against one matmul on the whole batch's im2col buffer,
    at the real chunk budget."""

    # Channels in one float32 run of a k7 depthwise conv on 16x16 maps.
    DW_RUN = ops._IM2COL_CHUNK_BYTES // (7 * 7 * 16 * 16 * 4)
    DW_C = 3 * DW_RUN + 1
    # (x shape, weight shape, dilation, groups). A chunk is one sample's run
    # of as many whole groups as fit: one sample each for "dense" and
    # "grouped8"; in each "big" case one sample's buffer is over the budget,
    # so "dense-big" and "dilated-big" build it whole and "grouped8-big"
    # runs 5 groups, then 3; the depthwise case runs at least 3 channel runs
    # per sample, and at dilation 7 on a 16x16 map its outer taps lie wholly
    # or partly in the padding.
    CASES = {
        "dense": ((5, 64, 24, 24), (32, 64, 3, 3), 1, 1),
        "grouped8": ((5, 64, 20, 20), (128, 8, 3, 3), 2, 8),
        "dense-big": ((2, 64, 49, 40), (48, 64, 3, 3), 1, 1),
        "grouped8-big": ((2, 64, 52, 52), (256, 8, 3, 3), 1, 8),
        "dilated-big": ((2, 64, 50, 50), (64, 64, 3, 3), 3, 1),
        "depthwise-k7-d7": ((2, DW_C, 16, 16), (DW_C, 1, 7, 7), 7, DW_C),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sample_chunks_equal_the_whole_buffer(self, case, dtype):
        # Every (sample, group) product is its own GEMM whatever the chunk,
        # so this holds under every BLAS kernel.
        assert 1 <= self.DW_RUN and -(-self.DW_C // self.DW_RUN) >= 3
        x_shape, w_shape, d, groups = self.CASES[case]
        # The whole float32 buffer is over the budget, so the conv is chunked.
        assert np.prod(x_shape) * w_shape[-1] ** 2 * 4 > ops._IM2COL_CHUNK_BYTES
        rng = np.random.default_rng(23)
        x = rng.standard_normal(x_shape).astype(dtype)
        w = rng.standard_normal(w_shape).astype(dtype)
        g = rng.standard_normal((x_shape[0], w_shape[0], *x_shape[2:])).astype(dtype)
        out, vjp = ops._matmul_conv(x, w, d, groups)
        got = (out, *vjp(g))
        for have, want in zip(got, whole_buffer_conv(x, w, d, groups, g)):
            assert have.dtype == want.dtype and np.array_equal(have, want)


class TestIm2colBudget:
    # (x shape, weight shape, dilation, groups): a depthwise k7 conv whose
    # whole buffer is 116 MB; a dense 3x3 whose batch's buffer is 11 MB and
    # one sample's 2.7 MB; a g=8 3x3 whose one sample's buffer is 21 MB and
    # one group's 2.7 MB.
    CASES = {
        "depthwise-k7-d3": ((1, 64, 96, 96), (64, 1, 7, 7), 3, 64),
        "dense3x3": ((4, 32, 48, 48), (32, 32, 3, 3), 1, 1),
        "grouped8-3x3": ((1, 64, 96, 96), (256, 8, 3, 3), 1, 8),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
    def test_forward_buffer_is_bounded(self, case):
        x_shape, w_shape, d, groups = self.CASES[case]
        rng = np.random.default_rng(1)
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        tracemalloc.start()
        try:
            with no_grad():
                out = ops.conv2d(x, w, dilation=d, groups=groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.value.nbytes + ops._IM2COL_CHUNK_BYTES + 2**20


class TestDepthwiseVjp:
    # (x shape, k, dilation): batch 1 with odd sizes, where the taps at
    # offset +-9 lie wholly in the padding; a map narrower than the kernel's
    # extent; the training shapes' k5/d5; a 3x3.
    CASES = {
        "n1-odd-k7-d3": ((1, 5, 9, 7), 7, 3),
        "k7-d2-5x7": ((2, 3, 5, 7), 7, 2),
        "k5-d5-16x16": ((3, 4, 16, 16), 5, 5),
        "k3-d1-11x13": ((2, 6, 11, 13), 3, 1),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_channels_first_tap_loop(self, case, dtype):
        shape, k, d = self.CASES[case]
        rng = np.random.default_rng(17)
        x, g = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        w = rng.standard_normal((shape[1], 1, k, k)).astype(dtype)
        gx, gw = ops._depthwise_vjp(x, w, d, True)(g)
        want_gx, want_gw = tap_loop_depthwise_vjp(x, w, d, g)
        assert gx.flags.c_contiguous
        for got, want in ((gx, want_gx), (gw, want_gw)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRebuiltInput:
    """A conv whose input carries a rebuild function keeps the function, not
    the array, and its VJP returns the same bytes as one that kept it."""

    # (x shape, weight shape, dilation, groups): a dense and a grouped 3x3
    # whose buffers span several chunks, a 1x1 and a grouped 1x1 (the
    # fusion conv's shape).
    CASES = {
        "dense3x3": ((3, 32, 24, 24), (16, 32, 3, 3), 2, 1),
        "grouped3x3": ((2, 64, 40, 40), (128, 8, 3, 3), 1, 8),
        "1x1": ((2, 16, 9, 11), (24, 16, 1, 1), 1, 1),
        "grouped1x1": ((2, 48, 9, 11), (16, 12, 1, 1), 1, 4),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
    def test_rebuilt_input_vjp_equals_kept_input(self, case):
        x_shape, w_shape, d, groups = self.CASES[case]
        rng = np.random.default_rng(29)
        a, b = (Var(rng.standard_normal(x_shape).astype(np.float32)) for _ in range(2))
        w, bias = Var(rng.standard_normal(w_shape).astype(np.float32)), Var(np.ones(w_shape[0], np.float32))
        g = rng.standard_normal((x_shape[0], w_shape[0], *x_shape[2:])).astype(np.float32)
        x = ops.mul(a, b)  # x's value is rebuilt as a * b
        rebuilt = ops.conv2d(x, w, bias, dilation=d, groups=groups)
        kept = ops.conv2d(Var(x.value.copy()), w, bias, dilation=d, groups=groups)
        assert id(buffer_of(x.value)) not in vjp_buffers([rebuilt._node])
        assert np.array_equal(rebuilt.value, kept.value)
        for have, want in zip(rebuilt._vjp(g), kept._vjp(g)):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", list(TestDepthwiseVjp.CASES), ids=list(TestDepthwiseVjp.CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("run", [0, 1, 2], ids=["first", "middle", "last"])
    def test_depthwise_vjp_of_a_channel_slice_equals_its_copy(self, case, dtype, run):
        # dw1 and dw2 read channel slices of the (N, 3C, H, W) concat buffer.
        shape, k, d = TestDepthwiseVjp.CASES[case]
        n, c, h, w = shape
        rng = np.random.default_rng(31)
        buf = rng.standard_normal((n, 3 * c, h, w)).astype(dtype)
        view = buf[:, run * c : (run + 1) * c]
        g = rng.standard_normal(shape).astype(dtype)
        wt = rng.standard_normal((c, 1, k, k)).astype(dtype)
        for vjp_of in (lambda x: ops._depthwise_vjp(x, wt, d, True),
                       lambda x: ops._matmul_conv(x, wt, d, c)[1]):
            for have, want in zip(vjp_of(view)(g), vjp_of(view.copy())(g)):
                assert have.tobytes() == want.tobytes()
        assert ops._matmul_conv(view, wt, d, c)[0].tobytes() == ops._matmul_conv(view.copy(), wt, d, c)[0].tobytes()

    def test_rebuilds_reproduce_the_value_while_recording(self):
        rng = np.random.default_rng(37)
        x = Var(rng.standard_normal((2, 6, 5, 4)).astype(np.float32))
        gamma, beta = (Var(rng.standard_normal(6).astype(np.float32)) for _ in range(2))
        gate = Var(rng.random((2, 6)).astype(np.float32))

        def outputs():
            return [ops.layer_norm(x, gamma, beta), ops.broadcast_gate(x, gate), ops.mul(x, x)]

        for out in outputs():
            assert out.rebuild().tobytes() == out.value.tobytes()
        with no_grad():
            assert all(out.rebuild is None for out in outputs())


class TestConcatChannels:
    def test_consecutive_slices_of_one_buffer_are_not_copied(self):
        buf = np.arange(2 * 7 * 3 * 2, dtype=np.float32).reshape(2, 7, 3, 2).copy()  # owns its memory
        parts = [Var(buf[:, :2]), Var(buf[:, 2:3]), Var(buf[:, 3:])]
        assert ops.concat_channels(parts).value is buf

    @pytest.mark.parametrize("parts", [
        lambda buf: [buf[:, 3:], buf[:, :3]],  # out of order
        lambda buf: [buf[:, :2], buf[:, 3:]],  # a gap
        lambda buf: [buf[:1, :3], buf[:1, 3:]],  # not the whole batch
        lambda buf: [buf[:, :3], buf[:, 3:].copy()],
    ], ids=["reordered", "gap", "batch-slice", "copy"])
    def test_other_parts_are_copied(self, parts):
        buf = np.arange(2 * 7 * 3 * 2, dtype=np.float32).reshape(2, 7, 3, 2).copy()
        values = parts(buf)
        out = ops.concat_channels([Var(v) for v in values]).value
        assert not np.shares_memory(out, buf)
        assert np.array_equal(out, np.concatenate(values, axis=1))


class TestDataInput:
    @pytest.mark.parametrize("case", ["grouped3x3-d2", "depthwise-k5-d5-16x16", "dense1x1"])
    def test_array_input_gets_no_gradient_and_the_same_weight_gradients(self, case):
        # A plain array is data: its conv's VJP builds no input gradient, and
        # the weight and bias gradients equal those of a Var input.
        x_shape, w_shape, _, dilation, groups = CONV_CASES[case]
        rng = np.random.default_rng(19)
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        b = rng.standard_normal(w_shape[0]).astype(np.float32)
        grads = []
        for given in (x, Var(x)):
            out = ops.conv2d(given, Var(w), Var(b), dilation=dilation, groups=groups)
            grads.append(out._vjp(np.ones_like(out.value)))
        assert grads[0][0] is None and grads[1][0] is not None
        for got, want in zip(grads[0][1:], grads[1][1:]):
            assert np.array_equal(got, want)


class TestLayerNorm:
    def test_constant_input_gives_zeros(self):
        x = Var(np.full((2, 5, 3, 3), 4.2))
        out = ops.layer_norm(x, Var(np.ones(5)), Var(np.zeros(5)))
        assert np.abs(out.value).max() <= 1e-3  # eps-guarded zero variance

    def test_normalized_statistics(self):
        rng = np.random.default_rng(8)
        x = Var(rng.standard_normal((2, 16, 4, 4)))
        out = ops.layer_norm(x, Var(np.ones(16)), Var(np.zeros(16))).value
        mean = out.mean(axis=1)
        var = out.var(axis=1)
        assert np.abs(mean).max() <= 1e-6
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_gradients(self):
        rng = np.random.default_rng(9)
        report = grad_check(
            ops.layer_norm,
            [rng.standard_normal((2, 4, 3, 3)), rng.standard_normal(4), rng.standard_normal(4)],
            op_name="layer_norm",
            names=["x", "gamma", "beta"],
        )
        assert report.passed, report.summary()


class TestGelu:
    def test_zero_maps_to_zero(self):
        assert ops.gelu(Var(np.zeros(3))).value.max() == 0.0

    def test_large_positive_asymptote(self):
        x = np.array([8.0, 10.0, 20.0])
        assert np.abs(ops.gelu(Var(x)).value - x).max() <= 1e-6

    def test_monotone_on_grid(self):
        x = np.linspace(-0.5, 5.0, 200)
        y = ops.gelu(Var(x)).value
        assert np.all(np.diff(y) > 0)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        report = grad_check(ops.gelu, [rng.standard_normal((3, 7))], op_name="gelu")
        assert report.passed, report.summary()


class TestPixelShuffle:
    def test_r1_identity(self):
        x = np.random.default_rng(11).standard_normal((2, 3, 4, 4))
        assert np.array_equal(ops.pixel_shuffle(Var(x), 1).value, x)

    @pytest.mark.parametrize("r", [2, 4, 8])
    def test_round_trip_bit_exact(self, r):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3 * r * r, 4, 4)).astype(np.float32)
        back = ops.unshuffle_array(ops.pixel_shuffle(Var(x), r).value, r)
        assert np.array_equal(back, x)

    def test_channel_layout_oracle(self):
        # out[n, c, y*r + i, x*r + j] == in[n, c*r^2 + i*r + j, y, x]
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        out = ops.pixel_shuffle(Var(x), 2).value
        assert np.array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_index_formula_random(self):
        rng = np.random.default_rng(13)
        r, c, h, w = 3, 2, 2, 3
        x = rng.standard_normal((1, c * r * r, h, w))
        out = ops.pixel_shuffle(Var(x), r).value
        for cc in range(c):
            for y in range(h):
                for xx in range(w):
                    for i in range(r):
                        for j in range(r):
                            assert out[0, cc, y * r + i, xx * r + j] == x[0, cc * r * r + i * r + j, y, xx]

    def test_sum_preserved(self):
        x = np.random.default_rng(14).standard_normal((1, 8, 3, 3))
        assert ops.pixel_shuffle(Var(x), 2).value.sum() == pytest.approx(x.sum())

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            ops.pixel_shuffle(Var(np.ones((1, 6, 2, 2))), 2)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([2, 4]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, n, c, r, h, w):
        rng = np.random.default_rng(n * 1000 + c * 100 + r * 10 + h)
        x = rng.standard_normal((n, c * r * r, h, w))
        assert np.array_equal(ops.unshuffle_array(ops.pixel_shuffle(Var(x), r).value, r), x)

    def test_gradients(self):
        rng = np.random.default_rng(15)
        report = grad_check(
            lambda x: ops.pixel_shuffle(x, 2), [rng.standard_normal((1, 8, 3, 3))], op_name="pixel_shuffle"
        )
        assert report.passed, report.summary()


class TestChannelAttention:
    def test_zero_weights_halve_input(self):
        x = np.random.default_rng(16).standard_normal((2, 8, 3, 3))
        out = ops.channel_attention(
            Var(x), Var(np.zeros((2, 8))), Var(np.zeros(2)), Var(np.zeros((8, 2))), Var(np.zeros(8))
        )
        assert np.allclose(out.value, x / 2.0)

    def test_uniform_input_stays_uniform(self):
        rng = np.random.default_rng(17)
        x = np.broadcast_to(rng.standard_normal((1, 6, 1, 1)), (1, 6, 4, 4)).copy()
        out = ops.channel_attention(
            Var(x),
            Var(rng.standard_normal((3, 6))),
            Var(rng.standard_normal(3)),
            Var(rng.standard_normal((6, 3))),
            Var(rng.standard_normal(6)),
        ).value
        assert np.abs(out - out[:, :, :1, :1]).max() <= 1e-12

    def test_gradients_through_pool_mlp_sigmoid(self):
        rng = np.random.default_rng(18)
        report = grad_check(
            ops.channel_attention,
            [
                rng.standard_normal((2, 4, 3, 3)),
                rng.standard_normal((2, 4)),
                rng.standard_normal(2),
                rng.standard_normal((4, 2)),
                rng.standard_normal(4),
            ],
            op_name="channel_attention",
            names=["x", "w1", "b1", "w2", "b2"],
        )
        assert report.passed, report.summary()


class TestDropPath:
    def test_eval_mode_is_identity_object(self):
        x = Var(np.ones((3, 2, 2, 2)))
        assert ops.drop_path(x, 0.5, None, training=False) is x

    def test_rate_one_drops_everything(self):
        x = Var(np.ones((3, 2, 2, 2)))
        out = ops.drop_path(x, 1.0, np.random.default_rng(0), training=True)
        assert np.array_equal(out.value, np.zeros_like(x.value))

    def test_kept_samples_rescaled(self):
        rng = np.random.default_rng(19)
        x = Var(np.ones((64, 1, 1, 1)))
        out = ops.drop_path(x, 0.25, rng, training=True).value
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert 0 < kept.size < 64

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ops.drop_path(Var(np.ones((1, 1, 1, 1))), -0.1, None, training=True)


class TestAddConst:
    def test_sums_into_a_matching_constant(self):
        a = Var(np.random.default_rng(20).random((2, 3, 4), dtype=np.float32))
        c = np.random.default_rng(21).random((2, 3, 4), dtype=np.float32)
        a_before, want = a.value.copy(), a.value + c
        out = ops.add_const(a, c)
        assert out.value is c
        assert np.array_equal(out.value, want)
        assert np.array_equal(a.value, a_before)

    @pytest.mark.parametrize("case", ["wider-dtype", "read-only", "aliased", "broadcast"])
    def test_allocates_when_the_constant_cannot_hold_the_sum(self, case):
        av = np.random.default_rng(22).random((2, 3, 4))
        c = {
            "wider-dtype": av.astype(np.float32),
            "read-only": np.broadcast_to(np.float64(0.5), av.shape),
            "aliased": av,
            "broadcast": np.full(4, 0.25),
        }[case]
        a, c_before = Var(av), np.array(c)
        want = av + c
        out = ops.add_const(a, c)
        assert out.value.dtype == want.dtype
        assert np.array_equal(out.value, want)
        assert np.array_equal(c, c_before)
        assert out.value is not av


class TestGradCheck:
    def test_corrupted_backward_fails_and_names_op(self):
        def bad_scale(x):
            return record(x.value * 2.0, (x,), lambda g: (g * 3.0,))  # wrong vjp

        report = grad_check(bad_scale, [np.ones(3)], op_name="bad_scale")
        assert not report.passed
        assert report.failures
        assert "bad_scale" in report.summary()

    def test_zero_input_edge_case_passes(self):
        report = grad_check(ops.gelu, [np.zeros(4)], op_name="gelu@0")
        assert report.passed, report.summary()

    def test_all_primitives_pass(self):
        rng = np.random.default_rng(20)
        checks = [
            ("relu", ops.relu, [rng.standard_normal(9) + 0.05]),
            ("sigmoid", ops.sigmoid, [rng.standard_normal(9)]),
            ("global_avg_pool", ops.global_avg_pool, [rng.standard_normal((2, 3, 4, 4))]),
            (
                "linear",
                ops.linear,
                [rng.standard_normal((3, 5)), rng.standard_normal((2, 5)), rng.standard_normal(2)],
            ),
            (
                "broadcast_gate",
                ops.broadcast_gate,
                [rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 3))],
            ),
            (
                "concat",
                lambda a, b: ops.concat_channels([a, b]),
                [rng.standard_normal((1, 2, 3, 3)), rng.standard_normal((1, 4, 3, 3))],
            ),
        ]
        for name, fn, args in checks:
            report = grad_check(fn, args, op_name=name)
            assert report.passed, report.summary()
