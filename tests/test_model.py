import contextlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import probe_config
from oracles import composed_forward, grad_check

from lkcanet import model as model_module
from lkcanet import ops
from lkcanet.autodiff import Var, backward, no_grad
from lkcanet.hsi import resize_bands
from lkcanet.losses import h_loss
from lkcanet.model import (
    CheckpointError,
    LkcaNet,
    NetConfig,
    flops_breakdown,
    layer_shapes,
    load_checkpoint,
    param_breakdown,
    read_checkpoint_arrays,
    save_checkpoint,
)


def toy_config(**over):
    base = dict(
        bands=4,
        scale_factor=2,
        feature_channels=8,
        num_blocks=2,
        kernel_sizes=(3, 3),
        dilations=(2, 3),
        lkca_groups=2,
        ca_reduction=4,
        drop_path_rate=0.0,
    )
    base.update(over)
    return NetConfig(**base)


class TestConfig:
    def test_upsampler_channel_law(self):
        cfg = NetConfig(bands=128, scale_factor=4)
        assert cfg.upsampler_out == 128 * 16
        assert layer_shapes(cfg)["upsampler"]["weight"] == (2048, 128, 3, 3)

    def test_divisibility_validation(self):
        with pytest.raises(ValueError):
            NetConfig(bands=4, scale_factor=2, feature_channels=9, lkca_groups=4)
        with pytest.raises(ValueError):
            NetConfig(bands=4, scale_factor=2, feature_channels=8, ca_reduction=7)
        with pytest.raises(ValueError):
            NetConfig(bands=3, scale_factor=2, feature_channels=8, lkca_groups=2,
                      ca_reduction=4, upsampler_groups=5)

    def test_round_trip_dict(self):
        cfg = toy_config()
        assert NetConfig.from_dict(cfg.to_dict()) == cfg

    def test_upsampler_spec_validation(self):
        # C=8, bands*r^2=12: g=5 divides neither, and g=0 is no group count.
        for g in (5, 0):
            with pytest.raises(ValueError, match="upsampler_groups"):
                NetConfig(bands=3, scale_factor=2, feature_channels=8, lkca_groups=2,
                          ca_reduction=4, upsampler_groups=g)

    @pytest.mark.parametrize("field,value", [("kernel_sizes", (4, 7)), ("kernel_sizes", (5, 0)),
                                             ("kernel_sizes", (-1, 3)), ("dilations", (0, 7)),
                                             ("dilations", (5, -2))])
    def test_bad_kernel_sizes_and_dilations_name_the_field(self, field, value):
        # "Same" padding needs an odd kernel of at least one tap, and a
        # dilation of at least 1.
        with pytest.raises(ValueError, match=field):
            toy_config(**{field: value})

    @pytest.mark.parametrize("field", ["lkca_groups", "ca_reduction"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_group_counts_below_one_name_the_field(self, field, value):
        # 0 once divided by zero, and -4 divides C=8 and 3C=24 as Python's % sees it.
        with pytest.raises(ValueError, match=field):
            toy_config(**{field: value})


class TestForward:
    def test_output_shape(self):
        cfg = toy_config()
        model = LkcaNet(cfg, seed=0)
        x = np.random.default_rng(0).random((2, 4, 6, 5), dtype=np.float32)
        y = model.predict(x)
        assert y.shape == (2, 4, 12, 10)

    def test_band_mismatch_rejected(self):
        model = LkcaNet(toy_config(), seed=0)
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 3, 4, 4), dtype=np.float32))

    def test_zero_weights_equal_bicubic_exactly(self):
        for r in (2, 4):
            cfg = toy_config(scale_factor=r)
            model = LkcaNet(cfg, seed=0)
            model.load_state({name: np.zeros_like(v) for name, v in model.state_arrays().items()})
            x = np.random.default_rng(1).random((1, 4, 8, 8), dtype=np.float32)
            y = model.predict(x)
            ref = resize_bands(x, 8 * r, 8 * r)
            assert np.array_equal(y, ref)

    def test_lkca_zero_fusion_weights_zero_output(self):
        cfg = toy_config()
        model = LkcaNet(cfg, seed=0)
        model.params["blocks.0.fuse.weight"].value[...] = 0.0
        model.params["blocks.0.fuse.bias"].value[...] = 0.0
        u = Var(np.random.default_rng(2).random((1, 8, 5, 5), dtype=np.float32))
        with no_grad():
            out = model.lkca_forward(u, block=0)
        assert np.array_equal(out.value, np.zeros_like(u.value))

    def test_lkca_matches_primitive_composition(self):
        cfg = toy_config()
        model = LkcaNet(cfg, seed=3)
        p = model.params
        u = Var(np.random.default_rng(3).random((2, 8, 5, 5), dtype=np.float32))
        with no_grad():
            out = model.lkca_forward(u, block=1)
            a1 = ops.conv2d(u, p["blocks.1.dw1.weight"], p["blocks.1.dw1.bias"],
                            dilation=2, groups=8)
            a2 = ops.conv2d(a1, p["blocks.1.dw2.weight"], p["blocks.1.dw2.bias"],
                            dilation=3, groups=8)
            cat = ops.concat_channels([u, a1, a2])
            att = ops.channel_attention(cat, p["blocks.1.ca.fc1.weight"], p["blocks.1.ca.fc1.bias"],
                                        p["blocks.1.ca.fc2.weight"], p["blocks.1.ca.fc2.bias"])
            fused = ops.conv2d(att, p["blocks.1.fuse.weight"], p["blocks.1.fuse.bias"], groups=2)
            ref = ops.mul(fused, u)
        assert np.array_equal(out.value, ref.value)

    def test_block_zero_weights_is_identity(self):
        cfg = toy_config()
        model = LkcaNet(cfg, seed=0)
        for name, v in model.params.items():
            if name.startswith("blocks.0."):
                v.value = np.zeros_like(v.value)
        x = Var(np.random.default_rng(4).random((1, 8, 5, 5), dtype=np.float32))
        with no_grad():
            out = model.lkb_forward(x, block=0)
        assert np.array_equal(out.value, x.value)

    def test_drop_path_dropped_sample_is_identity(self):
        cfg = toy_config(drop_path_rate=1.0)
        model = LkcaNet(cfg, seed=0)
        x = Var(np.random.default_rng(5).random((2, 8, 5, 5), dtype=np.float32))
        with no_grad():
            out = model.lkb_forward(x, block=0, training=True, rng=np.random.default_rng(0))
        assert np.array_equal(out.value, x.value)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    def test_net_matches_primitive_composition(self, training):
        # The training forward records a graph and returns f_up as the
        # distillation target, so the sum must not have been written into it.
        cfg = toy_config()
        model = LkcaNet(cfg, seed=7)
        p = model.params
        x = np.random.default_rng(6).random((1, 4, 6, 6), dtype=np.float32)
        with contextlib.nullcontext() if training else no_grad():
            i_sr, f_up = model.forward(x, training=training, rng=np.random.default_rng(0))
        with no_grad():
            f = ops.conv2d(Var(x), p["head.weight"], p["head.bias"])
            for i in range(cfg.num_blocks):
                f = model.lkb_forward(f, i)
            f = ops.conv2d(f, p["upsampler.weight"], None, groups=1)
            ref_up = ops.pixel_shuffle(f, 2)
            ref_sr = ref_up.value + resize_bands(x, 12, 12)
        assert np.array_equal(f_up.value, ref_up.value)
        assert np.array_equal(i_sr.value, ref_sr)

    def test_released_graph_gives_the_primitive_gradients(self):
        # The forward frees interior values as its helpers return; the same
        # primitives written out in one body must give the same parameter
        # gradients, bit for bit.
        model = LkcaNet(toy_config(drop_path_rate=0.3), seed=7)
        rng = np.random.default_rng(6)
        x = rng.random((3, 4, 6, 6), dtype=np.float32)
        y = rng.random((3, 4, 12, 12), dtype=np.float32)
        grads = []
        for forward in (model.forward, lambda x, training, rng: composed_forward(model, x, rng)):
            model.zero_grad()
            i_sr, _ = forward(x, training=True, rng=np.random.default_rng(0))
            backward(h_loss(i_sr, y))
            grads.append({name: v.grad for name, v in model.params.items()})
        for name, g in grads[0].items():
            assert g is not None and np.array_equal(g, grads[1][name]), name

    def test_array_input_builds_no_input_gradient(self, monkeypatch):
        # The head conv of a forward on an array reads it as data, so no
        # _col2im of a sample of the input's shape runs (a chunk is one
        # sample); a Var input still gets its gradient.
        scattered = []
        col2im = ops._col2im

        def spy(cols, x_shape, k, dilation):
            scattered.append(tuple(x_shape[1:]))
            return col2im(cols, x_shape, k, dilation)

        monkeypatch.setattr(ops, "_col2im", spy)
        model = LkcaNet(toy_config(), seed=7)
        rng = np.random.default_rng(9)
        x = rng.random((2, 4, 6, 6), dtype=np.float32)
        y = rng.random((2, 4, 12, 12), dtype=np.float32)
        backward(h_loss(model.forward(x, training=True)[0], y))
        assert scattered and x.shape[1:] not in scattered
        v = Var(x)
        backward(h_loss(model.forward(v, training=True)[0], y))
        assert x.shape[1:] in scattered and v.grad is not None

    def test_predict_holds_two_outputs(self):
        # The pre-shuffle map is freed before the skip is built and the sum
        # is written into the skip, so at most two SR-sized arrays coexist.
        model = LkcaNet(NetConfig(bands=32, scale_factor=4, feature_channels=16, num_blocks=1))
        x = np.random.default_rng(11).random((1, 32, 64, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = model.predict(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes

    def test_mixed_dtype_input_keeps_model_dtype(self):
        # A float64 model given float32 input sums into a new float64 array,
        # not into the float32 skip.
        model = LkcaNet(toy_config(), dtype=np.float64, seed=3)
        x = np.random.default_rng(12).random((2, 4, 5, 7), dtype=np.float32)
        with no_grad():
            i_sr, f_up = model.forward(x)
        assert i_sr.value.dtype == np.float64
        assert np.array_equal(i_sr.value, f_up.value + resize_bands(x, 10, 14))

    @pytest.mark.parametrize("config", [probe_config(), probe_config(num_blocks=2, upsampler_groups=8)],
                             ids=["probe", "grouped"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    def test_batch_forward_equals_per_sample_forwards(self, config, training):
        # A sample's forward is the same bits in a batch of 4 as alone.
        model = LkcaNet(config, seed=3)
        x = np.random.default_rng(13).random((4, config.bands, 16, 16), dtype=np.float32)

        def outputs(xs):
            with contextlib.nullcontext() if training else no_grad():
                i_sr, f_up = model.forward(xs, training=training, rng=np.random.default_rng(0))
            return i_sr.value, f_up.value

        batch = outputs(x)
        singles = [outputs(x[i : i + 1]) for i in range(4)]
        for k in range(2):
            assert np.array_equal(batch[k], np.concatenate([s[k] for s in singles]))

    def test_forward_deterministic_in_eval(self):
        model = LkcaNet(toy_config(drop_path_rate=0.3), seed=0)
        x = np.random.default_rng(7).random((2, 4, 6, 6), dtype=np.float32)
        assert np.array_equal(model.predict(x), model.predict(x))

    def test_end_to_end_gradients(self):
        cfg = NetConfig(
            bands=3, scale_factor=2, feature_channels=4, num_blocks=1,
            kernel_sizes=(3, 3), dilations=(1, 2), lkca_groups=2, ca_reduction=3,
            drop_path_rate=0.0,
        )
        model = LkcaNet(cfg, dtype=np.float64, seed=1)
        x = np.random.default_rng(8).random((1, 3, 4, 4))
        names = list(model.params)
        arrays = [model.params[n].value for n in names]

        def fn(*params):
            for n, v in zip(names, params):
                model.params[n] = v
            i_sr, _ = model.forward(x)
            return i_sr

        report = grad_check(fn, arrays, op_name="lkcanet", names=names, tolerance=1e-5)
        assert report.passed, report.summary()


class TestParamAccounting:
    def test_breakdown_matches_constructed_model(self):
        cfg = toy_config()
        model = LkcaNet(cfg, seed=0)
        actual = {}
        for name, v in model.params.items():
            layer = name.rsplit(".", 1)[0]
            key = layer.replace(".weight", "").replace(".bias", "")
            if key.endswith((".gamma", ".beta")):
                key = key.rsplit(".", 1)[0]
            if ".ca." in key:
                key = key.split(".ca.")[0] + ".ca"
            actual[key] = actual.get(key, 0) + v.value.size
        expected = param_breakdown(cfg)
        assert sum(expected.values()) == sum(actual.values())
        for key in ("head", "upsampler", "blocks.0.norm", "blocks.0.ca", "blocks.1.fuse"):
            assert expected[key] == actual[key], key

    def test_full_upsampler_closed_form(self):
        cfg = NetConfig(bands=128, scale_factor=4)
        assert param_breakdown(cfg)["upsampler"] == 128 * 2048 * 9 == 2359296

    @pytest.mark.parametrize(
        "bands,r,delta_millions",
        [
            (128, 4, 2.064),  # Chikusei
            (128, 8, 8.258),
            (48, 4, 0.774),  # Houston
            (48, 8, 3.097),
            (102, 4, 1.645),  # Pavia
            (102, 8, 6.580),
        ],
    )
    def test_full_minus_grouped8_delta_matches_reference_tables(self, bands, r, delta_millions):
        full = NetConfig(bands=bands, scale_factor=r)
        grouped = full.with_upsampler_groups(8)
        delta = sum(param_breakdown(full).values()) - sum(param_breakdown(grouped).values())
        assert delta == param_breakdown(full)["upsampler"] * 7 // 8
        assert round(delta / 1e6, 3) == delta_millions

    @pytest.mark.parametrize("g", [2, 4, 8, 16])
    def test_grouped_param_law_exact(self, g):
        cfg = NetConfig(bands=128, scale_factor=4)
        full = param_breakdown(cfg)["upsampler"]
        grouped = param_breakdown(cfg.with_upsampler_groups(g))["upsampler"]
        assert grouped * g == full


class TestFlops:
    def test_pointwise_conv_definition(self):
        # A 1x1 conv C->C on HxW costs 2*C^2*H*W.
        cfg = NetConfig(
            bands=2, scale_factor=2, feature_channels=16, num_blocks=1,
            kernel_sizes=(3, 3), dilations=(1, 1), lkca_groups=1, ca_reduction=4,
        )
        fl = flops_breakdown(cfg, 10, 7)
        assert fl["blocks.0.proj_in"] == 2 * 16 * 16 * 70

    def test_grouped_divides_dense_count(self):
        a = NetConfig(bands=128, scale_factor=4)
        b = a.with_upsampler_groups(8)
        fa = flops_breakdown(a, 8, 8)["upsampler"]
        fb = flops_breakdown(b, 8, 8)["upsampler"]
        assert fa == 8 * fb

    def test_toy_hand_count(self):
        cfg = NetConfig(
            bands=2, scale_factor=2, feature_channels=4, num_blocks=1,
            kernel_sizes=(3, 3), dilations=(1, 1), lkca_groups=2, ca_reduction=3,
        )
        h = w = 5
        hw = h * w
        hand = 0
        hand += 2 * 9 * 2 * 4 * hw                # head 3x3, 2 -> 4
        hand += 2 * 4 * 4 * hw                    # proj_in 1x1
        hand += 2 * 4 * 9 * hw                    # dw1 depthwise 3x3
        hand += 2 * 4 * 9 * hw                    # dw2 depthwise 3x3
        hand += 2 * (12 * 4) * 2                  # CA: two 12<->4 linears
        hand += 2 * 12 * 4 // 2 * hw              # fuse 1x1 grouped(2), 12 -> 4
        hand += 2 * 4 * 4 * hw                    # proj_out 1x1
        hand += 2 * 9 * 4 * 8 * hw                # upsampler 3x3, 4 -> 2*r^2
        assert sum(flops_breakdown(cfg, h, w).values()) == hand


class TestCheckpoint:
    def test_round_trip_forward_bit_exact(self, tmp_path):
        cfg = toy_config()
        model = LkcaNet(cfg, seed=9)
        path = tmp_path / "m.lkca"
        save_checkpoint(model, path, {"epoch": 3, "seed": 9})
        again, meta = load_checkpoint(path)
        assert meta == {"epoch": 3, "seed": 9}
        assert again.config == cfg
        x = np.random.default_rng(10).random((1, 4, 6, 6), dtype=np.float32)
        assert np.array_equal(model.predict(x), again.predict(x))

    @pytest.mark.parametrize(
        "edit",
        [lambda h: [h], lambda h: {**h, "config": 5}, lambda h: {**h, "metadata": []}],
        ids=["list", "config_not_object", "metadata_not_object"],
    )
    def test_header_of_the_wrong_json_type_rejected(self, tmp_path, edit):
        path = tmp_path / "m.lkca"
        save_checkpoint(LkcaNet(toy_config(), seed=0), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[12:16])
        header = json.dumps(edit(json.loads(blob[16 : 16 + hlen]))).encode()
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + hlen :])
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(path)

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        # A load builds the model from the stored tensors; an initializer
        # draw would be thrown away.
        model = LkcaNet(toy_config(), seed=9)
        path = tmp_path / "m.lkca"
        save_checkpoint(model, path)

        def draw(*args):
            raise AssertionError("he_normal called")

        monkeypatch.setattr(model_module, "he_normal", draw)
        again, _ = load_checkpoint(path)
        x = np.random.default_rng(10).random((1, 4, 6, 6), dtype=np.float32)
        assert np.array_equal(model.predict(x), again.predict(x))

    def test_save_copies_no_tensor(self, tmp_path):
        # Each tensor is written from its own buffer, with no bytes copy.
        model = LkcaNet(toy_config(bands=16, scale_factor=4, feature_channels=64), seed=0)
        nbytes = sum(a.nbytes for a in model.state_arrays().values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_checkpoint(model, tmp_path / "m.lkca")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * nbytes

    def test_truncated_rejected(self, tmp_path):
        model = LkcaNet(toy_config(), seed=0)
        path = tmp_path / "m.lkca"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.lkca"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_cross_config_load_names_tensor(self, tmp_path):
        small = LkcaNet(toy_config(), seed=0)
        path = tmp_path / "m.lkca"
        save_checkpoint(small, path)
        bigger = LkcaNet(toy_config(feature_channels=16, ca_reduction=4), seed=0)
        with pytest.raises(CheckpointError, match="head.weight"):
            bigger.load_state(read_checkpoint_arrays(path)[2])

    def test_double_precision_model_rejected(self, tmp_path):
        model = LkcaNet(toy_config(), dtype=np.float64, seed=0)
        with pytest.raises(CheckpointError, match="float32"):
            save_checkpoint(model, tmp_path / "m.lkca")
