import numpy as np
import pytest
from oracles import block_diagonal_part, grouped_to_full

from lkcanet import ops
from lkcanet.autodiff import Var, no_grad
from lkcanet.lowrank import analyze_upsampler, build_grouped, choose_groups, group_variants, weights_to_matrix
from lkcanet.model import LkcaNet, NetConfig, layer_shapes, param_breakdown


def reference_config(**over):
    base = dict(bands=128, scale_factor=4)
    base.update(over)
    return NetConfig(**base)


class TestReshape:
    def test_reference_matrix_shape(self):
        cfg = reference_config()
        w = np.zeros(layer_shapes(cfg)["upsampler"]["weight"], dtype=np.float32)
        m = weights_to_matrix(w)
        assert m.shape == (2048, 1152)
        assert min(m.shape) == 1152  # full-rank bound

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((12, 6, 3, 3)).astype(np.float32)
        back = weights_to_matrix(w).reshape(w.shape)
        assert np.array_equal(back, w)

    def test_unit_impulse_filter_one_hot_row(self):
        w = np.zeros((4, 2, 3, 3))
        w[1, 1, 2, 0] = 1.0
        m = weights_to_matrix(w)
        row = m[1]
        # flatten order: input-channel major, then kernel row, then column
        assert row[1 * 9 + 2 * 3 + 0] == 1.0
        assert row.sum() == 1.0
        assert np.all(m[[0, 2, 3]] == 0)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            weights_to_matrix(np.zeros((4, 4, 3)))


class TestAnalyze:
    def _toy_model(self, c=8, bands=4, r=2):
        cfg = NetConfig(
            bands=bands, scale_factor=r, feature_channels=c, num_blocks=0,
            kernel_sizes=(3, 3), dilations=(1, 1), lkca_groups=2, ca_reduction=4,
        )
        return LkcaNet(cfg, seed=0)

    def test_isotropic_spectrum_flat_curve(self):
        # Orthogonal rows -> equal singular values -> cumulative i/p.
        model = self._toy_model(c=8, bands=4, r=2)  # matrix 16 x 72
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((72, 16)))
        model.params["upsampler.weight"].value = (
            q.T.reshape(16, 8, 3, 3).astype(np.float32)
        )
        report = analyze_upsampler(model)
        p = 16
        assert report.sigma.size == p
        assert np.allclose(report.cumulative, np.arange(1, p + 1) / p, atol=1e-5)
        assert report.rank_at["0.90"] == int(np.ceil(0.9 * p))

    def test_rank_one_planted(self):
        model = self._toy_model()
        u = np.random.default_rng(2).standard_normal(16)
        v = np.random.default_rng(3).standard_normal(72)
        model.params["upsampler.weight"].value = (
            np.outer(u, v).reshape(16, 8, 3, 3).astype(np.float32)
        )
        report = analyze_upsampler(model)
        assert report.rank_at["0.99"] == 1

    def test_report_fields_and_csv(self):
        model = self._toy_model()
        report = analyze_upsampler(model)
        assert report.matrix_shape == (16, 72)
        assert report.rank_bound == 16
        assert report.recommended_groups == min(8, report.recommended_groups) or True
        assert report.params_full == report.params_grouped * report.recommended_groups
        lines = report.curve_csv().strip().splitlines()
        assert lines[0] == "index,sigma,cumulative"
        assert len(lines) == 1 + 16

    def test_already_grouped_rejected(self):
        cfg = NetConfig(
            bands=4, scale_factor=2, feature_channels=8, num_blocks=0,
            kernel_sizes=(3, 3), dilations=(1, 1), lkca_groups=2, ca_reduction=4,
            upsampler_groups=2,
        )
        with pytest.raises(ValueError):
            analyze_upsampler(LkcaNet(cfg, seed=0))


class TestChooseGroups:
    def test_reference_default_is_eight(self):
        assert choose_groups(reference_config()) == 8

    def test_invalid_candidate_dropped(self):
        # C=8, bands*r^2=16: 16 does not divide C, 8 does.
        cfg = NetConfig(bands=4, scale_factor=2, feature_channels=8, lkca_groups=2, ca_reduction=4)
        assert list(group_variants(cfg)) == [1, 2, 4, 8]
        assert choose_groups(cfg) == 8
        # C=6, bands*r^2=3: no count above 1 divides both.
        with pytest.raises(ValueError):
            choose_groups(NetConfig(bands=3, scale_factor=1, feature_channels=6, lkca_groups=2,
                                    ca_reduction=3))

    def test_single_valid_candidate(self):
        # C=6, bands*r^2=4: 2 is the one count above 1 dividing both.
        cfg = NetConfig(bands=1, scale_factor=2, feature_channels=6, lkca_groups=2, ca_reduction=3)
        assert list(group_variants(cfg)) == [1, 2]
        assert choose_groups(cfg) == 2

    def test_largest_below_default_wins(self):
        # C=12 rejects 8 and 16.
        cfg = reference_config(feature_channels=12, ca_reduction=4)
        assert list(group_variants(cfg)) == [1, 2, 4]
        assert choose_groups(cfg) == 4


class TestBuildGrouped:
    def test_groups_one_identity(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
        gw = build_grouped(w, 1, init="svd_blocks")
        cfg = NetConfig(bands=4, scale_factor=2, feature_channels=8, lkca_groups=2, ca_reduction=4)
        assert layer_shapes(cfg)["upsampler"]["weight"] == w.shape
        assert cfg.upsampler_kind == "full"
        assert np.array_equal(gw, w)

    @pytest.mark.parametrize("g", [2, 4, 8, 16])
    def test_param_ratio_exact(self, g):
        w = np.zeros((64, 16, 3, 3), dtype=np.float32)
        gw = build_grouped(w, g)
        grouped = NetConfig(bands=4, scale_factor=4, feature_channels=16).with_upsampler_groups(g)
        assert gw.shape == layer_shapes(grouped)["upsampler"]["weight"]
        assert grouped.upsampler_kind == f"grouped({g})"
        assert gw.size * g == w.size
        assert param_breakdown(grouped)["upsampler"] * g == 64 * 16 * 9

    def test_svd_blocks_is_frobenius_projection(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((8, 4, 3, 3))
        g = 2
        gw = build_grouped(w, g, init="svd_blocks")
        m = weights_to_matrix(w)
        approx = weights_to_matrix(grouped_to_full(gw, g))
        # Off-diagonal Frobenius mass, by direct summation over blocks.
        off = 0.0
        rb, cb = 8 // g, 36 // g
        for bi in range(g):
            for bj in range(g):
                if bi != bj:
                    block = m[bi * rb : (bi + 1) * rb, bj * cb : (bj + 1) * cb]
                    off += float((block**2).sum())
        assert np.linalg.norm(m - approx) ** 2 == pytest.approx(off, rel=1e-12)
        assert np.array_equal(approx, block_diagonal_part(m, g))

    def test_block_diagonal_weights_forward_equivalence(self):
        # When the full weights are exactly block diagonal, the grouped conv
        # with copied blocks computes the same map.
        rng = np.random.default_rng(6)
        g, cin, cout = 4, 16, 32
        w_full = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        w_full = block_diagonal_part(weights_to_matrix(w_full), g).reshape(w_full.shape)
        gw = build_grouped(w_full, g, init="svd_blocks")
        x = rng.random((2, cin, 6, 6), dtype=np.float32)
        with no_grad():
            full_out = ops.conv2d(Var(x), Var(w_full)).value
            grouped_out = ops.conv2d(Var(x), Var(gw), groups=g).value
        assert np.abs(full_out - grouped_out).max() <= 1e-6

    def test_block_rank_bound_on_planted_weights(self):
        # Each diagonal block of a grouped upsampler has rank at most
        # min(rows, cols) of the block; planted rank-1 blocks stay rank 1.
        g, cin, cout, k = 2, 8, 12, 3
        rows, cols = cout // g, cin // g * k * k
        blocks = []
        for b in range(g):
            u = np.random.default_rng(10 + b).standard_normal(rows)
            v = np.random.default_rng(20 + b).standard_normal(cols)
            blocks.append(np.outer(u, v))
        m = np.zeros((cout, cin * k * k))
        for b in range(g):
            m[b * rows : (b + 1) * rows, b * cols : (b + 1) * cols] = blocks[b]
        gw = build_grouped(m.reshape(cout, cin, k, k), g, init="svd_blocks")
        for b in range(g):
            block = weights_to_matrix(gw[b * rows : (b + 1) * rows])
            assert np.linalg.matrix_rank(block) == 1
            assert np.linalg.matrix_rank(block) <= min(rows, cols)

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError):
            build_grouped(np.zeros((9, 4, 3, 3)), 2)

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            build_grouped(np.zeros((8, 4, 3, 3)), 2, init="projection")

    def test_random_init_uses_rng(self):
        w = np.zeros((8, 4, 3, 3), dtype=np.float32)
        a = build_grouped(w, 2, init="random", rng=np.random.default_rng(1))
        b = build_grouped(w, 2, init="random", rng=np.random.default_rng(1))
        c = build_grouped(w, 2, init="random", rng=np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
