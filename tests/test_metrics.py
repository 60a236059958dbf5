import tracemalloc

import numpy as np
import pytest
from oracles import (
    loop_cc,
    loop_ergas,
    loop_mpsnr,
    loop_mssim,
    loop_rmse,
    loop_sam_degrees,
)

from lkcanet.metrics import (
    MetricResult,
    average_metrics,
    cc,
    ergas,
    evaluate_metrics,
    mpsnr,
    mssim,
    rmse,
    sam_degrees,
)


def rand_pair(seed=0, shape=(2, 8, 12, 12)):
    rng = np.random.default_rng(seed)
    return rng.random(shape), rng.random(shape)


class TestIdentityCases:
    def test_exact_identity_values(self):
        a, _ = rand_pair(1)
        res = evaluate_metrics(a, a.copy(), r=4)
        assert res.mpsnr == 100.0
        assert res.mssim == 1.0
        assert res.sam == 0.0
        assert res.cc == 1.0
        assert res.rmse == 0.0
        assert res.ergas == 0.0

    def test_uniform_offset_closed_form(self):
        rng = np.random.default_rng(2)
        hr = rng.random((1, 4, 16, 16)) * 0.9
        sr = hr + 0.1
        assert rmse(sr, hr) == pytest.approx(0.1, abs=1e-12)
        assert mpsnr(sr, hr) == pytest.approx(20.0, abs=1e-9)


class TestLoopOracles:
    def test_all_six_match(self):
        a, b = rand_pair(3)
        assert mpsnr(a, b) == pytest.approx(loop_mpsnr(a, b), abs=1e-6)
        assert mssim(a, b) == pytest.approx(loop_mssim(a, b), abs=1e-6)
        assert sam_degrees(a, b) == pytest.approx(loop_sam_degrees(a, b), abs=1e-6)
        assert cc(a, b)[0] == pytest.approx(loop_cc(a, b), abs=1e-6)
        assert rmse(a, b) == pytest.approx(loop_rmse(a, b), abs=1e-6)
        assert ergas(a, b, 4) == pytest.approx(loop_ergas(a, b, 4), abs=1e-6)


class TestBehaviors:
    def test_mpsnr_monotone_in_noise_amplitude(self):
        rng = np.random.default_rng(4)
        hr = rng.random((1, 3, 16, 16)) * 0.5 + 0.25
        noise = rng.standard_normal(hr.shape)
        values = [mpsnr(hr + amp * noise, hr) for amp in (0.01, 0.03, 0.1)]
        assert values[0] > values[1] > values[2]

    def test_cc_degenerate_bands(self):
        flat = np.full((1, 2, 12, 12), 0.5)
        value, degenerate = cc(flat, flat.copy())
        assert value == 1.0
        assert degenerate == 2
        other = np.full((1, 2, 12, 12), 0.25)
        value, _ = cc(flat, other)
        assert value == 0.0
        res = evaluate_metrics(flat, flat.copy(), r=2)
        assert res.notes  # flagged

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.ones((1, 2, 3, 3)), np.ones((1, 2, 3, 4)))

    def test_small_band_rejected_by_ssim(self):
        with pytest.raises(ValueError):
            mssim(np.ones((1, 1, 8, 8)), np.ones((1, 1, 8, 8)))

    def test_three_dim_inputs_accepted(self):
        a, b = rand_pair(5, shape=(3, 12, 12))
        assert rmse(a, b) == rmse(a[None], b[None])

    def test_csv_row_order(self):
        res = MetricResult(mpsnr=1, mssim=2, sam=3, cc=4, rmse=5, ergas=6)
        assert MetricResult.csv_header() == "MPSNR,MSSIM,SAM,CC,RMSE,ERGAS"
        assert res.as_csv_row() == "1,2,3,4,5,6"

    def test_average_metrics(self):
        a = MetricResult(10, 0.8, 2.0, 0.9, 0.1, 5.0)
        b = MetricResult(20, 1.0, 4.0, 1.0, 0.3, 7.0)
        avg = average_metrics([a, b])
        assert avg.mpsnr == 15.0
        assert avg.rmse == pytest.approx(0.2)
        with pytest.raises(ValueError):
            average_metrics([])


# Partial filter blocks on both axes, the 11-px minimum, 3-D and batched
# inputs, and one region-like float32 stack.
ONE_CAST_SHAPES = [(1, 11, 11), (2, 13, 40), (2, 2, 37, 29), (3, 27, 16), (32, 64, 64)]


def float32_pair(shape, seed=7):
    rng = np.random.default_rng(seed)
    hr = rng.random(shape, dtype=np.float32)
    sr = np.clip(hr + 0.05 * rng.standard_normal(shape), 0.0, 1.0).astype(np.float32)
    return sr, hr


class TestOneCast:
    @pytest.mark.parametrize("shape", ONE_CAST_SHAPES)
    def test_fields_equal_the_public_functions(self, shape):
        sr, hr = float32_pair(shape)
        res = evaluate_metrics(sr, hr, r=4)
        assert res.mpsnr == mpsnr(sr, hr)
        assert res.mssim == mssim(sr, hr)
        assert res.sam == sam_degrees(sr, hr)
        assert res.cc == cc(sr, hr)[0]
        assert res.rmse == rmse(sr, hr)
        assert res.ergas == ergas(sr, hr, 4)

    # The 32-band stack is left out: the loop oracle would take minutes on it.
    @pytest.mark.parametrize("shape", ONE_CAST_SHAPES[:4])
    def test_mssim_matches_loop_oracle(self, shape):
        # float64, so that the oracle's scalar arithmetic is double precision.
        sr, hr = (v.astype(np.float64) for v in float32_pair(shape))
        if sr.ndim == 3:
            sr, hr = sr[None], hr[None]
        assert abs(mssim(sr, hr) - loop_mssim(sr, hr)) <= 1e-12

    def test_peak_memory_within_three_float64_copies(self):
        # The float64 cast of sr and hr is two copies; RMSE's squared
        # difference is the third. 1 MiB covers interpreter bookkeeping.
        sr, hr = float32_pair((32, 128, 128))
        copy_f64 = sr.size * 8
        tracemalloc.start()
        try:
            evaluate_metrics(sr, hr, r=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * copy_f64 + 2**20

    def test_peak_memory_under_three_quarters_of_a_third_copy(self):
        # The cast pair is two float64 copies. RMSE and ERGAS take each
        # band's squared difference a band at a time, so no index adds a
        # third whole copy; SSIM's per-band stack is the largest temporary.
        sr, hr = float32_pair((32, 256, 256))
        copy_f64 = sr.size * 8
        tracemalloc.start()
        try:
            evaluate_metrics(sr, hr, r=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * copy_f64 + 2**20


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBandAtATime:
    # Every index reads the float32 pair a band (SAM: a row chunk) at a
    # time, cast to float64, so no whole float64 copy of the image exists.
    SHAPE = (32, 256, 256)

    def test_evaluate_metrics_peak_under_three_quarters_of_a_copy(self):
        sr, hr = float32_pair(self.SHAPE)
        assert _traced_peak(lambda: evaluate_metrics(sr, hr, r=4)) <= 0.75 * sr.size * 8 + 2**20

    @pytest.mark.parametrize(
        "index",
        [mpsnr, mssim, sam_degrees, cc, rmse, lambda sr, hr: ergas(sr, hr, 4)],
        ids=["mpsnr", "mssim", "sam_degrees", "cc", "rmse", "ergas"],
    )
    def test_no_index_holds_a_whole_float64_copy(self, index):
        sr, hr = float32_pair(self.SHAPE)
        assert _traced_peak(lambda: index(sr, hr)) < sr.size * 8
