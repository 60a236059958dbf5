import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkcanet.linalg import (
    DegenerateSpectrumError,
    SvdInputError,
    cumulative_energy,
    rank_at_energy,
    svd,
)


class TestSvd:
    def test_identity_has_unit_singular_values(self):
        result = svd(np.eye(4))
        assert np.allclose(result.sigma, [1.0, 1.0, 1.0, 1.0])

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        result = svd(np.outer(u, v))
        assert result.sigma[0] == pytest.approx(1.0)
        assert np.allclose(result.sigma[1:], 0.0, atol=1e-12)

    def test_reconstruction_multiply_back(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((20, 12))
        result = svd(m)
        err = np.linalg.norm((result.u * result.sigma) @ result.vt - m) / np.linalg.norm(m)
        assert err <= 1e-6

    def test_orthonormality(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((15, 9))
        result = svd(m)
        assert np.abs(result.u.T @ result.u - np.eye(9)).max() <= 1e-10
        assert np.abs(result.vt @ result.vt.T - np.eye(9)).max() <= 1e-10

    def test_sigma_nonincreasing_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for shape in [(5, 5), (8, 3), (3, 8), (1, 6), (6, 1)]:
            s = svd(rng.standard_normal(shape)).sigma
            assert np.all(s >= 0)
            assert np.all(np.diff(s) <= 1e-14)

    def test_sigma_invariant_under_orthogonal_rotation(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((10, 6))
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        assert np.abs(svd(q @ m).sigma - svd(m).sigma).max() <= 1e-8

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 4))
        a, b = svd(m), svd(m.copy())
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.vt, b.vt)
        for j in range(a.u.shape[1]):
            k = np.argmax(np.abs(a.u[:, j]))
            assert a.u[k, j] >= 0

    def test_rejects_non_finite(self):
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(SvdInputError):
            svd(bad)
        bad[1, 1] = np.inf
        with pytest.raises(SvdInputError):
            svd(bad)

    def test_rejects_non_matrix(self):
        with pytest.raises(SvdInputError):
            svd(np.ones(4))
        with pytest.raises(SvdInputError):
            svd(np.ones((2, 0)))


class TestCumulativeEnergy:
    def test_hand_arithmetic(self):
        assert np.allclose(cumulative_energy([2.0, 1.0, 1.0]), [0.5, 0.75, 1.0])

    def test_rank_one_spectrum(self):
        assert np.allclose(cumulative_energy([1.0, 0.0, 0.0]), [1.0, 1.0, 1.0])

    def test_last_entry_exactly_one(self):
        rng = np.random.default_rng(0)
        s = np.sort(rng.random(50))[::-1]
        assert cumulative_energy(s)[-1] == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            cumulative_energy([0.0, 0.0])

    def test_invalid_spectra_rejected(self):
        with pytest.raises(ValueError):
            cumulative_energy([1.0, -0.5])
        with pytest.raises(ValueError):
            cumulative_energy([1.0, 2.0])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing(self, values):
        s = np.sort(np.asarray(values))[::-1]
        c = cumulative_energy(s)
        assert np.all(np.diff(c) >= -1e-15)
        assert c[-1] == 1.0


class TestRankAtEnergy:
    def test_hand_cases(self):
        assert rank_at_energy([2.0, 1.0, 1.0], 0.75) == 2
        assert rank_at_energy([1.0, 0.0], 0.99) == 1
        # cumsum of [3,2,1,1,1] / 8 = [0.375, 0.625, ...]
        assert rank_at_energy([3.0, 2.0, 1.0, 1.0, 1.0], 0.60) == 2

    def test_threshold_validation(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                rank_at_energy([1.0], bad)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=2, max_size=30),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, values, t, bump):
        s = np.sort(np.asarray(values))[::-1]
        assert rank_at_energy(s, t) <= rank_at_energy(s, min(t + bump, 1.0))
