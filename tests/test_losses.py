import warnings

import numpy as np
import pytest
from oracles import (
    grad_check,
    loop_cos,
    loop_grad,
    loop_l1,
    loop_sam,
    sign_loss_grads,
    stack_cos_loss,
    stack_grad_loss,
    stack_h_loss,
    stack_kd_loss,
    stack_l1_loss,
    stack_sam_loss,
)

from lkcanet.autodiff import Var, backward
from lkcanet.losses import (
    DecaySchedule,
    LossWeights,
    cos_loss,
    grad_loss,
    h_loss,
    kd_loss,
    l1_loss,
    sam_loss,
    total_loss,
)


def rand_pair(seed=0, shape=(2, 8, 12, 12)):
    rng = np.random.default_rng(seed)
    return rng.random(shape), rng.random(shape)


class TestIdentities:
    def test_identical_inputs_all_exactly_zero(self):
        a, _ = rand_pair(1)
        for loss in (l1_loss, sam_loss, grad_loss, cos_loss):
            assert float(loss(Var(a.copy()), a.copy()).value) == 0.0
        assert float(h_loss(Var(a.copy()), a.copy()).value) == 0.0
        assert float(kd_loss(Var(a.copy()), a.copy()).value) == 0.0

    def test_positive_scaling_invariance_of_angles(self):
        a, _ = rand_pair(2)
        a = a + 0.05  # strictly positive spectra
        assert float(sam_loss(Var(2.0 * a), a).value) == 0.0
        assert float(cos_loss(Var(2.0 * a), a).value) == 0.0

    def test_antipodal_cosine(self):
        a, _ = rand_pair(3)
        a = a + 0.1
        assert float(cos_loss(Var(-a), a).value) == pytest.approx(2.0, abs=1e-12)

    def test_single_band_hand_example(self):
        # 2x2 single-band: angles are 0 (same sign); l1 and grad by scalar
        # arithmetic.
        a = np.array([[[[0.2, 0.4], [0.6, 0.8]]]])
        b = np.array([[[[0.3, 0.4], [0.5, 1.0]]]])
        assert float(l1_loss(Var(a), b).value) == pytest.approx(
            (0.1 + 0.0 + 0.1 + 0.2) / 4, abs=1e-15
        )
        # forward differences along rows: |.4-.2|, |.4-.6|; along cols: |.2-.1|, |.2-.5|
        assert float(grad_loss(Var(a), b).value) == pytest.approx(
            (0.2 + 0.2 + 0.1 + 0.3) / 4, abs=1e-15
        )
        assert float(sam_loss(Var(a), b).value) == pytest.approx(0.0, abs=1e-15)

    def test_losses_nonnegative(self):
        a, b = rand_pair(4)
        for loss in (l1_loss, sam_loss, grad_loss, cos_loss):
            assert float(loss(Var(a), b).value) >= 0.0


class TestLoopOracles:
    def test_all_terms_match_loops(self):
        a, b = rand_pair(5)
        assert float(l1_loss(Var(a), b).value) == pytest.approx(loop_l1(a, b), abs=1e-6)
        assert float(sam_loss(Var(a), b).value) == pytest.approx(loop_sam(a, b), abs=1e-6)
        assert float(cos_loss(Var(a), b).value) == pytest.approx(loop_cos(a, b), abs=1e-6)
        assert float(grad_loss(Var(a), b).value) == pytest.approx(loop_grad(a, b), abs=1e-6)

    def test_weighted_sums_match_components(self):
        a, b = rand_pair(6)
        w = LossWeights()
        h = float(h_loss(Var(a), b, w).value)
        expected = loop_l1(a, b) + w.lam1 * loop_sam(a, b) + w.lam2 * loop_grad(a, b)
        assert h == pytest.approx(expected, abs=1e-6)
        kd = float(kd_loss(Var(a), b, w).value)
        expected = w.lam3 * loop_cos(a, b) + w.lam4 * loop_sam(a, b) + w.lam5 * loop_grad(a, b)
        assert kd == pytest.approx(expected, abs=1e-6)

    def test_h_loss_reduces_to_l1(self):
        a, b = rand_pair(7)
        w = LossWeights(lam1=0.0, lam2=0.0)
        assert float(h_loss(Var(a), b, w).value) == float(l1_loss(Var(a), b).value)


class TestGradients:
    @pytest.mark.parametrize(
        "name,loss",
        [
            ("l1", l1_loss),
            ("sam", sam_loss),
            ("grad", grad_loss),
            ("cos", cos_loss),
            ("h", h_loss),
            ("kd", kd_loss),
        ],
    )
    def test_finite_differences_wrt_student(self, name, loss):
        rng = np.random.default_rng(8)
        target = rng.standard_normal((2, 3, 4, 4)) + 2.0
        pred = rng.standard_normal((2, 3, 4, 4)) + 2.0
        report = grad_check(
            lambda p: loss(p, target), [pred], op_name=f"{name}_loss"
        )
        assert report.passed, report.summary()

    def test_teacher_side_receives_no_gradient(self):
        rng = np.random.default_rng(9)
        student = Var(rng.random((1, 3, 4, 4)))
        teacher = Var(rng.random((1, 3, 4, 4)))
        backward(kd_loss(student, teacher))
        assert student.grad is not None
        assert teacher.grad is None

    def test_zero_spectrum_pixel_guarded(self):
        a = np.zeros((1, 3, 2, 2))
        b = np.ones((1, 3, 2, 2))
        # similarity 0 on every pixel -> loss 1; gradients stay finite
        v = Var(a)
        loss = cos_loss(v, b)
        assert float(loss.value) == pytest.approx(1.0)
        backward(loss)
        assert np.all(np.isfinite(v.grad))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l1_loss(Var(np.ones((1, 2, 3, 3))), np.ones((1, 2, 3, 4)))


class TestDecayAndTotals:
    def test_reference_decay_values(self):
        d = DecaySchedule(factor=0.66, every=10)
        assert d.at(0) == 1.0
        assert d.at(10) == pytest.approx(0.66)
        assert d.at(25) == pytest.approx(0.4356)

    def test_nonincreasing_and_piecewise_constant(self):
        d = DecaySchedule(factor=0.5, every=3)
        values = [d.at(e) for e in range(12)]
        assert all(x >= y for x, y in zip(values, values[1:]))
        for m in range(4):
            plateau = {values[e] for e in range(3 * m, 3 * m + 3)}
            assert len(plateau) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DecaySchedule(factor=0.0)
        with pytest.raises(ValueError):
            DecaySchedule(factor=1.2)
        with pytest.raises(ValueError):
            DecaySchedule(every=0)
        with pytest.raises(ValueError):
            LossWeights(lam1=-0.1)

    def test_total_loss_epoch_zero(self):
        a, b = rand_pair(10)
        fs, ft = rand_pair(11)
        w = LossWeights(alpha=0.01)
        h = h_loss(Var(a), b, w)
        kd = kd_loss(Var(fs), ft, w)
        total = total_loss(kd, h, decay=DecaySchedule().at(0), alpha=w.alpha)
        assert float(total.value) == pytest.approx(
            0.01 * float(kd.value) + float(h.value), rel=1e-12
        )

    def test_total_loss_zero_alpha_is_h(self):
        a, b = rand_pair(12)
        fs, ft = rand_pair(13)
        h = h_loss(Var(a), b)
        kd = kd_loss(Var(fs), ft)
        total = total_loss(kd, h, decay=1.0, alpha=0.0)
        assert total is h

    def test_matched_features_make_total_equal_h(self):
        a, b = rand_pair(14)
        fs, _ = rand_pair(15)
        h = h_loss(Var(a), b)
        kd = kd_loss(Var(fs.copy()), fs.copy())
        assert float(kd.value) == 0.0
        total = total_loss(kd, h, decay=1.0, alpha=0.01)
        assert float(total.value) == float(h.value)


class TestFloat32:
    """The training dtype: no float warning and exact sign gradients."""

    def test_identical_spectra_emit_no_warning(self):
        # Identical spectra can leave an exactly zero residual; a guard of
        # 1e-300 underflows to 0 in float32 and would divide 0 by 0.
        a, b = (x.astype(np.float32) for x in rand_pair(9))
        b[:, :, :6] = a[:, :, :6]
        p = Var(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = sam_loss(p, b)
            backward(loss)
        assert loss.value.dtype == np.float32 and np.isfinite(loss.value)
        assert p.grad.dtype == np.float32 and np.all(np.isfinite(p.grad))

    def test_sign_gradients_equal_float_signs(self):
        a, t = (x.astype(np.float32) for x in rand_pair(10))
        a[:, :, ::3] = t[:, :, ::3]  # ties give sign 0
        expected = sign_loss_grads(a, t)
        for loss, want in zip((l1_loss, grad_loss), expected):
            p = Var(a.copy())
            backward(loss(p, t))
            assert p.grad.dtype == np.float32
            assert np.array_equal(p.grad, want)

    def test_nan_input_gives_nan_loss_without_warning(self):
        a, t = (x.astype(np.float32) for x in rand_pair(11))
        a[0, 0, 3, 3] = np.nan
        for loss in (l1_loss, grad_loss):
            p = Var(a.copy())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = loss(p, t)
                backward(value)
            assert np.isnan(value.value)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _stack_inputs(case, pred_dtype, target_dtype, shape):
    rng = np.random.default_rng(21)
    a = rng.standard_normal(shape) + 0.5
    t = rng.standard_normal(shape) + 0.5
    if case == "zero_norm":
        a[0, :, 1, 2] = 0.0
        t[-1, :, 3, 4] = 0.0
        a[-1, :, 0, 0] = t[-1, :, 0, 0] = 0.0
        # Orthogonal spectra whose every band product is -0.0: a sum begun
        # from the first product, not from +0.0, flips a zero's sign in the
        # angle's gradient.
        a[0, :, 2, 1], t[0, :, 2, 1] = 0.0, -0.0
        a[0, 0, 2, 1], t[0, 1, 2, 1] = 1.0, -1.0
    elif case == "identical":
        t[:, :, :2] = a[:, :, :2]
    elif case == "nan":
        a[0, 1, 2, 2] = np.nan
    a = a.astype(pred_dtype)
    return a, (a.astype(target_dtype) if case == "identical" else t.astype(target_dtype))


class TestBandSums:
    """The losses sum over bands one band at a time and build no band stack
    beyond what their VJPs keep. Values and gradients equal the whole-stack
    formulas bit for bit."""

    @pytest.mark.parametrize(
        "loss,reference",
        [
            (l1_loss, stack_l1_loss),
            (sam_loss, stack_sam_loss),
            (grad_loss, stack_grad_loss),
            (cos_loss, stack_cos_loss),
            (h_loss, stack_h_loss),
            (kd_loss, stack_kd_loss),
        ],
        ids=["l1", "sam", "grad", "cos", "h", "kd"],
    )
    @pytest.mark.parametrize("case", ["random", "zero_norm", "identical", "nan"])
    @pytest.mark.parametrize(
        "dtypes", [(np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float32)],
        ids=["f32", "f64_target", "f64_pred"],
    )
    @pytest.mark.parametrize("shape", [(2, 7, 5, 6), (1, 32, 16, 16)], ids=["small", "32_bands"])
    def test_value_and_gradient_equal_the_stack_formulas(self, loss, reference, case, dtypes, shape):
        a, t = _stack_inputs(case, *dtypes, shape)
        results = []
        with np.errstate(invalid="ignore"):
            for fn in (loss, reference):
                p = Var(a.copy())
                value = fn(p, t)
                backward(value)
                results.append((_bits(value.value), _bits(p.grad)))
        assert results[0][0] == results[1][0], "loss values differ"
        assert results[0][1] == results[1][1], "gradients differ"
