import hashlib
import importlib
import tracemalloc

import numpy as np
import pytest
from conftest import probe_config, synthetic_split
from oracles import UncachedTeacher, buffer_of, graph_nodes, vjp_buffers

from lkcanet.autodiff import Var
from lkcanet.losses import DecaySchedule, LossWeights
from lkcanet.model import LkcaNet, NetConfig
from lkcanet.train import (
    KD_TARGETS,
    AdamState,
    BicubicBaseline,
    DistillConfig,
    NonFiniteGradientError,
    TrainConfig,
    adam_step,
    distill,
    evaluate,
    lr_at,
    train,
)


def tiny_config(**over):
    base = dict(
        bands=4,
        scale_factor=2,
        feature_channels=8,
        num_blocks=2,
        kernel_sizes=(3, 3),
        dilations=(1, 2),
        lkca_groups=2,
        ca_reduction=4,
        drop_path_rate=0.0,
    )
    base.update(over)
    return NetConfig(**base)


def weights_sha256(model):
    return hashlib.sha256(b"".join(v.tobytes() for v in model.state_arrays().values())).hexdigest()


def tiny_split(seed=0, n_train=6, n_val=2, n_test=1):
    return synthetic_split(
        n_train=n_train, n_val=n_val, n_test=n_test, bands=4, patch=16, r=2, seed=seed
    )


class TestAdam:
    def test_first_step_magnitude_near_lr(self):
        # Bias correction makes the first update lr * g / (|g| + eps).
        p = {"w": Var(np.array([1.0]))}
        p["w"].grad = np.array([0.35])
        adam_step(p, AdamState(), lr=1e-2)
        assert abs(1.0 - p["w"].value[0]) == pytest.approx(1e-2, rel=1e-6)

    def test_zero_gradient_leaves_params(self):
        p = {"w": Var(np.array([1.0, -2.0]))}
        p["w"].grad = np.zeros(2)
        adam_step(p, AdamState(), lr=1e-2)
        assert np.array_equal(p["w"].value, [1.0, -2.0])

    def test_missing_gradient_leaves_params(self):
        p = {"w": Var(np.array([3.0]))}
        adam_step(p, AdamState(), lr=1e-2)
        assert np.array_equal(p["w"].value, [3.0])

    def test_quadratic_bowl_convergence(self):
        # f(x) = x^2 from x0 = 1 drops below 1e-6 within 500 steps at lr 1e-2.
        p = {"w": Var(np.array([1.0]))}
        state = AdamState()
        for _ in range(500):
            p["w"].grad = 2.0 * p["w"].value
            adam_step(p, state, lr=1e-2)
        assert float((p["w"].value ** 2).sum()) < 1e-6

    def test_non_finite_gradient_names_parameter(self):
        p = {"bad.weight": Var(np.array([1.0]))}
        p["bad.weight"].grad = np.array([np.nan])
        with pytest.raises(NonFiniteGradientError, match="bad.weight"):
            adam_step(p, AdamState(), lr=1e-2)

    def test_grad_clip_scales_update(self):
        p = {"w": Var(np.array([0.0]))}
        p["w"].grad = np.array([100.0])
        adam_step(p, AdamState(), lr=1e-2, grad_clip=1.0)
        assert abs(p["w"].value[0]) <= 1e-2 + 1e-9


class TestSchedule:
    def test_cosine_endpoints_and_monotone(self):
        cfg = TrainConfig(epochs=50)
        values = [lr_at(cfg, e) for e in range(50)]
        assert values[0] == pytest.approx(2e-3)
        assert values[-1] == pytest.approx(2e-4)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_schedule_endpoints(self):
        cfg = TrainConfig(epochs=40, schedule="step")
        assert lr_at(cfg, 0) == pytest.approx(2e-3)
        assert lr_at(cfg, 39) == pytest.approx(2e-4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, initial_lr=1e-4, final_lr=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)


class TestTrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        split = tiny_split()
        model = LkcaNet(tiny_config(), seed=1)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        result = train(model, split, TrainConfig(epochs=0))
        for k, v in result.model.state_arrays().items():
            assert np.array_equal(v, before[k])
        assert result.history == []

    def test_same_seed_bit_identical(self):
        split = tiny_split()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
        r1 = train(LkcaNet(tiny_config(), seed=2), split, cfg)
        r2 = train(LkcaNet(tiny_config(), seed=2), split, cfg)
        assert r1.history == r2.history
        for k in r1.model.state_arrays():
            assert np.array_equal(r1.model.state_arrays()[k], r2.model.state_arrays()[k])

    def test_loss_decreases_on_average(self):
        split = tiny_split()
        result = train(LkcaNet(tiny_config(), seed=3), split, TrainConfig(epochs=12, batch_size=4))
        losses = [h["loss_h"] for h in result.history]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_log_schema(self):
        split = tiny_split()
        result = train(LkcaNet(tiny_config(), seed=4), split, TrainConfig(epochs=2, batch_size=4))
        assert len(result.history) == 2
        for entry in result.history:
            assert set(entry) == {"epoch", "lr", "D", "loss_h", "loss_kd", "val_mpsnr"}
            assert entry["loss_kd"] == 0.0
            assert entry["val_mpsnr"] is not None

    def test_best_validation_checkpoint_retained(self):
        split = tiny_split()
        result = train(LkcaNet(tiny_config(), seed=6), split, TrainConfig(epochs=6, batch_size=4))
        vals = [h["val_mpsnr"] for h in result.history]
        assert result.best_epoch == int(np.argmax(vals))
        assert result.best_val_mpsnr == max(vals)

    def test_empty_split_rejected(self):
        split = tiny_split(n_train=0)
        with pytest.raises(ValueError):
            train(LkcaNet(tiny_config(), seed=0), split, TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the scenario
    def test_divergence_aborts_with_last_good(self):
        split = tiny_split()
        model = LkcaNet(tiny_config(), seed=7)
        # An absurd learning rate drives the loss non-finite quickly.
        cfg = TrainConfig(epochs=30, batch_size=4, initial_lr=1e6, final_lr=1e6)
        result = train(model, split, cfg)
        assert result.diverged
        for arr in result.model.state_arrays().values():
            assert np.all(np.isfinite(arr))

    def test_non_finite_gradient_restores_last_good(self, monkeypatch):
        train_mod = importlib.import_module("lkcanet.train")
        backward = train_mod.backward
        split = tiny_split()
        model = LkcaNet(tiny_config(), seed=7)
        start = {k: v.copy() for k, v in model.state_arrays().items()}
        steps = []

        def poisoned(loss):
            backward(loss)
            steps.append(any(not np.array_equal(v, start[k]) for k, v in model.state_arrays().items()))
            if len(steps) == 2:
                grad = model.params["head.weight"].grad
                model.params["head.weight"].grad = np.full_like(grad, np.nan)

        monkeypatch.setattr(train_mod, "backward", poisoned)
        result = train(model, split, TrainConfig(epochs=2, batch_size=4))
        assert "head.weight" in result.diverged
        assert steps == [False, True]  # step 1 moved the weights before step 2 failed
        assert result.history == []
        for k, v in result.model.state_arrays().items():
            assert np.array_equal(v, start[k])
        assert all(p.grad is None for p in result.model.params.values())

    @pytest.mark.parametrize("distilling", [False, True], ids=["train", "distill"])
    def test_no_gradient_outlives_the_run(self, distilling):
        student = LkcaNet(tiny_config(num_blocks=1), seed=0)
        cfg = TrainConfig(epochs=2, batch_size=4)
        if distilling:
            result = distill(LkcaNet(tiny_config(), seed=1), student, tiny_split(), cfg)
        else:
            result = train(student, tiny_split(), cfg)
        assert all(p.grad is None for p in result.model.params.values())


class TestTrainingTape:
    """The graph of one training step, seen by the backward that consumes it."""

    @staticmethod
    def _one_step(monkeypatch, student, teacher=None, r=2, *, before_forward=None,
                  before_backward=None, after_backward=None):
        """Run one step of train (or distill) with hooks around its training
        forward and its backward, which ``before_backward`` gets the root of.
        Returns the reconstruction's size in bytes."""
        train_mod = importlib.import_module("lkcanet.train")
        forward, backward = LkcaNet.forward, train_mod.backward
        sizes = []

        def spy_forward(net, x, training=False, rng=None):
            if training and before_forward:
                before_forward()
            out = forward(net, x, training=training, rng=rng)
            if training:
                sizes.append(out[0].value.nbytes)
            return out

        def spy_backward(root):
            if before_backward:
                before_backward(root)
            backward(root)
            if after_backward:
                after_backward()

        monkeypatch.setattr(LkcaNet, "forward", spy_forward)
        monkeypatch.setattr(train_mod, "backward", spy_backward)
        split = synthetic_split(n_train=2, n_val=0, n_test=0, bands=student.config.bands,
                                patch=16 * r, r=r)
        cfg = TrainConfig(epochs=1, batch_size=2)
        if teacher is None:
            train(student, split, cfg)
        else:
            distill(teacher, student, split, cfg)
        assert len(sizes) == 1
        return sizes[0]

    @pytest.mark.parametrize("distilling", [False, True], ids=["train", "distill"])
    def test_step_holds_only_what_backward_reads(self, monkeypatch, distilling):
        # Every array-valued interior node is released or is memory that a
        # VJP captured. The loss terms are scalars.
        unread = []

        def check(root):
            nodes = graph_nodes(root)
            kept = vjp_buffers(nodes)
            unread.extend(
                n.value.shape for n in nodes
                if n._vjp is not None and n.value is not None and n.value.ndim > 0
                and id(buffer_of(n.value)) not in kept
            )

        student = LkcaNet(tiny_config(drop_path_rate=0.5), seed=0)
        teacher = LkcaNet(tiny_config(num_blocks=3), seed=1) if distilling else None
        self._one_step(monkeypatch, student, teacher, before_backward=check)
        assert unread == []

    def test_step_peak_above_the_tape(self, monkeypatch):
        # Above what the VJPs keep, a step peaks in the loss's forward and
        # backward with a few arrays of the reconstruction's size: 3.7
        # reconstructions at this shape. Keeping every interior value and
        # float sign arrays made it 7.3.
        seen = {}

        def start():
            seen["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

        def tape(root):
            nodes = graph_nodes(root)
            leaves = {id(buffer_of(n.value)) for n in nodes if n._vjp is None}
            seen["tape"] = sum(nb for key, nb in vjp_buffers(nodes).items() if key not in leaves)

        def stop():
            seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["base"]

        tracemalloc.start()
        try:
            sr = self._one_step(monkeypatch, LkcaNet(probe_config(drop_path_rate=0.1), seed=0),
                                r=4, before_forward=start, before_backward=tape,
                                after_backward=stop)
        finally:
            tracemalloc.stop()
        above = (seen["peak"] - seen["tape"]) / sr
        assert above <= 5.5, f"the step peaks {above:.2f} reconstructions above its tape"


class TestDistill:
    def _teacher_student(self, seed=0):
        teacher = LkcaNet(tiny_config(num_blocks=2), seed=seed)
        student_cfg = tiny_config(num_blocks=1, upsampler_groups=2)
        return teacher, student_cfg

    def test_alpha_zero_reproduces_training_bit_exactly(self):
        split = tiny_split()
        teacher, student_cfg = self._teacher_student()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=9)
        dcfg = DistillConfig(weights=LossWeights(alpha=0.0))
        trained = train(LkcaNet(student_cfg, seed=11), split, cfg)
        distilled = distill(teacher, LkcaNet(student_cfg, seed=11), split, cfg, dcfg)
        assert trained.history == distilled.history
        for k in trained.model.state_arrays():
            assert np.array_equal(
                trained.model.state_arrays()[k], distilled.model.state_arrays()[k]
            )

    @pytest.mark.parametrize("kd_target", KD_TARGETS)
    def test_cached_teacher_equals_a_teacher_forward_per_step(self, kd_target):
        # 7 patches in batches of 3: the cache is built in chunks of 3, 3
        # and 1, and every step gathers its rows from several chunks.
        split = tiny_split(n_train=7)
        teacher, student_cfg = self._teacher_student(seed=12)
        cfg = TrainConfig(epochs=3, batch_size=3, seed=13)
        dcfg = DistillConfig(kd_target=kd_target)
        cached, uncached = (
            distill(t, LkcaNet(student_cfg, seed=14), split, cfg, dcfg)
            for t in (teacher, UncachedTeacher(teacher))
        )
        assert all(h["loss_kd"] > 0.0 for h in cached.history)
        assert cached.history == uncached.history
        assert cached.best_epoch == uncached.best_epoch
        assert weights_sha256(cached.model) == weights_sha256(uncached.model)

    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_teacher_body_runs_once_per_run(self, monkeypatch, alpha):
        # 6 patches in batches of 4 for 2 epochs: the body runs on 2 chunks
        # once, the upsampler in each of the 4 steps; alpha = 0 calls nothing.
        teacher, student_cfg = self._teacher_student()
        calls = []
        for name in ("forward", "features", "upsample"):
            def spy(net, *args, _method=getattr(LkcaNet, name), _name=name, **kwargs):
                if net is teacher:
                    calls.append(_name)
                return _method(net, *args, **kwargs)

            monkeypatch.setattr(LkcaNet, name, spy)
        dcfg = DistillConfig(weights=LossWeights(alpha=alpha))
        distill(teacher, LkcaNet(student_cfg, seed=11), tiny_split(), TrainConfig(epochs=2, batch_size=4), dcfg)
        assert calls == ([] if alpha == 0.0 else ["features"] * 2 + ["upsample"] * 4)

    def test_teacher_parameters_frozen(self):
        split = tiny_split()
        teacher, student_cfg = self._teacher_student(seed=1)
        before = {k: v.copy() for k, v in teacher.state_arrays().items()}
        distill(
            teacher,
            LkcaNet(student_cfg, seed=2),
            split,
            TrainConfig(epochs=2, batch_size=4, seed=3),
        )
        for k, v in teacher.state_arrays().items():
            assert np.array_equal(v, before[k])

    def test_logs_expose_decay_and_kd(self):
        split = tiny_split()
        teacher, student_cfg = self._teacher_student(seed=4)
        dcfg = DistillConfig(weights=LossWeights(alpha=0.01), decay=DecaySchedule(0.66, 2))
        result = distill(
            teacher,
            LkcaNet(student_cfg, seed=5),
            split,
            TrainConfig(epochs=4, batch_size=4, seed=6),
            dcfg,
        )
        decays = [h["D"] for h in result.history]
        assert decays == [1.0, 1.0, 0.66, 0.66]
        assert all(h["loss_kd"] > 0.0 for h in result.history)

    def test_shallower_teacher_rejected(self):
        split = tiny_split()
        teacher = LkcaNet(tiny_config(num_blocks=1), seed=0)
        student = LkcaNet(tiny_config(num_blocks=1), seed=1)
        with pytest.raises(ValueError):
            distill(teacher, student, split, TrainConfig(epochs=1))

    def test_mismatched_shapes_rejected(self):
        split = tiny_split()
        teacher = LkcaNet(tiny_config(num_blocks=2), seed=0)
        student = LkcaNet(tiny_config(bands=4, scale_factor=2, feature_channels=16,
                                      ca_reduction=8, num_blocks=1), seed=1)
        with pytest.raises(ValueError):
            distill(teacher, student, split, TrainConfig(epochs=1))

    def test_reconstruction_target_mode_runs(self):
        split = tiny_split()
        teacher, student_cfg = self._teacher_student(seed=7)
        dcfg = DistillConfig(kd_target="reconstruction")
        result = distill(
            teacher,
            LkcaNet(student_cfg, seed=8),
            split,
            TrainConfig(epochs=1, batch_size=4, seed=9),
            dcfg,
        )
        assert result.history[0]["loss_kd"] > 0.0


class TestEvaluate:
    def test_zero_weight_model_equals_bicubic_baseline(self):
        split = tiny_split(seed=3)
        model = LkcaNet(tiny_config(), seed=0)
        model.load_state({name: np.zeros_like(v) for name, v in model.state_arrays().items()})
        got_model, _ = evaluate(model, split.test, r=2)
        got_bicubic, _ = evaluate(BicubicBaseline(2), split.test, r=2)
        assert got_model.as_dict() == got_bicubic.as_dict()

    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            evaluate(BicubicBaseline(2), [], r=2)

    def test_single_region_equals_per_region_value(self):
        split = tiny_split(seed=4, n_test=1)
        avg, per_region = evaluate(BicubicBaseline(2), split.test, r=2)
        assert len(per_region) == 1
        assert avg.as_dict() == per_region[0].as_dict()

    def test_band_mismatch_rejected(self):
        split = tiny_split(seed=5)
        model = LkcaNet(tiny_config(bands=8, ca_reduction=8), seed=0)
        with pytest.raises(ValueError):
            evaluate(model, split.test, r=2)
