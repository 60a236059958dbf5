"""Optimizer, learning-rate schedule, baseline training loop, and the
teacher -> student feature-alignment distillation loop.

Plain training is distillation with the alignment term switched off: both
run the same engine, so an alpha = 0 distillation reproduces training
bit-exactly under the same seed. Distillation runs the frozen teacher's head
and blocks once per run, over every training patch; each step runs only its
upsampler on the batch's cached features. The same seed on the same machine
gives a bit-identical run; logs are one JSON-compatible dict per epoch with
keys {epoch, lr, D, loss_h, loss_kd, val_mpsnr}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import backward, no_grad
from .hsi import HsiCube, degrade, resize_bands
from .losses import DecaySchedule, LossWeights, h_loss, kd_loss, total_loss
from .metrics import MetricResult, average_metrics, evaluate_metrics, mpsnr
from .model import LkcaNet


class NonFiniteGradientError(RuntimeError):
    """A parameter received a NaN/Inf gradient."""


# Learning-rate schedules, and the tensors distillation can align.
SCHEDULES = ("cosine", "step")
KD_TARGETS = ("post_shuffle", "reconstruction")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 8
    seed: int = 0
    initial_lr: float = 2e-3
    final_lr: float = 2e-4
    schedule: str = "cosine"
    grad_clip: float | None = None

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.final_lr > self.initial_lr:
            raise ValueError(
                f"final_lr {self.final_lr} must not exceed initial_lr {self.initial_lr}"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class DistillConfig:
    """Feature-alignment settings. ``kd_target`` picks the alignment tensor:
    the post-pixel-shuffle feature maps (default) or the full reconstruction."""

    weights: LossWeights = field(default_factory=LossWeights)
    decay: DecaySchedule = field(default_factory=DecaySchedule)
    kd_target: str = "post_shuffle"

    def __post_init__(self):
        if self.kd_target not in KD_TARGETS:
            raise ValueError(f"unknown kd_target {self.kd_target!r}")


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    params: dict,
    state: AdamState,
    lr: float,
    *,
    grad_clip: float | None = None,
) -> None:
    """One bias-corrected adaptive-moment update over a parameter dict.

    Parameters without a gradient are left untouched (their moments do not
    advance either). Raises on non-finite gradients, naming the parameter.
    """
    grads = {}
    for name, p in params.items():
        if p.grad is None:
            continue
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        grads[name] = p.grad
    if not grads:
        return

    if grad_clip is not None:
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if total > grad_clip:
            factor = grad_clip / (total + 1e-12)
            grads = {k: g * factor for k, g in grads.items()}

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, g in grads.items():
        p = params[name]
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.value)
            v = np.zeros_like(p.value)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        mhat = m / bc1
        vhat = v / bc2
        p.value = p.value - (lr * mhat / (np.sqrt(vhat) + EPS)).astype(p.value.dtype)


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for an epoch: cosine (default) or stepwise decay from
    initial_lr down to final_lr across the configured epochs."""
    if cfg.epochs <= 1:
        return cfg.initial_lr
    frac = epoch / (cfg.epochs - 1)
    if cfg.schedule == "cosine":
        return cfg.final_lr + 0.5 * (cfg.initial_lr - cfg.final_lr) * (1.0 + math.cos(math.pi * frac))
    # step: decade-style interpolation in log space over 4 plateaus
    plateau = min(int(frac * 4), 3)
    ratio = (cfg.final_lr / cfg.initial_lr) ** (plateau / 3)
    return cfg.initial_lr * ratio


# ---------------------------------------------------------------------------
# Training engine
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    """``diverged`` names why a run stopped early (a non-finite loss or
    gradient); the model then holds the last epoch-end state."""

    model: LkcaNet
    history: list[dict]
    best_epoch: int | None
    best_val_mpsnr: float | None
    diverged: str | None = None


def _snapshot(model: LkcaNet) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in model.state_arrays().items()}


def _validate_mpsnr(model: LkcaNet, patches) -> float | None:
    if not patches:
        return None
    vals = []
    for pair in patches:
        sr = model.predict(pair.lr[None])
        vals.append(mpsnr(sr[0], pair.hr))
    return float(np.mean(vals))


def _teacher_features(teacher: LkcaNet, patches, batch_size: int) -> np.ndarray:
    """The frozen teacher's last-block features of every patch, in patch
    order, as one (n, C, h, w) array. The forward is batch-invariant, so a
    patch's row equals its features in any training batch."""
    cache = None
    with no_grad():
        for start in range(0, len(patches), batch_size):
            f = teacher.features(np.stack([pair.lr for pair in patches[start : start + batch_size]])).value
            if cache is None:
                cache = np.empty((len(patches), *f.shape[1:]), f.dtype)
            cache[start : start + len(f)] = f
    return cache


# A float overflow, invalid value or division by zero in a run stops it as
# diverged, before the next forward turns it into a warning.
@np.errstate(over="raise", invalid="raise", divide="raise")
def _fit(
    model: LkcaNet,
    split,
    cfg: TrainConfig,
    teacher: LkcaNet | None,
    dcfg: DistillConfig,
) -> TrainResult:
    if not split.train:
        raise ValueError("training split is empty")
    rng = np.random.default_rng(cfg.seed)
    weights = dcfg.weights
    # The forward returns (reconstruction, post-shuffle maps); the kd term
    # aligns one of them, in the student's and the teacher's outputs alike.
    kd_at = 1 if dcfg.kd_target == "post_shuffle" else 0
    # The teacher's body runs once per run: each step runs only its upsampler
    # on the cached features, and its skip only for the reconstruction.
    distilling = teacher is not None and weights.alpha != 0.0
    cache = _teacher_features(teacher, split.train, cfg.batch_size) if distilling else None
    history: list[dict] = []
    best: tuple[int | None, float | None, dict | None] = (None, None, None)
    last_good = _snapshot(model)
    state = AdamState()
    n = len(split.train)
    diverged = None

    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        decay = dcfg.decay.at(epoch)
        coeff = decay * weights.alpha if distilling else 0.0
        order = rng.permutation(n)
        h_vals: list[float] = []
        kd_vals: list[float] = []

        try:
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                xs = np.stack([split.train[i].lr for i in batch])
                ys = np.stack([split.train[i].hr for i in batch])
                i_sr, f_up = model.forward(xs, training=True, rng=rng)
                if coeff == 0.0:
                    f_up = None  # only the kd term reads it
                h = h_loss(i_sr, ys, weights)
                if coeff != 0.0:
                    # The target stays bound until the next step's: freeing
                    # it before backward would let glibc trim the heap at the
                    # end of every step and fault it back in during the next.
                    with no_grad():
                        target = teacher.upsample(cache[batch], xs if kd_at == 0 else None)[kd_at]
                    kd = kd_loss((i_sr, f_up)[kd_at], target, weights)
                    loss = total_loss(kd, h, decay, weights.alpha)
                    kd_vals.append(float(kd.value))
                else:
                    loss = h
                    kd_vals.append(0.0)
                # The loss VJPs keep what they read; freeing the outputs here
                # also keeps them out of the next step.
                del i_sr, f_up
                h_vals.append(float(h.value))

                if not np.isfinite(loss.value):
                    raise FloatingPointError("non-finite loss")
                model.zero_grad()
                backward(loss)
                adam_step(model.params, state, lr, grad_clip=cfg.grad_clip)
            val = _validate_mpsnr(model, split.val)
        except (FloatingPointError, NonFiniteGradientError) as exc:
            diverged = f"{exc} in epoch {epoch}"
            break

        history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "D": decay,
                "loss_h": float(np.mean(h_vals)),
                "loss_kd": float(np.mean(kd_vals)),
                "val_mpsnr": val,
            }
        )
        last_good = _snapshot(model)  # never written: load_state copies
        if val is not None and (best[1] is None or val > best[1]):
            best = (epoch, val, last_good)

    model.zero_grad()  # no gradient outlives the run
    # A diverged run keeps its last epoch-end state, a finished one its best.
    restore = last_good if diverged else best[2]
    if restore is not None:
        model.load_state(restore)
    return TrainResult(model, history, best[0], best[1], diverged)


def train(model: LkcaNet, split, cfg: TrainConfig, weights: LossWeights = LossWeights()) -> TrainResult:
    """Minimize the supervised loss, weighted by ``weights.lam1``/``lam2``,
    over the training patches.

    The best-validation parameters (by mean PSNR) are restored at the end;
    with zero epochs the model is returned unchanged.
    """
    return _fit(model, split, cfg, teacher=None, dcfg=DistillConfig(weights=weights))


def distill(
    teacher: LkcaNet,
    student: LkcaNet,
    split,
    cfg: TrainConfig,
    dcfg: DistillConfig = DistillConfig(),
) -> TrainResult:
    """Train the student against ground truth plus decaying teacher alignment.

    The teacher is frozen (evaluation mode, no gradients, parameters
    untouched). With ``weights.alpha == 0`` the run is bit-identical to
    :func:`train` under the same seed.
    """
    tc, sc = teacher.config, student.config
    if tc.num_blocks <= sc.num_blocks:
        raise ValueError(
            f"teacher must be deeper than the student, got {tc.num_blocks} <= {sc.num_blocks}"
        )
    if (tc.bands, tc.scale_factor, tc.feature_channels) != (
        sc.bands,
        sc.scale_factor,
        sc.feature_channels,
    ):
        raise ValueError(
            "teacher and student must share (bands, scale, channels) so the "
            "aligned feature maps match: "
            f"{(tc.bands, tc.scale_factor, tc.feature_channels)} vs "
            f"{(sc.bands, sc.scale_factor, sc.feature_channels)}"
        )
    return _fit(student, split, cfg, teacher=teacher, dcfg=dcfg)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BicubicBaseline:
    """The bicubic upsampling a network is scored against: ``predict`` takes
    (N, bands, h, w) to (N, bands, r*h, r*w), as the network's skip does."""

    scale_factor: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        r = self.scale_factor
        return resize_bands(x, x.shape[-2] * r, x.shape[-1] * r)


def evaluate(
    model: LkcaNet | BicubicBaseline, regions: list[HsiCube], r: int
) -> tuple[MetricResult, list[MetricResult]]:
    """Score a model or the bicubic baseline over whole test regions.

    Each high-resolution region is bicubic-degraded by r, super-resolved,
    and compared against the original; the six metrics are averaged over
    regions.

    Returns (averaged metrics, per-region metrics).
    """
    if not regions:
        raise ValueError("no test regions to evaluate")
    per_region = [
        evaluate_metrics(model.predict(degrade(region, r).data[None])[0], region.data, r)
        for region in regions
    ]
    return average_metrics(per_region), per_region
