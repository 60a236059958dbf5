"""Training losses: reconstruction, spectral-angle, gradient, and cosine
alignment terms, their weighted combinations, and the distillation decay.

Every loss treats its second argument (ground truth or teacher output) as a
constant: gradients flow only into the first argument. Spectral angles use
the numerically stable half-angle form ``2 * atan2(|u - v|, |u + v|)`` on
normalized spectra so identical inputs yield exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Var, as_var, constant, record
from .ops import add, scale

_NORM_EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    """Loss-term weights: lam1/lam2 scale the supervised spectral-angle and
    gradient terms, lam3/lam4/lam5 the distillation cosine/angle/gradient
    terms, alpha the initial distillation contribution."""

    lam1: float = 0.5
    lam2: float = 0.1
    lam3: float = 0.5
    lam4: float = 0.5
    lam5: float = 0.1
    alpha: float = 0.01

    def __post_init__(self):
        for name in ("lam1", "lam2", "lam3", "lam4", "lam5", "alpha"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class DecaySchedule:
    """Stepwise decay of the distillation weight: d ** floor(epoch / f)."""

    factor: float = 0.66
    every: int = 10

    def __post_init__(self):
        if not (0.0 < self.factor <= 1.0):
            raise ValueError(f"decay factor must lie in (0, 1], got {self.factor}")
        if self.every < 1:
            raise ValueError(f"decay frequency must be >= 1, got {self.every}")

    def at(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        return self.factor ** (epoch // self.every)


def _pair(pred, target) -> tuple[Var, np.ndarray]:
    p = as_var(pred)
    t = constant(target)
    if p.shape != t.shape:
        raise ValueError(f"loss arguments must share a shape, got {p.shape} vs {t.shape}")
    return p, t


def _sign8(x: np.ndarray) -> np.ndarray:
    """sign(x) as int8, built from comparisons: exact, a quarter of a float32
    array, and NaN gives 0 with no cast warning. ``g * sign`` keeps g's
    float dtype."""
    s = (x > 0).view(np.int8)
    s -= x < 0
    return s


def l1_loss(pred, target) -> Var:
    """Mean absolute error."""
    p, t = _pair(pred, target)
    diff = p.value - t
    n = diff.size
    sgn = _sign8(diff)
    val = np.asarray(np.abs(diff, out=diff).mean())
    # g is a scalar, so (g / n) * sgn is g * sgn / n, exactly, in one array.
    return record(val, (p,), lambda g: ((g / n) * sgn,))


def _band_sums(terms, bands: int) -> list:
    """Per-pixel sums over the bands of the (N, 1, H, W) arrays that
    ``terms(i)`` returns for band i, added from zero in band order. These are
    the additions, and so the bits, of ``.sum(axis=1, keepdims=True)`` on a
    C-contiguous (N, B, H, W) stack, without building the stack."""
    totals = None
    for i in range(bands):
        parts = terms(i)
        if totals is None:
            totals = [np.zeros_like(part) for part in parts]
        for total, part in zip(totals, parts):
            total += part
    return totals


def _spectral_geometry(a: np.ndarray, b: np.ndarray):
    """Unit spectra by band, a's guarded norm, and the zero-vector mask.

    Spectra run along axis 1 of (N, B, H, W) stacks; ``unit(i)`` gives band i
    of the unit spectra u and v. Norms below the guard leave the
    corresponding unit vector ~0 and flag the pixel.
    """
    na, nb = (np.sqrt(s) for s in _band_sums(
        lambda i: (np.square(a[:, i : i + 1]), np.square(b[:, i : i + 1])), a.shape[1]))
    sa = np.maximum(na, _NORM_EPS)
    sb = np.maximum(nb, _NORM_EPS)
    degenerate = (na <= _NORM_EPS) | (nb <= _NORM_EPS)

    def unit(i):
        return a[:, i : i + 1] / sa, b[:, i : i + 1] / sb

    return unit, sa, degenerate


def _residual(unit, cos: np.ndarray, shape) -> np.ndarray:
    """v - cos * u, written band by band into one new (N, B, H, W) array."""
    resid = np.empty(shape, cos.dtype)
    for i in range(shape[1]):
        u, v = unit(i)
        band = np.multiply(cos, u, out=resid[:, i : i + 1])
        np.subtract(v, band, out=band)
    return resid


def sam_loss(pred, target) -> Var:
    """Mean spectral angle (radians) between per-pixel band vectors."""
    p, t = _pair(pred, target)
    if p.value.ndim != 4:
        raise ValueError(f"expected (N, B, H, W) inputs, got shape {p.shape}")
    a = p.value
    unit, sa, degenerate = _spectral_geometry(a, t)

    def terms(i):
        u, v = unit(i)
        return np.square(u - v), np.square(u + v), u * v

    dq, dp, cos = _band_sums(terms, a.shape[1])
    theta = 2.0 * np.arctan2(np.sqrt(dq), np.sqrt(dp))
    npix = theta.size
    val = np.asarray(theta.mean())

    # d theta / d a = -(v - cos*u) / (|a| * sin); since |v - cos*u| = sin,
    # normalizing the residual keeps the magnitude at the exact bound 1/|a|
    # even for near-zero angles (where the direction is a subgradient choice).
    # The residual becomes the one array the VJP keeps.
    ga = _residual(unit, cos, a.shape)
    rnorm = np.sqrt(_band_sums(lambda i: (np.square(ga[:, i : i + 1]),), a.shape[1])[0])
    # Divide only where the residual has a direction: a float32 rnorm of 0
    # would otherwise divide 0 by 0.
    turning = rnorm > 1e-12
    np.divide(ga, rnorm, out=ga, where=turning)
    np.copyto(ga, 0.0, where=~turning)
    # The gradient without g is -direction / |a|.
    np.negative(ga, out=ga)
    ga /= sa
    np.copyto(ga, 0.0, where=degenerate)

    return record(val, (p,), lambda g: ((g / npix) * ga,))


def cos_loss(pred, target) -> Var:
    """One minus the mean per-pixel cosine similarity of spectral vectors.

    Zero-norm spectra contribute similarity 0 (guarded denominator).
    """
    p, t = _pair(pred, target)
    if p.value.ndim != 4:
        raise ValueError(f"expected (N, B, H, W) inputs, got shape {p.shape}")
    a = p.value
    unit, sa, degenerate = _spectral_geometry(a, t)
    # 1 - |u - v|^2 / 2 equals <u, v> for unit vectors but is exactly 1.0
    # when the inputs are identical.
    (dq,) = _band_sums(lambda i: (np.square(np.subtract(*unit(i))),), a.shape[1])
    cos = 1.0 - 0.5 * dq
    cos = np.where(degenerate, 0.0, cos)
    npix = cos.size
    val = np.asarray(1.0 - cos.mean())

    # d cos / d a = (v - cos * u) / |a|, one array where the VJP would keep u and v.
    ga = _residual(unit, cos, a.shape)
    ga /= sa
    np.copyto(ga, 0.0, where=degenerate)

    return record(val, (p,), lambda g: (-(g / npix) * ga,))


# (later, earlier) sample of each forward difference, along rows and columns.
_ROWS = (np.s_[:, :, 1:, :], np.s_[:, :, :-1, :])
_COLS = (np.s_[:, :, :, 1:], np.s_[:, :, :, :-1])


def _residual_sign(a: np.ndarray, t: np.ndarray, pair) -> tuple[np.ndarray, np.generic]:
    """sign(r) as int8 and |r|.sum() for r = (a[hi] - a[lo]) - (t[hi] - t[lo]),
    with t's differences taken one band at a time so r is the one full array."""
    hi, lo = pair
    r = a[hi] - a[lo]
    r = r.astype(np.result_type(r, t), copy=False)
    for i in range(t.shape[1]):
        band = t[:, i : i + 1]
        r[:, i : i + 1] -= band[hi] - band[lo]
    sgn = _sign8(r)
    return sgn, np.abs(r, out=r).sum()


def grad_loss(pred, target) -> Var:
    """Mean absolute difference of forward-difference spatial gradients,
    pooled over both axes and all bands."""
    p, t = _pair(pred, target)
    if p.value.ndim != 4:
        raise ValueError(f"expected (N, B, H, W) inputs, got shape {p.shape}")
    a = p.value
    # The rows' residual is reduced to its sign and |sum| before the
    # columns' is built, and each VJP term is freed before the next.
    sy, abs_y = _residual_sign(a, t, _ROWS)
    sx, abs_x = _residual_sign(a, t, _COLS)
    n = sy.size + sx.size
    val = np.asarray((abs_y + abs_x) / n)
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        ga = np.zeros(shape, dtype=dtype)
        for sgn, (hi, lo) in ((sy, _ROWS), (sx, _COLS)):
            term = g * sgn
            term /= n
            ga[hi] += term
            ga[lo] -= term
            del term
        return (ga,)

    return record(val, (p,), vjp)


def h_loss(pred, target, weights: LossWeights = LossWeights()) -> Var:
    """Supervised loss: L1 + lam1 * angle + lam2 * gradient."""
    # The gradient term runs first, before the other terms' kept arrays
    # exist. The graph, and so the order backward sums in, is unchanged.
    grad = grad_loss(pred, target) if weights.lam2 != 0.0 else None
    total = l1_loss(pred, target)
    if weights.lam1 != 0.0:
        total = add(total, scale(sam_loss(pred, target), weights.lam1))
    if grad is not None:
        total = add(total, scale(grad, weights.lam2))
    return total


def kd_loss(student_features, teacher_features, weights: LossWeights = LossWeights()) -> Var:
    """Feature-alignment loss on post-pixel-shuffle maps:
    lam3 * cosine + lam4 * angle + lam5 * gradient. The teacher side is a
    constant (no gradient flows into it)."""
    grad = grad_loss(student_features, teacher_features)  # first, as in h_loss
    total = scale(cos_loss(student_features, teacher_features), weights.lam3)
    total = add(total, scale(sam_loss(student_features, teacher_features), weights.lam4))
    total = add(total, scale(grad, weights.lam5))
    return total


def total_loss(kd: Var, h: Var, decay: float, alpha: float) -> Var:
    """Combined objective: decay * alpha * kd + h."""
    coeff = decay * alpha
    if coeff == 0.0:
        return h
    return add(scale(kd, coeff), h)
