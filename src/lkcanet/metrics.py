"""Evaluation metrics for reconstructed hyperspectral images.

Six quality indices over (B, H, W) or batched (N, B, H, W) stacks of data in
[0, 1]: mean PSNR and SSIM over bands, spectral angle in degrees, mean
per-band Pearson correlation, global RMSE, and the relative global synthesis
error. Batched inputs are scored per image and averaged.

All computation runs in double precision, on inputs of any float dtype.
Five indices are per-band quantities and read the pair one band at a time,
cast to float64; SAM reads it a chunk of rows at a time. No index holds a
float64 copy of the whole image. SSIM filters each band's five maps (x, y,
x², y², xy) as one stack, with the separable Gaussian applied along each axis
as a blocked Toeplitz matmul.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

PSNR_CAP_DB = 100.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_RANGE = 1.0
# Outputs per Toeplitz block of the SSIM filter.
_SSIM_BLOCK = 16

# Bytes of one row chunk of the (N, B, rows, W) stack in sam_degrees.
_SAM_CHUNK_BYTES = 1 << 20
# Floors of a pixel's spectral norm in SAM and of a band's reference mean in
# ERGAS, which keep an all-zero spectrum or band finite.
_SAM_EPS = 1e-8
_ERGAS_EPS = 1e-12

_CSV_COLUMNS = ("MPSNR", "MSSIM", "SAM", "CC", "RMSE", "ERGAS")


@dataclass
class MetricResult:
    mpsnr: float
    mssim: float
    sam: float  # degrees
    cc: float
    rmse: float
    ergas: float
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {c: getattr(self, c.lower()) for c in _CSV_COLUMNS}

    def as_csv_row(self) -> str:
        return ",".join(repr(v) for v in self.as_dict().values())

    @staticmethod
    def csv_header() -> str:
        return ",".join(_CSV_COLUMNS)


def _check_pair(sr, hr):
    a, b = np.asarray(sr), np.asarray(hr)
    if a.shape != b.shape:
        raise ValueError(f"metric inputs must share a shape, got {a.shape} vs {b.shape}")
    if a.ndim == 3:
        a, b = a[None], b[None]
    if a.ndim != 4:
        raise ValueError(f"expected (B, H, W) or (N, B, H, W) inputs, got ndim {a.ndim}")
    return a, b


def _bands(a: np.ndarray, b: np.ndarray):
    """Each (sr, hr) band pair of two (N, B, H, W) stacks, image by image,
    cast to float64 one band at a time."""
    for an, bn in zip(a, b):
        for x, y in zip(an, bn):
            yield np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)


def _band_mse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean squared error of each band, in :func:`_bands` order."""
    return np.array([np.mean((x - y) ** 2) for x, y in _bands(a, b)])


def mpsnr(sr, hr) -> float:
    """Mean band PSNR at peak 1, each band capped at PSNR_CAP_DB."""
    vals = [
        PSNR_CAP_DB if mse == 0.0 else min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)
        for mse in _band_mse(*_check_pair(sr, hr))
    ]
    return float(np.mean(vals))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _band_matrix(window: np.ndarray, block: int) -> np.ndarray:
    """(block + k - 1, block) Toeplitz matrix whose column j holds the
    window in rows j..j+k-1: a row of block + k - 1 samples times it gives
    ``block`` consecutive "valid" filter outputs."""
    k = window.size
    band = np.zeros((block + k - 1, block), dtype=np.float64)
    for j in range(block):
        band[j : j + k, j] = window
    return band


_SSIM_BAND = _band_matrix(_gaussian_window(_SSIM_WINDOW, _SSIM_SIGMA), _SSIM_BLOCK)


def _padded_extent(n: int) -> int:
    """Extent n zero-padded so its "valid" outputs fill whole blocks."""
    blocks = -(-(n - _SSIM_WINDOW + 1) // _SSIM_BLOCK)
    return blocks * _SSIM_BLOCK + _SSIM_WINDOW - 1


def _filter_valid(stack: np.ndarray, h: int) -> np.ndarray:
    """Separable "valid" Gaussian filter of a zero-padded (M, Hp, Wp) stack
    whose maps are H rows high.

    Each axis is a blocked Toeplitz matmul: overlapping windows of
    ``_SSIM_BLOCK + 10`` samples, taken as strided views, times the band
    matrix. Returns (M, column blocks, H - 10, _SSIM_BLOCK), where
    ``[:, q, :, t]`` is output column ``q * _SSIM_BLOCK + t``; columns past
    the valid width read padding.
    """
    block, span = _SSIM_BLOCK, _SSIM_BLOCK + _SSIM_WINDOW - 1
    m, hp, wp = stack.shape
    s0, s1, s2 = stack.strides
    row_windows = as_strided(stack, (m, (hp - span) // block + 1, span, wp), (s0, block * s1, s1, s2))
    rows = np.matmul(_SSIM_BAND.T, row_windows).reshape(m, -1, wp)[:, : h - _SSIM_WINDOW + 1]
    r0, r1, r2 = rows.strides
    col_windows = as_strided(
        rows, (m, (wp - span) // block + 1, rows.shape[1], span), (r0, block * r2, r1, r2)
    )
    return np.matmul(col_windows, _SSIM_BAND)


def band_ssim(sr_band: np.ndarray, hr_band: np.ndarray) -> float:
    """Structural similarity with an 11x11 Gaussian window (sigma 1.5),
    K1 = 0.01, K2 = 0.03, dynamic range 1.0, averaged over the valid area."""
    x = np.asarray(sr_band, dtype=np.float64)
    y = np.asarray(hr_band, dtype=np.float64)
    if min(x.shape) < _SSIM_WINDOW:
        raise ValueError(
            f"band extent {x.shape} smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} SSIM window"
        )
    h, w = x.shape
    # x, y, x^2, y^2 and xy, filtered as one stack.
    stack = np.zeros((5, _padded_extent(h), _padded_extent(w)), dtype=np.float64)
    stack[0, :h, :w] = x
    stack[1, :h, :w] = y
    np.multiply(x, x, out=stack[2, :h, :w])
    np.multiply(y, y, out=stack[3, :h, :w])
    np.multiply(x, y, out=stack[4, :h, :w])
    mx, my, exx, eyy, exy = _filter_valid(stack, h)
    c1 = (_SSIM_K1 * _SSIM_RANGE) ** 2
    c2 = (_SSIM_K2 * _SSIM_RANGE) ** 2
    mxy = mx * my
    mm = mx * mx + my * my
    ssim = (2.0 * mxy + c1) * (2.0 * (exy - mxy) + c2) / ((mm + c1) * (exx + eyy - mm + c2))
    # Column blocks back side by side, then the valid width only.
    valid = ssim.transpose(1, 0, 2).reshape(ssim.shape[1], -1)[:, : w - _SSIM_WINDOW + 1]
    return float(np.mean(valid))


def mssim(sr, hr) -> float:
    return float(np.mean([band_ssim(x, y) for x, y in _bands(*_check_pair(sr, hr))]))


def sam_degrees(sr, hr) -> float:
    """Mean spectral angle in degrees, stable half-angle form (exactly zero
    for identical inputs). Pixels with a zero spectrum on either side
    contribute the angle of the guarded unit vectors. Runs over chunks of
    rows, cast to float64 a chunk at a time, so its temporaries stay near
    ``_SAM_CHUNK_BYTES`` each."""
    a, b = _check_pair(sr, hr)
    n, bands, h, w = a.shape
    rows = max(1, _SAM_CHUNK_BYTES // (n * bands * w * 8))
    theta = np.empty((n, h, w), dtype=np.float64)
    for r0 in range(0, h, rows):
        ca = np.asarray(a[:, :, r0 : r0 + rows], dtype=np.float64)
        cb = np.asarray(b[:, :, r0 : r0 + rows], dtype=np.float64)
        na = np.sqrt((ca * ca).sum(axis=1, keepdims=True))
        nb = np.sqrt((cb * cb).sum(axis=1, keepdims=True))
        u = ca / np.maximum(na, _SAM_EPS)
        v = cb / np.maximum(nb, _SAM_EPS)
        dq = np.sqrt(((u - v) ** 2).sum(axis=1))
        dp = np.sqrt(((u + v) ** 2).sum(axis=1))
        theta[:, r0 : r0 + rows] = 2.0 * np.arctan2(dq, dp)
    return float(np.degrees(theta.mean()))


def cc(sr, hr) -> tuple[float, int]:
    """Mean per-band Pearson correlation.

    A zero-variance band scores 1 when both sides are constant and equal,
    else 0; the count of such degenerate bands is returned for flagging.
    """
    vals = []
    degenerate = 0
    for x, y in _bands(*_check_pair(sr, hr)):
        x, y = x.ravel(), y.ravel()
        xc = x - x.mean()
        yc = y - y.mean()
        denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
        if denom == 0.0:
            degenerate += 1
            vals.append(1.0 if np.array_equal(x, y) else 0.0)
        else:
            vals.append(float((xc * yc).sum() / denom))
    return float(np.mean(vals)), degenerate


def rmse(sr, hr) -> float:
    return float(np.sqrt(np.mean(_band_mse(*_check_pair(sr, hr)))))


def ergas(sr, hr, r: int) -> float:
    """Relative global synthesis error:
    100 / r * sqrt(mean over bands of (RMSE_b / mean_b)^2), with the band
    mean taken from the reference."""
    if r < 1:
        raise ValueError(f"scale factor must be >= 1, got {r}")
    a, b = _check_pair(sr, hr)
    # Each band's squared error and reference mean, as two (N, B) arrays.
    band_mse, band_mean = np.array(
        [(np.mean((x - y) ** 2), y.mean()) for x, y in _bands(a, b)]
    ).T.reshape(2, *a.shape[:2])
    terms = np.mean((np.sqrt(band_mse) / np.maximum(band_mean, _ERGAS_EPS)) ** 2, axis=1)
    return float(100.0 / r * np.sqrt(np.mean(terms)))


def evaluate_metrics(sr, hr, r: int) -> MetricResult:
    """All six indices for one reconstruction against its reference."""
    cc_val, degenerate = cc(sr, hr)
    notes = []
    if degenerate:
        notes.append(f"{degenerate} zero-variance band(s) in the correlation metric")
    return MetricResult(
        mpsnr=mpsnr(sr, hr),
        mssim=mssim(sr, hr),
        sam=sam_degrees(sr, hr),
        cc=cc_val,
        rmse=rmse(sr, hr),
        ergas=ergas(sr, hr, r),
        notes=notes,
    )


def average_metrics(results: list[MetricResult]) -> MetricResult:
    """Plain mean of each index over per-region results."""
    if not results:
        raise ValueError("cannot average an empty metric list")
    fields = [c.lower() for c in _CSV_COLUMNS]
    means = {f: float(np.mean([getattr(m, f) for m in results])) for f in fields}
    return MetricResult(**means, notes=[n for res in results for n in res.notes])
