"""Independent scalar-loop reference implementations used as test oracles.

These deliberately avoid the library's vectorized code paths: everything is
explicit Python loops and math-module scalar arithmetic, except
``gather_resize``, which is the whole-array gather form of the bicubic
resize that the library's matrix form must reproduce.
"""

import math

import numpy as np

from lkcanet.hsi import _cubic_taps


def loop_l1(a, b):
    total = 0.0
    for v, w in zip(a.ravel(), b.ravel()):
        total += abs(v - w)
    return total / a.size


def loop_sam(a, b, eps=1e-8):
    n, bands, h, w = a.shape
    total = 0.0
    for nn in range(n):
        for y in range(h):
            for x in range(w):
                va = a[nn, :, y, x]
                vb = b[nn, :, y, x]
                na = math.sqrt(float(va @ va))
                nb = math.sqrt(float(vb @ vb))
                c = float(va @ vb) / (max(na, eps) * max(nb, eps))
                total += math.acos(max(-1.0, min(1.0, c)))
    return total / (n * h * w)


def loop_cos(a, b, eps=1e-8):
    n, bands, h, w = a.shape
    total = 0.0
    for nn in range(n):
        for y in range(h):
            for x in range(w):
                va = a[nn, :, y, x]
                vb = b[nn, :, y, x]
                denom = math.sqrt(float(va @ va)) * math.sqrt(float(vb @ vb))
                total += float(va @ vb) / denom if denom > eps else 0.0
    return 1.0 - total / (n * h * w)


def loop_grad(a, b):
    n, bands, h, w = a.shape
    total = 0.0
    count = 0
    for nn in range(n):
        for c in range(bands):
            for y in range(h - 1):
                for x in range(w):
                    da = a[nn, c, y + 1, x] - a[nn, c, y, x]
                    db = b[nn, c, y + 1, x] - b[nn, c, y, x]
                    total += abs(da - db)
                    count += 1
            for y in range(h):
                for x in range(w - 1):
                    da = a[nn, c, y, x + 1] - a[nn, c, y, x]
                    db = b[nn, c, y, x + 1] - b[nn, c, y, x]
                    total += abs(da - db)
                    count += 1
    return total / count


def loop_mpsnr(a, b):
    vals = []
    for n in range(a.shape[0]):
        for c in range(a.shape[1]):
            se = 0.0
            for y in range(a.shape[2]):
                for x in range(a.shape[3]):
                    se += (a[n, c, y, x] - b[n, c, y, x]) ** 2
            mse = se / (a.shape[2] * a.shape[3])
            vals.append(100.0 if mse == 0 else min(10 * math.log10(1.0 / mse), 100.0))
    return sum(vals) / len(vals)


def loop_gaussian(size, sigma):
    half = (size - 1) / 2
    g = [math.exp(-((i - half) ** 2) / (2 * sigma * sigma)) for i in range(size)]
    s = sum(g)
    return [v / s for v in g]


def loop_ssim_band(x, y):
    win = loop_gaussian(11, 1.5)
    h, w = x.shape
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for oy in range(h - 10):
        for ox in range(w - 10):
            mx = my = sxx = syy = sxy = 0.0
            for i in range(11):
                for j in range(11):
                    wgt = win[i] * win[j]
                    px, py = x[oy + i, ox + j], y[oy + i, ox + j]
                    mx += wgt * px
                    my += wgt * py
                    sxx += wgt * px * px
                    syy += wgt * py * py
                    sxy += wgt * px * py
            vx, vy, vxy = sxx - mx * mx, syy - my * my, sxy - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * vxy + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return sum(vals) / len(vals)


def loop_mssim(a, b):
    vals = [
        loop_ssim_band(a[n, c], b[n, c])
        for n in range(a.shape[0])
        for c in range(a.shape[1])
    ]
    return sum(vals) / len(vals)


def loop_sam_degrees(a, b):
    total = 0.0
    count = 0
    for n in range(a.shape[0]):
        for y in range(a.shape[2]):
            for x in range(a.shape[3]):
                va, vb = a[n, :, y, x], b[n, :, y, x]
                na, nb = math.sqrt(float(va @ va)), math.sqrt(float(vb @ vb))
                c = float(va @ vb) / (max(na, 1e-8) * max(nb, 1e-8))
                total += math.degrees(math.acos(max(-1.0, min(1.0, c))))
                count += 1
    return total / count


def loop_cc(a, b):
    vals = []
    for n in range(a.shape[0]):
        for c in range(a.shape[1]):
            x = a[n, c].ravel()
            y = b[n, c].ravel()
            mx, my = x.mean(), y.mean()
            num = float(((x - mx) * (y - my)).sum())
            den = math.sqrt(float(((x - mx) ** 2).sum()) * float(((y - my) ** 2).sum()))
            vals.append(num / den)
    return sum(vals) / len(vals)


def loop_rmse(a, b):
    se = 0.0
    for v, w in zip(a.ravel(), b.ravel()):
        se += (v - w) ** 2
    return math.sqrt(se / a.size)


def loop_ergas(a, b, r):
    terms = []
    for n in range(a.shape[0]):
        acc = 0.0
        for c in range(a.shape[1]):
            se = float(((a[n, c] - b[n, c]) ** 2).mean())
            mean = float(b[n, c].mean())
            acc += se / (mean * mean)
        terms.append(acc / a.shape[1])
    return 100.0 / r * math.sqrt(sum(terms) / len(terms))


def gather_resize(arr, out_h, out_w, clamp=True):
    """Bicubic resize of the trailing two axes as four whole-array float64
    gathers per axis, accumulated tap by tap."""

    def resize_axis(arr, out_len, axis):
        idx, w = _cubic_taps(arr.shape[axis], out_len)
        shape = [1] * arr.ndim
        shape[axis] = out_len
        out = np.zeros(arr.shape[:axis] + (out_len,) + arr.shape[axis + 1 :], dtype=np.float64)
        for k in range(4):
            out += w[:, k].reshape(shape) * np.take(arr, idx[:, k], axis=axis)
        return out

    a = np.asarray(arr)
    work = a.astype(np.float64, copy=False)
    work = resize_axis(work, out_h, axis=a.ndim - 2)
    work = resize_axis(work, out_w, axis=a.ndim - 1)
    if clamp:
        work = np.clip(work, 0.0, 1.0)
    return work.astype(a.dtype, copy=False)
