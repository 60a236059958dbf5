"""Differentiable primitives: convolutions, normalization, activations,
pixel shuffle and channel attention.

Tensors follow the (N, C, H, W) layout. Convolutions are stride-1
cross-correlations with "same" zero padding; dilation and channel groups are
supported, odd kernels only. Each conv kind has one implementation, chosen
from the call shapes:

- 1x1, dense or grouped: one batched matmul on the input itself, whose
  backward reshapes instead of scattering;
- depthwise (groups == in == out channels) with k > 1: the forward is an
  im2col matmul, run one chunk of channels at a time so that the buffer
  stays within a few MB and is dropped at once, and the backward is direct
  shift-and-accumulate over the taps that overlap the image, keeping only
  the input and the weights;
- every other conv (dense and grouped 3x3, depth multipliers): a matmul on
  an im2col buffer, which its backward keeps.

im2col copies each tap's overlap with the image and never builds a padded
copy; taps that lie wholly in the zero padding are skipped.

Every primitive carries an analytic backward, which the test suite checks
against central finite differences.

Reductions use numpy's deterministic summation order, so repeated runs on
the same machine are bit-identical. Every forward is batch-invariant: a
sample's output is the same bits whichever batch it sits in.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .autodiff import Var, as_var, record, release

_SQRT1_2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Largest im2col buffer one depthwise forward builds at once. It holds every
# depthwise conv of the probe config (4 x 16 x 49 x 16 x 16 float32 = 3.2 MB)
# in one piece. On a 2-core Xeon, budgets from 1 to 16 MB ran a 64x64 k7 call
# equally fast.
_DEPTHWISE_CHUNK_BYTES = 4 << 20
# Added to the channel variance in layer_norm.
_LN_EPS = 1e-6


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    if a.shape != b.shape:
        raise ValueError(f"add requires equal shapes, got {a.shape} vs {b.shape}")
    return record(a.value + b.value, (a, b), lambda g: (g, g))


def add_const(a: Var, c: np.ndarray) -> Var:
    """a + c, with c a constant that the caller gives up.

    The sum is written into c's buffer when c already has the sum's dtype
    and shape; otherwise a new array is allocated. a is never written.
    """
    a = as_var(a)
    av = a.value
    in_place = (
        isinstance(c, np.ndarray)
        and c.flags.writeable
        and c.shape == av.shape
        and c.dtype == np.result_type(av, c)
        and not np.may_share_memory(av, c)
    )
    return record(np.add(av, c, out=c if in_place else None), (a,), lambda g: (g,))


def mul(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    if a.shape != b.shape:
        raise ValueError(f"mul requires equal shapes, got {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    return record(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: Var, k: float) -> Var:
    a = as_var(a)
    return record(a.value * k, (a,), lambda g: (g * k,))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def _conv_geometry(x_shape, w_shape, dilation: int, groups: int):
    if len(x_shape) != 4 or len(w_shape) != 4:
        raise ValueError("conv2d expects x:(N,C,H,W) and weight:(Cout,Cin/g,k,k)")
    cin = x_shape[1]
    cout, cin_g, kh, kw = w_shape
    if kh != kw:
        raise ValueError(f"conv2d kernels must be square, got {kh}x{kw}")
    if kh % 2 == 0:
        raise ValueError(f"even kernel size {kh} is incompatible with 'same' padding")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if groups < 1 or cin % groups or cout % groups:
        raise ValueError(f"groups={groups} must divide in={cin} and out={cout} channels")
    if cin_g != cin // groups:
        raise ValueError(
            f"weight expects {cin_g} channels per group but input provides {cin // groups}"
        )
    return cin, cout, kh


def _overlap(offset: int, size: int):
    """(output slice, input slice) along one axis for a tap reading at
    ``offset`` from each output position, or None if it reads only padding."""
    if abs(offset) >= size:
        return None
    return slice(max(0, -offset), size - max(0, offset)), slice(max(0, offset), size + min(0, offset))


def _taps(k: int, dilation: int, h: int, w: int) -> list:
    """Kernel taps that overlap an (H, W) map under "same" zero padding.

    Each entry is ``(i, j, dst, src)``: tap (i, j) adds input window ``src``
    into output window ``dst`` (index tuples over the last two axes). Taps
    that lie wholly in the padding are left out.
    """
    pad = (k - 1) * dilation // 2
    rows = [_overlap(i * dilation - pad, h) for i in range(k)]
    cols = [_overlap(j * dilation - pad, w) for j in range(k)]
    return [
        (i, j, (Ellipsis, r[0], c[0]), (Ellipsis, r[1], c[1]))
        for i, r in enumerate(rows) if r is not None
        for j, c in enumerate(cols) if c is not None
    ]


def _im2col(x: np.ndarray, k: int, dilation: int, groups: int) -> np.ndarray:
    """Gather conv taps: (N, C, H, W) -> (N, g, (C/g)*k*k, H*W).

    Each tap copies only the window where it overlaps the image; the rest of
    the buffer is the zero padding.
    """
    n, cin, h, w = x.shape
    cols = np.zeros((n, cin, k, k, h, w), dtype=x.dtype)
    for i, j, dst, src in _taps(k, dilation, h, w):
        cols[:, :, i, j][dst] = x[src]
    return cols.reshape(n, groups, (cin // groups) * k * k, h * w)


def _col2im(cols: np.ndarray, x_shape, k: int, dilation: int) -> np.ndarray:
    """Scatter-add the transpose of :func:`_im2col`."""
    n, cin, h, w = x_shape
    cols6 = cols.reshape(n, cin, k, k, h, w)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i, j, dst, src in _taps(k, dilation, h, w):
        x[src] += cols6[:, :, i, j][dst]
    return x


def _matmul_conv(xv: np.ndarray, wv: np.ndarray, dilation: int, groups: int):
    """Dense and grouped convs as one batched matmul per group.

    A 1x1 conv multiplies the input itself, reshaped; larger kernels go
    through the im2col buffer, which the VJP keeps. Returns (out, vjp)
    where ``vjp(g)`` gives (gx, gw).
    """
    n, cin, h, w = xv.shape
    cout, _, k, _ = wv.shape
    if k == 1:
        cols = xv.reshape(n, groups, cin // groups, h * w)
    else:
        cols = _im2col(xv, k, dilation, groups)  # (n, g, cg*k*k, h*w)
    wmat = wv.reshape(groups, cout // groups, -1)
    out = np.matmul(wmat, cols).reshape(n, cout, h, w)
    x_shape = xv.shape  # beyond a 1x1's reshape of it, the VJP needs no input

    def vjp(g):
        go = g.reshape(n, groups, cout // groups, h * w)
        gw = np.matmul(go, cols.swapaxes(-1, -2)).sum(axis=0).reshape(wv.shape)
        gcols = np.matmul(wmat.swapaxes(-1, -2), go)
        if k == 1:
            return gcols.reshape(x_shape), gw
        return _col2im(gcols, x_shape, k, dilation), gw

    return out, vjp


def _depthwise_conv(xv: np.ndarray, wv: np.ndarray, dilation: int):
    """Depthwise conv, one k x k filter per channel.

    The forward is the im2col matmul of :func:`_matmul_conv`, run on one
    chunk of channels at a time so that no im2col buffer exceeds
    ``_DEPTHWISE_CHUNK_BYTES``; a call whose whole buffer fits is one chunk.
    Every (sample, channel) matmul keeps its shape, so the output does not
    depend on the chunking. It stays a matmul, not shift-and-accumulate,
    because training amplifies any change in its rounding: Adam's first
    step follows the sign of each gradient element. The VJP is direct
    shift-and-accumulate over the taps that overlap the image and keeps
    only the input and the weights. Returns (out, vjp) where ``vjp(g)``
    gives (gx, gw).
    """
    n, c, h, w = xv.shape
    k = wv.shape[-1]
    w2 = wv.reshape(c, k, k)
    step = max(1, _DEPTHWISE_CHUNK_BYTES // (n * k * k * h * w * xv.itemsize))
    out = np.empty(xv.shape, dtype=np.result_type(xv, wv))
    out_rows, wmat = out.reshape(n, c, 1, h * w), wv.reshape(c, 1, k * k)
    for c0 in range(0, c, step):
        xs = xv[:, c0 : c0 + step]
        cols = _im2col(xs, k, dilation, xs.shape[1])  # (n, chunk, k*k, h*w)
        np.matmul(wmat[c0 : c0 + step], cols, out=out_rows[:, c0 : c0 + step])
    taps = _taps(k, dilation, h, w)

    def vjp(g):
        gx = np.zeros(xv.shape, dtype=np.result_type(g, wv))
        gw = np.zeros(w2.shape, dtype=np.result_type(g, xv))
        for i, j, dst, src in taps:
            go = g[dst]
            gx[src] += w2[:, i, j, None, None] * go
            gw[:, i, j] = np.einsum("nchw,nchw->c", go, xv[src])
        return gx, gw.reshape(wv.shape)

    return out, vjp


def conv2d(x: Var, weight: Var, bias: Var | None = None, *, dilation: int = 1, groups: int = 1) -> Var:
    """Stride-1 "same" cross-correlation with dilation and channel groups.

    See the module docstring for which implementation each conv kind takes.
    """
    x, weight = as_var(x), as_var(weight)
    cin, cout, k = _conv_geometry(x.shape, weight.shape, dilation, groups)
    if bias is not None:
        bias = as_var(bias)
        if bias.shape != (cout,):
            raise ValueError(f"bias shape {bias.shape} != ({cout},)")

    if groups == cin == cout and k > 1:
        out, conv_vjp = _depthwise_conv(x.value, weight.value, dilation)
    else:
        out, conv_vjp = _matmul_conv(x.value, weight.value, dilation, groups)
    if bias is None:
        return record(out, (x, weight), conv_vjp)
    out += bias.value[:, None, None]  # the product has no other owner

    def vjp(g):
        gx, gw = conv_vjp(g)
        return gx, gw, g.sum(axis=(0, 2, 3))

    return record(out, (x, weight, bias), vjp)


# ---------------------------------------------------------------------------
# Normalization and activations
# ---------------------------------------------------------------------------


def layer_norm(x: Var, gamma: Var, beta: Var) -> Var:
    """Per-position normalization over the channel axis with learned affine."""
    x, gamma, beta = as_var(x), as_var(gamma), as_var(beta)
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"gamma/beta must have shape ({c},)")
    mu = x.value.mean(axis=1, keepdims=True)
    var = x.value.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x.value - mu) * inv
    out = gamma.value[:, None, None] * xhat + beta.value[:, None, None]

    gv = gamma.value

    def vjp(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gh = g * gv[:, None, None]
        m1 = gh.mean(axis=1, keepdims=True)
        m2 = (gh * xhat).mean(axis=1, keepdims=True)
        gx = inv * (gh - m1 - xhat * m2)
        return gx, ggamma, gbeta

    return record(out, (x, gamma, beta), vjp)


def gelu(x: Var) -> Var:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = as_var(x)
    xv = x.value
    phi = 0.5 * (1.0 + erf(xv * _SQRT1_2))
    out = xv * phi

    def vjp(g):
        # The derivative is built only when a graph runs backward, so
        # gradient-free forwards skip it.
        pdf = np.exp(-0.5 * xv * xv) * _INV_SQRT_2PI
        return (g * (phi + xv * pdf),)

    return record(out, (x,), vjp)


def relu(x: Var) -> Var:
    x = as_var(x)
    mask = x.value > 0
    return record(x.value * mask, (x,), lambda g: (g * mask,))


def sigmoid(x: Var) -> Var:
    x = as_var(x)
    xv = x.value
    # Two-sided form avoids overflow for large |x|.
    pos = xv >= 0
    z = np.exp(np.where(pos, -xv, xv))
    s = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))
    return record(s, (x,), lambda g: (g * s * (1.0 - s),))


# ---------------------------------------------------------------------------
# Pixel shuffle
# ---------------------------------------------------------------------------


def shuffle_array(arr: np.ndarray, r: int) -> np.ndarray:
    """(N, C*r*r, H, W) -> (N, C, H*r, W*r); out[n,c,y*r+i,x*r+j] = in[n,c*r*r+i*r+j,y,x]."""
    n, crr, h, w = arr.shape
    if r < 1 or crr % (r * r):
        raise ValueError(f"channel count {crr} not divisible by r^2 = {r * r}")
    c = crr // (r * r)
    return (
        arr.reshape(n, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h * r, w * r)
    )


def unshuffle_array(arr: np.ndarray, r: int) -> np.ndarray:
    """Exact inverse of :func:`shuffle_array`."""
    n, c, hr, wr = arr.shape
    if r < 1 or hr % r or wr % r:
        raise ValueError(f"spatial extents {hr}x{wr} not divisible by r = {r}")
    h, w = hr // r, wr // r
    return (
        arr.reshape(n, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h, w)
    )


def pixel_shuffle(x: Var, r: int) -> Var:
    x = as_var(x)
    out = shuffle_array(x.value, r)
    return record(out, (x,), lambda g: (unshuffle_array(g, r),))


# ---------------------------------------------------------------------------
# Pooling, linear, concat, gating
# ---------------------------------------------------------------------------


def global_avg_pool(x: Var) -> Var:
    """(N, C, H, W) -> (N, C) spatial mean."""
    x = as_var(x)
    n, c, h, w = x.shape
    out = x.value.mean(axis=(2, 3))

    def vjp(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).copy(),)

    return record(out, (x,), vjp)


def linear(x: Var, weight: Var, bias: Var) -> Var:
    """(N, F) x (G, F)^T + (G,) -> (N, G).

    Each row is its own product, so a sample's output does not depend on
    the batch it sits in: a plain (N, F) GEMM takes another BLAS path at
    N = 1 than at N > 1, and rounds differently.
    """
    x, weight, bias = as_var(x), as_var(weight), as_var(bias)
    if x.shape[1] != weight.shape[1] or bias.shape != (weight.shape[0],):
        raise ValueError(
            f"linear shape mismatch: x {x.shape}, weight {weight.shape}, bias {bias.shape}"
        )
    out = np.matmul(x.value[:, None, :], weight.value.T)[:, 0] + bias.value
    xv, wv = x.value, weight.value

    def vjp(g):
        return g @ wv, g.T @ xv, g.sum(axis=0)

    return record(out, (x, weight, bias), vjp)


def concat_channels(parts: list[Var]) -> Var:
    parts = [as_var(p) for p in parts]
    sizes = [p.shape[1] for p in parts]
    out = np.concatenate([p.value for p in parts], axis=1)
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, bounds[i] : bounds[i + 1]] for i in range(len(parts)))

    return record(out, tuple(parts), vjp)


def broadcast_gate(x: Var, gate: Var) -> Var:
    """Multiply (N, C, H, W) features by a per-channel (N, C) gate."""
    x, gate = as_var(x), as_var(gate)
    if gate.shape != x.shape[:2]:
        raise ValueError(f"gate shape {gate.shape} != {x.shape[:2]}")
    gv = gate.value[:, :, None, None]
    xv = x.value

    def vjp(g):
        return g * gv, (g * xv).sum(axis=(2, 3))

    return record(xv * gv, (x, gate), vjp)


def channel_attention(x: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """Squeeze-excitation gate: pool -> C/rho -> rectifier -> C -> sigmoid -> scale.

    Channel divisibility by the reduction is fixed by the weight shapes.
    """
    squeezed = global_avg_pool(x)
    z1 = linear(squeezed, w1, b1)
    hidden = relu(z1)
    z2 = linear(hidden, w2, b2)
    gate = sigmoid(z2)
    release(z1, z2)  # relu keeps its mask and sigmoid its output
    return broadcast_gate(x, gate)


def drop_path(x: Var, rate: float, rng: np.random.Generator | None, training: bool) -> Var:
    """Per-sample stochastic depth with inverse-probability rescaling."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"drop-path rate must lie in [0, 1], got {rate}")
    x = as_var(x)
    if not training or rate == 0.0:
        return x
    n = x.shape[0]
    if rate >= 1.0:
        keep = np.zeros(n, dtype=x.dtype)
    else:
        if rng is None:
            raise ValueError("drop_path in training mode requires an rng")
        keep = (rng.random(n) >= rate).astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
    m = keep[:, None, None, None]
    return record(x.value * m, (x,), lambda g: (g * m,))
