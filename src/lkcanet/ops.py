"""Differentiable primitives: convolutions, normalization, activations,
pixel shuffle and channel attention.

Tensors follow the (N, C, H, W) layout. Convolutions are stride-1
cross-correlations with "same" zero padding; dilation and channel groups are
supported, odd kernels only. Every conv's forward is one matmul per
(sample, group) in :func:`_matmul_conv`: a 1x1 conv on the input itself,
reshaped, and a larger kernel on im2col buffers. A depthwise conv (groups ==
in == out channels) with k > 1 swaps in a direct shift-and-accumulate VJP.

One chunk rule holds for every conv. A 1x1 conv is one chunk, the whole
batch, with no buffer. A conv with k > 1 runs one sample at a time, in runs
of as many whole groups as fit ``_IM2COL_CHUNK_BYTES`` and at least one, in
its forward, weight gradient and input gradient alike; its VJP keeps only
the input and the weights. Every (sample, group) product is its own GEMM
whatever the chunk, so no result depends on the chunking, under any BLAS
kernel. im2col copies each tap's overlap with the image, with no padded
copy; taps that lie wholly in the zero padding are skipped.

A conv whose input carries a ``rebuild`` function keeps the function
instead of the input and calls it once in its VJP. While a graph is
recorded, ``layer_norm``, ``broadcast_gate`` and ``mul`` attach one that
repeats the forward's own expression on arrays their VJPs keep, so the
rebuilt input has the forward's bits. ``gelu`` keeps its derivative alone,
and ``concat_channels`` records parts that are the consecutive channel
slices of one array as that array, with no copy.

Every primitive carries an analytic backward, which the test suite checks
against central finite differences.

Reductions use numpy's deterministic summation order, so repeated runs on
the same machine are bit-identical. Every forward is batch-invariant: a
sample's output is the same bits whichever batch it sits in.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import erf

from .autodiff import Var, as_var, grad_enabled, record

_SQRT1_2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Largest im2col buffer a conv builds at once, unless one group's buffer of
# one sample is larger. It holds every depthwise conv of the probe config
# (16 x 49 x 16 x 16 float32 = 0.8 MB per sample) in one piece. On a 2-core
# Xeon, budgets from 1 to 16 MB ran a 64x64 k7 depthwise call equally fast.
_IM2COL_CHUNK_BYTES = 4 << 20
# Added to the channel variance in layer_norm.
_LN_EPS = 1e-6


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def _rebuildable(out: Var, rebuild) -> Var:
    """``out`` carrying ``rebuild`` while a graph is recorded; a graph-free
    value keeps no function, so nothing outlives it."""
    if grad_enabled():
        out.rebuild = rebuild
    return out


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

    def product():
        return av * bv

    return _rebuildable(record(product(), (a, b), lambda g: (g * bv, g * av)), product)


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


@functools.lru_cache(maxsize=64)
def _taps(k: int, dilation: int, h: int, w: int) -> tuple:
    """Kernel taps that overlap an (H, W) map under "same" zero padding.

    Each entry is ``(i, j, dst, src)``: tap (i, j) adds input window ``src``
    into output window ``dst`` (index tuples over the last two axes). Taps
    that lie wholly in the padding are left out.
    """
    pad = (k - 1) * dilation // 2
    rows = [_overlap(i * dilation - pad, h) for i in range(k)]
    cols = [_overlap(j * dilation - pad, w) for j in range(k)]
    return tuple(
        (i, j, (Ellipsis, r[0], c[0]), (Ellipsis, r[1], c[1]))
        for i, r in enumerate(rows) if r is not None
        for j, c in enumerate(cols) if c is not None
    )


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


def _matmul_conv(xv: np.ndarray, wv: np.ndarray, dilation: int, groups: int, need_gx: bool = True,
                 rebuild=None):
    """Every conv's forward: one matmul per (sample, group), run in chunks.

    A 1x1 conv multiplies the whole batch's input itself, reshaped, as one
    chunk. A larger kernel multiplies im2col buffers built one sample's run
    of whole groups at a time (see the module docstring), and its VJP keeps
    the input and rebuilds them. Given ``rebuild``, the input's rebuild
    function, the VJP keeps that instead of the input and calls it once.
    Returns (out, vjp) where ``vjp(g)`` gives (gx, gw), with gx None unless
    ``need_gx``.
    """
    n, cin, h, w = xv.shape
    cout, cin_g, k, _ = wv.shape
    wmat = wv.reshape(groups, cout // groups, -1)
    if k == 1:
        chunks = [(slice(0, n), slice(0, groups))]
    else:
        # Groups per chunk: as many as fit the budget, and at least one.
        run = max(1, _IM2COL_CHUNK_BYTES // (cin_g * k * k * h * w * xv.itemsize))
        chunks = [(slice(s, s + 1), slice(g0, min(g0 + run, groups)))
                  for s in range(n) for g0 in range(0, groups, run)]

    def columns(x, ss, gs):
        xs = x[ss, gs.start * cin_g : gs.stop * cin_g]
        if k == 1:
            return xs.reshape(len(xs), gs.stop - gs.start, cin_g, h * w)
        return _im2col(xs, k, dilation, gs.stop - gs.start)

    out = np.empty((n, cout, h, w), np.result_type(xv, wv))
    out_cols = out.reshape(n, groups, cout // groups, h * w)
    for ss, gs in chunks:
        np.matmul(wmat[gs], columns(xv, ss, gs), out=out_cols[ss, gs])
    load = rebuild if rebuild is not None else lambda: xv

    def vjp(g):
        go = g.reshape(n, groups, cout // groups, h * w)
        x = load()
        # The samples' products are added from zero one at a time: the
        # stacked product's .sum(axis=0), without the stack.
        gw = np.zeros(wmat.shape, np.result_type(go, x))
        for ss, gs in chunks:
            for s, cols in enumerate(columns(x, ss, gs), ss.start):
                gw[gs] += go[s, gs] @ cols.swapaxes(-1, -2)
            del cols  # the chunk dies before the next is built
        del x  # a rebuilt input dies before gx is built
        gw = gw.reshape(wv.shape)
        if not need_gx:
            return None, gw
        wt = wmat.swapaxes(-1, -2)

        def input_grad(ss, gs):
            gcols = np.matmul(wt[gs], go[ss, gs])
            shape = (len(gcols), (gs.stop - gs.start) * cin_g, h, w)
            return gcols.reshape(shape) if k == 1 else _col2im(gcols, shape, k, dilation)

        if len(chunks) == 1:
            return input_grad(*chunks[0]), gw
        gx = np.empty((n, cin, h, w), np.result_type(wt, go))
        for ss, gs in chunks:
            # Each chunk's column gradient is scattered before the next is built.
            gx[ss, gs.start * cin_g : gs.stop * cin_g] = input_grad(ss, gs)
        return gx, gw

    return out, vjp


def _depthwise_vjp(xv: np.ndarray, wv: np.ndarray, dilation: int, need_gx: bool, rebuild=None):
    """VJP of a depthwise conv, one k x k filter per channel, by direct
    shift-and-accumulate over the taps that overlap the image.

    It keeps only the input, or ``rebuild`` in its place as
    :func:`_matmul_conv` does, and the weights, and accumulates gx
    channels-last through one reused product buffer. The forward stays the
    im2col matmul of :func:`_matmul_conv`, because training amplifies any
    change in its rounding: Adam's first step follows the sign of each
    gradient element. ``vjp(g)`` gives (gx, gw), with gx None unless
    ``need_gx``.
    """
    n, c, h, w = xv.shape
    k = wv.shape[-1]
    w2 = wv.reshape(c, k, k)
    taps = _taps(k, dilation, h, w)
    load = rebuild if rebuild is not None else lambda: xv

    def vjp(g):
        x = load()
        gw = np.zeros(w2.shape, dtype=np.result_type(g, x))
        for i, j, dst, src in taps:
            gw[:, i, j] = np.einsum("nchw,nchw->c", g[dst], x[src])
        del x
        if not need_gx:
            return None, gw.reshape(wv.shape)
        g_last = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
        gx = np.zeros(g_last.shape, dtype=np.result_type(g, wv))
        product = np.empty(gx.size, gx.dtype)
        for i, j, dst, src in taps:
            go = g_last[(slice(None), *dst[1:])]
            tap = np.multiply(go, w2[:, i, j], out=product[: go.size].reshape(go.shape))
            gx[(slice(None), *src[1:])] += tap
        del g_last, product
        return np.ascontiguousarray(gx.transpose(0, 3, 1, 2)), gw.reshape(wv.shape)

    return vjp


def conv2d(x: Var, weight: Var, bias: Var | None = None, *, dilation: int = 1, groups: int = 1) -> Var:
    """Stride-1 "same" cross-correlation with dilation and channel groups.

    See the module docstring for how each conv kind runs.
    """
    need_gx = isinstance(x, Var)  # a plain array is data, with no gradient
    x, weight = as_var(x), as_var(weight)
    cin, cout, k = _conv_geometry(x.shape, weight.shape, dilation, groups)
    if bias is not None:
        bias = as_var(bias)
        if bias.shape != (cout,):
            raise ValueError(f"bias shape {bias.shape} != ({cout},)")

    out, conv_vjp = _matmul_conv(x.value, weight.value, dilation, groups, need_gx, x.rebuild)
    if groups == cin == cout and k > 1:
        conv_vjp = _depthwise_vjp(x.value, weight.value, dilation, need_gx, x.rebuild)
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
    gv, bv = gamma.value[:, None, None], beta.value[:, None, None]

    def affine():
        return gv * xhat + bv

    def vjp(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gh = g * gv
        m1 = gh.mean(axis=1, keepdims=True)
        m2 = (gh * xhat).mean(axis=1, keepdims=True)
        gx = inv * (gh - m1 - xhat * m2)
        return gx, ggamma, gbeta

    return _rebuildable(record(affine(), (x, gamma, beta), vjp), affine)


def gelu(x: Var) -> Var:
    """Exact Gaussian-CDF GELU: x * Phi(x).

    While a graph is recorded, the forward builds the derivative
    Phi(x) + x * pdf(x) in place, and the VJP keeps it alone, neither x nor
    Phi; a gradient-free forward skips it.
    """
    x = as_var(x)
    xv = x.value
    phi = 0.5 * (1.0 + erf(xv * _SQRT1_2))
    out = xv * phi
    if not grad_enabled():
        return record(out, (x,), None)
    # phi + x * (exp(-0.5 * x * x) * 1/sqrt(2 pi)), one operation at a time
    # in one buffer: each step rounds as the expression's own does.
    deriv = -0.5 * xv
    deriv *= xv
    np.exp(deriv, out=deriv)
    deriv *= _INV_SQRT_2PI
    deriv *= xv
    deriv += phi
    return record(out, (x,), lambda g: (g * deriv,))


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


def _channel_run(values: list, bounds) -> np.ndarray | None:
    """The array that owns ``values``, when they are its channel slices
    between ``bounds`` (the same memory, shape and strides), or None."""
    base = values[0].base
    if not (isinstance(base, np.ndarray) and base.ndim == 4 and base.shape[1] == bounds[-1]):
        return None
    for v, lo, hi in zip(values, bounds[:-1], bounds[1:]):
        if v.__array_interface__ != base[:, lo:hi].__array_interface__:
            return None
    return base


def concat_channels(parts: list[Var]) -> Var:
    """Join along channels. Parts that are the consecutive channel slices of
    one array, in order, are recorded as that array, with no copy."""
    parts = [as_var(p) for p in parts]
    values = [p.value for p in parts]
    bounds = np.cumsum([0] + [v.shape[1] for v in values])
    out = _channel_run(values, bounds)
    if out is None:
        out = np.concatenate(values, axis=1)

    def vjp(g):
        return tuple(g[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    return record(out, tuple(parts), vjp)


def broadcast_gate(x: Var, gate: Var) -> Var:
    """Multiply (N, C, H, W) features by a per-channel (N, C) gate."""
    x, gate = as_var(x), as_var(gate)
    if gate.shape != x.shape[:2]:
        raise ValueError(f"gate shape {gate.shape} != {x.shape[:2]}")
    gv = gate.value[:, :, None, None]
    xv = x.value

    def gated():
        return xv * gv

    def vjp(g):
        return g * gv, (g * xv).sum(axis=(2, 3))

    return _rebuildable(record(gated(), (x, gate), vjp), gated)


def channel_attention(x: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """Squeeze-excitation gate: pool -> C/rho -> rectifier -> C -> sigmoid -> scale.

    Channel divisibility by the reduction is fixed by the weight shapes.
    """
    # The pre-activations die at once: relu keeps its mask, sigmoid its output.
    hidden = relu(linear(global_avg_pool(x), w1, b1))
    gate = sigmoid(linear(hidden, w2, b2))
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
