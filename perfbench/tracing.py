"""Run-time instrumentation of lkcanet, with no source edits.

:class:`StepClock` adds the two hooks every run needs: it timestamps the
start of each training forward and the end of each optimizer step, and keeps
the last evaluation output for the output checks.

:class:`Tracer` wraps the public functions of each module in spans for the
traced run. A span's self time is its duration minus the time of the spans
it encloses. Graph nodes created inside a tagged span (an op or a loss) get
their vector-Jacobian product wrapped in a ``<tag>.bwd`` span, so backward
time is split by the same keys as forward time. Convolutions are keyed by
kind, computed from the call shapes; every traced forward checks that the
per-kind FLOPs of its convolutions equal ``model.flops_breakdown``.

Both install their wrappers through a :class:`Patches`, which restores the
original attributes on exit.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from lkcanet import autodiff, cli, hsi, losses, metrics, model, ops

# The package exports the function ``train`` under the module's name.
train = importlib.import_module("lkcanet.train")

CONV_KINDS = ("dw_k5", "dw_k7", "dense3x3", "grouped3x3", "1x1", "grouped1x1")

# Ops the network calls through the ``ops`` module, by the key their time is
# reported under.
OP_KEYS = {
    "layer_norm": "ops.layer_norm",
    "gelu": "ops.gelu",
    "channel_attention": "ops.channel_attention",
    "pixel_shuffle": "ops.pixel_shuffle",
    "add": "ops.elementwise",
    "add_const": "ops.elementwise",
    "mul": "ops.elementwise",
    "concat_channels": "ops.elementwise",
    "drop_path": "ops.elementwise",
}

METRIC_KEYS = {
    "mpsnr": "metrics.mpsnr",
    "mssim": "metrics.mssim",
    "sam_degrees": "metrics.sam",
    "cc": "metrics.cc",
    "rmse": "metrics.rmse",
    "ergas": "metrics.ergas",
}


class Patches:
    """Replace attributes for the length of a ``with`` block."""

    def __init__(self):
        self._saved = []

    def set(self, obj, name: str, value) -> None:
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for obj, name, old in reversed(self._saved):
            setattr(obj, name, old)
        self._saved.clear()


def conv_kind(k: int, groups: int, cin: int) -> str:
    if groups > 1 and groups == cin:
        return f"dw_k{k}"
    if groups > 1:
        return f"grouped{k}x{k}"
    return "1x1" if k == 1 else f"dense{k}x{k}"


def analytic_by_kind(config, h: int, w: int) -> dict[str, int]:
    """``model.flops_breakdown`` conv entries for one LR input, summed by kind."""
    c = config.feature_channels
    k1, k2 = config.kernel_sizes
    kinds = {
        "head": conv_kind(3, 1, config.bands),
        "proj_in": "1x1",
        "proj_out": "1x1",
        "dw1": conv_kind(k1, c, c),
        "dw2": conv_kind(k2, c, c),
        "fuse": conv_kind(1, config.lkca_groups, 3 * c),
        "upsampler": conv_kind(3, config.upsampler_groups, c),
    }
    out: dict[str, int] = defaultdict(int)
    for layer, flops in model.flops_breakdown(config, h, w).items():
        kind = kinds.get(layer.rsplit(".", 1)[-1])
        if kind is not None:  # "ca" is the attention's linear layers
            out[kind] += flops
    return out


def _lr_shape(x) -> tuple:
    return np.shape(x.value if isinstance(x, autodiff.Var) else x)


class StepClock:
    """Per-step wall times taken from outside the training engine.

    A step runs from the start of a training forward to the return of the
    optimizer step that follows it.
    """

    def __init__(self):
        self.steps: list[float] = []
        self.started = 0  # training forwards begun
        self.lr_pixels = 0  # LR pixels of completed steps
        self.last_output: np.ndarray | None = None
        self._t0 = 0.0
        self._pixels = 0

    def install(self, patches: Patches) -> None:
        forward, adam_step = model.LkcaNet.forward, train.adam_step

        def timed_forward(net, x, training=False, rng=None):
            if training:
                self._t0 = time.perf_counter()
                self.started += 1
                n, _, h, w = _lr_shape(x)
                self._pixels = n * h * w
            out = forward(net, x, training=training, rng=rng)
            if not training:
                self.last_output = out[0].value
            return out

        def timed_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            self.steps.append(time.perf_counter() - self._t0)
            self.lr_pixels += self._pixels

        patches.set(model.LkcaNet, "forward", timed_forward)
        patches.set(train, "adam_step", timed_adam_step)


class Tracer:
    """Spans, counts and computed bytes per layer, for the traced run."""

    def __init__(self):
        self.teacher = None  # the distillation teacher, once set-up has loaded it
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.conv_flops: dict[str, int] = defaultdict(int)  # analytic, per kind
        self.im2col_bytes: dict[str, int] = defaultdict(int)  # computed from shapes
        self.graph_nodes = 0
        self.recorded_bytes = 0
        self.forwards_reconciled = 0
        self.mismatches: list[str] = []
        self.copy_ratios: list[float] = []
        # (held bytes, recorded output bytes) at the first traced training
        # step; later steps start while the engine still holds the previous
        # step's graph, so only the first one measures the tape alone.
        self.tape: tuple[int, int] | None = None
        self._stack: list[list] = []  # open spans: [name, child time]
        self._tag: str | None = None
        self._forward_flops: list[dict] = []
        self._tape_start: tuple[int, int] | None = None

    def reset_counts(self) -> None:
        """Drop everything accumulated so far (e.g. set-up before the work phase)."""
        for table in (self.total, self.self_time, self.calls, self.conv_flops, self.im2col_bytes):
            table.clear()
        self.graph_nodes = self.recorded_bytes = 0

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur

    def _tagged(self, name: str, fn, *args, **kwargs):
        prev, self._tag = self._tag, name
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            self._tag = prev

    def _wrap(self, name: str, fn, tagged: bool = False):
        run = self._tagged if tagged else self.span

        def wrapper(*args, **kwargs):
            return run(name, fn, *args, **kwargs)

        return wrapper

    # -- wrappers with more than a span ----------------------------------------

    def _record(self, record):
        def traced_record(value, parents, vjp):
            out = record(value, parents, vjp)
            if out._vjp is not None:  # gradients on: the node joins the tape
                self.graph_nodes += 1
                self.recorded_bytes += out.value.nbytes
                if self._tag is not None:
                    name = self._tag + ".bwd"
                    out._vjp = lambda g: self.span(name, vjp, g)
            return out

        return traced_record

    def _conv2d(self, conv2d):
        def traced_conv2d(x, weight, bias=None, *, dilation=1, groups=1):
            n, cin, h, w = x.shape
            cout, cin_g, kh, kw = weight.shape
            kind = conv_kind(kw, groups, cin)
            if self._forward_flops:
                self._forward_flops[-1][kind] += 2 * cout * cin_g * kh * kw * n * h * w
            self.im2col_bytes[kind] += n * cin * kh * kw * h * w * x.dtype.itemsize
            return self._tagged(
                "ops.conv2d." + kind, conv2d, x, weight, bias, dilation=dilation, groups=groups
            )

        return traced_conv2d

    def _forward(self, forward):
        def traced_forward(net, x, training=False, rng=None):
            n, _, h, w = _lr_shape(x)
            if training and self.tape is None and tracemalloc.is_tracing():
                self._tape_start = (tracemalloc.get_traced_memory()[0], self.recorded_bytes)
            traced = defaultdict(int)
            self._forward_flops.append(traced)
            try:
                if net is self.teacher:
                    out = self.span("train.teacher_forward", self.span, "model.forward",
                                    forward, net, x, training=training, rng=rng)
                else:
                    out = self.span("model.forward", forward, net, x, training=training, rng=rng)
            finally:
                self._forward_flops.pop()
            expected = analytic_by_kind(net.config, h, w)
            for kind in sorted(set(expected) | set(traced)):
                if traced[kind] != n * expected[kind]:
                    self.mismatches.append(
                        f"{kind} at {n}x{h}x{w}: traced {traced[kind]} != analytic {n * expected[kind]}"
                    )
                self.conv_flops[kind] += n * expected[kind]
            self.forwards_reconciled += 1
            return out

        return traced_forward

    def _backward(self, backward):
        def traced_backward(root):
            if self._tape_start is not None:
                held = tracemalloc.get_traced_memory()[0] - self._tape_start[0]
                self.tape = (held, self.recorded_bytes - self._tape_start[1])
                self._tape_start = None
            return self.span("autodiff.backward", backward, root)

        return traced_backward

    def _read_cube(self, read_cube):
        def traced_read_cube(path):
            tracing = tracemalloc.is_tracing()
            if tracing:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            cube = self.span("hsi.read_cube", read_cube, path)
            if tracing:
                self.copy_ratios.append((tracemalloc.get_traced_memory()[1] - base) / cube.data.nbytes)
            return cube

        return traced_read_cube

    def install(self, patches: Patches) -> None:
        for mod in (ops, losses):
            patches.set(mod, "record", self._record(mod.record))
        patches.set(ops, "conv2d", self._conv2d(ops.conv2d))
        for fn_name, key in OP_KEYS.items():
            patches.set(ops, fn_name, self._wrap(key, getattr(ops, fn_name), tagged=True))
        patches.set(model.LkcaNet, "forward", self._forward(model.LkcaNet.forward))
        patches.set(train, "backward", self._backward(train.backward))
        patches.set(train, "adam_step", self._wrap("train.adam_step", train.adam_step))
        patches.set(train, "h_loss", self._wrap("losses.h_loss", train.h_loss, tagged=True))
        patches.set(train, "kd_loss", self._wrap("losses.kd_loss", train.kd_loss, tagged=True))
        patches.set(train, "degrade", self._wrap("hsi.degrade", train.degrade))
        patches.set(train, "mpsnr", self._wrap("metrics.mpsnr", train.mpsnr))
        for fn_name, key in METRIC_KEYS.items():
            patches.set(metrics, fn_name, self._wrap(key, getattr(metrics, fn_name)))
        for mod in (model, hsi):  # the skip path and every other resize
            patches.set(mod, "resize_bands", self._wrap("hsi.resize_bands", mod.resize_bands))
        patches.set(cli, "read_cube", self._read_cube(cli.read_cube))
