"""Test oracles and harness code that the library itself never runs.

- Scalar-loop references of the losses and metrics: explicit Python loops
  and math-module scalar arithmetic, avoiding the library's vectorized code
  paths.
- ``gather_resize``: the whole-array gather form of the bicubic resize that
  the library's matrix form must reproduce.
- ``grad_check``: the central finite-difference checker every primitive's
  analytic backward is validated against, with ``project_scalar``, its
  reduction of a tensor output to a scalar objective.
- ``block_diagonal_part`` and ``grouped_to_full``: the block-diagonal
  structure a grouped upsampler must have, written as plain slice loops
  rather than through ``lowrank``'s own group slicing.
- ``build_split``: planning and cutting a split in one call, as
  ``lkcanet prepare`` followed by a training load does.
- ``composed_forward``: the network's training forward written out in
  primitives, releasing no value; ``sign_loss_grads``: the L1 and gradient
  loss VJPs with float sign arrays.
- ``graph_nodes``, ``buffer_of`` and ``vjp_buffers``: what a recorded graph
  holds, and which buffers its VJP closures keep.
- ``UncachedTeacher``: a distillation teacher whose every step runs the
  whole ``teacher.forward`` of its batch, the reference a distillation on
  cached last-block features must equal.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from lkcanet import ops
from lkcanet.autodiff import Var, as_var, backward, no_grad, record
from lkcanet.hsi import _cubic_taps, cut_split, plan_split, resize_bands

# The finite-difference checker's step, the seed of its fixed projection of
# a tensor output to a scalar, and the number of failing elements a report
# lists.
_FD_STEP = 1e-5
_PROJECTION_SEED = 0
_MAX_REPORT = 8


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


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def project_scalar(a, weights):
    """Weighted sum reducing a tensor to a scalar: sum(a * weights)."""
    a = as_var(a)
    w = np.asarray(weights)
    return record(np.asarray((a.value * w).sum()), (a,), lambda g: (g * w,))


@dataclass
class GradCheckFailure:
    input_name: str
    flat_index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    op_name: str
    passed: bool
    max_rel_error: float
    tolerance: float
    failures: list = field(default_factory=list)

    def summary(self):
        status = "pass" if self.passed else "FAIL"
        lines = [
            f"grad_check[{self.op_name}]: {status} "
            f"(max rel err {self.max_rel_error:.3e}, tol {self.tolerance:.1e})"
        ]
        for f in self.failures:
            lines.append(
                f"  {self.op_name}/{f.input_name}[{f.flat_index}]: "
                f"analytic={f.analytic:.6e} numeric={f.numeric:.6e} rel={f.rel_error:.3e}"
            )
        return "\n".join(lines)


def grad_check(fn, inputs, *, tolerance=1e-6, op_name="op", names=None):
    """Compare ``fn``'s analytic gradients to central finite differences.

    ``fn`` maps one Var per input array to a Var; non-scalar outputs are
    reduced with a fixed random projection so a single scalar objective is
    differentiated. Inputs are widened to float64. The relative error per
    element is ``|analytic - numeric| / max(1, |numeric|)``.
    """
    arrays = [np.array(a, dtype=np.float64) for a in inputs]
    names = names or [f"arg{i}" for i in range(len(arrays))]
    proj = {}

    def objective(arrs, want_vars=False):
        vs = [Var(a) for a in arrs]
        out = fn(*vs)
        if out.value.size != 1:
            key = out.value.shape
            if key not in proj:
                proj[key] = np.random.default_rng(_PROJECTION_SEED).standard_normal(key)
            out = project_scalar(out, proj[key])
        return (vs, out) if want_vars else float(out.value)

    vs, out = objective(arrays, want_vars=True)
    backward(out)
    analytic = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in vs]

    max_rel = 0.0
    failures = []
    with no_grad():
        for a_idx, base in enumerate(arrays):
            flat = base.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + _FD_STEP
                f_plus = objective(arrays)
                flat[j] = orig - _FD_STEP
                f_minus = objective(arrays)
                flat[j] = orig
                numeric = (f_plus - f_minus) / (2.0 * _FD_STEP)
                ana = float(analytic[a_idx].reshape(-1)[j])
                rel = abs(ana - numeric) / max(1.0, abs(numeric))
                if rel > max_rel:
                    max_rel = rel
                if rel > tolerance and len(failures) < _MAX_REPORT:
                    failures.append(GradCheckFailure(names[a_idx], j, ana, numeric, rel))

    return GradCheckReport(
        op_name=op_name,
        passed=max_rel <= tolerance,
        max_rel_error=max_rel,
        tolerance=tolerance,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Block-diagonal structure of a grouped upsampler
# ---------------------------------------------------------------------------


def block_diagonal_part(matrix, groups):
    """Zero everything outside the g diagonal blocks of a reshaped weight matrix."""
    m = np.asarray(matrix)
    rows, cols = m.shape
    if rows % groups or cols % groups:
        raise ValueError(f"matrix {m.shape} not partitionable into {groups} blocks")
    out = np.zeros_like(m)
    rb, cb = rows // groups, cols // groups
    for b in range(groups):
        out[b * rb : (b + 1) * rb, b * cb : (b + 1) * cb] = m[
            b * rb : (b + 1) * rb, b * cb : (b + 1) * cb
        ]
    return out


def grouped_to_full(grouped_weights, groups):
    """Embed (C_out, C_in / g, k, k) grouped weights into the equivalent full
    (C_out, C_in, k, k) tensor, zero outside the g diagonal blocks."""
    gw = np.asarray(grouped_weights)
    c_out, cin_g, k, _ = gw.shape
    rows = c_out // groups
    full = np.zeros((c_out, cin_g * groups, k, k), dtype=gw.dtype)
    for b in range(groups):
        full[b * rows : (b + 1) * rows, b * cin_g : (b + 1) * cin_g] = gw[b * rows : (b + 1) * rows]
    return full


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def build_split(cube, protocol, spec, seed=0):
    """Plan a split and cut its train/val patches at once; test regions are
    kept whole (see ``lkcanet.hsi.plan_split``)."""
    return cut_split(*plan_split(cube, protocol, spec, seed))


# ---------------------------------------------------------------------------
# The training graph
# ---------------------------------------------------------------------------


def composed_forward(net, x, rng):
    """``net.forward(x, training=True, rng=rng)`` written out in primitives,
    with every interior value left in place. Returns (i_sr, f_up)."""
    cfg, p = net.config, net.params
    d1, d2 = cfg.dilations
    c = cfg.feature_channels
    f = ops.conv2d(Var(x), p["head.weight"], p["head.bias"])
    for i in range(cfg.num_blocks):
        def q(name):
            return p[f"blocks.{i}.{name}"]

        t = ops.layer_norm(f, q("norm.gamma"), q("norm.beta"))
        t = ops.gelu(ops.conv2d(t, q("proj_in.weight"), q("proj_in.bias")))
        a1 = ops.conv2d(t, q("dw1.weight"), q("dw1.bias"), dilation=d1, groups=c)
        a2 = ops.conv2d(a1, q("dw2.weight"), q("dw2.bias"), dilation=d2, groups=c)
        a_c = ops.concat_channels([t, a1, a2])
        hidden = ops.relu(ops.linear(ops.global_avg_pool(a_c), q("ca.fc1.weight"), q("ca.fc1.bias")))
        gate = ops.sigmoid(ops.linear(hidden, q("ca.fc2.weight"), q("ca.fc2.bias")))
        a_f = ops.conv2d(ops.broadcast_gate(a_c, gate), q("fuse.weight"), q("fuse.bias"),
                         groups=cfg.lkca_groups)
        t = ops.conv2d(ops.mul(a_f, t), q("proj_out.weight"), q("proj_out.bias"))
        f = ops.add(f, ops.drop_path(t, cfg.drop_path_rate, rng, True))
    f = ops.conv2d(f, p["upsampler.weight"], None, groups=cfg.upsampler_groups)
    f_up = ops.pixel_shuffle(f, cfg.scale_factor)
    r = cfg.scale_factor
    return ops.add_const(f_up, resize_bands(x, x.shape[2] * r, x.shape[3] * r)), f_up


def sign_loss_grads(a, t):
    """Gradients of ``l1_loss(a, t)`` and ``grad_loss(a, t)`` for a unit
    upstream gradient, built with float ``np.sign`` arrays."""
    g = np.ones((), dtype=a.dtype)
    diff = a - t
    g_l1 = g * np.sign(diff) / diff.size
    ry = (a[:, :, 1:, :] - a[:, :, :-1, :]) - (t[:, :, 1:, :] - t[:, :, :-1, :])
    rx = (a[:, :, :, 1:] - a[:, :, :, :-1]) - (t[:, :, :, 1:] - t[:, :, :, :-1])
    n = ry.size + rx.size
    gy = g * np.sign(ry) / n
    gx = g * np.sign(rx) / n
    g_grad = np.zeros_like(a)
    g_grad[:, :, 1:, :] += gy
    g_grad[:, :, :-1, :] -= gy
    g_grad[:, :, :, 1:] += gx
    g_grad[:, :, :, :-1] -= gx
    return g_l1, g_grad


def graph_nodes(root):
    """Every node reachable from ``root`` through recorded parents."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def buffer_of(a):
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def vjp_buffers(nodes):
    """{id: nbytes} of the buffers behind every array that a node's VJP
    captured, searched through nested closures, tuples and lists."""
    buffers, seen = {}, set()
    stack = [node._vjp for node in nodes if node._vjp is not None]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = buffer_of(obj)
            buffers[id(owner)] = owner.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet bound
                    continue
    return buffers


# ---------------------------------------------------------------------------
# Distillation
# ---------------------------------------------------------------------------


class UncachedTeacher:
    """Stands in for ``teacher`` in ``train.distill``. Its "features" are the
    LR patches themselves, so the engine caches the patches, and each step's
    ``upsample`` of its batch's rows is ``teacher.forward`` of that batch."""

    def __init__(self, teacher):
        self.teacher = teacher
        self.config = teacher.config

    def features(self, x, training=False, rng=None):
        return Var(np.asarray(x))

    def upsample(self, f, x=None):
        return self.teacher.forward(f)
