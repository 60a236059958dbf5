"""The super-resolution network: stacked large-kernel channel-attention
blocks, a learnable sub-pixel upsampling head, and a bicubic skip path.

Also owns exact parameter accounting, FLOPs estimation, and the binary
checkpoint container (magic ``LKCACKPT``).

Run one forward at a time per process, whether it records a graph or not:
``autodiff.no_grad`` switches recording off for the whole process, so a
graph-free ``predict`` in one thread would stop the graph of a training
forward in another, and interleaved exits can leave recording off.
Training mutates parameters single-writer.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import ops
from .autodiff import Var, as_var, no_grad, release
from .hsi import resize_bands

CHECKPOINT_MAGIC = b"LKCACKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint files."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyperparameters.

    Defaults follow the reference configuration: 128 feature channels, 16
    blocks, cascaded depthwise convolutions with dilations 5 and 7, grouped
    1x1 fusion, and a single-stage conv + pixel-shuffle upsampling head.
    """

    bands: int
    scale_factor: int
    feature_channels: int = 128
    num_blocks: int = 16
    kernel_sizes: tuple[int, int] = (5, 7)
    dilations: tuple[int, int] = (5, 7)
    lkca_groups: int = 4
    ca_reduction: int = 16
    upsampler_groups: int = 1
    drop_path_rate: float = 0.1

    def __post_init__(self):
        c = self.feature_channels
        if self.bands < 1 or c < 1 or self.num_blocks < 0:
            raise ValueError("bands/channels must be >= 1 and num_blocks >= 0")
        if self.scale_factor < 1:
            raise ValueError(f"scale factor must be >= 1, got {self.scale_factor}")
        if self.lkca_groups < 1 or c % self.lkca_groups:
            raise ValueError(f"lkca_groups={self.lkca_groups} must be >= 1 and divide C={c} and 3C={3 * c}")
        if self.ca_reduction < 1 or (3 * c) % self.ca_reduction:
            raise ValueError(
                f"ca_reduction={self.ca_reduction} must be >= 1 and divide the attention width 3C={3 * c}"
            )
        g, out = self.upsampler_groups, self.upsampler_out
        if g < 1 or c % g or out % g:
            raise ValueError(f"upsampler_groups={g} must be >= 1 and divide C={c} and bands*r^2={out}")
        if not (0.0 <= self.drop_path_rate <= 1.0):
            raise ValueError(f"drop_path_rate must lie in [0, 1], got {self.drop_path_rate}")

    @property
    def upsampler_out(self) -> int:
        # Pixel shuffle demands bands * r^2 channels into the rearrangement.
        return self.bands * self.scale_factor**2

    @property
    def upsampler_kind(self) -> str:
        return "full" if self.upsampler_groups == 1 else f"grouped({self.upsampler_groups})"

    def with_upsampler_groups(self, groups: int) -> "NetConfig":
        return replace(self, upsampler_groups=groups)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kernel_sizes"] = list(self.kernel_sizes)
        d["dilations"] = list(self.dilations)
        return d

    @staticmethod
    def from_dict(d: dict) -> "NetConfig":
        """Inverse of :meth:`to_dict`; every field must be present.

        Older headers store ``block_out_projection: true``; every block now
        has its output projection, so ``true`` is dropped and ``false``
        rejected.
        """
        d = dict(d)
        if d.pop("block_out_projection", True) is not True:
            raise ValueError("block_out_projection=false is not supported: every block has an output projection")
        names = {f.name for f in fields(NetConfig)}
        unknown, missing = sorted(d.keys() - names), sorted(names - d.keys())
        if unknown or missing:
            raise ValueError(f"bad network config: unknown keys {unknown}, missing keys {missing}")
        d["kernel_sizes"] = tuple(d["kernel_sizes"])
        d["dilations"] = tuple(d["dilations"])
        return NetConfig(**d)


# ---------------------------------------------------------------------------
# The layer table: the one description of the network's layout
# ---------------------------------------------------------------------------


def layer_shapes(config: NetConfig) -> dict[str, dict[str, tuple[int, ...]]]:
    """Every layer's parameter shapes, in construction and checkpoint order.

    The model builds its parameters from this table, and the parameter and
    FLOP counts are sums over it, so the three cannot disagree.
    """
    b, c = config.bands, config.feature_channels
    k1, k2 = config.kernel_sizes
    hidden = 3 * c // config.ca_reduction
    table: dict[str, dict[str, tuple[int, ...]]] = {"head": {"weight": (c, b, 3, 3), "bias": (c,)}}
    for i in range(config.num_blocks):
        p = f"blocks.{i}."
        table[p + "norm"] = {"gamma": (c,), "beta": (c,)}
        table[p + "proj_in"] = {"weight": (c, c, 1, 1), "bias": (c,)}
        table[p + "dw1"] = {"weight": (c, 1, k1, k1), "bias": (c,)}
        table[p + "dw2"] = {"weight": (c, 1, k2, k2), "bias": (c,)}
        table[p + "ca"] = {
            "fc1.weight": (hidden, 3 * c),
            "fc1.bias": (hidden,),
            "fc2.weight": (3 * c, hidden),
            "fc2.bias": (3 * c,),
        }
        table[p + "fuse"] = {"weight": (c, 3 * c // config.lkca_groups, 1, 1), "bias": (c,)}
        table[p + "proj_out"] = {"weight": (c, c, 1, 1), "bias": (c,)}
    # Bias-free; g > 1 is the low-rank (block-diagonal) variant, 1/g of the weights.
    table["upsampler"] = {"weight": (config.upsampler_out, c // config.upsampler_groups, 3, 3)}
    return table


def param_breakdown(config: NetConfig) -> dict[str, int]:
    """Exact scalar-parameter count per named layer."""
    return {
        layer: sum(math.prod(shape) for shape in shapes.values())
        for layer, shapes in layer_shapes(config).items()
    }


def flops_breakdown(config: NetConfig, input_h: int, input_w: int) -> dict[str, int]:
    """FLOPs (multiply-accumulates x 2) per layer for one LR input of the
    given size.

    Only convolution and linear-layer MACs are counted: a conv weight once
    per LR pixel, a linear (channel-attention) weight once per input.
    Elementwise activations, normalization, pooling, and the bicubic skip
    are excluded, so layers without a weight have no entry.
    """
    hw = input_h * input_w
    out: dict[str, int] = {}
    for layer, shapes in layer_shapes(config).items():
        weights = [shape for name, shape in shapes.items() if name.endswith("weight")]
        if weights:
            out[layer] = sum(2 * math.prod(s) * (hw if len(s) == 4 else 1) for s in weights)
    return out


# ---------------------------------------------------------------------------
# The network
# ---------------------------------------------------------------------------


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    """He-normal weights: std sqrt(2 / fan_in), fan-in = prod(shape[1:])."""
    std = np.sqrt(2.0 / math.prod(shape[1:]))
    return (rng.standard_normal(shape) * std).astype(dtype)


def _param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape by full name, in checkpoint order."""
    return {
        f"{layer}.{pname}": shape
        for layer, shapes in layer_shapes(config).items()
        for pname, shape in shapes.items()
    }


class LkcaNet:
    """Shallow conv, stacked attention blocks, sub-pixel upsampling head, and
    a bicubic skip connection.

    ``forward`` returns both the reconstruction and the post-pixel-shuffle
    feature map, which is the alignment target for distillation.
    """

    def __init__(self, config: NetConfig, dtype=np.float32, seed: int = 0):
        self.config = config
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.params: dict[str, Var] = {}
        for name, shape in _param_shapes(config).items():
            if name.endswith("weight"):
                value = he_normal(rng, shape, self.dtype)
            elif name.endswith(".gamma"):
                value = np.ones(shape, dtype=self.dtype)
            else:
                value = np.zeros(shape, dtype=self.dtype)
            self.params[name] = Var(value, name=name)

    @classmethod
    def from_state(cls, config: NetConfig, arrays: dict[str, np.ndarray], dtype=np.float32) -> "LkcaNet":
        """A model whose parameters are copies of ``arrays``, which must hold
        exactly the config's names and shapes; nothing is drawn."""
        shapes = _param_shapes(config)
        for name in arrays:
            if name not in shapes:
                raise CheckpointError(f"unexpected tensor {name!r} for this config")
        model = cls.__new__(cls)
        model.config, model.dtype, model.params = config, np.dtype(dtype), {}
        for name, shape in shapes.items():
            if name not in arrays:
                raise CheckpointError(f"missing tensor {name!r}")
            value = np.array(arrays[name], dtype=model.dtype)
            if value.shape != shape:
                raise CheckpointError(f"tensor {name!r} has shape {value.shape}, config expects {shape}")
            model.params[name] = Var(value, name=name)
        return model

    # -- parameter plumbing -------------------------------------------------

    def zero_grad(self) -> None:
        for v in self.params.values():
            v.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: v.value for name, v in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for name, v in LkcaNet.from_state(self.config, arrays, self.dtype).params.items():
            self.params[name].value = v.value

    # -- forward ------------------------------------------------------------

    def lkca_forward(self, f_u: Var, block: int = 0) -> Var:
        """The attention unit: cascaded dilated depthwise convs, concat,
        channel attention, grouped 1x1 fusion, multiplicative gate."""
        cfg = self.config
        p = self.params
        pre = f"blocks.{block}."
        d1, d2 = cfg.dilations
        c = cfg.feature_channels
        a1 = ops.conv2d(f_u, p[pre + "dw1.weight"], p[pre + "dw1.bias"], dilation=d1, groups=c)
        a2 = ops.conv2d(a1, p[pre + "dw2.weight"], p[pre + "dw2.bias"], dilation=d2, groups=c)
        a_c = ops.concat_channels([f_u, a1, a2])
        release(a2)  # concat copied it; dw2's VJP reads a1, not a2
        a_ca = ops.channel_attention(
            a_c,
            p[pre + "ca.fc1.weight"],
            p[pre + "ca.fc1.bias"],
            p[pre + "ca.fc2.weight"],
            p[pre + "ca.fc2.bias"],
        )
        a_f = ops.conv2d(a_ca, p[pre + "fuse.weight"], p[pre + "fuse.bias"], groups=cfg.lkca_groups)
        return ops.mul(a_f, f_u)

    def lkb_forward(self, x: Var, block: int = 0, training: bool = False, rng=None) -> Var:
        """One residual block: LN -> 1x1 conv -> GELU -> attention unit
        -> 1x1 conv -> drop path -> residual add."""
        cfg = self.config
        p = self.params
        pre = f"blocks.{block}."
        t = ops.layer_norm(x, p[pre + "norm.gamma"], p[pre + "norm.beta"])
        t = ops.conv2d(t, p[pre + "proj_in.weight"], p[pre + "proj_in.bias"])
        t = ops.gelu(t)
        t = self.lkca_forward(t, block)
        t = ops.conv2d(t, p[pre + "proj_out.weight"], p[pre + "proj_out.bias"])
        dropped = ops.drop_path(t, cfg.drop_path_rate, rng, training)
        out = ops.add(x, dropped)
        release(t, dropped)
        return out

    def features(self, x, training: bool = False, rng=None) -> Var:
        """The head conv and the blocks, (N, bands, H, W) Var or array to
        (N, C, H, W); ``training`` enables drop path (rng needed if rate > 0)."""
        x = as_var(x)
        cfg = self.config
        if x.value.ndim != 4 or x.shape[1] != cfg.bands:
            raise ValueError(
                f"input must be (N, {cfg.bands}, H, W) to match the configured bands, "
                f"got {x.shape}"
            )
        p = self.params
        # Each feature map is released once its consumer is recorded, and
        # its name is dropped at once: without a graph that frees it.
        f = ops.conv2d(x, p["head.weight"], p["head.bias"])
        for i in range(cfg.num_blocks):
            f_in, f = f, self.lkb_forward(f, i, training=training, rng=rng)
            release(f_in)
            del f_in
        return f

    def upsample(self, f, x=None) -> tuple[Var | None, Var]:
        """(reconstruction, upsampled_features) of last-block features f, both
        (N, bands, r*H, r*W): the upsampler conv and pixel shuffle, plus the
        clamped bicubic upsampling of the LR input x. Without x no skip is
        built and the reconstruction is None. A recorded f is released once
        the conv has read it, like every feature map."""
        cfg = self.config
        f_in = as_var(f)
        f = ops.conv2d(f_in, self.params["upsampler.weight"], None, groups=cfg.upsampler_groups)
        release(f_in)
        del f_in
        f_up = ops.pixel_shuffle(f, cfg.scale_factor)
        # The pre-shuffle map is gone before the skip is built.
        release(f)
        del f
        if x is None:
            return None, f_up
        x = as_var(x)
        r = cfg.scale_factor
        skip = resize_bands(x.value, x.shape[2] * r, x.shape[3] * r)
        return ops.add_const(f_up, skip), f_up

    def forward(self, x, training: bool = False, rng=None) -> tuple[Var, Var]:
        """Super-resolve a batch: (reconstruction, upsampled_features), the
        :meth:`upsample` of :meth:`features`."""
        x = as_var(x)
        return self.upsample(self.features(x, training, rng), x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode forward on a plain array, no graph recorded."""
        with no_grad():
            i_sr, _ = self.forward(np.asarray(x, dtype=self.dtype))
        return i_sr.value


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: LkcaNet, path, metadata: dict | None = None) -> None:
    """Write config, metadata, and all named parameter tensors (f32 LE)."""
    if model.dtype != np.float32:
        raise CheckpointError(
            f"checkpoints store float32 tensors; model dtype is {model.dtype}"
        )
    header = json.dumps(
        {"config": model.config.to_dict(), "metadata": metadata or {}}, sort_keys=True
    ).encode("utf-8")
    arrays = model.state_arrays()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            blob = np.ascontiguousarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(struct.pack("<Q", blob.nbytes))
            fh.write(blob)


def _read_exact(fh, n: int, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return blob


def read_checkpoint_arrays(path) -> tuple[NetConfig, dict, dict[str, np.ndarray]]:
    """Parse a checkpoint container into (config, metadata, tensors)."""
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
                and isinstance(header.get("metadata", {}), dict)):
            raise CheckpointError(f"{path}: the header must be a JSON object with object config and metadata")
        config = NetConfig.from_dict(header["config"])
        metadata = header.get("metadata", {})
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "tensor name length"))
            name = _read_exact(fh, nlen, "tensor name").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, f"{name}: ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, f"{name}: shape"))
            (nbytes,) = struct.unpack("<Q", _read_exact(fh, 8, f"{name}: payload size"))
            if nbytes != 4 * math.prod(shape):
                raise CheckpointError(f"{path}: tensor {name!r} payload/shape mismatch")
            # Read straight into the tensor, with no bytes object in between.
            arrays[name] = np.empty(shape, dtype="<f4")
            if fh.readinto(memoryview(arrays[name]).cast("B")) != nbytes:
                raise CheckpointError(f"truncated checkpoint while reading {name}: payload")
    return config, metadata, arrays


def load_checkpoint(path) -> tuple[LkcaNet, dict]:
    """Rebuild a model from a checkpoint; forward outputs reproduce bit-exactly."""
    config, metadata, arrays = read_checkpoint_arrays(path)
    return LkcaNet.from_state(config, arrays), metadata
