"""Low-rank analysis and group-convolution approximation of the upsampling
layer.

The upsampler's (C_out, C_in, k, k) weight tensor is reshaped to a
(C_out, C_in * k * k) matrix, row per output filter, flattened input-channel
major, then kernel rows, then kernel columns. Its singular spectrum is the
evidence for replacing the full convolution with a grouped one, whose
reshaped weight matrix is block diagonal with g blocks.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .linalg import cumulative_energy, rank_at_energy, svd
from .model import LkcaNet, NetConfig, UpsamplerSpec, he_normal

# Flattening order is fixed because block-diagonal structure (unlike rank)
# depends on it.
_GROUP_NOTE = (
    "group count must divide both the upsampler's input channels (C) and its "
    "output channels (bands * r^2); candidates violating divisibility are dropped"
)


@dataclass
class RankReport:
    """Singular-spectrum analysis of the upsampling layer."""

    matrix_shape: tuple[int, int]
    sigma: np.ndarray
    cumulative: np.ndarray
    rank_at: dict[str, int]
    recommended_groups: int
    params_full: int
    params_grouped: int

    @property
    def rank_bound(self) -> int:
        return min(self.matrix_shape)

    def to_dict(self) -> dict:
        return {
            "layer": "upsampler",
            "matrix_shape": list(self.matrix_shape),
            "rank_bound": self.rank_bound,
            "rank_at": self.rank_at,
            "recommended_groups": self.recommended_groups,
            "params_full": self.params_full,
            "params_grouped": self.params_grouped,
            "param_ratio": self.params_full / self.params_grouped,
            "note": _GROUP_NOTE,
            "sigma_head": [float(s) for s in self.sigma[:8]],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def curve_csv(self) -> str:
        """Fig-style curve data: one row per singular value index."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["index", "sigma", "cumulative"])
        for i, (s, c) in enumerate(zip(self.sigma, self.cumulative)):
            writer.writerow([i, repr(float(s)), repr(float(c))])
        return buf.getvalue()


def weights_to_matrix(weights: np.ndarray) -> np.ndarray:
    """(C_out, C_in, k, k) -> (C_out, C_in * k * k), row-major flatten."""
    w = np.asarray(weights)
    if w.ndim != 4:
        raise ValueError(f"expected a 4-axis conv weight tensor, got ndim={w.ndim}")
    return w.reshape(w.shape[0], -1)


def choose_groups(
    config: NetConfig, candidates=(2, 4, 8, 16), default: int = 8
) -> int:
    """Pick the group count for the approximated upsampler.

    Candidates that fail divisibility against either channel count are
    rejected. The configured default wins when valid; otherwise the largest
    valid candidate not exceeding it, else the smallest valid one.
    """
    c_in = config.feature_channels
    c_out = config.upsampler_out
    valid = sorted(g for g in set(candidates) if g >= 1 and c_in % g == 0 and c_out % g == 0)
    if not valid:
        raise ValueError(
            f"no candidate in {sorted(set(candidates))} divides both C={c_in} and "
            f"out={c_out}; {_GROUP_NOTE}"
        )
    if default in valid:
        return default
    below = [g for g in valid if g < default]
    return max(below) if below else min(valid)


# Initializations of the grouped upsampler; the first is the default.
GROUPED_INITS = ("random", "svd_blocks")

# Energy fractions the report gives the rank at.
RANK_THRESHOLDS = (0.90, 0.95, 0.99)


def analyze_upsampler(model: LkcaNet) -> RankReport:
    """SVD the upsampling layer, the convolution feeding the pixel shuffle,
    and summarize its spectrum. Analysis runs in double precision regardless
    of the model dtype.
    """
    spec = model.config.upsampler_spec()
    if spec.groups != 1:
        raise ValueError(
            "rank analysis targets the full upsampler; this checkpoint already "
            f"uses {spec.kind}"
        )
    matrix = weights_to_matrix(model.params["upsampler.weight"].value.astype(np.float64))
    result = svd(matrix)
    cumulative = cumulative_energy(result.sigma)
    rank_at = {f"{t:.2f}": rank_at_energy(result.sigma, t) for t in RANK_THRESHOLDS}
    g = choose_groups(model.config)
    grouped = UpsamplerSpec(spec.in_channels, spec.out_channels, spec.kernel, g)
    return RankReport(
        matrix_shape=matrix.shape,
        sigma=result.sigma,
        cumulative=cumulative,
        rank_at=rank_at,
        recommended_groups=g,
        params_full=spec.param_count(),
        params_grouped=grouped.param_count(),
    )


def build_grouped(
    full_weights: np.ndarray,
    groups: int,
    init: str = GROUPED_INITS[0],
    rng: np.random.Generator | None = None,
) -> tuple[UpsamplerSpec, np.ndarray]:
    """Construct the grouped replacement of a full upsampling convolution.

    ``init="random"`` draws fresh He-normal weights (the approximated network
    is retrained, so projection of the old weights is unnecessary);
    ``init="svd_blocks"`` copies the diagonal blocks of the full weight
    matrix, the best block-diagonal approximation in Frobenius norm.

    Returns the grouped spec and a (C_out, C_in / g, k, k) weight tensor
    holding exactly 1/g of the full layer's parameters.
    """
    w = np.asarray(full_weights)
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ValueError(f"expected (C_out, C_in, k, k) weights, got {w.shape}")
    c_out, c_in, k, _ = w.shape
    spec = UpsamplerSpec(c_in, c_out, k, groups)  # validates divisibility

    if init not in GROUPED_INITS:
        raise ValueError(f"unknown init mode {init!r}; expected one of {GROUPED_INITS}")
    if init == "random":
        gw = he_normal(rng or np.random.default_rng(0), spec.weight_shape, w.dtype)
    else:
        gw = np.empty(spec.weight_shape, dtype=w.dtype)
        rows, cin = c_out // groups, c_in // groups
        for b in range(groups):
            gw[b * rows : (b + 1) * rows] = w[b * rows : (b + 1) * rows, b * cin : (b + 1) * cin]
    return spec, gw
