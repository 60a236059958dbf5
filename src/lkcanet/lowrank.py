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
from .model import LkcaNet, NetConfig, he_normal, param_breakdown

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


# Upsampler group counts a config is tried at, and the recommended one.
GROUP_CANDIDATES = (1, 2, 4, 8, 16)
DEFAULT_GROUPS = 8


def group_variants(config: NetConfig) -> dict[int, NetConfig]:
    """``config`` at each candidate upsampler group count it accepts."""
    variants = {}
    for g in GROUP_CANDIDATES:
        try:
            variants[g] = config.with_upsampler_groups(g)
        except ValueError:
            pass
    return variants


def choose_groups(config: NetConfig) -> int:
    """Pick the group count for the approximated upsampler: the default when
    the config accepts it, otherwise the largest accepted count below it."""
    accepted = [g for g in group_variants(config) if 1 < g <= DEFAULT_GROUPS]
    if not accepted:
        raise ValueError(f"the config accepts no grouped upsampler up to g={DEFAULT_GROUPS}; {_GROUP_NOTE}")
    return max(accepted)


# Initializations of the grouped upsampler; the first is the default.
GROUPED_INITS = ("random", "svd_blocks")

# Energy fractions the report gives the rank at.
RANK_THRESHOLDS = (0.90, 0.95, 0.99)


def analyze_upsampler(model: LkcaNet) -> RankReport:
    """SVD the upsampling layer, the convolution feeding the pixel shuffle,
    and summarize its spectrum. Analysis runs in double precision regardless
    of the model dtype.
    """
    config = model.config
    if config.upsampler_groups != 1:
        raise ValueError(
            "rank analysis targets the full upsampler; this checkpoint already "
            f"uses {config.upsampler_kind}"
        )
    matrix = weights_to_matrix(model.params["upsampler.weight"].value.astype(np.float64))
    result = svd(matrix)
    cumulative = cumulative_energy(result.sigma)
    rank_at = {f"{t:.2f}": rank_at_energy(result.sigma, t) for t in RANK_THRESHOLDS}
    g = choose_groups(config)
    return RankReport(
        matrix_shape=matrix.shape,
        sigma=result.sigma,
        cumulative=cumulative,
        rank_at=rank_at,
        recommended_groups=g,
        params_full=param_breakdown(config)["upsampler"],
        params_grouped=param_breakdown(config.with_upsampler_groups(g))["upsampler"],
    )


def build_grouped(
    full_weights: np.ndarray,
    groups: int,
    init: str = GROUPED_INITS[0],
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Construct the grouped replacement of a full upsampling convolution.

    ``init="random"`` draws fresh He-normal weights (the approximated network
    is retrained, so projection of the old weights is unnecessary);
    ``init="svd_blocks"`` copies the diagonal blocks of the full weight
    matrix, the best block-diagonal approximation in Frobenius norm.

    Returns the (C_out, C_in / g, k, k) weight tensor, holding exactly 1/g of
    the full layer's parameters.
    """
    w = np.asarray(full_weights)
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ValueError(f"expected (C_out, C_in, k, k) weights, got {w.shape}")
    c_out, c_in, k, _ = w.shape
    if groups < 1 or c_in % groups or c_out % groups:
        raise ValueError(f"groups={groups} must divide in={c_in} and out={c_out} channels")
    if init not in GROUPED_INITS:
        raise ValueError(f"unknown init mode {init!r}; expected one of {GROUPED_INITS}")
    rows, cin = c_out // groups, c_in // groups
    if init == "random":
        return he_normal(rng or np.random.default_rng(0), (c_out, cin, k, k), w.dtype)
    gw = np.empty((c_out, cin, k, k), dtype=w.dtype)
    for b in range(groups):
        gw[b * rows : (b + 1) * rows] = w[b * rows : (b + 1) * rows, b * cin : (b + 1) * cin]
    return gw
