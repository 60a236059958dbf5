"""Lightweight single-image hyperspectral super-resolution toolkit.

Large-kernel channel-attention network, low-rank diagnosis and group-conv
approximation of the learnable upsampling layer, and distillation-based
feature-alignment training, all on plain numpy, verifiable at desk scale.
"""

__version__ = "0.1.0"

from .hsi import (
    HsiCube,
    PatchSpec,
    SplitProtocol,
    degrade,
    read_cube,
    write_cube,
)
from .linalg import SvdResult, cumulative_energy, rank_at_energy, svd
from .losses import DecaySchedule, LossWeights, cos_loss, grad_loss, h_loss, kd_loss, l1_loss, sam_loss
from .lowrank import RankReport, analyze_upsampler, build_grouped, choose_groups, weights_to_matrix
from .metrics import MetricResult, evaluate_metrics
from .model import (
    LkcaNet,
    NetConfig,
    load_checkpoint,
    param_breakdown,
    save_checkpoint,
)
from .train import BicubicBaseline, DistillConfig, TrainConfig, distill, evaluate, train

__all__ = [
    "HsiCube",
    "PatchSpec",
    "SplitProtocol",
    "degrade",
    "read_cube",
    "write_cube",
    "SvdResult",
    "svd",
    "cumulative_energy",
    "rank_at_energy",
    "LossWeights",
    "DecaySchedule",
    "l1_loss",
    "sam_loss",
    "grad_loss",
    "cos_loss",
    "h_loss",
    "kd_loss",
    "MetricResult",
    "evaluate_metrics",
    "RankReport",
    "analyze_upsampler",
    "build_grouped",
    "choose_groups",
    "weights_to_matrix",
    "LkcaNet",
    "NetConfig",
    "param_breakdown",
    "save_checkpoint",
    "load_checkpoint",
    "TrainConfig",
    "DistillConfig",
    "train",
    "distill",
    "evaluate",
    "BicubicBaseline",
]
