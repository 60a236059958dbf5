"""Command-line surface binding cubes, splits, training, distillation,
rank analysis, approximation, evaluation, and benchmarking into
reproducible workflows.

Exit codes: 0 ok, 2 usage, 3 validation, 4 numeric failure. Every
artifact-producing command writes a run manifest (command, resolved
configuration, seeds, paths, version, timestamp, and the numeric
environment: numpy, scipy and BLAS versions, BLAS thread variables, CPU
count) next to its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, hsi
from .hsi import (
    CubeError,
    PatchSpec,
    custom_protocol,
    named_protocol,
    plan_split,
    read_cube,
    write_cube,
)
from .linalg import SvdConvergenceError
from .losses import DecaySchedule, LossWeights
from .lowrank import GROUPED_INITS, analyze_upsampler, build_grouped, group_variants
from .metrics import MetricResult
from .model import (
    CheckpointError,
    LkcaNet,
    NetConfig,
    load_checkpoint,
    flops_breakdown,
    param_breakdown,
    save_checkpoint,
)
from .train import (
    KD_TARGETS,
    SCHEDULES,
    BicubicBaseline,
    DistillConfig,
    NonFiniteGradientError,
    TrainConfig,
    distill,
    evaluate,
    train,
)

_VALIDATION_ERRORS = (ValueError, KeyError, CubeError, CheckpointError, FileNotFoundError, IsADirectoryError)
_NUMERIC_ERRORS = (NonFiniteGradientError, SvdConvergenceError, FloatingPointError)
# Variables that set the BLAS thread count, recorded in every manifest.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every setting a command resolves: key -> (help section, type or choices,
# help, owner, field). A row without help has no flag and is set through
# --config only; a row without an owner sets no library field by itself (the
# model's kernel sizes and dilations are pairs, set by k1/k2 and d1/d2). Each
# command's --help appends the setting's default.
_SETTINGS = {
    "seed": (None, int, "random seed for every stochastic step", TrainConfig, "seed"),
    "patch_size": (None, int, "HR patch size", None, None),
    "overlap": (None, int, "HR patch overlap", None, None),
    "channels": ("model", int, "feature channels C", NetConfig, "feature_channels"),
    "blocks": ("model", int, "number of attention blocks", NetConfig, "num_blocks"),
    "k1": ("model", int, "first depthwise kernel size", None, None),
    "k2": ("model", int, "second depthwise kernel size", None, None),
    "d1": ("model", int, "first dilation rate", None, None),
    "d2": ("model", int, "second dilation rate", None, None),
    "lkca_groups": ("model", int, "groups of the 1x1 fusion conv", NetConfig, "lkca_groups"),
    "ca_reduction": ("model", int, "channel-attention reduction", NetConfig, "ca_reduction"),
    "groups": ("model", int, "upsampler groups; 1 = full convolution", NetConfig, "upsampler_groups"),
    "drop_path": ("model", float, "stochastic-depth rate during training", NetConfig, "drop_path_rate"),
    "epochs": ("training", int, "training epochs", TrainConfig, "epochs"),
    "batch_size": ("training", int, "patches per step", TrainConfig, "batch_size"),
    "lr": ("training", float, "initial learning rate", TrainConfig, "initial_lr"),
    "final_lr": ("training", float, "final learning rate", TrainConfig, "final_lr"),
    "schedule": ("training", SCHEDULES, "learning-rate schedule", TrainConfig, "schedule"),
    "grad_clip": ("training", float, "global-norm gradient clip", TrainConfig, "grad_clip"),
    **{f"lam{i}": (None, float, None, LossWeights, f"lam{i}") for i in range(1, 6)},
    "alpha": ("distillation", float, "initial distillation weight", LossWeights, "alpha"),
    "decay_factor": ("distillation", float, "distillation decay factor d", DecaySchedule, "factor"),
    "decay_every": ("distillation", int, "epochs per decay step f", DecaySchedule, "every"),
    "kd_target": ("distillation", KD_TARGETS, "alignment tensor", DistillConfig, "kd_target"),
}


def _taken(owner, source) -> dict:
    """The settings ``owner`` takes, as ``source`` holds them; ``owner``
    itself holds the defaults, as a dataclass keeps them as class attributes."""
    return {key: getattr(source, name) for key, (*_, o, name) in _SETTINGS.items()
            if o is owner and hasattr(source, name)}


def _build(owner, settings: dict, **given):
    """An ``owner`` built from the settings it takes."""
    return owner(**{name: settings[key] for key, (*_, o, name) in _SETTINGS.items() if o is owner}, **given)


def _model_config(settings: dict, bands: int, scale: int) -> NetConfig:
    return _build(NetConfig, settings, bands=bands, scale_factor=scale,
                  kernel_sizes=(settings["k1"], settings["k2"]), dilations=(settings["d1"], settings["d2"]))


def _model_settings(config) -> dict:
    """Inverse of :func:`_model_config`; of ``NetConfig`` itself, the defaults."""
    (k1, k2), (d1, d2) = config.kernel_sizes, config.dilations
    return {**_taken(NetConfig, config), "k1": k1, "k2": k2, "d1": d1, "d2": d2}


MODEL_DEFAULTS = _model_settings(NetConfig)
# The library has no default number of epochs; the CLI's is 10.
_TRAIN_DEFAULTS = {"epochs": 10, **_taken(TrainConfig, TrainConfig)}
# Both fits resolve and record every loss weight; train's loss reads only
# lam1 and lam2, and no train flag sets one.
_WEIGHT_DEFAULTS = _taken(LossWeights, LossWeights)
_DISTILL_DEFAULTS = {**_taken(DecaySchedule, DecaySchedule), **_taken(DistillConfig, DistillConfig)}
# What ``distill --help`` names: the student takes the teacher's
# architecture at half its depth, with a full upsampler.
_STUDENT_SHOWN = {
    **{key: "the teacher's" for key in MODEL_DEFAULTS},
    "blocks": "half the teacher's, at least 1",
    "groups": MODEL_DEFAULTS["groups"],
}
# Keys a --config file may hold: every setting a command resolves, and every
# other key that a run manifest or a split.json records.
_CONFIG_KEYS = {
    *_SETTINGS, "dataset", "scale", "bands", "name", "init", "model", "test_regions", "exclusions",
    "cube_shape", "scale_factor", "validation_fraction", "train_origins", "val_origins", "cube_path",
    "crop_shape", "test_files",
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    # A run manifest doubles as a config file: replaying it reproduces the run.
    if isinstance(cfg, dict) and "resolved_config" in cfg:
        cfg = cfg["resolved_config"]
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config file must hold a JSON object, or a run manifest whose resolved_config is one")
    unknown = sorted(cfg.keys() - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: no command reads the config key(s) {unknown}")
    return cfg


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    """Each setting's value: its flag, else the ``--config`` file's, else its
    default, where None means there is none. A run's manifest records exactly
    this, so that feeding the manifest back through ``--config`` replays it."""
    file_cfg = _load_config_file(getattr(ns, "config", None))
    return {key: getattr(ns, key, file_cfg.get(key, default)) for key, default in defaults.items()}


def _environment() -> dict:
    """The numeric environment a run's numbers depend on."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _write_outputs(command: str, resolved: dict, inputs: list, written: list,
                   texts=(), manifest: Path | None = None) -> None:
    """Write each ``(path, text)`` artefact whose path was given, then the run
    manifest, at ``<first output>.manifest.json`` unless ``manifest`` names
    its path; ``written`` lists outputs the command saved itself. A run with
    no output writes no manifest."""
    outputs = list(written)
    for path, text in texts:
        if path:
            Path(path).write_text(text, encoding="utf-8")
            outputs.append(path)
    if not outputs:
        return
    record = {
        "command": command,
        "resolved_config": resolved,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": _environment(),
    }
    manifest = manifest or Path(f"{outputs[0]}.manifest.json")
    manifest.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Split persistence
# ---------------------------------------------------------------------------


def _save_split(test: list, manifest: dict, out_dir: Path, cube_path: str) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f"test_{i}.hsc" for i in range(len(test))]
    for region, name in zip(test, names):
        write_cube(region, out_dir / name)
    # Absolute, so that a split loads from any working directory.
    manifest = {**manifest, "cube_path": str(Path(cube_path).resolve()), "test_files": names}
    (out_dir / "split.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [out_dir / name for name in (*names, "split.json")]


def _load_test_regions(split_dir) -> tuple[list, dict]:
    """The whole test regions and the manifest of a ``prepare`` output
    directory; the source cube is not read."""
    path = Path(split_dir) / "split.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    files = manifest.get("test_files") if isinstance(manifest, dict) else None
    if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
        raise ValueError(f"{path}: must be a JSON object whose test_files lists file names")
    return [read_cube(path.parent / name) for name in files], manifest


def load_split(split_dir) -> "hsi.Split":
    """Rebuild a materialized split from a ``prepare`` output directory; its
    source cube, after the recorded crop, must have the shape it was planned on."""
    test, manifest = _load_test_regions(split_dir)
    cube = read_cube(manifest["cube_path"])
    if manifest.get("crop_shape"):
        cube = hsi.central_crop(cube, *manifest["crop_shape"])
    if list(cube.shape) != manifest["cube_shape"]:
        raise ValueError(f"{manifest['cube_path']}: the split was planned on a {manifest['cube_shape']} "
                         f"cube, but the source is {list(cube.shape)} after the recorded crop")
    return hsi.cut_split(cube, test, manifest)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_cube_info(ns) -> int:
    cube = read_cube(ns.path)
    info = {
        "path": str(ns.path),
        "bands": cube.bands,
        "height": cube.height,
        "width": cube.width,
        "min": float(cube.data.min()),
        "max": float(cube.data.max()),
        "meta": cube.meta,
    }
    if ns.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(f"{ns.path}: {cube.bands} bands, {cube.height}x{cube.width} pixels")
        print(f"  samples in [{info['min']:.6f}, {info['max']:.6f}]")
        for k, v in sorted(cube.meta.items()):
            print(f"  meta.{k} = {v}")
    return 0


_VENDOR_SUFFIXES = {".hdr", ".img", ".tif", ".tiff", ".bsq", ".bil", ".bip"}


def _cmd_cube_convert(ns) -> int:
    src = Path(ns.src)
    if src.suffix.lower() in _VENDOR_SUFFIXES:
        raise ValueError(
            f"{src}: vendor raster formats (ENVI, GeoTIFF) are not supported; "
            "export the cube as a .npy array of shape (bands, height, width) "
            "and convert that instead"
        )
    if src.suffix.lower() != ".npy":
        raise ValueError(f"{src}: expected a .npy source array")
    raw = np.load(src)
    if raw.ndim != 3:
        raise ValueError(f"{src}: expected a 3-D (bands, height, width) array, got {raw.shape}")
    cube = hsi.normalize(raw, {"name": ns.name or src.stem})
    write_cube(cube, ns.dst)
    _write_outputs("cube convert", {"name": ns.name or src.stem}, [src], [ns.dst])
    print(f"wrote {ns.dst}: {cube.bands} bands, {cube.height}x{cube.width}")
    return 0


def _cmd_prepare(ns) -> int:
    # 64/32 at r=4 and 128/64 at r=8: HR patch geometry scales with r.
    if hasattr(ns, "test_regions"):  # --regions gives JSON text; a config file, the list
        ns.test_regions = json.loads(ns.test_regions)
    settings = _resolve(ns, {"dataset": None, "scale": None, "test_regions": None,
                             "patch_size": 16 * ns.scale, "overlap": 8 * ns.scale, "seed": TrainConfig.seed})
    if ns.dataset == "custom":
        if not settings["test_regions"]:
            raise ValueError("custom dataset needs --regions or test_regions in --config")
        protocol = custom_protocol(settings["test_regions"])
    else:
        protocol = named_protocol(ns.dataset)
        # A named split's own split.json replays; other regions would be ignored.
        if settings["test_regions"] not in (None, [list(r.as_tuple()) for r in protocol.test_regions]):
            raise ValueError(f"{ns.dataset} has fixed test regions; --regions is for --dataset custom")
    cube = read_cube(ns.cube)
    spec = PatchSpec(settings["patch_size"], settings["overlap"], ns.scale)
    _, test, manifest = plan_split(cube, protocol, spec, seed=settings["seed"])
    if protocol.expected_shape is not None:
        manifest["crop_shape"] = list(protocol.expected_shape)
    outputs = _save_split(test, manifest, Path(ns.out), ns.cube)
    _write_outputs("prepare", settings, [ns.cube], outputs, manifest=Path(ns.out) / "prepare.manifest.json")
    print(
        f"prepared {ns.dataset} split: {len(manifest['train_origins'])} train / "
        f"{len(manifest['val_origins'])} val patches, {len(test)} test regions -> {ns.out}"
    )
    return 0


def _finish_fit(ns, command: str, settings: dict, result, metadata: dict, inputs: list) -> int:
    """Save what a train or distill run produced: checkpoint, log, manifest.

    A diverged run keeps its last finite state, is reported on stderr and
    exits 4.
    """
    if result.diverged:
        print(f"warning: {command} diverged ({result.diverged}); "
              "checkpoint holds the last finite state", file=sys.stderr)
    metadata = {
        "epochs": settings["epochs"],
        "seed": settings["seed"],
        **metadata,
        "best_epoch": result.best_epoch,
        "best_val_mpsnr": result.best_val_mpsnr,
    }
    save_checkpoint(result.model, ns.out, metadata)
    log = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in result.history)
    _write_outputs(command, settings, inputs, [ns.out], [(ns.log, log)])
    tail = result.history[-1] if result.history else {}
    print(f"{command}: {settings['epochs']} epochs -> {ns.out} (last: {json.dumps(tail, sort_keys=True)})")
    return 4 if result.diverged else 0


def _cmd_train(ns) -> int:
    settings = _resolve(ns, {**MODEL_DEFAULTS, **_TRAIN_DEFAULTS, **_WEIGHT_DEFAULTS})
    split = load_split(ns.split)
    config = _model_config(settings, split.manifest["cube_shape"][0], split.manifest["scale_factor"])
    model = LkcaNet(config, seed=settings["seed"])
    weights = _build(LossWeights, settings)
    result = train(model, split, _build(TrainConfig, settings), weights)
    metadata = {"loss_weights": vars(weights)}
    return _finish_fit(ns, "train", settings, result, metadata, [ns.split])


def _cmd_distill(ns) -> int:
    split = load_split(ns.split)
    teacher, _ = load_checkpoint(ns.teacher)
    tcfg = teacher.config
    # The student inherits the teacher's architecture at half the depth
    # unless flags or the config file say otherwise.
    student = {
        **_model_settings(tcfg),
        "blocks": max(1, tcfg.num_blocks // 2),
        "groups": MODEL_DEFAULTS["groups"],
    }
    settings = _resolve(ns, {**student, **_TRAIN_DEFAULTS, **_WEIGHT_DEFAULTS, **_DISTILL_DEFAULTS})
    config = _model_config(settings, tcfg.bands, tcfg.scale_factor)
    dcfg = _build(DistillConfig, settings, weights=_build(LossWeights, settings),
                  decay=_build(DecaySchedule, settings))
    result = distill(teacher, LkcaNet(config, seed=settings["seed"]), split,
                     _build(TrainConfig, settings), dcfg)
    metadata = {
        "teacher": str(ns.teacher),
        "loss_weights": vars(dcfg.weights),
        "decay": vars(dcfg.decay),
        "kd_target": dcfg.kd_target,
    }
    return _finish_fit(ns, "distill", settings, result, metadata, [ns.split, ns.teacher])


def _cmd_analyze_rank(ns) -> int:
    model, _ = load_checkpoint(ns.checkpoint)
    report = analyze_upsampler(model)
    print(report.to_json())
    _write_outputs("analyze-rank", {}, [ns.checkpoint], [],
                   [(ns.out_json, report.to_json() + "\n"), (ns.out_csv, report.curve_csv())])
    return 0


def _cmd_approximate(ns) -> int:
    settings = _resolve(ns, {"groups": None, "init": None, "seed": TrainConfig.seed})
    model, metadata = load_checkpoint(ns.checkpoint)
    if model.config.upsampler_groups != 1:
        raise ValueError(f"checkpoint upsampler is already {model.config.upsampler_kind}")
    config = model.config.with_upsampler_groups(ns.groups)
    rng = np.random.default_rng(settings["seed"])
    weights = build_grouped(model.params["upsampler.weight"].value, ns.groups, init=ns.init, rng=rng)
    grouped = LkcaNet.from_state(config, {**model.state_arrays(), "upsampler.weight": weights})
    metadata = {**metadata, "approximated_from": str(ns.checkpoint), "upsampler_init": ns.init}
    save_checkpoint(grouped, ns.out, metadata)
    _write_outputs("approximate", settings, [ns.checkpoint], [ns.out])
    print(
        f"rewrote upsampler to {config.upsampler_kind}: {param_breakdown(model.config)['upsampler']} -> "
        f"{param_breakdown(config)['upsampler']} parameters"
    )
    return 0


def _cmd_eval(ns) -> int:
    test, manifest = _load_test_regions(ns.split)
    r = manifest["scale_factor"]
    if ns.baseline:  # its one choice is bicubic
        scorer, label = BicubicBaseline(r), ns.baseline
    elif ns.checkpoint:
        scorer, label = load_checkpoint(ns.checkpoint)[0], str(ns.checkpoint)
    else:
        raise ValueError("eval needs --checkpoint or --baseline")
    averaged, per_region = evaluate(scorer, test, r)
    payload = {
        "model": label,
        "scale_factor": r,
        "regions": [m.as_dict() for m in per_region],
        "average": averaged.as_dict(),
        "notes": averaged.notes,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    rows = [MetricResult.csv_header(), *(m.as_csv_row() for m in per_region), averaged.as_csv_row()]
    _write_outputs("eval", {"model": label}, [ns.split], [],
                   [(ns.out_json, text + "\n"), (ns.out_csv, "\n".join(rows) + "\n")])
    return 0


def _cmd_bench(ns) -> int:
    settings = _resolve(ns, {**MODEL_DEFAULTS, "bands": None, "scale": None})
    bands, scale = settings["bands"], settings["scale"]
    if bands is None or scale is None:
        raise ValueError("bench needs --bands and --scale (or a --config providing them)")
    config = _model_config(settings, bands, scale)
    try:
        h, w = (int(v) for v in ns.input_size.split("x"))
    except ValueError:
        raise ValueError(f"--input-size must look like 32x32, got {ns.input_size!r}") from None

    params = param_breakdown(config)
    flops = flops_breakdown(config, h, w)
    total_params = sum(params.values())
    upsampler_share = params["upsampler"] / total_params
    variants = group_variants(config)
    grouped_counts = {g: param_breakdown(v)["upsampler"] for g, v in variants.items()}
    payload = {
        "config": config.to_dict(),
        "input_size": [h, w],
        "params_total": total_params,
        "params_upsampler": params["upsampler"],
        "upsampler_share": upsampler_share,
        "upsampler_by_groups": grouped_counts,
        "flops_total": sum(flops.values()),
        "params_by_layer": params,
        "flops_by_layer": flops,
    }
    if ns.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"configuration: {config.upsampler_kind} upsampler, {bands} bands, x{scale}")
    print(f"parameters: {total_params:,} total; upsampler {params['upsampler']:,} "
          f"({upsampler_share:.1%} share)")
    for g, count in grouped_counts.items():
        print(f"  upsampler {variants[g].upsampler_kind:>12}: {count:,}")
    print(f"flops at {h}x{w}: {sum(flops.values()):,}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, config: bool = False) -> None:
    """``--json``, after ``--config`` if the command reads one."""
    if config:
        p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    p.add_argument("--json", action="store_true", help="machine-readable output/errors")


def _add_settings(p: argparse.ArgumentParser, shown: dict) -> None:
    """A flag for each setting in ``shown`` that has help, whose help names
    the default ``shown`` gives it."""
    groups = {None: p}
    for key, (title, kind, text, *_) in _SETTINGS.items():
        if key in shown and text:
            if title not in groups:
                groups[title] = p.add_argument_group(title)
            parse = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            groups[title].add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                                       help=f"{text} (default {shown[key]})", **parse)


def _command(sub, name: str, text: str, handler=None) -> argparse.ArgumentParser:
    """A subcommand's parser, whose help appends each default, running
    ``handler``."""
    p = sub.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    if handler:
        p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lkcanet",
        description="Hyperspectral super-resolution: training, low-rank upsampler "
        "analysis, and distillation workflows.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cube_sub = _command(sub, "cube", "inspect and convert cube files").add_subparsers(
        dest="cube_command", required=True)
    info = _command(cube_sub, "info", "print cube header and stats", _cmd_cube_info)
    info.add_argument("path")
    _add_common(info)
    convert = _command(cube_sub, "convert", "convert a .npy array to a .hsc cube", _cmd_cube_convert)
    convert.add_argument("src")
    convert.add_argument("dst")
    convert.add_argument("--name", default=None, help="dataset name stored in metadata")
    _add_common(convert)

    prepare = _command(sub, "prepare", "build a train/val/test split from a cube", _cmd_prepare)
    prepare.add_argument("--cube", required=True)
    prepare.add_argument("--dataset", required=True, choices=hsi.DATASETS)
    prepare.add_argument("--scale", type=int, required=True, help="super-resolution factor r")
    prepare.add_argument("--regions", dest="test_regions", metavar="REGIONS", default=argparse.SUPPRESS,
                         help="custom test regions as JSON [[row,col,h,w],...] (default none)")
    prepare.add_argument("--out", required=True, help="output split directory")
    _add_settings(prepare, {"seed": TrainConfig.seed, "patch_size": "16*scale: 64 at r=4, 128 at r=8",
                            "overlap": "8*scale: 32 at r=4, 64 at r=8"})
    _add_common(prepare, config=True)

    tr = _command(sub, "train", "train a model on a prepared split", _cmd_train)
    tr.add_argument("--split", required=True, help="split directory from `prepare`")
    tr.add_argument("--out", required=True, help="output checkpoint path")
    tr.add_argument("--log", default=None, help="JSON-lines per-epoch log path")
    _add_settings(tr, {**MODEL_DEFAULTS, **_TRAIN_DEFAULTS})
    _add_common(tr, config=True)

    di = _command(sub, "distill", "train a student against a frozen teacher", _cmd_distill)
    di.add_argument("--teacher", required=True, help="teacher checkpoint")
    di.add_argument("--split", required=True)
    di.add_argument("--out", required=True)
    di.add_argument("--log", default=None, help="JSON-lines per-epoch log path")
    _add_settings(di, {**_STUDENT_SHOWN, **_TRAIN_DEFAULTS, **_WEIGHT_DEFAULTS, **_DISTILL_DEFAULTS})
    _add_common(di, config=True)

    ar = _command(sub, "analyze-rank", "SVD the upsampler and export its spectrum", _cmd_analyze_rank)
    ar.add_argument("--checkpoint", required=True)
    ar.add_argument("--out-json", dest="out_json", default=None, help="rank report path")
    ar.add_argument("--out-csv", dest="out_csv", default=None, help="cumulative-curve CSV path")
    _add_common(ar)

    ap = _command(sub, "approximate", "rewrite a checkpoint's upsampler as grouped", _cmd_approximate)
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--groups", type=int, required=True)
    ap.add_argument("--init", choices=GROUPED_INITS, default=GROUPED_INITS[0],
                    help="grouped-weight initialization")
    ap.add_argument("--out", required=True)
    _add_settings(ap, {"seed": TrainConfig.seed})
    _add_common(ap)

    ev = _command(sub, "eval", "score a checkpoint or baseline on test regions", _cmd_eval)
    ev.add_argument("--split", required=True)
    ev.add_argument("--checkpoint", default=None)
    ev.add_argument("--baseline", choices=("bicubic",), default=None)
    ev.add_argument("--out-json", dest="out_json", default=None)
    ev.add_argument("--out-csv", dest="out_csv", default=None)
    _add_common(ev)

    be = _command(sub, "bench", "parameter/FLOPs breakdown incl. upsampler share", _cmd_bench)
    be.add_argument("--bands", type=int, default=argparse.SUPPRESS)
    be.add_argument("--scale", type=int, default=argparse.SUPPRESS)
    be.add_argument("--input-size", dest="input_size", default="32x32",
                    help="LR input size HxW for the FLOPs column")
    _add_settings(be, MODEL_DEFAULTS)
    _add_common(be, config=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    want_json = getattr(ns, "json", False)
    try:
        return ns.handler(ns)
    except _NUMERIC_ERRORS as exc:
        _report_error(exc, want_json)
        return 4
    except _VALIDATION_ERRORS as exc:
        _report_error(exc, want_json)
        return 3


def _report_error(exc: Exception, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
