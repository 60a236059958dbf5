"""The benchmark's three workloads and the run that measures them.

Every run is one process and one closed loop: a single caller, each unit of
work starting when the previous one returns. A unit is one optimizer step
(``train_wide``, ``distill_probe``) or one whole region scored by
``train.evaluate`` (``eval_region``). The library is driven only through its
public entry points: ``cli.main``/``cli.load_split``,
``model.save_checkpoint``/``load_checkpoint``, ``train.train``,
``train.distill`` and ``train.evaluate``.

The seed picks one of ``INPUT_SETS`` input sets (``seed % INPUT_SETS``).
``reference.json`` holds the recorded output fingerprint of every set, so
every unit's output is checked whatever seed a run is given.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generate
from tracing import CONV_KINDS, Patches, StepClock, Tracer, cli, model, train

INPUT_SETS = 16
SCALE = 4
SETUP_REPEATS = 9
MB = 1e6

# Fingerprint tolerances (relative). Accumulating every conv in float64
# moves epoch 0's loss_h by up to 1e-6 and region MPSNR/SAM by about 1e-8;
# the tanh approximation of GELU moves them by 2.5e-5 and 1e-4.
LOSS_RTOL = 1e-5
EVAL_RTOL = 1e-5

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _plain_call(_name, fn, *args):
    return fn(*args)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


@dataclass
class Log:
    """What a phase of a run measured and checked."""

    samples: list = field(default_factory=list)  # unit wall times, s
    work_s: float = 0.0
    lr_pixels: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def units(self, count: int, error: str | None) -> None:
        self.attempted += count
        if error is not None:
            self.failed += count
            self.errors.append(error)


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

# A 224x192 cube with one 64x64 test region at its corner gives 26 patches
# (64/32 geometry): 24 train and 2 validation, so every batch is full.
TRAIN_CUBE = (224, 192)
TRAIN_REGIONS = [[0, 0, 64, 64]]


def _probe(**over) -> model.NetConfig:
    base = dict(bands=8, scale_factor=SCALE, feature_channels=16, num_blocks=4,
                lkca_groups=4, ca_reduction=16, drop_path_rate=0.0)
    return model.NetConfig(**{**base, **over})


@dataclass
class TrainingState:
    split: object
    net: object
    teacher: object = None


@dataclass(frozen=True)
class TrainingWorkload:
    name: str
    tag: int  # mixes the workload into the generator seed
    student: model.NetConfig
    teacher: model.NetConfig | None
    batch: int
    epochs: int  # per call of the engine

    def inputs(self, s: int, out_dir: Path) -> dict:
        rng = np.random.default_rng([s, self.tag])
        data = generate.smooth_cube(rng, self.student.bands, *TRAIN_CUBE)
        paths = {"split": generate.prepare_split(data, TRAIN_REGIONS, out_dir, seed=s)}
        if self.teacher is not None:
            paths["teacher"] = out_dir / "teacher.lkca"
            model.save_checkpoint(model.LkcaNet(self.teacher, seed=1000 + s), paths["teacher"])
        return paths

    def setup(self, paths: dict, s: int, call=_plain_call) -> TrainingState:
        split = call("cli.load_split", cli.load_split, paths["split"])
        teacher = None
        if self.teacher is not None:
            teacher, _ = call("model.load_checkpoint", model.load_checkpoint, paths["teacher"])
        return TrainingState(split, model.LkcaNet(self.student, seed=s), teacher)

    def fit(self, state: TrainingState, net, s: int, epochs: int):
        cfg = train.TrainConfig(epochs=epochs, batch_size=self.batch, seed=s)
        if state.teacher is None:
            return train.train(net, state.split, cfg)
        return train.distill(state.teacher, net, state.split, cfg, train.DistillConfig())

    def check(self, result, epochs: int, ref: float) -> str | None:
        if result.diverged:
            return "the engine reported divergence"
        if len(result.history) != epochs:
            return f"history has {len(result.history)} epochs, expected {epochs}"
        for entry in result.history:
            if not (np.isfinite(entry["loss_h"]) and np.isfinite(entry["loss_kd"])):
                return f"non-finite loss in epoch {entry['epoch']}"
        h0 = result.history[0]["loss_h"]
        if not _close(h0, ref, LOSS_RTOL):
            return f"epoch 0 loss_h {h0!r} differs from the recorded {ref!r}"
        return None

    def round(self, state, net, s, epochs, clock: StepClock, log: Log, ref) -> None:
        """One engine call; its steps pass or fail together."""
        started, pixels = clock.started, clock.lr_pixels
        t0 = time.perf_counter()
        try:
            result = self.fit(state, net, s, epochs)
        except Exception as exc:  # a failing unit must not end the run
            result, error = None, _error(exc)
        log.work_s += time.perf_counter() - t0
        if result is not None:
            error = self.check(result, epochs, ref)
        log.lr_pixels += clock.lr_pixels - pixels
        log.units(max(clock.started - started, 1), error)

    def first_pass(self, state, s, clock, log, ref) -> None:
        """One epoch on the set-up model: the memory, tape and warm-up pass."""
        self.round(state, state.net, s, 1, clock, log, ref)

    def phase(self, state, s, seconds, clock: StepClock, log: Log, ref) -> None:
        # Each call starts from the same seeded weights, so every call's
        # epoch 0 is checked against the recorded fingerprint.
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            net = model.LkcaNet(self.student, seed=s)
            first = len(clock.steps)
            self.round(state, net, s, self.epochs, clock, log, ref)
            log.samples.extend(clock.steps[first:])

    def record(self, state, s) -> float:
        result = self.fit(state, state.net, s, 1)
        return result.history[0]["loss_h"]


# ---------------------------------------------------------------------------
# Region evaluation
# ---------------------------------------------------------------------------

# A 32x512x512 cube with two 256x256 test regions across its top half: the
# bottom half yields 105 patches that set-up builds and eval never uses.
EVAL_CUBE = (512, 512)
EVAL_REGIONS = [[0, 0, 256, 256], [0, 256, 256, 256]]
EVAL_POOL = len(EVAL_REGIONS) * generate.DIHEDRAL * generate.BAND_SHIFTS


@dataclass
class EvalState:
    split: object
    net: object
    next_region: int = 0


@dataclass(frozen=True)
class EvalWorkload:
    name: str
    tag: int
    config: model.NetConfig

    def inputs(self, s: int, out_dir: Path) -> dict:
        rng = np.random.default_rng([s, self.tag])
        data = generate.smooth_cube(rng, self.config.bands, *EVAL_CUBE)
        split = generate.prepare_split(data, EVAL_REGIONS, out_dir, seed=s)
        ckpt = out_dir / "model.lkca"
        model.save_checkpoint(model.LkcaNet(self.config, seed=2000 + s), ckpt)
        return {"split": split, "checkpoint": ckpt}

    def setup(self, paths: dict, s: int, call=_plain_call) -> EvalState:
        split = call("cli.load_split", cli.load_split, paths["split"])
        net, _ = call("model.load_checkpoint", model.load_checkpoint, paths["checkpoint"])
        return EvalState(split, net)

    def check(self, per_region, sr, ref) -> str | None:
        if not np.all(np.isfinite(sr)):
            return "non-finite reconstruction"
        m = per_region[0]
        if not all(np.isfinite(v) for v in m.as_dict().values()):
            return "non-finite metric"
        for name, value, expected in (("MPSNR", m.mpsnr, ref[0]), ("SAM", m.sam, ref[1])):
            if not _close(value, expected, EVAL_RTOL):
                return f"{name} {value!r} differs from the recorded {expected!r}"
        return None

    def unit(self, state: EvalState, clock: StepClock, log: Log, refs) -> None:
        k = state.next_region
        state.next_region += 1
        region = generate.derived_region(state.split.test, k)
        clock.last_output = None
        t0 = time.perf_counter()
        try:
            _, per_region = train.evaluate(state.net, [region], SCALE)
        except Exception as exc:  # a failing unit must not end the run
            per_region, error = None, _error(exc)
        dur = time.perf_counter() - t0
        log.samples.append(dur)
        log.work_s += dur
        log.lr_pixels += (region.height // SCALE) * (region.width // SCALE)
        if per_region is not None:
            error = self.check(per_region, clock.last_output, refs[k])
        log.units(1, error)

    def first_pass(self, state, s, clock, log, refs) -> None:
        self.unit(state, clock, log, refs)

    def phase(self, state, s, seconds, clock, log, refs) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if state.next_region >= EVAL_POOL:
                break  # a run never scores a region twice
            self.unit(state, clock, log, refs)

    def record(self, state, s) -> list:
        out = []
        for k in range(EVAL_POOL):
            _, per_region = train.evaluate(state.net, [generate.derived_region(state.split.test, k)], SCALE)
            out.append([per_region[0].mpsnr, per_region[0].sam])
        return out


WORKLOADS = {
    wl.name: wl
    for wl in (
        TrainingWorkload("distill_probe", 1, _probe(num_blocks=2, upsampler_groups=8),
                         _probe(), batch=4, epochs=4),
        TrainingWorkload("train_wide", 2,
                         model.NetConfig(bands=32, scale_factor=SCALE, feature_channels=64, num_blocks=4),
                         None, batch=8, epochs=2),
        EvalWorkload("eval_region", 3,
                     model.NetConfig(bands=32, scale_factor=SCALE, feature_channels=64, num_blocks=4)),
    )
}


def load_reference(name: str, s: int):
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table[name][s]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _traced_peak(fn):
    """Run fn under tracemalloc; return (result, peak bytes above the start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def tail(samples: list) -> tuple[float, float]:
    """The value with exactly ten samples above it, and its percentile
    (the smallest value when a run has ten units or fewer)."""
    ordered = sorted(samples)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _layer_metrics(tracer: Tracer, units: int, overhead: float):
    """Per-layer metrics per unit of work; set-up layers per set-up.

    Returns (metrics, names of metrics not applicable on this workload).
    """
    out: dict[str, tuple] = {}
    na: list[str] = []

    def put(name, value, unit, applicable=True):
        out[name] = (value, unit)
        if not applicable:
            na.append(name)

    def span(key, name, unit="s", attr="total"):
        put(name, getattr(tracer, attr)[key] / units, unit, tracer.calls[key] > 0)

    for kind in CONV_KINDS:
        key = "ops.conv2d." + kind
        used = tracer.calls[key] > 0
        fwd = tracer.total[key]
        span(key, key + ".fwd_s")
        span(key + ".bwd", key + ".bwd_s")
        put(key + ".calls", tracer.calls[key] / units, "count", used)
        put(key + ".gflop_per_s", tracer.conv_flops[kind] / fwd / 1e9 if used else 0.0, "GFLOP/s", used)
        put(key + ".im2col_mb", tracer.im2col_bytes[kind] / MB / units, "MB", used)
    for op in ("layer_norm", "gelu", "channel_attention", "pixel_shuffle", "elementwise"):
        span("ops." + op, f"ops.{op}.fwd_s")
        span(f"ops.{op}.bwd", f"ops.{op}.bwd_s")
    span("autodiff.backward", "autodiff.backward.s", attr="self_time")
    put("autodiff.graph.nodes", tracer.graph_nodes / units, "count", tracer.graph_nodes > 0)
    held, recorded = tracer.tape or (0, 0)
    put("autodiff.tape.mb", held / MB, "MB", tracer.tape is not None)
    put("autodiff.tape.ratio", held / recorded if recorded else 0.0, "ratio", tracer.tape is not None)
    span("model.forward", "model.forward.s", attr="self_time")
    for loss in ("h_loss", "kd_loss"):
        key = "losses." + loss
        put(key + ".s", (tracer.total[key] + tracer.total[key + ".bwd"]) / units, "s", tracer.calls[key] > 0)
    span("train.adam_step", "train.adam_step.s")
    span("train.teacher_forward", "train.teacher_forward.s")
    span("hsi.resize_bands", "hsi.resize_bands.s")
    put("hsi.resize_bands.calls", tracer.calls["hsi.resize_bands"] / units, "count",
        tracer.calls["hsi.resize_bands"] > 0)
    span("hsi.degrade", "hsi.degrade.s")
    for name in ("mpsnr", "mssim", "sam", "cc", "rmse", "ergas"):
        span("metrics." + name, f"metrics.{name}.s")
    put("trace.overhead_s", overhead, "s")
    return out, na


def _setup_layers(tracer: Tracer, patches: int) -> dict:
    """Set-up layer metrics, per set-up (the traced set-up runs once)."""
    out = {
        "hsi.read_cube.s": (tracer.total["hsi.read_cube"], "s"),
        "hsi.read_cube.copy_ratio": (max(tracer.copy_ratios), "ratio"),
        "cli.load_split.s": (tracer.total["cli.load_split"], "s"),
        "cli.load_split.patches": (patches, "count"),
        "model.load_checkpoint.s": (tracer.total["model.load_checkpoint"], "s"),
    }
    na = [] if tracer.calls["model.load_checkpoint"] else ["model.load_checkpoint.s"]
    return out, na


def _end_to_end(wl, paths, s, seconds, clock: StepClock, log: Log, ref):
    """The untraced run: set-up, memory pass, then ``seconds`` of units."""
    state, setup_peak = _traced_peak(lambda: wl.setup(paths, s))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        del state
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(paths, s)
        setup_times.append(time.perf_counter() - t0)
    # Separate from the timed units, since tracing slows them; it also warms up.
    _, peak = _traced_peak(lambda: wl.first_pass(state, s, clock, log, ref))
    timed = Log()
    wl.phase(state, s, seconds, clock, timed, ref)
    tail_s, tail_pct = tail(timed.samples)
    metrics = {
        "lr_kpx_per_s": (timed.lr_pixels / 1e3 / timed.work_s, "kpx/s"),
        "step_s.p50": (statistics.median(timed.samples), "s"),
        "step_s.tail": (tail_s, "s"),
        "peak_mem_mb": (peak / MB, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "setup_mem_mb": (setup_peak / MB, "MB"),
    }
    details = {
        "step_s.tail": {"percentile": tail_pct, "samples": len(timed.samples)},
        "work_s": timed.work_s,
    }
    return metrics, [], details, timed


def _traced(wl, paths, s, seconds, clock: StepClock, log: Log, ref):
    """The traced run: a traced set-up, a traced epoch (or region) under
    tracemalloc for the tape, then seconds/2 untraced and seconds/2 traced."""
    tracer = Tracer()
    with Patches() as p:
        tracer.install(p)
        state, _ = _traced_peak(lambda: wl.setup(paths, s, call=tracer.span))
    setup_metrics, na = _setup_layers(tracer, len(state.split.train) + len(state.split.val))
    tracer.teacher = getattr(state, "teacher", None)
    tracer.reset_counts()
    with Patches() as p:
        tracer.install(p)
        _traced_peak(lambda: wl.first_pass(state, s, clock, log, ref))
    plain = Log()
    wl.phase(state, s, seconds / 2, clock, plain, ref)
    tracer.reset_counts()
    traced = Log()
    with Patches() as p:
        tracer.install(p)
        wl.phase(state, s, seconds / 2, clock, traced, ref)
    p50 = {"untraced": statistics.median(plain.samples), "traced": statistics.median(traced.samples)}
    layer, layer_na = _layer_metrics(tracer, len(traced.samples), p50["traced"] - p50["untraced"])
    if tracer.mismatches:
        traced.units(0, "FLOP reconciliation failed: " + "; ".join(tracer.mismatches[:10]))
    details = {
        "step_s.p50": p50,
        "units_timed": {"untraced": len(plain.samples), "traced": len(traced.samples)},
        "flop_reconciliation": {"forwards": tracer.forwards_reconciled,
                                "mismatches": tracer.mismatches[:10]},
    }
    both = Log(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed,
               errors=plain.errors + traced.errors)
    return {**layer, **setup_metrics}, sorted(set(na) | set(layer_na)), details, both


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    wl = WORKLOADS[name]
    s = seed % INPUT_SETS
    ref = load_reference(name, s)
    paths = wl.inputs(s, work_dir)
    gc.collect()
    clock = StepClock()
    log = Log()  # units outside the timed phases
    with Patches() as hooks:
        clock.install(hooks)
        measure = _traced if trace else _end_to_end
        metrics, na, details, timed = measure(wl, paths, s, seconds, clock, log, ref)
    attempted = log.attempted + timed.attempted
    failed = log.failed + timed.failed
    errors = log.errors + timed.errors
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "not_applicable": na,
        "details": {**details, "input_set": s, "fail_rate": failed / attempted,
                    "errors": errors[:10]},
    }
