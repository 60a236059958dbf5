import gc
import importlib
import json
import os
import shutil
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy
from conftest import run_python, smooth_bands
from oracles import build_split

from lkcanet import cli, hsi
from lkcanet import model as model_module
from lkcanet.cli import load_split, main
from lkcanet.hsi import HsiCube, PatchSpec, custom_protocol, read_cube, write_cube
from lkcanet.losses import DecaySchedule, LossWeights
from lkcanet.model import NetConfig, load_checkpoint, param_breakdown
from lkcanet.train import DistillConfig, TrainConfig


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


TINY_MODEL_FLAGS = [
    "--channels", "8", "--blocks", "1", "--k1", "3", "--k2", "3", "--d1", "1",
    "--d2", "2", "--lkca-groups", "2", "--ca-reduction", "4", "--drop-path", "0.0",
]

SPLIT_FLAGS = [
    "--dataset", "custom", "--regions", "[[0, 0, 16, 32]]", "--scale", "2",
    "--patch-size", "8", "--overlap", "4",
]


def rewrite_header(src, dst, edit):
    """Copy a checkpoint, passing its header's network config through ``edit``."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16 : 16 + hlen])
    edit(header["config"])
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(blob[:12] + struct.pack("<I", len(new)) + new + blob[16 + hlen :])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny cube, a prepared split, and an untrained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    raw = smooth_bands(4, 32, 32, np.random.default_rng(0)).astype(np.float64) * 900.0
    np.save(root / "raw.npy", raw)
    assert run("cube", "convert", str(root / "raw.npy"), str(root / "cube.hsc")) == 0
    assert (
        run(
            "prepare", "--cube", str(root / "cube.hsc"), "--dataset", "custom",
            "--regions", "[[0, 0, 16, 32]]", "--scale", "2", "--patch-size", "8",
            "--overlap", "4", "--out", str(root / "split"),
        )
        == 0
    )
    assert (
        run(
            "train", "--split", str(root / "split"), "--out", str(root / "init.lkca"),
            "--epochs", "0", *TINY_MODEL_FLAGS,
        )
        == 0
    )
    return root


class TestCubeCommands:
    def test_convert_then_info(self, workspace, capsys):
        assert run("cube", "info", str(workspace / "cube.hsc"), "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["bands"], info["height"], info["width"]) == (4, 32, 32)
        assert info["meta"]["norm_max"] > 0

    def test_convert_round_trips_normalization(self, workspace):
        cube = read_cube(workspace / "cube.hsc")
        raw = np.load(workspace / "raw.npy")
        assert cube.meta["norm_max"] == pytest.approx(raw.max())
        assert np.allclose(cube.data * cube.meta["norm_max"], raw, atol=raw.max() * 1e-6)

    def test_vendor_formats_rejected_with_hint(self, workspace, capsys):
        code = run("cube", "convert", str(workspace / "scene.hdr"), str(workspace / "x.hsc"))
        assert code == 3
        assert ".npy" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, workspace):
        assert run("cube", "info", str(workspace / "nope.hsc")) == 3

    def test_header_of_the_wrong_json_type_is_validation_error(self, tmp_path, capsys):
        header = b"[1, 2, 3]"
        path = tmp_path / "list.hsc"
        path.write_bytes(b"HSCUBE01" + struct.pack("<I", len(header)) + header)
        assert run("cube", "info", str(path)) == 3
        assert "unparseable header" in capsys.readouterr().err

    def test_json_error_payload(self, workspace, capsys):
        assert run("cube", "info", str(workspace / "nope.hsc"), "--json") == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"


class TestPrepare:
    def test_split_loadable_and_disjoint(self, workspace):
        split = load_split(workspace / "split")
        assert split.manifest["test_regions"] == [[0, 0, 16, 32]]
        assert len(split.test) == 1
        assert split.test[0].shape == (4, 16, 32)
        total = len(split.train) + len(split.val)
        assert total == 21  # rows {16,20,24} x 7 column origins
        assert len(split.val) == int(total * 0.10)
        for pair in split.train + split.val:
            assert pair.origin[0] >= 16

    def test_loaded_split_matches_built_split(self, workspace):
        loaded = load_split(workspace / "split")
        built = build_split(
            read_cube(workspace / "cube.hsc"), custom_protocol([(0, 0, 16, 32)]),
            PatchSpec(8, 4, 2), seed=0,
        )
        for got, want in [(loaded.train, built.train), (loaded.val, built.val)]:
            assert [p.origin for p in got] == [p.origin for p in want]
            for a, b in zip(got, want):
                assert np.array_equal(a.hr, b.hr)
                assert np.array_equal(a.lr, b.lr)

    def test_prepare_idempotent_outputs(self, workspace, tmp_path):
        out2 = tmp_path / "again"
        assert (
            run(
                "prepare", "--cube", str(workspace / "cube.hsc"), "--dataset", "custom",
                "--regions", "[[0, 0, 16, 32]]", "--scale", "2", "--patch-size", "8",
                "--overlap", "4", "--out", str(out2),
            )
            == 0
        )
        for name in ("split.json", "test_0.hsc"):
            assert (out2 / name).read_bytes() == (workspace / "split" / name).read_bytes()

    def test_relative_cube_path_loads_from_elsewhere(self, workspace, tmp_path, monkeypatch):
        here, elsewhere = tmp_path / "here", tmp_path / "elsewhere"
        here.mkdir()
        elsewhere.mkdir()
        shutil.copy(workspace / "cube.hsc", here / "cube.hsc")
        monkeypatch.chdir(here)
        assert run("prepare", "--cube", "cube.hsc", *SPLIT_FLAGS, "--out", "split") == 0
        monkeypatch.chdir(elsewhere)
        split = load_split(here / "split")
        assert len(split.train) + len(split.val) == 21

    def test_custom_without_regions_rejected(self, workspace, tmp_path):
        code = run(
            "prepare", "--cube", str(workspace / "cube.hsc"), "--dataset", "custom",
            "--scale", "2", "--out", str(tmp_path / "s"),
        )
        assert code == 3

    @pytest.mark.parametrize("regions", [
        "[[0, 0, 16", "[[0, 0]]", "5",
        # A negative height once sliced as an end: a 48-row test region, and
        # the grid patches under it kept for training.
        "[[0, 0, -16, 32]]", "[[0, 0, 16.5, 32]]", '[["a", 0, 16, 32]]', "[[0, 0, 0, 32]]",
    ])
    def test_malformed_regions_rejected(self, workspace, tmp_path, regions):
        code = run(
            "prepare", "--cube", str(workspace / "cube.hsc"), "--dataset", "custom",
            "--regions", regions, "--scale", "2", "--out", str(tmp_path / "s"),
        )
        assert code == 3

    def test_named_dataset_rejects_other_regions(self, workspace, tmp_path, capsys):
        code = run(
            "prepare", "--cube", str(workspace / "cube.hsc"), "--dataset", "pavia",
            "--regions", "[[0, 0, 16, 32]]", "--scale", "2", "--out", str(tmp_path / "s"),
        )
        assert code == 3
        assert "--regions is for --dataset custom" in capsys.readouterr().err

    def test_run_manifest_replays_custom_regions(self, workspace, tmp_path):
        # The manifest records the regions, so the replay needs no --regions.
        manifest = workspace / "split" / "prepare.manifest.json"
        assert json.loads(manifest.read_text())["resolved_config"]["test_regions"] == [[0, 0, 16, 32]]
        again = tmp_path / "again"
        assert run("prepare", "--cube", str(workspace / "cube.hsc"), "--dataset", "custom",
                   "--scale", "2", "--out", str(again), "--config", str(manifest)) == 0
        assert (again / "split.json").read_bytes() == (workspace / "split" / "split.json").read_bytes()


@pytest.fixture(scope="module")
def pavia_splits(tmp_path_factory):
    """Pavia splits (x4, 256 px patches, no overlap) of a 2-band cube of the
    protocol's exact 1096x715 shape and of a larger one, with their sources."""
    root = tmp_path_factory.mktemp("pavia")
    splits = {}
    for name, (h, w) in {"exact": (1096, 715), "larger": (1100, 720)}.items():
        data = np.random.default_rng(h).random((2, h, w), dtype=np.float32)
        write_cube(HsiCube(data), root / f"{name}.hsc")
        assert run("prepare", "--cube", str(root / f"{name}.hsc"), "--dataset", "pavia", "--scale", "4",
                   "--patch-size", "256", "--overlap", "0", "--out", str(root / name)) == 0
        splits[name] = (root / name, data)
    return splits


# Prints how far load_split grows RssAnon, and the source cube's size.
LOAD_SPLIT_RSS_ANON = """
import json, sys
from pathlib import Path
from lkcanet.cli import load_split

def rss_anon():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("RssAnon:"))

before = rss_anon()
split = load_split(sys.argv[1])
grown = rss_anon() - before
manifest = json.loads((Path(sys.argv[1]) / "split.json").read_text())
print(grown, Path(manifest["cube_path"]).stat().st_size)
"""

# Prepares a split from its own test_0.hsc into its own directory, while a
# read of that file is still mapped.
PREPARE_INTO_OWN_SPLIT = """
import sys
from pathlib import Path
import numpy as np
from lkcanet.cli import main
from lkcanet.hsi import read_cube
test_0 = Path(sys.argv[1]) / "test_0.hsc"
old = read_cube(test_0)
samples = np.array(old.data)
code = main(["prepare", "--cube", str(test_0), "--dataset", "custom", "--regions", "[[0, 0, 8, 16]]",
             "--scale", "2", "--patch-size", "4", "--overlap", "2", "--out", sys.argv[1]])
assert code == 0, code
assert np.array_equal(old.data, samples), "the old map lost its samples"
assert np.array_equal(read_cube(test_0).data, samples[:, :8, :16]), "test_0.hsc is not the new region"
"""


class TestLoadSplit:
    @pytest.mark.parametrize("content", ["[1]", '{"test_files": 5, "scale_factor": 2}'])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_malformed_split_json_is_validation_error(self, workspace, tmp_path, capsys, command, content):
        split = tmp_path / "split"
        shutil.copytree(workspace / "split", split)
        (split / "split.json").write_text(content)
        flags = {"eval": ["--baseline", "bicubic"],
                 "train": ["--out", str(tmp_path / "m.lkca"), "--epochs", "0", *TINY_MODEL_FLAGS]}
        assert run(command, "--split", str(split), *flags[command]) == 3
        assert "split.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command,field,value", [
        ("eval", "scale_factor", "2"), ("train", "scale_factor", "2"), ("train", "patch_size", "8"),
        ("train", "overlap", 4.0), ("train", "cube_shape", [4.0, 32, 32]), ("train", "train_origins", [["0", "0"]]),
        ("train", "cube_path", 5),
    ])
    def test_mistyped_field_is_validation_error(self, workspace, tmp_path, capsys, command, field, value):
        # A string or float where an integer belongs, or a number for a path,
        # is a validation error, not a TypeError.
        split = tmp_path / "split"
        shutil.copytree(workspace / "split", split)
        manifest = json.loads((split / "split.json").read_text())
        (split / "split.json").write_text(json.dumps({**manifest, field: value}))
        flags = {"eval": ["--baseline", "bicubic"],
                 "train": ["--out", str(tmp_path / "m.lkca"), "--epochs", "0", *TINY_MODEL_FLAGS]}
        assert run(command, "--split", str(split), *flags[command]) == 3
        err = capsys.readouterr().err
        assert "split.json" in err and field in err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_split_json_that_is_not_json_names_the_file(self, workspace, tmp_path, capsys, command):
        split = tmp_path / "split"
        shutil.copytree(workspace / "split", split)
        (split / "split.json").write_text("{not json")
        flags = {"eval": ["--baseline", "bicubic"],
                 "train": ["--out", str(tmp_path / "m.lkca"), "--epochs", "0", *TINY_MODEL_FLAGS]}
        assert run(command, "--split", str(split), *flags[command]) == 3
        assert f"{split / 'split.json'}: not valid JSON" in capsys.readouterr().err

    def test_short_cube_shape_is_validation_error(self, workspace, tmp_path, capsys):
        split = tmp_path / "split"
        shutil.copytree(workspace / "split", split)
        manifest = json.loads((split / "split.json").read_text())
        (split / "split.json").write_text(json.dumps({**manifest, "cube_shape": []}))
        assert run("train", "--split", str(split), "--out", str(tmp_path / "m.lkca"), "--epochs", "0",
                   *TINY_MODEL_FLAGS) == 3
        assert "cube_shape must hold 3 integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "distill"])
    def test_bad_model_config_exits_before_the_cube_is_read(self, workspace, tmp_path, capsys, command):
        # The source cube is gone, so a split load would fail on the missing
        # file; the even kernel is rejected first, from split.json alone.
        cube = tmp_path / "cube.hsc"
        shutil.copy(workspace / "cube.hsc", cube)
        assert run("prepare", "--cube", str(cube), *SPLIT_FLAGS, "--out", str(tmp_path / "split")) == 0
        cube.unlink()
        teacher = ["--teacher", str(workspace / "init.lkca")] if command == "distill" else []
        code = run(command, *teacher, "--split", str(tmp_path / "split"), "--out", str(tmp_path / "m.lkca"),
                   "--epochs", "0", *TINY_MODEL_FLAGS, "--k1", "4")
        assert code == 3
        err = capsys.readouterr().err
        assert "kernel_sizes=[4, 3] must be odd" in err and "cube.hsc" not in err

    @pytest.mark.parametrize("region", [[0, 0, -16, 32], [0, 0, 16.5, 32], [0, 0, 0, 32]])
    def test_edited_test_region_is_validation_error(self, workspace, tmp_path, capsys, region):
        split = tmp_path / "split"
        shutil.copytree(workspace / "split", split)
        manifest = json.loads((split / "split.json").read_text())
        (split / "split.json").write_text(json.dumps({**manifest, "test_regions": [region]}))
        code = run("train", "--split", str(split), "--out", str(tmp_path / "m.lkca"),
                   "--epochs", "0", *TINY_MODEL_FLAGS)
        assert code == 3
        assert f"region {region}" in capsys.readouterr().err

    def test_changed_custom_source_is_validation_error(self, workspace, tmp_path, capsys):
        cube = tmp_path / "cube.hsc"
        shutil.copy(workspace / "cube.hsc", cube)
        assert run("prepare", "--cube", str(cube), *SPLIT_FLAGS, "--out", str(tmp_path / "split")) == 0
        write_cube(HsiCube(np.random.default_rng(1).random((4, 40, 40), dtype=np.float32)), cube)
        code = run("train", "--split", str(tmp_path / "split"), "--out", str(tmp_path / "m.lkca"),
                   "--epochs", "0", *TINY_MODEL_FLAGS)
        assert code == 3
        err = capsys.readouterr().err
        assert "[4, 32, 32]" in err and "[4, 40, 40]" in err

    @pytest.mark.parametrize("name", ["exact", "larger"])
    def test_named_split_cuts_the_planned_patches(self, pavia_splits, name):
        split_dir, data = pavia_splits[name]
        split = load_split(split_dir)
        manifest = json.loads((split_dir / "split.json").read_text())
        assert [list(p.origin) for p in split.train] == manifest["train_origins"]
        assert [list(p.origin) for p in split.val] == manifest["val_origins"]
        dr, dc = (data.shape[1] - 1096) // 2, (data.shape[2] - 715) // 2
        for pair in split.train + split.val:
            r0, c0 = dr + pair.origin[0], dc + pair.origin[1]
            assert np.array_equal(pair.hr, data[:, r0 : r0 + 256, c0 : c0 + 256])
            assert np.array_equal(pair.lr, hsi.degrade_array(pair.hr, 4))

    def test_named_split_holds_its_source_once(self, pavia_splits):
        split_dir, data = pavia_splits["exact"]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            split = load_split(split_dir)
            held, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert split.train
        # The mapped source is file-backed: the split holds its LR patches,
        # and beside them the load peaks at one resize chunk's work.
        assert held <= 0.25 * data.nbytes, f"load_split held {held / data.nbytes:.2f}x the cube"
        assert peak <= held + 2 * hsi._RESIZE_CHUNK_BYTES, f"load_split peaked at {peak / data.nbytes:.2f}x the cube"

    def test_loaded_split_holds_its_source_once(self, tmp_path):
        # The benchmark's train_wide shape: 32x224x192 at x4, one 64x64 test
        # region and 26 patches (64/32 geometry).
        data = np.random.default_rng(0).random((32, 224, 192), dtype=np.float32)
        write_cube(HsiCube(data), tmp_path / "cube.hsc")
        assert run("prepare", "--cube", str(tmp_path / "cube.hsc"), "--dataset", "custom",
                   "--regions", "[[0, 0, 64, 64]]", "--scale", "4", "--out", str(tmp_path / "split")) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            split = load_split(tmp_path / "split")
            held, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(split.train) + len(split.val) == 26 and len(split.test) == 1
        # Copies of the patches and a second read of the test region held
        # 2.73x the cube and peaked at 3.97x; a cube read into memory held
        # 1.16x. The mapped cube leaves the LR patches (0.16x).
        assert held <= 0.25 * data.nbytes, f"load_split held {held / data.nbytes:.2f}x the cube"
        assert peak <= held + 2 * hsi._RESIZE_CHUNK_BYTES, f"load_split peaked at {peak / data.nbytes:.2f}x the cube"
        views = [pair.hr for pair in split.train + split.val] + [region.data for region in split.test]
        source = views[0].base
        assert source.nbytes == data.nbytes
        assert all(v.base is source and np.shares_memory(v, source) for v in views)
        assert np.array_equal(split.test[0].data, data[:, :64, :64])

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads RssAnon from /proc")
    def test_loaded_split_keeps_its_source_out_of_anonymous_memory(self, tmp_path):
        # A 64 MiB source whose samples read into memory grew RssAnon by more
        # than the cube; mapped, they are file-backed pages.
        data = np.random.default_rng(0).random((16, 1024, 1024), dtype=np.float32)
        write_cube(HsiCube(data), tmp_path / "cube.hsc")
        del data
        assert run("prepare", "--cube", str(tmp_path / "cube.hsc"), "--dataset", "custom",
                   "--regions", "[[0, 0, 128, 128]]", "--scale", "4", "--patch-size", "128",
                   "--overlap", "0", "--out", str(tmp_path / "split")) == 0
        done = run_python(LOAD_SPLIT_RSS_ANON, tmp_path / "split")
        assert done.returncode == 0, done.stderr
        grown, nbytes = map(int, done.stdout.split())
        assert grown < nbytes / 2, f"RssAnon grew by {grown / nbytes:.2f}x the cube"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_dropped_splits_close_their_maps(self, workspace):
        # Each live map of a cube holds a duplicate of its file descriptor.
        assert load_split(workspace / "split").train
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(300):
            assert load_split(workspace / "split").train
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_prepare_into_the_split_it_reads_from(self, workspace, tmp_path):
        shutil.copytree(workspace / "split", tmp_path / "split")
        done = run_python(PREPARE_INTO_OWN_SPLIT, tmp_path / "split")
        assert done.returncode == 0, f"exit {done.returncode}: {done.stderr}"

    def test_train_and_distill_read_no_test_file(self, workspace, tmp_path):
        split = tmp_path / "split"
        shutil.copytree(workspace / "split", split)
        for path in split.glob("test_*.hsc"):
            path.unlink()
        fit = ["--epochs", "1", "--batch-size", "4", *TINY_MODEL_FLAGS]
        # A distilled checkpoint records its teacher's path, so both runs share one.
        teacher = tmp_path / "intact.lkca"
        for name, source in (("intact", workspace / "split"), ("no-test", split)):
            assert run("train", "--split", str(source), "--out", str(tmp_path / f"{name}.lkca"),
                       *fit, "--blocks", "2") == 0
            assert run("distill", "--teacher", str(teacher), "--split", str(source),
                       "--out", str(tmp_path / f"{name}-student.lkca"), *fit) == 0
        for suffix in (".lkca", "-student.lkca"):
            assert (tmp_path / f"intact{suffix}").read_bytes() == (tmp_path / f"no-test{suffix}").read_bytes()
        assert run("eval", "--split", str(split), "--baseline", "bicubic") == 3


class TestTrainCli:
    def test_zero_epochs_saves_initial_model(self, workspace):
        model, meta = load_checkpoint(workspace / "init.lkca")
        assert model.config.feature_channels == 8
        assert meta["epochs"] == 0

    def test_train_writes_log_and_manifest(self, workspace, tmp_path):
        out = tmp_path / "m.lkca"
        log = tmp_path / "m.jsonl"
        assert (
            run(
                "train", "--split", str(workspace / "split"), "--out", str(out),
                "--epochs", "2", "--batch-size", "4", "--log", str(log), *TINY_MODEL_FLAGS,
            )
            == 0
        )
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "lr", "D", "loss_h", "loss_kd", "val_mpsnr"}
        manifest = json.loads((tmp_path / "m.lkca.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["resolved_config"]["epochs"] == 2

    def test_manifest_records_numeric_environment(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "m.lkca"
        args = ["train", "--split", str(workspace / "split"), "--out", str(out), "--epochs", "0"]
        assert run(*args, *TINY_MODEL_FLAGS) == 0
        env = json.loads((tmp_path / "m.lkca.manifest.json").read_text())["environment"]
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["blas"] == {"name": blas.get("name"), "version": blas.get("version")}
        assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["thread_env"]["MKL_NUM_THREADS"] is None
        assert set(env["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["cpu_count"] == os.cpu_count()

    @pytest.mark.parametrize("flag", [["--deterministic"], ["--threads", "2"]])
    def test_removed_flags_rejected(self, workspace, tmp_path, flag):
        out = tmp_path / "m.lkca"
        assert run("train", "--split", str(workspace / "split"), "--out", str(out), *flag) == 2

    def test_non_finite_gradient_keeps_last_epoch(self, workspace, tmp_path, capsys, monkeypatch):
        # 19 training patches in batches of 4: step 7 is the second step of epoch 1.
        train_mod = importlib.import_module("lkcanet.train")
        adam_step, steps = train_mod.adam_step, []

        def poisoned(params, *args, **kwargs):
            steps.append(None)
            if len(steps) == 7:
                params["head.weight"].grad = np.full_like(params["head.weight"].grad, np.nan)
            adam_step(params, *args, **kwargs)

        monkeypatch.setattr(train_mod, "adam_step", poisoned)
        args = ["train", "--split", str(workspace / "split"), "--batch-size", "4", *TINY_MODEL_FLAGS]
        diverged, log = tmp_path / "d.lkca", tmp_path / "d.jsonl"
        assert run(*args, "--out", str(diverged), "--epochs", "2", "--log", str(log)) == 4
        assert "head.weight" in capsys.readouterr().err
        assert len(log.read_text().splitlines()) == 1
        monkeypatch.setattr(train_mod, "adam_step", adam_step)
        one_epoch = tmp_path / "e.lkca"
        assert run(*args, "--out", str(one_epoch), "--epochs", "1") == 0
        a, _ = load_checkpoint(diverged)
        b, _ = load_checkpoint(one_epoch)
        for k in a.state_arrays():
            assert np.array_equal(a.state_arrays()[k], b.state_arrays()[k])

    def test_non_finite_loss_keeps_last_epoch(self, workspace, tmp_path, capsys, monkeypatch):
        # 19 training patches in batches of 4: step 7 is the second step of epoch 1.
        train_mod = importlib.import_module("lkcanet.train")
        h_loss, steps = train_mod.h_loss, []

        def poisoned(*args, **kwargs):
            h = h_loss(*args, **kwargs)
            steps.append(None)
            if len(steps) == 7:
                h.value = np.full_like(h.value, np.nan)
            return h

        monkeypatch.setattr(train_mod, "h_loss", poisoned)
        args = ["train", "--split", str(workspace / "split"), "--batch-size", "4", *TINY_MODEL_FLAGS]
        diverged, log = tmp_path / "d.lkca", tmp_path / "d.jsonl"
        assert run(*args, "--out", str(diverged), "--epochs", "2", "--log", str(log)) == 4
        assert "non-finite loss" in capsys.readouterr().err
        assert len(log.read_text().splitlines()) == 1
        monkeypatch.setattr(train_mod, "h_loss", h_loss)
        one_epoch = tmp_path / "e.lkca"
        assert run(*args, "--out", str(one_epoch), "--epochs", "1") == 0
        a, _ = load_checkpoint(diverged)
        b, _ = load_checkpoint(one_epoch)
        for k in a.state_arrays():
            assert np.array_equal(a.state_arrays()[k], b.state_arrays()[k])

    def test_loss_weights_from_the_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam1": 5.0, "lam3": 0.0}))
        args = ["train", "--split", str(workspace / "split"), "--epochs", "1", "--batch-size", "4",
                *TINY_MODEL_FLAGS]
        weighted, plain = tmp_path / "w.lkca", tmp_path / "p.lkca"
        assert run(*args, "--out", str(weighted), "--config", str(cfg)) == 0
        assert run(*args, "--out", str(plain)) == 0
        resolved = json.loads((tmp_path / "w.lkca.manifest.json").read_text())["resolved_config"]
        assert (resolved["lam1"], resolved["lam3"]) == (5.0, 0.0)
        a, meta = load_checkpoint(weighted)
        b, _ = load_checkpoint(plain)
        assert meta["loss_weights"] == vars(LossWeights(lam1=5.0, lam3=0.0))
        assert not np.array_equal(a.state_arrays()["head.weight"], b.state_arrays()["head.weight"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_prints_no_runtime_warning(self, workspace, tmp_path, capsys):
        # Adam's first step moves every weight by about 1e30; the next
        # forward overflows, which stops the run before numpy can warn.
        out = tmp_path / "d.lkca"
        args = ["train", "--split", str(workspace / "split"), "--out", str(out), "--epochs", "2",
                "--batch-size", "4", "--lr", "1e30", "--final-lr", "1e30", *TINY_MODEL_FLAGS]
        assert run(*args) == 4
        err = capsys.readouterr().err
        assert "diverged (overflow encountered in" in err and "in epoch 0)" in err
        model, _ = load_checkpoint(out)
        initial, _ = load_checkpoint(workspace / "init.lkca")
        for name, value in model.state_arrays().items():
            assert np.array_equal(value, initial.state_arrays()[name])

    def test_config_file_flag_precedence(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "channels": 8, "blocks": 1, "k1": 3,
                                   "k2": 3, "d1": 1, "d2": 2, "lkca_groups": 2,
                                   "ca_reduction": 4, "drop_path": 0.0}))
        out = tmp_path / "m.lkca"
        # --blocks on the command line overrides the file's blocks=1
        assert (
            run(
                "train", "--split", str(workspace / "split"), "--out", str(out),
                "--config", str(cfg), "--blocks", "2",
            )
            == 0
        )
        model, _ = load_checkpoint(out)
        assert model.config.num_blocks == 2
        assert model.config.feature_channels == 8  # from file


class TestDistillCli:
    def test_alpha_zero_log_identical_to_train(self, workspace, tmp_path):
        teacher = tmp_path / "teacher.lkca"
        assert (
            run(
                "train", "--split", str(workspace / "split"), "--out", str(teacher),
                "--epochs", "0", "--channels", "8", "--blocks", "2", "--k1", "3",
                "--k2", "3", "--d1", "1", "--d2", "2", "--lkca-groups", "2",
                "--ca-reduction", "4", "--drop-path", "0.0",
            )
            == 0
        )
        log_train = tmp_path / "train.jsonl"
        log_distill = tmp_path / "distill.jsonl"
        common = ["--epochs", "2", "--batch-size", "4", *TINY_MODEL_FLAGS]
        assert (
            run(
                "train", "--split", str(workspace / "split"),
                "--out", str(tmp_path / "a.lkca"), "--log", str(log_train), *common,
            )
            == 0
        )
        assert (
            run(
                "distill", "--teacher", str(teacher), "--split", str(workspace / "split"),
                "--out", str(tmp_path / "b.lkca"), "--log", str(log_distill),
                "--alpha", "0", *common,
            )
            == 0
        )
        assert log_train.read_bytes() == log_distill.read_bytes()
        a, _ = load_checkpoint(tmp_path / "a.lkca")
        b, _ = load_checkpoint(tmp_path / "b.lkca")
        for k in a.state_arrays():
            assert np.array_equal(a.state_arrays()[k], b.state_arrays()[k])

    def test_student_not_shallower_rejected(self, workspace, tmp_path):
        code = run(
            "distill", "--teacher", str(workspace / "init.lkca"),
            "--split", str(workspace / "split"), "--out", str(tmp_path / "x.lkca"),
            "--epochs", "1", *TINY_MODEL_FLAGS,
        )
        assert code == 3

    def test_student_defaults_inherit_teacher_at_half_depth(self, workspace, tmp_path):
        teacher = tmp_path / "teacher.lkca"
        assert (
            run(
                "train", "--split", str(workspace / "split"), "--out", str(teacher),
                "--epochs", "0", "--channels", "8", "--blocks", "2", "--k1", "3",
                "--k2", "3", "--d1", "1", "--d2", "2", "--lkca-groups", "2",
                "--ca-reduction", "4", "--drop-path", "0.0",
            )
            == 0
        )
        out = tmp_path / "student.lkca"
        assert (
            run(
                "distill", "--teacher", str(teacher), "--split", str(workspace / "split"),
                "--out", str(out), "--epochs", "1",
            )
            == 0
        )
        student, _ = load_checkpoint(out)
        assert student.config.feature_channels == 8
        assert student.config.num_blocks == 1
        assert student.config.kernel_sizes == (3, 3)


class TestAnalyzeAndApproximate:
    def test_analyze_rank_csv_row_law(self, workspace, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        out_json = tmp_path / "rank.json"
        assert (
            run(
                "analyze-rank", "--checkpoint", str(workspace / "init.lkca"),
                "--out-csv", str(out_csv), "--out-json", str(out_json),
            )
            == 0
        )
        report = json.loads(out_json.read_text())
        # p = min(B*r^2, C*k^2) = min(16, 72)
        assert report["matrix_shape"] == [16, 72]
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 1 + 16
        assert lines[0] == "index,sigma,cumulative"
        assert report["recommended_groups"] == 8

    def test_analyze_rank_idempotent(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("analyze-rank", "--checkpoint", str(workspace / "init.lkca"), "--out-csv", str(a))
        run("analyze-rank", "--checkpoint", str(workspace / "init.lkca"), "--out-csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", [["--layer", "upsampler"]])
    def test_removed_flags_rejected(self, workspace, flag):
        assert run("analyze-rank", "--checkpoint", str(workspace / "init.lkca"), *flag) == 2

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda c: c.update(bogus=1), "bogus"),
            (lambda c: c.pop("bands"), "bands"),
            (lambda c: c.update(block_out_projection=False), "block_out_projection"),
        ],
        ids=["unknown_key", "missing_key", "no_out_projection"],
    )
    def test_bad_header_config_is_validation_error(self, workspace, tmp_path, capsys, edit, named):
        bad = tmp_path / "bad.lkca"
        rewrite_header(workspace / "init.lkca", bad, edit)
        assert run("analyze-rank", "--checkpoint", str(bad)) == 3
        assert named in capsys.readouterr().err

    def test_older_header_loads(self, workspace, tmp_path):
        # Headers written before the output projection became unconditional
        # store block_out_projection: true.
        old = tmp_path / "old.lkca"
        rewrite_header(workspace / "init.lkca", old, lambda c: c.update(block_out_projection=True))
        assert run("analyze-rank", "--checkpoint", str(old)) == 0
        a, _ = load_checkpoint(old)
        b, _ = load_checkpoint(workspace / "init.lkca")
        assert a.config == b.config
        for k in a.state_arrays():
            assert np.array_equal(a.state_arrays()[k], b.state_arrays()[k])

    def test_approximate_rewrites_upsampler(self, workspace, tmp_path, capsys):
        out = tmp_path / "grouped.lkca"
        assert (
            run(
                "approximate", "--checkpoint", str(workspace / "init.lkca"),
                "--groups", "2", "--out", str(out),
            )
            == 0
        )
        grouped, meta = load_checkpoint(out)
        assert grouped.config.upsampler_groups == 2
        assert meta["upsampler_init"] == "random"
        full, _ = load_checkpoint(workspace / "init.lkca")
        # backbone preserved, upsampler rewritten
        assert np.array_equal(
            grouped.params["head.weight"].value, full.params["head.weight"].value
        )
        assert grouped.params["upsampler.weight"].value.shape == (16, 4, 3, 3)

    def test_svd_blocks_init(self, workspace, tmp_path):
        out = tmp_path / "blocks.lkca"
        assert (
            run(
                "approximate", "--checkpoint", str(workspace / "init.lkca"),
                "--groups", "2", "--init", "svd_blocks", "--out", str(out),
            )
            == 0
        )
        grouped, _ = load_checkpoint(out)
        full, _ = load_checkpoint(workspace / "init.lkca")
        fw = full.params["upsampler.weight"].value
        gw = grouped.params["upsampler.weight"].value
        assert np.array_equal(gw[:8], fw[:8, :4])  # first diagonal block copied


class TestEvalCli:
    def test_bicubic_baseline(self, workspace, tmp_path, capsys):
        out_json = tmp_path / "metrics.json"
        assert (
            run(
                "eval", "--split", str(workspace / "split"), "--baseline", "bicubic",
                "--out-json", str(out_json), "--out-csv", str(tmp_path / "metrics.csv"),
            )
            == 0
        )
        payload = json.loads(out_json.read_text())
        assert payload["model"] == "bicubic"
        assert set(payload["average"]) == {"MPSNR", "MSSIM", "SAM", "CC", "RMSE", "ERGAS"}
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "MPSNR,MSSIM,SAM,CC,RMSE,ERGAS"

    def test_checkpoint_eval(self, workspace, capsys):
        assert run("eval", "--split", str(workspace / "split"), "--checkpoint",
                   str(workspace / "init.lkca")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.isfinite(payload["average"]["MPSNR"])  # untrained net, any finite score

    def test_needs_model_or_baseline(self, workspace):
        assert run("eval", "--split", str(workspace / "split")) == 3

    @pytest.mark.parametrize("flag", [["--tile", "4"], ["--margin", "8"]])
    def test_removed_flags_rejected(self, workspace, flag):
        assert run("eval", "--split", str(workspace / "split"), "--baseline", "bicubic", *flag) == 2

    def test_prepare_and_eval_cut_no_patches(self, workspace, tmp_path, monkeypatch):
        def cut(*args):
            raise AssertionError("patch_pairs called")

        monkeypatch.setattr(hsi, "patch_pairs", cut)
        monkeypatch.setattr(cli, "patch_pairs", cut, raising=False)
        cube = tmp_path / "cube.hsc"
        shutil.copy(workspace / "cube.hsc", cube)
        split = str(tmp_path / "split")
        assert run("prepare", "--cube", str(cube), *SPLIT_FLAGS, "--out", split) == 0
        cube.unlink()  # eval needs the split directory only
        assert run("eval", "--split", split, "--baseline", "bicubic") == 0
        assert run("eval", "--split", split, "--checkpoint", str(workspace / "init.lkca")) == 0


class TestBench:
    def test_reference_upsampler_counts(self, capsys):
        assert run("bench", "--bands", "128", "--scale", "4", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params_upsampler"] == 2359296
        assert payload["upsampler_by_groups"]["8"] == 294912
        assert 0 < payload["upsampler_share"] < 1

    def test_human_output_mentions_share(self, capsys):
        assert run("bench", "--bands", "48", "--scale", "4") == 0
        out = capsys.readouterr().out
        assert "share" in out
        assert "884,736" in out  # 128*48*16*9

    def test_missing_bands_rejected(self):
        assert run("bench", "--scale", "4") == 3

    def test_group_table_lists_the_counts_the_config_accepts(self, capsys):
        # C=8 and bands*r^2=12: 8 and 16 divide C but not 12.
        assert run("bench", "--bands", "3", "--scale", "2", "--channels", "8", "--lkca-groups", "2",
                   "--ca-reduction", "4", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upsampler_by_groups"] == {"1": 864, "2": 432, "4": 216}
        config = NetConfig.from_dict(payload["config"])
        for g, count in payload["upsampler_by_groups"].items():
            assert count == param_breakdown(config.with_upsampler_groups(int(g)))["upsampler"]

    def test_group_table_of_a_grouped_config_counts_from_the_full_layer(self, capsys):
        assert run("bench", "--bands", "128", "--scale", "4", "--groups", "8", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params_upsampler"] == 294912
        assert payload["upsampler_by_groups"]["1"] == 2359296
        assert payload["upsampler_by_groups"]["8"] == 294912

    def test_non_dividing_groups_exit_three(self, workspace, tmp_path, capsys):
        # C=8 and bands*r^2=16: 3 divides neither.
        assert run("bench", "--bands", "4", "--scale", "2", *TINY_MODEL_FLAGS, "--groups", "3") == 3
        out = tmp_path / "bad.lkca"
        assert run("approximate", "--checkpoint", str(workspace / "init.lkca"), "--groups", "3",
                   "--out", str(out)) == 3
        assert not out.exists()
        assert capsys.readouterr().err.count("upsampler_groups=3") == 2

    @pytest.mark.parametrize("flags,field", [(["--k1", "4"], "kernel_sizes"), (["--k2", "0"], "kernel_sizes"),
                                             (["--d1", "0"], "dilations")])
    def test_bad_kernel_or_dilation_exits_three(self, capsys, flags, field):
        small = ["--bands", "4", "--scale", "2", "--channels", "8", "--lkca-groups", "2", "--ca-reduction", "4"]
        assert run("bench", *small, *flags) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0x-5", "0x32", "32x0"])
    def test_empty_input_size_exits_three(self, capsys, size):
        assert run("bench", "--bands", "48", "--scale", "4", "--input-size", size) == 3
        assert "--input-size" in capsys.readouterr().err


class TestUsageAndHelp:
    def test_unknown_flag_exits_two(self, capsys):
        assert run("bench", "--bogus") == 2

    def test_numeric_failure_exits_four(self, capsys, monkeypatch):
        import lkcanet.cli as cli
        from lkcanet.train import NonFiniteGradientError

        def boom(ns):
            raise NonFiniteGradientError("non-finite gradient for parameter 'head.weight'")

        monkeypatch.setitem(vars(cli), "_cmd_bench", boom)
        parser = cli.build_parser()
        ns = parser.parse_args(["bench", "--bands", "4", "--scale", "2"])
        ns.handler = boom
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv: ns)
        assert cli.main(["bench", "--bands", "4", "--scale", "2"]) == 4
        assert "head.weight" in capsys.readouterr().err

    def test_manifest_replay_as_config(self, workspace, tmp_path):
        # A run manifest feeds back through --config to reproduce the run.
        out1 = tmp_path / "a.lkca"
        assert (
            run(
                "train", "--split", str(workspace / "split"), "--out", str(out1),
                "--epochs", "1", "--batch-size", "4", *TINY_MODEL_FLAGS,
            )
            == 0
        )
        out2 = tmp_path / "b.lkca"
        assert (
            run(
                "train", "--split", str(workspace / "split"), "--out", str(out2),
                "--config", str(tmp_path / "a.lkca.manifest.json"),
            )
            == 0
        )
        assert out1.read_bytes()[:128] == out2.read_bytes()[:128]  # same config header
        a, _ = load_checkpoint(out1)
        b, _ = load_checkpoint(out2)
        for k in a.state_arrays():
            assert np.array_equal(a.state_arrays()[k], b.state_arrays()[k])

    @pytest.mark.parametrize(
        "argv",
        [
            *[[*cmd, flag, "1"] for cmd in (
                ["cube", "info", "c.hsc"],
                ["cube", "convert", "a.npy", "b.hsc"],
                ["analyze-rank", "--checkpoint", "m.lkca"],
                ["eval", "--split", "s"],
            ) for flag in ("--seed", "--config")],
            ["approximate", "--checkpoint", "m.lkca", "--groups", "2", "--out", "g.lkca", "--config", "1"],
            ["bench", "--bands", "4", "--scale", "2", "--seed", "1"],
        ],
        ids=" ".join,
    )
    def test_unread_common_flags_rejected(self, capsys, argv):
        assert run(*argv) == 2
        assert f"unrecognized arguments: {argv[-2]} 1" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self, capsys):
        assert run() == 2

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default" in text
        assert "--seed" in text

    def test_distill_help_names_teacher_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distill", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default 128)" not in text
        assert "(default 16)" not in text
        assert "feature channels C (default the teacher's)" in text
        assert "number of attention blocks (default half the teacher's, at least 1)" in text
        assert "upsampler groups; 1 = full convolution (default 1)" in text


class TestSettings:
    @pytest.fixture(scope="class")
    def teacher(self, workspace):
        path = workspace / "teacher2.lkca"
        args = ["--split", str(workspace / "split"), "--out", str(path), "--epochs", "0"]
        assert run("train", *args, *TINY_MODEL_FLAGS, "--blocks", "2") == 0
        return path

    @pytest.mark.parametrize(
        "command",
        [["cube"], ["cube", "info"], ["cube", "convert"], ["prepare"], ["train"], ["distill"],
         ["analyze-rank"], ["approximate"], ["eval"], ["bench"]],
        ids=" ".join,
    )
    def test_help_exits_zero(self, capsys, command):
        assert run(*command, "--help") == 0
        assert "usage: lkcanet" in capsys.readouterr().out

    def test_settings_table_matches_the_library(self):
        # Fields a setting does not set: the data fixes them, or a pair of
        # settings (k1/k2, d1/d2) or a whole owner (weights, decay) builds them.
        by_hand = {NetConfig: {"bands", "scale_factor", "kernel_sizes", "dilations"},
                   DistillConfig: {"weights", "decay"}}
        rows = [(owner, name) for *_, owner, name in cli._SETTINGS.values() if owner is not None]
        for owner, name in rows:
            assert name in {f.name for f in fields(owner)}, (owner.__name__, name)
        for owner in (NetConfig, TrainConfig, LossWeights, DecaySchedule, DistillConfig):
            for f in fields(owner):
                if f.name not in by_hand.get(owner, ()):
                    assert rows.count((owner, f.name)) == 1, (owner.__name__, f.name)

    def test_defaults_are_the_library_defaults(self, workspace, teacher, tmp_path, monkeypatch, capsys):
        seen = {}

        def spy(fit):
            def wrapped(*args):
                seen[fit.__name__] = args
                return fit(*args)
            return wrapped

        monkeypatch.setattr(cli, "train", spy(cli.train))
        monkeypatch.setattr(cli, "distill", spy(cli.distill))
        split = ["--split", str(workspace / "split"), "--epochs", "0"]
        assert run("train", *split, "--out", str(tmp_path / "t.lkca")) == 0
        model, _, cfg, weights = seen["train"]
        assert model.config == NetConfig(bands=4, scale_factor=2)
        assert cfg == TrainConfig(epochs=0)
        assert weights == LossWeights()
        assert run("distill", *split, "--teacher", str(teacher), "--out", str(tmp_path / "d.lkca")) == 0
        t, student, _, cfg, dcfg = seen["distill"]
        assert student.config == replace(t.config, num_blocks=1)
        assert (cfg, dcfg) == (TrainConfig(epochs=0), DistillConfig())
        capsys.readouterr()
        assert run("bench", "--bands", "4", "--scale", "2", "--json") == 0
        assert json.loads(capsys.readouterr().out)["config"] == NetConfig(bands=4, scale_factor=2).to_dict()

    def test_replayed_train_and_distill_manifests_keep_their_seed(self, workspace, teacher, tmp_path):
        # (inputs, settings) of each run; a replay gives the inputs and the manifest.
        runs = {
            "train": ([], TINY_MODEL_FLAGS),
            "distill": (["--teacher", str(teacher)], []),
        }
        for command, (inputs, flags) in runs.items():
            inputs = ["--split", str(workspace / "split"), *inputs]
            first, again = tmp_path / f"{command}_a.lkca", tmp_path / f"{command}_b.lkca"
            args = ["--epochs", "1", "--batch-size", "4", "--seed", "5", *flags]
            assert run(command, *inputs, *args, "--out", str(first)) == 0
            manifest = str(first) + ".manifest.json"
            assert json.loads(open(manifest).read())["resolved_config"]["seed"] == 5
            assert run(command, *inputs, "--out", str(again), "--config", manifest) == 0
            assert again.read_bytes() == first.read_bytes()

    def test_replayed_prepare_manifest_keeps_its_seed(self, workspace, tmp_path):
        cube = ["--cube", str(workspace / "cube.hsc")]
        first = tmp_path / "a"
        assert run("prepare", *cube, *SPLIT_FLAGS, "--seed", "3", "--out", str(first)) == 0
        assert json.loads((first / "split.json").read_text())["seed"] == 3
        # Both records replay: the run manifest, given the regions again, and
        # split.json, which holds them.
        replays = {
            "prepare.manifest.json": ["--regions", "[[0, 0, 16, 32]]"],
            "split.json": [],
        }
        for record, regions in replays.items():
            again = tmp_path / record
            assert run("prepare", *cube, "--dataset", "custom", "--scale", "2", *regions,
                       "--out", str(again), "--config", str(first / record)) == 0
            assert (again / "split.json").read_bytes() == (first / "split.json").read_bytes()

    @pytest.mark.parametrize("content", [[1], {"resolved_config": 5}, {"resolved_config": [1]}],
                             ids=["list", "manifest_int", "manifest_list"])
    def test_config_of_the_wrong_json_type_rejected(self, workspace, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        args = ["--split", str(workspace / "split"), "--out", str(tmp_path / "m.lkca")]
        assert run("train", *args, "--config", str(cfg)) == 3
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "m.lkca").exists()

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chanels": 8, "epochs": 0}))
        args = ["--split", str(workspace / "split"), "--out", str(tmp_path / "m.lkca")]
        assert run("train", *args, "--config", str(cfg)) == 3
        assert "chanels" in capsys.readouterr().err
        assert not (tmp_path / "m.lkca").exists()

    def test_every_manifest_is_a_valid_config(self, workspace, teacher, tmp_path, capsys):
        ckpt = str(workspace / "init.lkca")
        assert run("analyze-rank", "--checkpoint", ckpt, "--out-json", str(tmp_path / "r.json")) == 0
        assert run("approximate", "--checkpoint", ckpt, "--groups", "2", "--out", str(tmp_path / "g.lkca")) == 0
        assert run("eval", "--split", str(workspace / "split"), "--checkpoint", ckpt,
                   "--out-json", str(tmp_path / "e.json")) == 0
        manifests = [*workspace.rglob("*.manifest.json"), *tmp_path.rglob("*.manifest.json")]
        commands = {json.loads(m.read_text())["command"] for m in manifests}
        assert commands == {"cube convert", "prepare", "train", "analyze-rank", "approximate", "eval"}
        for record in [*manifests, workspace / "split" / "split.json"]:
            assert run("bench", "--bands", "4", "--scale", "2", "--config", str(record)) == 0

    def test_approximate_draws_no_weights(self, workspace, tmp_path, monkeypatch):
        def draw(*args):
            raise AssertionError("he_normal called")

        monkeypatch.setattr(model_module, "he_normal", draw)
        out = tmp_path / "g.lkca"
        args = ["--checkpoint", str(workspace / "init.lkca"), "--groups", "2", "--init", "svd_blocks"]
        assert run("approximate", *args, "--out", str(out)) == 0
        grouped, _ = load_checkpoint(out)
        assert grouped.config.upsampler_groups == 2
