import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import run_python
from oracles import build_split, fromfile_cube, gather_resize, legacy_cube_bytes

from lkcanet import hsi
from lkcanet.hsi import (
    CubeFormatError,
    CubeTruncatedError,
    CubeValidationError,
    HsiCube,
    PatchSpec,
    Region,
    chikusei_protocol,
    custom_protocol,
    degrade,
    degrade_array,
    grid_origins,
    houston2018_protocol,
    normalize,
    patch_origins,
    patch_pairs,
    pavia_protocol,
    plan_split,
    read_cube,
    resize_bands,
    write_cube,
)


def random_cube(bands, h, w, seed=0):
    rng = np.random.default_rng(seed)
    return HsiCube(rng.random((bands, h, w), dtype=np.float32))


class TestCubeFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        cube = random_cube(4, 8, 8, seed=1)
        cube.meta.update({"name": "toy", "norm_max": 1.0})
        p1, p2 = tmp_path / "a.hsc", tmp_path / "b.hsc"
        write_cube(cube, p1)
        again = read_cube(p1)
        assert np.array_equal(again.data, cube.data)
        assert again.meta == cube.meta
        write_cube(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.hsc"
        p.write_bytes(b"NOTACUBE" + b"\x00" * 16)
        with pytest.raises(CubeFormatError):
            read_cube(p)

    @pytest.mark.parametrize(
        "header",
        [[1, 2, 3], {"bands": None, "height": 2, "width": 2}, {"bands": 1, "height": 2, "width": 2, "meta": []}],
        ids=["list", "null_bands", "list_meta"],
    )
    def test_header_of_the_wrong_json_type_rejected(self, tmp_path, header):
        import json
        import struct

        p = tmp_path / "x.hsc"
        blob = json.dumps(header).encode()
        p.write_bytes(b"HSCUBE01" + struct.pack("<I", len(blob)) + blob + b"\x00" * 16)
        with pytest.raises(CubeFormatError, match="unparseable header"):
            read_cube(p)

    def test_truncated_payload(self, tmp_path):
        # header declares 3 bands but only 2 bands of samples follow
        p = tmp_path / "x.hsc"
        cube = random_cube(3, 4, 4)
        write_cube(cube, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 4 * 4 * 4])
        with pytest.raises(CubeTruncatedError):
            read_cube(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "x.hsc"
        write_cube(random_cube(2, 4, 4), p)
        p.write_bytes(p.read_bytes() + b"\x00" * 4)
        with pytest.raises(CubeTruncatedError, match="trailing bytes"):
            read_cube(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.hsc"
        write_cube(random_cube(2, 4, 4), p)
        p.write_bytes(p.read_bytes()[:20])  # magic, length and 8 header bytes
        with pytest.raises(CubeTruncatedError, match="truncated header"):
            read_cube(p)

    def test_truncated_before_header_length(self, tmp_path):
        p = tmp_path / "x.hsc"
        p.write_bytes(b"HSCUBE01" + b"\x10\x00")
        with pytest.raises(CubeTruncatedError, match="before header length"):
            read_cube(p)

    def test_read_holds_no_second_copy(self, tmp_path):
        import tracemalloc

        p = tmp_path / "x.hsc"
        cube = random_cube(8, 128, 128)
        write_cube(cube, p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            again = read_cube(p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.data, cube.data)
        # The array itself plus the validity mask of HsiCube.validate.
        assert peak <= 1.3 * cube.data.nbytes

    def test_read_peaks_at_the_payload(self, tmp_path):
        # HsiCube.validate reads NaN and Inf off the min and max, so it
        # builds no mask beside the array.
        p = tmp_path / "x.hsc"
        cube = random_cube(8, 128, 128)
        write_cube(cube, p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            read_cube(p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * cube.data.nbytes

    def test_write_copies_no_payload(self, tmp_path):
        cube = random_cube(16, 128, 128)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_cube(cube, tmp_path / "x.hsc")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * cube.data.nbytes

    def test_write_of_a_crop_copies_one_band(self, tmp_path):
        # A crop is a strided view; its payload is gathered a band at a time.
        cube = random_cube(16, 128, 128)
        window = cube.crop(8, 8, 96, 96)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_cube(window, tmp_path / "x.hsc")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * window.data[0].nbytes, f"write peaked at {peak / window.data.nbytes:.2f}x the crop"
        assert np.array_equal(read_cube(tmp_path / "x.hsc").data, window.data)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_sample_rejected(self, value):
        data = random_cube(2, 4, 4).data
        data[1, 2, 3] = value
        with pytest.raises(CubeValidationError, match="NaN or Inf"):
            HsiCube(data)

    def test_nan_sample_rejected(self, tmp_path):
        p = tmp_path / "x.hsc"
        cube = random_cube(2, 4, 4)
        write_cube(cube, p)
        blob = bytearray(p.read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()
        p.write_bytes(bytes(blob))
        with pytest.raises(CubeValidationError):
            read_cube(p)

    def test_extent_overflow_rejected(self, tmp_path):
        import json
        import struct

        p = tmp_path / "x.hsc"
        header = json.dumps({"bands": 1 << 20, "height": 1 << 20, "width": 1 << 20, "meta": {}}).encode()
        p.write_bytes(b"HSCUBE01" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CubeValidationError):
            read_cube(p)

    def test_out_of_range_rejected(self):
        with pytest.raises(CubeValidationError):
            HsiCube(np.full((1, 2, 2), 1.5, dtype=np.float32))

    def test_normalize_records_max(self):
        raw = np.arange(8, dtype=np.float64).reshape(2, 2, 2) * 100.0
        cube = normalize(raw)
        assert cube.meta["norm_max"] == 700.0
        assert cube.data.max() == pytest.approx(1.0)

    def test_normalize_peaks_near_the_output(self):
        # The float64 work runs a band at a time, so the peak is the float32
        # output plus one float64 band, not whole float64 copies of the cube.
        raw = (np.random.default_rng(4).random((16, 128, 128)) * 4000.0).astype(np.uint16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            normalize(raw)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * raw.size * 4


# Writes a cube onto the path of a cube it still maps, then checks both.
OVERWRITE_MAPPED = """
import sys
import numpy as np
from lkcanet.hsi import HsiCube, read_cube, write_cube
path = sys.argv[1]
data = np.random.default_rng(0).random((4, 64, 64), dtype=np.float32)
write_cube(HsiCube(data), path)
old = read_cube(path)
write_cube(read_cube(path).crop(8, 16, 32, 24), path)
assert np.array_equal(old.data, data), "the old map lost its samples"
assert np.array_equal(read_cube(path).data, data[:, 8:40, 16:40]), "the new file is not the crop"
"""


class TestMappedCube:
    def test_read_data_is_not_writeable(self, tmp_path):
        write_cube(random_cube(2, 8, 8), tmp_path / "x.hsc")
        cube = read_cube(tmp_path / "x.hsc")
        assert type(cube.data) is np.ndarray and not cube.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cube.data[0, 0, 0] = 0.5

    def test_read_equals_fromfile_bit_for_bit(self, tmp_path):
        data = random_cube(5, 17, 23, seed=3).data
        write_cube(HsiCube(data), tmp_path / "x.hsc")
        mapped = read_cube(tmp_path / "x.hsc").data
        _, read, _ = fromfile_cube(tmp_path / "x.hsc")
        assert mapped.tobytes() == read.tobytes() == data.tobytes()

    def test_legacy_odd_header_reads_back_and_degrades(self, tmp_path):
        data = random_cube(3, 16, 24, seed=4).data
        blob = legacy_cube_bytes(data, {"name": "legacy"})
        (hlen,) = struct.unpack("<I", blob[8:12])
        assert hlen % 2 == 1 and (12 + hlen) % 4 != 0  # not even float32-aligned
        (tmp_path / "x.hsc").write_bytes(blob)
        cube = read_cube(tmp_path / "x.hsc")
        assert cube.data.tobytes() == data.tobytes() and cube.meta == {"name": "legacy"}
        assert degrade(cube, 4).data.tobytes() == degrade(HsiCube(data), 4).data.tobytes()

    @pytest.mark.parametrize("name_len", range(0, 130, 7))
    def test_payload_offset_is_64_aligned_and_header_parses(self, tmp_path, name_len):
        cube = random_cube(2, 4, 4)
        cube.meta["name"] = "n" * name_len
        write_cube(cube, tmp_path / "x.hsc")
        header, data, offset = fromfile_cube(tmp_path / "x.hsc")
        assert offset % 64 == 0
        assert header == {"bands": 2, "height": 4, "width": 4, "meta": cube.meta}
        assert np.array_equal(data, cube.data)

    def test_overwriting_a_mapped_cube_keeps_the_old_map(self, tmp_path):
        done = run_python(OVERWRITE_MAPPED, tmp_path / "x.hsc")
        assert done.returncode == 0, f"exit {done.returncode}: {done.stderr}"

    def test_write_keeps_the_umask_and_leaves_no_temporary(self, tmp_path):
        write_cube(random_cube(1, 2, 2), tmp_path / "x.hsc")
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(tmp_path / "x.hsc").st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["x.hsc"]

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        write_cube(random_cube(1, 2, 2), tmp_path / "real.hsc")
        (tmp_path / "link.hsc").symlink_to(tmp_path / "real.hsc")
        cube = random_cube(2, 4, 4, seed=6)
        write_cube(cube, tmp_path / "link.hsc")
        assert (tmp_path / "link.hsc").is_symlink()
        assert np.array_equal(read_cube(tmp_path / "real.hsc").data, cube.data)

    def test_failed_write_keeps_the_target(self, tmp_path, monkeypatch):
        write_cube(random_cube(1, 2, 2), tmp_path / "x.hsc")
        before = (tmp_path / "x.hsc").read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(hsi.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_cube(random_cube(1, 4, 4), tmp_path / "x.hsc")
        assert (tmp_path / "x.hsc").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.hsc"]


class TestBicubic:
    def test_constant_preserved(self):
        cube = HsiCube(np.full((2, 6, 6), 0.7, dtype=np.float32))
        for oh, ow in [(12, 12), (3, 9), (24, 5)]:
            out = resize_bands(cube.data, oh, ow)
            assert np.abs(out - 0.7).max() <= 1e-6

    def test_linear_ramp_preserved_in_interior(self):
        # Cubic convolution reproduces linear fields; the oracle is the
        # analytic ramp evaluated at each output sample's source coordinate.
        n = 16
        ramp = np.linspace(0.1, 0.9, n, dtype=np.float64)
        band = np.tile(ramp, (n, 1))
        out = resize_bands(band[None], n * 2, n * 2, clamp=False)[0]
        pos = (np.arange(2 * n) + 0.5) * 0.5 - 0.5
        alpha = ramp[1] - ramp[0]
        expected = 0.1 + alpha * pos
        interior = slice(4, 2 * n - 4)  # away from clamped borders
        assert np.abs(out[8, interior] - expected[interior]).max() <= 1e-6

    def test_noise_down_up_beats_unrelated_noise(self):
        # The smoothed reconstruction stays correlated with its source, so it
        # must beat the error of an independent noise field of the same
        # distribution (for iid U[0,1], E|X - Y| = 1/3).
        rng = np.random.default_rng(9)
        noise = rng.random((1, 32, 32), dtype=np.float32)
        other = np.random.default_rng(10).random((1, 32, 32), dtype=np.float32)
        cube = HsiCube(noise)
        recon = resize_bands(degrade(cube, 4).data, 32, 32)
        mae = np.abs(recon - noise).mean()
        baseline = np.abs(other - noise).mean()
        assert mae < baseline

    def test_smooth_band_round_trip(self):
        # Band-limited field: degrade(upsample(x)) should return ~x.
        n = 16
        y, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        band = (0.5 + 0.3 * np.sin(2 * np.pi * y / n) * np.cos(2 * np.pi * x / n)).astype(
            np.float32
        )
        cube = HsiCube(band[None])
        up = HsiCube(resize_bands(cube.data, n * 4, n * 4))
        back = degrade(up, 4)
        assert np.abs(back.data - cube.data).max() <= 1e-3

    def test_output_extent_validation(self):
        cube = random_cube(1, 4, 4)
        with pytest.raises(ValueError):
            resize_bands(cube.data, 0, 4)


# (input shape, out_h, out_w, clamp): the eval skip, degrade, a training
# batch's skip, a non-integer ratio, 1-px axes, no clamp, and an input that
# spans several chunks.
RESIZE_CASES = [
    ((1, 32, 64, 64), 256, 256, True),
    ((32, 256, 256), 64, 64, True),
    ((8, 32, 16, 16), 64, 64, True),
    ((3, 7, 13), 29, 5, True),
    ((2, 1, 9), 4, 1, True),
    ((2, 9, 6), 1, 12, True),
    ((4, 12, 10), 30, 25, False),
    ((3, 8, 96, 96), 192, 192, True),
]


class TestResizeMatrixForm:
    def test_cases_include_several_chunks(self):
        shape, out_h, out_w, _ = RESIZE_CASES[-1]
        per_slice = 8 * max(shape[-2] * shape[-1], out_h * shape[-1], out_h * out_w)
        assert shape[0] * shape[1] > hsi._RESIZE_CHUNK_BYTES // per_slice

    @pytest.mark.parametrize("shape,out_h,out_w,clamp", RESIZE_CASES)
    def test_float32_equals_gather_oracle(self, shape, out_h, out_w, clamp):
        x = np.random.default_rng(3).random(shape, dtype=np.float32)
        if not clamp:
            x = 2.0 * x - 0.5  # samples outside [0, 1] survive unclamped
        got = resize_bands(x, out_h, out_w, clamp=clamp)
        assert got.dtype == np.float32
        assert np.array_equal(got, gather_resize(x, out_h, out_w, clamp=clamp))

    @pytest.mark.parametrize("shape,out_h,out_w,clamp", RESIZE_CASES)
    def test_float64_within_1e12_of_gather_oracle(self, shape, out_h, out_w, clamp):
        # No float32 cast absorbs the summation-order change here.
        x = np.random.default_rng(4).random(shape)
        got = resize_bands(x, out_h, out_w, clamp=clamp)
        assert got.dtype == np.float64
        assert np.abs(got - gather_resize(x, out_h, out_w, clamp=clamp)).max() <= 1e-12

    def test_cached_matrix_rejects_writes(self):
        m = hsi._resize_matrix(8, 16)
        assert hsi._resize_matrix(8, 16) is m
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    @pytest.mark.parametrize(
        "shape,call",
        [
            ((64, 512, 512), lambda x: degrade_array(x, 4)),
            ((1, 64, 128, 128), lambda x: resize_bands(x, 512, 512)),
        ],
        ids=["degrade", "skip"],
    )
    def test_float64_work_is_bounded(self, shape, call):
        # The peak is the output plus a few MB of chunk temporaries and
        # matrices, not whole-array float64 copies.
        x = np.random.default_rng(5).random(shape, dtype=np.float32)
        hsi._resize_matrix.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (4 << 20)


class TestDegrade:
    def test_shapes(self):
        cube = random_cube(3, 64, 64)
        assert degrade(cube, 4).shape == (3, 16, 16)

    def test_divisibility_enforced(self):
        with pytest.raises(CubeValidationError):
            degrade(random_cube(1, 10, 10), 4)

    def test_array_checks_match_cube_checks(self):
        with pytest.raises(CubeValidationError):
            degrade_array(np.zeros((1, 10, 10), dtype=np.float32), 4)
        with pytest.raises(ValueError):
            degrade_array(np.zeros((1, 8, 8), dtype=np.float32), 0)
        cube = random_cube(2, 8, 8)
        assert np.array_equal(degrade(cube, 2).data, degrade_array(cube.data, 2))

    @pytest.mark.parametrize("window", [(0, 0, 64, 64), (37, 51, 64, 64), (96, 4, 128, 96), (1, 3, 220, 188)])
    def test_strided_view_resizes_exactly(self, window):
        # A patch or test region is a view of its source cube, with the
        # cube's strides; it must degrade as its contiguous copy does.
        cube = random_cube(32, 224, 192)
        view = cube.crop(*window).data
        assert not view.flags.c_contiguous
        assert np.array_equal(degrade_array(view, 4), degrade_array(view.copy(), 4))

    def test_constant(self):
        cube = HsiCube(np.full((1, 8, 8), 0.25, dtype=np.float32))
        assert np.abs(degrade(cube, 2).data - 0.25).max() <= 1e-6


class TestPatches:
    def test_chikusei_axis_count(self):
        assert len(patch_origins(2048, 64, 32)) == 63

    def test_single_patch(self):
        spec = PatchSpec(16, 4, 4)
        cube = random_cube(2, 16, 16)
        pairs = patch_pairs(cube, grid_origins(cube.height, cube.width, spec), spec)
        assert len(pairs) == 1
        assert pairs[0].origin == (0, 0)

    def test_region_count_product(self):
        # 512x2048 with 64/32 -> 15 * 63 patches
        origins_r = patch_origins(512, 64, 32)
        origins_c = patch_origins(2048, 64, 32)
        assert len(origins_r) * len(origins_c) == 945

    @given(
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=80, deadline=None)
    def test_count_formula(self, extent, size, overlap):
        size = 2 * size  # keep divisible by 2
        overlap = min(overlap, size - 1)
        if extent < size:
            extent += size
        stride = size - overlap
        origins = patch_origins(extent, size, stride)
        assert len(origins) == (extent - size) // stride + 1
        assert origins == sorted(origins)
        assert all(o + size <= extent for o in origins)

    def test_pairs_match_degrade(self):
        cube = random_cube(2, 24, 24, seed=3)
        spec = PatchSpec(8, 4, 2)
        pairs = patch_pairs(cube, grid_origins(cube.height, cube.width, spec), spec)
        for pair in pairs[:5]:
            r0, c0 = pair.origin
            hr = cube.data[:, r0 : r0 + 8, c0 : c0 + 8]
            assert np.array_equal(pair.hr, hr)
            assert np.array_equal(pair.lr, degrade(HsiCube(hr.copy()), 2).data)

    def test_patch_pairs_reject_origins_outside_cube(self):
        cube = random_cube(1, 16, 16)
        spec = PatchSpec(8, 4, 2)
        for origin in [(12, 0), (0, 9), (-1, 0)]:
            with pytest.raises(CubeValidationError):
                patch_pairs(cube, [origin], spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PatchSpec(16, 16, 4)  # overlap == size
        with pytest.raises(ValueError):
            PatchSpec(10, 2, 4)  # not divisible by r


class TestProtocols:
    def test_chikusei_regions(self):
        proto = chikusei_protocol()
        assert len(proto.test_regions) == 4
        assert all((r.height, r.width) == (512, 2048) for r in proto.test_regions)
        assert proto.expected_shape == (2304, 2048)

    def test_houston_regions(self):
        proto = houston2018_protocol()
        assert len(proto.test_regions) == 8
        assert all((r.height, r.width) == (256, 256) for r in proto.test_regions)
        assert proto.exclusions[0].as_tuple() == (0, 1024, 512, 178)
        assert proto.expected_shape == (4172, 1202)

    def test_pavia_regions(self):
        proto = pavia_protocol()
        assert len(proto.test_regions) == 3
        assert all((r.height, r.width) == (224, 224) for r in proto.test_regions)
        assert proto.expected_shape == (1096, 715)

    def test_regions_disjoint(self):
        for proto in (chikusei_protocol(), houston2018_protocol(), pavia_protocol()):
            regs = proto.test_regions
            for i, a in enumerate(regs):
                for b in regs[i + 1 :]:
                    assert not a.intersects(b)

    @pytest.mark.parametrize("fields", [(0, 0, -16, 32), (0, 0, 16, 0), (0, 0, 16.5, 32), ("a", 0, 16, 32),
                                        (True, 0, 16, 32), (0, 0, np.int64(16), 32.0)])
    def test_region_rejects_a_non_integer_field_or_an_empty_extent(self, fields):
        with pytest.raises(ValueError, match=re.escape(f"region {list(fields)}")):
            Region(*fields)

    @pytest.mark.parametrize("extent", [(0, 8), (8, 0), (-4, 8)])
    def test_crop_rejects_an_extent_below_one(self, extent):
        with pytest.raises(CubeValidationError, match="empty"):
            random_cube(1, 16, 16).crop(4, 4, *extent)

    def test_crop_does_not_validate_again(self, monkeypatch):
        # A window of a validated cube is valid, so crop checks only its
        # extent and never scans the samples again.
        cube = random_cube(2, 16, 16)
        calls = []
        monkeypatch.setattr(HsiCube, "validate", lambda self: calls.append(self))
        view = cube.crop(4, 4, 8, 8)
        assert view.shape == (2, 8, 8) and np.shares_memory(view.data, cube.data)
        for window in [(0, 0, 0, 8), (10, 4, 8, 8), (4, -1, 8, 8)]:
            with pytest.raises(CubeValidationError, match="empty or exceeds"):
                cube.crop(*window)
        assert calls == []


class TestBuildSplit:
    def _toy(self):
        cube = random_cube(2, 48, 48, seed=5)
        protocol = custom_protocol([(0, 0, 16, 48)])
        spec = PatchSpec(8, 4, 2)
        return cube, protocol, spec

    def test_no_train_patch_touches_test_region(self):
        cube, protocol, spec = self._toy()
        split = build_split(cube, protocol, spec, seed=1)
        test_region = Region(0, 0, 16, 48)
        for pair in split.train + split.val:
            r0, c0 = pair.origin
            assert not Region(r0, c0, 8, 8).intersects(test_region)

    def test_val_fraction(self):
        cube, protocol, spec = self._toy()
        split = build_split(cube, protocol, spec, seed=1)
        total = len(split.train) + len(split.val)
        assert len(split.val) == int(total * 0.10)

    def test_seeded_reproducibility(self):
        cube, protocol, spec = self._toy()
        a = build_split(cube, protocol, spec, seed=7)
        b = build_split(cube, protocol, spec, seed=7)
        assert a.manifest == b.manifest
        c = build_split(cube, protocol, spec, seed=8)
        assert c.manifest["train_origins"] != a.manifest["train_origins"]

    def test_test_regions_whole(self):
        cube, protocol, spec = self._toy()
        split = build_split(cube, protocol, spec, seed=1)
        assert len(split.test) == 1
        assert split.test[0].shape == (2, 16, 48)
        assert np.array_equal(split.test[0].data, cube.data[:, :16, :])

    def test_chikusei_split_geometry(self):
        # Real spatial extents, reduced band count.
        cube = random_cube(2, 2304, 2048, seed=2)
        split = build_split(cube, chikusei_protocol(), PatchSpec(64, 32, 4), seed=0)
        assert len(split.test) == 4
        assert all(t.shape == (2, 512, 2048) for t in split.test)
        # training area is rows 2048.. -> 7 * 63 origins
        assert len(split.train) + len(split.val) == 7 * 63

    def test_test_regions_are_views(self):
        # Chikusei geometry at 8 bands, 151 MB: copies of the four test
        # regions held 134 MB. The zero cube's pages are never written.
        cube = HsiCube(np.zeros((8, 2304, 2048), dtype=np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, test, _ = plan_split(cube, chikusei_protocol(), PatchSpec(64, 32, 4), seed=0)
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert all(np.shares_memory(t.data, cube.data) for t in test)
        assert max(held, peak) < 1 << 20, f"plan_split held {held} bytes, peaked at {peak}"

    def test_overlapping_custom_regions_rejected(self):
        cube = random_cube(1, 32, 32)
        protocol = custom_protocol([(0, 0, 16, 16), (8, 8, 16, 16)])
        with pytest.raises(CubeValidationError):
            build_split(cube, protocol, PatchSpec(8, 0, 2), seed=0)
