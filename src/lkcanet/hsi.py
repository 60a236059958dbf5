"""Hyperspectral cube I/O, bicubic resampling, patch extraction, and splits.

A cube is a (bands, height, width) float32 array of samples normalized to
[0, 1], carried by :class:`HsiCube` together with free-form metadata.

On-disk container (``.hsc``): 8-byte magic ``HSCUBE01``, a little-endian
uint32 header length, a UTF-8 JSON header ``{"bands", "height", "width",
"meta"}``, then band-sequential little-endian float32 samples. The writer
pads the header with trailing spaces so the payload starts at a multiple of
64 bytes; the reader takes any offset. A read cube's samples are a
read-only map of the file, and a write replaces the file, so a map of the
old file stays readable. The write -> read round trip is bit-exact.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"HSCUBE01"

# Hard cap on declared payload size (bytes) so corrupt headers fail fast.
_MAX_PAYLOAD = 1 << 40

# A written payload starts at a multiple of this many bytes.
_PAYLOAD_ALIGN = 64

# Budget (bytes) for the largest float64 temporary of one resize chunk.
_RESIZE_CHUNK_BYTES = 1 << 20


class CubeError(ValueError):
    """Base class for cube container and validation failures."""


class CubeFormatError(CubeError):
    """Malformed container: bad magic or unparseable header."""


class CubeTruncatedError(CubeError):
    """Payload shorter (or longer) than the header declares."""


class CubeValidationError(CubeError):
    """Sample data violates invariants (non-finite, out of range, bad extents)."""


@dataclass
class HsiCube:
    """A hyperspectral cube: float32 samples in [0, 1], band-sequential.

    Attributes:
        data: (bands, height, width) float32 array.
        meta: optional JSON-serializable metadata (name, ground sample
            distance, wavelength range, normalization max, ...).
    """

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # A plain ndarray view, also of a read_cube map (an np.memmap).
        self.data = np.asarray(self.data)
        self.validate()

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.data.shape)

    def validate(self) -> None:
        if self.data.ndim != 3:
            raise CubeValidationError(
                f"cube data must be 3-D (bands, height, width), got ndim={self.data.ndim}"
            )
        if self.data.dtype != np.float32:
            raise CubeValidationError(
                f"cube data must be float32, got {self.data.dtype}"
            )
        if min(self.data.shape) < 1:
            raise CubeValidationError(f"cube extents must be >= 1, got {self.data.shape}")
        # min and max carry any NaN or infinite sample, so no mask is built.
        lo, hi = float(self.data.min()), float(self.data.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise CubeValidationError("cube contains NaN or Inf samples")
        if lo < 0.0 or hi > 1.0:
            raise CubeValidationError(
                f"cube samples must lie in [0, 1] after normalization, got [{lo}, {hi}]"
            )

    def crop(self, row: int, col: int, height: int, width: int) -> "HsiCube":
        """The height x width window at (row, col), as a view of the data."""
        if min(height, width) < 1 or row < 0 or col < 0 or row + height > self.height or col + width > self.width:
            raise CubeValidationError(
                f"crop ({row},{col},{height},{width}) is empty or exceeds cube extent "
                f"{self.height}x{self.width}"
            )
        # A copy skips __post_init__: a window of a validated cube is valid,
        # so its samples are not scanned again.
        window = copy.copy(self)
        window.data = self.data[:, row : row + height, col : col + width]
        window.meta = dict(self.meta)
        return window


def normalize(raw: np.ndarray, meta: dict | None = None) -> HsiCube:
    """Scale raw radiance samples to [0, 1] by the dataset-wide maximum.

    The maximum is recorded in ``meta["norm_max"]`` so metric values can be
    traced back to the normalization convention. The float64 work is done a
    band at a time, so no whole float64 copy of the cube is built.
    """
    raw = np.asarray(raw)
    # min and max carry any NaN or infinite sample, so no mask is built.
    lo, top = float(raw.min()), float(raw.max())
    if not (np.isfinite(lo) and np.isfinite(top)):
        raise CubeValidationError("raw samples contain NaN or Inf; cannot normalize")
    if top <= 0.0:
        raise CubeValidationError("raw samples have nonpositive maximum; cannot normalize")
    out = np.empty(raw.shape, dtype=np.float32)
    bands_in, bands_out = np.atleast_1d(raw), np.atleast_1d(out)
    band = np.empty(bands_out.shape[1:], dtype=np.float64)
    for b in range(len(bands_out)):
        band[...] = bands_in[b]
        np.clip(band, 0.0, None, out=band)
        band /= top
        bands_out[b] = band
    meta = dict(meta or {})
    meta["norm_max"] = top
    return HsiCube(out, meta)


def write_cube(cube: HsiCube, path) -> None:
    """Write an ``.hsc`` cube from its array, with no copy of a contiguous
    payload and at most one band's copy of a strided one.

    The JSON header is padded with spaces so the payload starts at a
    multiple of 64 bytes. The file is written under a temporary name in the
    target's directory and renamed onto the target, so a reader that still
    maps the old file keeps its samples (truncating a mapped file would
    fault its next read), and a failed write leaves the target as it was.
    """
    cube.validate()
    header = json.dumps(
        {"bands": cube.bands, "height": cube.height, "width": cube.width, "meta": cube.meta},
        sort_keys=True,
    ).encode("utf-8")
    header += b" " * (-(len(MAGIC) + 4 + len(header)) % _PAYLOAD_ALIGN)
    path = os.path.realpath(path)  # a symlinked target keeps its link
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")  # the umask's permissions, unlike mkstemp's 0600
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            # A band at a time: a contiguous band is written from its own
            # buffer, and a strided window (a crop) copies one band, not all.
            for band in cube.data:
                fh.write(np.ascontiguousarray(band, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_cube(path) -> HsiCube:
    """Read an ``.hsc`` cube whose samples are a read-only map of its payload.

    Every header and size check runs before the map is made; the payload
    may start at any offset, as files written before payloads were aligned
    do. The cube's pages are file-backed, so the kernel can drop and re-read
    them, and the map holds one file descriptor until its last view is
    dropped.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CubeFormatError(f"{path}: not an HSC cube (bad magic)")
        size = os.fstat(fh.fileno()).st_size
        raw_len = fh.read(4)
        if len(raw_len) < 4:
            raise CubeTruncatedError(f"{path}: truncated before header length")
        (hlen,) = struct.unpack("<I", raw_len)
        if size < fh.tell() + hlen:
            raise CubeTruncatedError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
                raise TypeError("the header and its meta must be JSON objects")
            bands, height, width = int(header["bands"]), int(header["height"]), int(header["width"])
            meta = header.get("meta", {})
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise CubeFormatError(f"{path}: unparseable header ({exc})") from exc
        if min(bands, height, width) < 1:
            raise CubeValidationError(f"{path}: header declares extents <= 0: {bands}x{height}x{width}")
        nbytes = bands * height * width * 4
        if nbytes > _MAX_PAYLOAD:
            raise CubeValidationError(
                f"{path}: declared extents {bands}x{height}x{width} overflow the payload cap"
            )
        found = size - fh.tell()
        if found < nbytes:
            raise CubeTruncatedError(
                f"{path}: truncated payload (expected {nbytes} bytes, found {found})"
            )
        if found > nbytes:
            raise CubeTruncatedError(
                f"{path}: trailing bytes after payload (expected {nbytes}, found {found})"
            )
        data = np.memmap(fh, dtype="<f4", mode="r", offset=fh.tell(), shape=(bands, height, width))
    return HsiCube(data, meta)


# ---------------------------------------------------------------------------
# Bicubic resampling
# ---------------------------------------------------------------------------


def _cubic_kernel(t: np.ndarray, a: float = -0.5) -> np.ndarray:
    # Keys/Catmull-Rom style cubic convolution kernel.
    t = np.abs(t)
    t2 = t * t
    t3 = t2 * t
    near = (a + 2.0) * t3 - (a + 3.0) * t2 + 1.0
    far = a * t3 - 5.0 * a * t2 + 8.0 * a * t - 4.0 * a
    return np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))


def _cubic_taps(src_len: int, out_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-pixel source indices (out, 4) and kernel weights (out, 4)."""
    pos = (np.arange(out_len, dtype=np.float64) + 0.5) * (src_len / out_len) - 0.5
    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    offsets = np.arange(-1, 3)
    idx = base[:, None] + offsets[None, :]
    weights = _cubic_kernel(frac[:, None] - offsets[None, :])
    idx = np.clip(idx, 0, src_len - 1)  # edge clamp
    return idx, weights


@functools.lru_cache(maxsize=32)
def _resize_matrix(src_len: int, out_len: int) -> np.ndarray:
    """Dense read-only (out, in) float64 matrix of the cubic taps; the
    weights of taps clamped to the same edge sample share its column."""
    idx, w = _cubic_taps(src_len, out_len)
    m = np.zeros((out_len, src_len))
    np.add.at(m, (np.arange(out_len)[:, None], idx), w)
    m.flags.writeable = False
    return m


def resize_bands(arr: np.ndarray, out_h: int, out_w: int, clamp: bool = True) -> np.ndarray:
    """Bicubic (a = -0.5, edge-clamped) resize of the trailing two axes.

    Each leading slice ``x`` is resampled independently as ``Mh @ x @ Mw.T``
    with the separable matrices of ``_resize_matrix``. The work is in double
    precision, a chunk of slices at a time whose largest float64 temporary
    fits ``_RESIZE_CHUNK_BYTES``; each chunk is clamped to [0, 1] by default
    and written into one output of the input dtype. A non-finite input
    sample makes its whole output slice non-finite, because the matrices'
    zero weights still multiply it (0 * NaN is NaN); other slices are
    unaffected.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output extents must be >= 1, got {out_h}x{out_w}")
    a = np.asarray(arr)
    *lead, h, w = a.shape
    mh, mw_t = _resize_matrix(h, out_h), _resize_matrix(w, out_w).T
    src = a.reshape(-1, h, w)
    out = np.empty((src.shape[0], out_h, out_w), dtype=a.dtype)
    step = max(1, _RESIZE_CHUNK_BYTES // (8 * max(h * w, out_h * w, out_h * out_w)))
    for s0 in range(0, src.shape[0], step):
        work = mh @ src[s0 : s0 + step].astype(np.float64, copy=False) @ mw_t
        if clamp:
            np.clip(work, 0.0, 1.0, out=work)
        out[s0 : s0 + step] = work
        del work  # else the next chunk's product is built while this one lives
    return out.reshape(*lead, out_h, out_w)


def degrade(cube: HsiCube, r: int) -> HsiCube:
    """Bicubic downsampling of a cube by an integral factor r."""
    return HsiCube(degrade_array(cube.data, r), dict(cube.meta))


def degrade_array(hr: np.ndarray, r: int) -> np.ndarray:
    """Bicubic downsampling of the trailing (H, W) axes by an integral factor
    r; both extents must divide by r."""
    if r < 1:
        raise ValueError(f"scale factor must be >= 1, got {r}")
    h, w = hr.shape[-2], hr.shape[-1]
    if h % r or w % r:
        raise CubeValidationError(f"extents {h}x{w} not divisible by scale factor {r}")
    return resize_bands(hr, h // r, w // r)


# ---------------------------------------------------------------------------
# Patch extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchSpec:
    """High-resolution patch geometry for training-set construction."""

    patch_size: int
    overlap: int
    scale_factor: int

    def __post_init__(self):
        if not (0 <= self.overlap < self.patch_size):
            raise ValueError(
                f"overlap must satisfy 0 <= overlap < patch_size, got {self.overlap}/{self.patch_size}"
            )
        if self.scale_factor < 1 or self.patch_size % self.scale_factor:
            raise ValueError(
                f"patch_size {self.patch_size} must be divisible by scale factor {self.scale_factor}"
            )

    @property
    def stride(self) -> int:
        return self.patch_size - self.overlap


@dataclass(frozen=True)
class PatchPair:
    """An HR patch with its bicubic-degraded LR counterpart."""

    hr: np.ndarray  # (B, s, s)
    lr: np.ndarray  # (B, s/r, s/r)
    origin: tuple[int, int]  # (row, col) of the HR patch in the source cube


def patch_origins(extent: int, patch_size: int, stride: int) -> list[int]:
    """Origins along one axis: count = floor((extent - size) / stride) + 1."""
    if extent < patch_size:
        raise ValueError(f"extent {extent} smaller than patch size {patch_size}")
    n = (extent - patch_size) // stride + 1
    return [i * stride for i in range(n)]


def grid_origins(height: int, width: int, spec: PatchSpec) -> list[tuple[int, int]]:
    """Row-major (row, col) origins of every HR patch of a height x width grid."""
    rows = patch_origins(height, spec.patch_size, spec.stride)
    cols = patch_origins(width, spec.patch_size, spec.stride)
    return [(r0, c0) for r0 in rows for c0 in cols]


def patch_pairs(cube: HsiCube, origins, spec: PatchSpec) -> list[PatchPair]:
    """The HR patches (views of the cube's data) at the given origins, each with its LR pair."""
    s = spec.patch_size
    out = []
    for r0, c0 in origins:
        if r0 < 0 or c0 < 0 or r0 + s > cube.height or c0 + s > cube.width:
            raise CubeValidationError(
                f"patch at {(r0, c0)} exceeds cube extent {cube.height}x{cube.width}"
            )
        hr = cube.data[:, r0 : r0 + s, c0 : c0 + s]
        out.append(PatchPair(hr=hr, lr=degrade_array(hr, spec.scale_factor), origin=(r0, c0)))
    return out


# ---------------------------------------------------------------------------
# Dataset split protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A rectangular spatial region (row, col, height, width) of integers."""

    row: int
    col: int
    height: int
    width: int

    def __post_init__(self):
        fields = self.as_tuple()
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in fields):
            raise ValueError(f"region {list(fields)}: row, col, height and width must be integers")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"region {list(fields)}: height and width must be at least 1")

    def intersects(self, other: "Region") -> bool:
        return not (
            self.row + self.height <= other.row
            or other.row + other.height <= self.row
            or self.col + self.width <= other.col
            or other.col + other.width <= self.col
        )

    def within(self, height: int, width: int) -> bool:
        return (
            self.row >= 0
            and self.col >= 0
            and self.row + self.height <= height
            and self.col + self.width <= width
        )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.row, self.col, self.height, self.width)


# Share of the kept training patches held out for validation.
VALIDATION_FRACTION = 0.10


@dataclass(frozen=True)
class SplitProtocol:
    """Test-region layout and training-sampling rules for one dataset.

    ``expected_shape`` is the (height, width) the region list was designed
    for; larger cubes are center-cropped to it first. ``exclusions`` are
    strips that belong to neither the test nor the training area.
    """

    dataset: str
    test_regions: tuple[Region, ...]
    exclusions: tuple[Region, ...] = ()
    expected_shape: tuple[int, int] | None = None


def chikusei_protocol() -> SplitProtocol:
    # Four 512x2048 test regions stacked from the top of the 2304x2048 crop.
    regions = tuple(Region(512 * i, 0, 512, 2048) for i in range(4))
    return SplitProtocol("chikusei", regions, (), (2304, 2048))


def houston2018_protocol() -> SplitProtocol:
    # Eight 256x256 test regions tiling the top 512x1024 area; the 512x178
    # strip right of them is too small for testing and is excluded entirely.
    regions = tuple(Region(256 * (i // 4), 256 * (i % 4), 256, 256) for i in range(8))
    exclusions = (Region(0, 1024, 512, 178),)
    return SplitProtocol("houston2018", regions, exclusions, (4172, 1202))


def pavia_protocol() -> SplitProtocol:
    # Three 224x224 test regions along the top; the leftover 224x43 strip is
    # excluded.
    regions = tuple(Region(0, 224 * i, 224, 224) for i in range(3))
    exclusions = (Region(0, 672, 224, 43),)
    return SplitProtocol("pavia", regions, exclusions, (1096, 715))


_PROTOCOLS = {
    "chikusei": chikusei_protocol,
    "houston2018": houston2018_protocol,
    "pavia": pavia_protocol,
}
# Every dataset a split is planned for: the named protocols, then custom regions.
DATASETS = (*_PROTOCOLS, "custom")


def named_protocol(name: str) -> SplitProtocol:
    try:
        return _PROTOCOLS[name]()
    except KeyError:
        raise ValueError(
            f"unknown dataset protocol {name!r}; expected one of {sorted(_PROTOCOLS)} or 'custom'"
        ) from None


def custom_protocol(test_regions: list[tuple[int, int, int, int]]) -> SplitProtocol:
    try:
        return SplitProtocol("custom", tuple(Region(*r) for r in test_regions))
    except TypeError:
        raise ValueError(
            f"test regions must be [row, col, height, width] lists, got {test_regions!r}"
        ) from None


def central_crop(cube: HsiCube, height: int, width: int) -> HsiCube:
    """The central height x width window of a cube, as a view of its data."""
    return cube.crop((cube.height - height) // 2, (cube.width - width) // 2, height, width)


@dataclass
class Split:
    """Materialized dataset split: patch pairs plus whole test regions."""

    train: list[PatchPair]
    val: list[PatchPair]
    test: list[HsiCube]
    manifest: dict


def plan_split(
    cube: HsiCube, protocol: SplitProtocol, spec: PatchSpec, seed: int = 0
) -> tuple[HsiCube, list[HsiCube], dict]:
    """Lay out a split without cutting a patch.

    Returns the protocol-cropped cube, its whole test regions (views of the
    cube, like the crop) and the split manifest, which holds the seeded
    train/val patch origins. Candidate patches that intersect a test region
    or exclusion zone are dropped, which is re-checked by a final
    set-intersection assertion.
    """
    if protocol.expected_shape is not None:
        eh, ew = protocol.expected_shape
        if (cube.height, cube.width) != (eh, ew):
            cube = central_crop(cube, eh, ew)

    forbidden = list(protocol.test_regions) + list(protocol.exclusions)
    for i, reg in enumerate(protocol.test_regions):
        if not reg.within(cube.height, cube.width):
            raise CubeValidationError(f"test region {reg.as_tuple()} exceeds cube bounds")
        for other in protocol.test_regions[i + 1 :]:
            if reg.intersects(other):
                raise CubeValidationError(
                    f"test regions {reg.as_tuple()} and {other.as_tuple()} overlap"
                )

    kept_origins = [
        (r0, c0)
        for r0, c0 in grid_origins(cube.height, cube.width, spec)
        if not any(Region(r0, c0, spec.patch_size, spec.patch_size).intersects(f) for f in forbidden)
    ]

    for r0, c0 in kept_origins:
        patch = Region(r0, c0, spec.patch_size, spec.patch_size)
        assert not any(
            patch.intersects(t) for t in protocol.test_regions
        ), f"training patch at {(r0, c0)} intersects a test region"

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kept_origins))
    shuffled = [kept_origins[i] for i in order]
    n_val = int(len(shuffled) * VALIDATION_FRACTION)
    val_origins = sorted(shuffled[:n_val])
    train_origins = sorted(shuffled[n_val:])

    test = [cube.crop(*r.as_tuple()) for r in protocol.test_regions]
    manifest = {
        "dataset": protocol.dataset,
        "seed": seed,
        "cube_shape": list(cube.shape),
        "scale_factor": spec.scale_factor,
        "patch_size": spec.patch_size,
        "overlap": spec.overlap,
        "validation_fraction": VALIDATION_FRACTION,
        "test_regions": [r.as_tuple() for r in protocol.test_regions],
        "exclusions": [r.as_tuple() for r in protocol.exclusions],
        "train_origins": [list(o) for o in train_origins],
        "val_origins": [list(o) for o in val_origins],
    }
    return cube, test, manifest


def cut_split(cube: HsiCube, test: list[HsiCube], manifest: dict) -> Split:
    """Cut the train/val patch pairs a split manifest names from its
    (protocol-cropped) source cube."""
    spec = PatchSpec(manifest["patch_size"], manifest["overlap"], manifest["scale_factor"])
    return Split(
        train=patch_pairs(cube, manifest["train_origins"], spec),
        val=patch_pairs(cube, manifest["val_origins"], spec),
        test=test,
        manifest=manifest,
    )
