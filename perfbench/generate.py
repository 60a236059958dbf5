"""Seeded synthetic inputs for the benchmark.

Cubes are spectrally correlated smooth fields: one shared low-frequency
structure, weighted per band, plus a small per-band detail field. The
generator is plain numpy, so library changes never change the inputs; the
library only sees the files written here with its own writers
(``hsi.write_cube``, ``lkcanet prepare``, ``model.save_checkpoint``).
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from lkcanet import cli, hsi


def smooth_field(rng: np.random.Generator, h: int, w: int, max_freq: float, terms: int = 6) -> np.ndarray:
    """A sum of a few random low-frequency plane waves, rescaled to [0, 1].

    Each wave cos(2π(fy·y + fx·x) + φ) is built from two outer products, so
    the cost is O(terms · h · w) with no trigonometry per pixel.
    """
    y = 2.0 * np.pi * np.arange(h) / h
    x = 2.0 * np.pi * np.arange(w) / w
    field = np.zeros((h, w))
    for _ in range(terms):
        fy, fx = rng.uniform(-max_freq, max_freq, 2)
        amp, phase = rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * np.pi)
        ay, ax = fy * y + phase, fx * x
        field += amp * (np.outer(np.cos(ay), np.cos(ax)) - np.outer(np.sin(ay), np.sin(ax)))
    lo, hi = field.min(), field.max()
    return (field - lo) / max(hi - lo, 1e-9)


def smooth_cube(rng: np.random.Generator, bands: int, h: int, w: int) -> np.ndarray:
    """(bands, h, w) float32 samples in [0.1, 0.9]: shared structure whose
    weight ramps across the bands, plus 15% per-band detail."""
    shared = smooth_field(rng, h, w, max_freq=3.0)
    out = np.empty((bands, h, w), dtype=np.float32)
    for b in range(bands):
        weight = 0.6 + 0.4 * (b + 1) / bands
        detail = smooth_field(rng, h, w, max_freq=6.0)
        out[b] = 0.1 + 0.8 * np.clip(0.85 * weight * shared + 0.15 * detail, 0.0, 1.0)
    return out


def prepare_split(data: np.ndarray, regions: list, out_dir: Path, seed: int) -> Path:
    """Write ``data`` as a cube and split it with ``lkcanet prepare --dataset
    custom`` (x4, default 64/32 patch geometry). Returns the split directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cube_path = out_dir / "source.hsc"
    hsi.write_cube(hsi.HsiCube(data, {"name": "perfbench"}), cube_path)
    split_dir = out_dir / "split"
    argv = [
        "prepare", "--cube", str(cube_path.resolve()), "--dataset", "custom", "--scale", "4",
        "--regions", json.dumps(regions), "--out", str(split_dir), "--seed", str(seed),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lkcanet prepare exited with {code}")
    return split_dir


# Views of a test region that a content-keyed cache cannot match: 8 rotations
# and flips, times 4 band rotations by a quarter of the bands.
DIHEDRAL = 8
BAND_SHIFTS = 4


def derived_region(regions: list, k: int) -> hsi.HsiCube:
    """The k-th distinct whole region derived from a split's test regions.

    k runs over len(regions) * DIHEDRAL * BAND_SHIFTS regions, each a
    rotation/flip and band rotation of one test region, so every unit of an
    eval run scores new content.
    """
    n = len(regions)
    if not 0 <= k < n * DIHEDRAL * BAND_SHIFTS:
        raise IndexError(f"region {k} is outside the pool of {n * DIHEDRAL * BAND_SHIFTS}")
    src = regions[k % n]
    view, shift = (k // n) % DIHEDRAL, k // (n * DIHEDRAL)
    arr = np.rot90(src.data, view % 4, axes=(1, 2))
    if view >= 4:
        arr = arr[:, :, ::-1]
    arr = np.roll(arr, shift * src.bands // BAND_SHIFTS, axis=0)
    return hsi.HsiCube(np.ascontiguousarray(arr), dict(src.meta))
