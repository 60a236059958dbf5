import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lkcanet
from lkcanet.hsi import HsiCube, PatchPair, Split, degrade_array, resize_bands
from lkcanet.model import NetConfig


def smooth_field(h, w, rng, coarse=6):
    """Band-limited random field in [0.1, 0.9]: bicubic blow-up of coarse noise."""
    base = rng.random((1, coarse, coarse))
    field = resize_bands(base, h, w, clamp=False)[0]
    lo, hi = field.min(), field.max()
    return 0.1 + 0.8 * (field - lo) / max(hi - lo, 1e-9)


def smooth_bands(bands, h, w, rng):
    """Spectrally correlated smooth bands: shared structure plus small detail."""
    shared = smooth_field(h, w, rng)
    out = np.empty((bands, h, w), dtype=np.float32)
    for b in range(bands):
        weight = 0.6 + 0.4 * (b + 1) / bands
        detail = smooth_field(h, w, rng, coarse=8)
        out[b] = np.clip(weight * shared + 0.15 * detail, 0.0, 1.0)
    return out


def synthetic_split(n_train=8, n_val=2, n_test=1, bands=8, patch=64, r=4, seed=0):
    """A materialized Split of smooth synthetic patches (no cube on disk)."""
    rng = np.random.default_rng(seed)

    def pairs(count, tag):
        out = []
        for i in range(count):
            hr = smooth_bands(bands, patch, patch, rng)
            out.append(PatchPair(hr=hr, lr=degrade_array(hr, r), origin=(tag, i)))
        return out

    test = [HsiCube(smooth_bands(bands, patch, patch, rng)) for _ in range(n_test)]
    manifest = {"dataset": "synthetic", "seed": seed, "scale_factor": r, "patch_size": patch}
    return Split(train=pairs(n_train, 0), val=pairs(n_val, 1), test=test, manifest=manifest)


def probe_config(**over):
    """The small network used by training probes."""
    base = dict(
        bands=8,
        scale_factor=4,
        feature_channels=16,
        num_blocks=4,
        lkca_groups=4,
        ca_reduction=16,
        drop_path_rate=0.0,
    )
    base.update(over)
    return NetConfig(**base)


def run_python(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    lkcanet. A signal that kills it (SIGBUS from reading a truncated map)
    shows as a negative return code instead of ending the test session."""
    path = [str(Path(lkcanet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
