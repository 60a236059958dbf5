"""Singular value decomposition and rank/energy analysis utilities.

Matrices and tensors throughout the package are plain ``numpy.ndarray``s
(row-major, float32 or float64). Analysis in this module always runs in
double precision: single-precision inputs are widened first, because the
cumulative-energy curves are sensitive to accumulation error.

All functions are pure and hold no shared mutable state, so they are safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SvdInputError(ValueError):
    """Raised for matrices that cannot be decomposed (non-finite, wrong rank)."""


class SvdConvergenceError(RuntimeError):
    """Raised when the backend iteration fails to converge."""


class DegenerateSpectrumError(ValueError):
    """Raised for an all-zero singular value vector (degenerate matrix)."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD of a real matrix: ``m = u @ diag(sigma) @ vt``.

    Attributes:
        u: (m, p) matrix with orthonormal columns.
        sigma: (p,) singular values, nonincreasing and nonnegative.
        vt: (p, n) matrix with orthonormal rows.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD with a deterministic sign convention.

    The sign ambiguity of singular vector pairs is resolved by forcing the
    largest-magnitude entry of each left singular vector to be nonnegative,
    so exported spectra and factors are reproducible across runs.

    Args:
        m: 2-D real matrix, both extents >= 1, all entries finite.

    Raises:
        SvdInputError: non-2-D, empty, or non-finite input.
        SvdConvergenceError: the LAPACK iteration did not converge within
            its internal sweep cap.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise SvdInputError(f"svd expects a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise SvdInputError(f"svd expects extents >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SvdInputError("svd input contains NaN or Inf entries")

    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            "SVD iteration did not converge within the LAPACK driver's "
            "internal sweep cap (gesdd); the matrix is numerically pathological"
        ) from exc

    # Sign convention: largest-|entry| of each left vector made nonnegative.
    for j in range(u.shape[1]):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]

    return SvdResult(u=u, sigma=s, vt=vt)


def _check_spectrum(sigma: np.ndarray) -> np.ndarray:
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular value vector must be 1-D and nonempty")
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(s) > 1e-12 * max(float(s[0]), 1.0)):
        raise ValueError("singular values must be nonincreasing")
    return s


def cumulative_energy(sigma: np.ndarray) -> np.ndarray:
    """Cumulative sum of singular values normalized by their total.

    Returns c with ``c[i] = (sigma_1 + ... + sigma_{i+1}) / sum(sigma)``;
    c is nondecreasing and its last entry is exactly 1.0.

    Raises:
        DegenerateSpectrumError: all singular values are zero.
    """
    s = _check_spectrum(sigma)
    c = np.cumsum(s)
    if c[-1] <= 0.0:
        raise DegenerateSpectrumError(
            "all singular values are zero; the matrix is degenerate"
        )
    return c / c[-1]


def rank_at_energy(sigma: np.ndarray, threshold: float) -> int:
    """Smallest k such that the top-k singular values hold >= threshold energy.

    Args:
        sigma: nonnegative, nonincreasing singular values, sum > 0.
        threshold: energy fraction in (0, 1].

    Returns:
        1-based rank k with ``cumulative_energy(sigma)[k-1] >= threshold``.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    c = cumulative_energy(sigma)
    return int(np.searchsorted(c, threshold, side="left")) + 1
