"""Non-Hermitian eigendecomposition of channel matrices with biorthonormal
left/right eigenoperators, plus the spectral statistics of the different
dynamical regimes (bulk law, outliers, discreteness, period-doubling
cluster).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import SuperoperatorMatrix

# The tolerance policy: every threshold that decides whether an eigenvalue is
# real, split off the real axis, or the conjugate of another is defined here.
# A factor is relative to the largest |lambda| of the eigenvalues classified
# (:func:`relative_tolerance`); a conjugate match is relative to
# max(1, |lambda|).
REAL_TOL_FACTOR = 1e-8       # real: spectrum.csv is_real, histogram real fraction
SPLIT_TOL_FACTOR = 1e-6      # split: complex counts, EP onset and probes; splitting is gradual
PAIR_RTOL = 1e-6             # conjugate pair: an EP probe's two modes, two bands turning complex together
DEFECTIVITY_THRESHOLD = 1e6  # eigenvalue condition number beyond which a mode is defective
# Eigen-residuals are matrix products over blocks of this many columns; one
# full-width product was no faster at dimension 1024 and raised the peak
# memory of the n_s=5 presets by 15 MB.
RESIDUAL_BLOCK = 128


def relative_tolerance(lam: np.ndarray, factor: float) -> float:
    """``factor`` times the largest |lambda| in ``lam``."""
    return factor * float(np.max(np.abs(lam)))


class DefectiveSpectrumError(RuntimeError):
    """Eigenbasis too ill-conditioned for a plain mode expansion."""


@dataclass
class Spectrum:
    """The eigen-data of a channel matrix as arrays, in :func:`sorted_eig`
    order (|lambda| descending).

    ``right`` holds the unit-norm right eigenvectors as columns, each the
    row-stacking vec of a (d, d) operator, and ``residuals`` their
    eigen-residuals |M r_k - lambda_k r_k|. ``left`` is the inverse of ``right``, computed on
    first use: row k is mode k's covector, so ``left @ right`` is the
    identity and a state decomposes as vec(rho) = right @ (left @ vec(rho)).
    ``bath_dim`` is the channel's bath dimension N_b.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    residuals: np.ndarray
    bath_dim: int

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @cached_property
    def left(self) -> np.ndarray:
        return np.linalg.inv(self.right)

    @property
    def defectivity_scores(self) -> np.ndarray:
        """|left_k|, the condition number of each eigenvalue."""
        return np.linalg.norm(self.left, axis=1)

    @cached_property
    def defectivity_global(self) -> float:
        """1/sigma_min of the unit-norm eigenvector matrix; one SVD, on
        first access."""
        return float(1.0 / np.linalg.svd(self.right, compute_uv=False)[-1])

    def real_tolerance(self) -> float:
        return relative_tolerance(self.eigenvalues, REAL_TOL_FACTOR)


@dataclass
class TriangularLaw:
    """Magnitude density of a uniform disk of radius ``radius``:
    p(x) = 2 x / radius^2 on [0, radius]."""

    radius: float

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x <= self.radius), 2 * x / self.radius ** 2, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(x ** 2 / self.radius ** 2, 0.0, 1.0)


@dataclass
class SpectralStats:
    """Histogram and regime diagnostics of eigenvalue magnitudes."""

    bin_edges: np.ndarray
    densities: np.ndarray
    real_fraction: float
    ks_distance: float
    reference: TriangularLaw


def _eig_order(vals: np.ndarray) -> np.ndarray:
    """The one eigenvalue order: |lambda|, then Re, then Im, each descending."""
    return np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))


def _finite(mat: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(mat)):
        raise ValueError("channel matrix contains non-finite entries")
    return mat


def sorted_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``mat`` sorted by |lambda|, then Re, then Im, each
    descending, with the matching right eigenvectors as columns (not
    normalized).

    :func:`full_spectrum` and the complex ``sweep`` grid both solve through
    here, so a sweep point and the full spectrum of the same matrix give the
    same eigenvalues in the same order, bit for bit.
    """
    vals, vecs = np.linalg.eig(_finite(mat))
    order = _eig_order(vals)
    return vals[order], vecs[:, order]


def sorted_eigvals(mat: np.ndarray) -> np.ndarray:
    """The eigenvalues of ``mat`` in :func:`sorted_eig` order, from
    ``eigvals`` alone: no eigenvectors, so their bits may differ from
    :func:`sorted_eig`'s in the last place."""
    vals = np.linalg.eigvals(_finite(mat))
    return vals[_eig_order(vals)]


def full_spectrum(sop: SuperoperatorMatrix) -> Spectrum:
    """Complete eigendecomposition of a channel matrix on (d, d) operators.

    Right eigenvectors are normalized to unit Frobenius norm; the left side
    is the inverse of the right-eigenvector matrix, so biorthonormality holds
    structurally and its conditioning is monitored via the per-mode
    defectivity scores (the eigenvalue condition numbers) and the global
    score 1/sigma_min. The inverse and the SVD behind these are computed on
    first access (see :class:`Spectrum`).
    """
    mat = sop.mat
    if sop.op_dim ** 2 != mat.shape[0]:
        raise ValueError(f"channel matrix dimension {mat.shape[0]} is not a perfect square")
    vals, vecs = sorted_eig(mat)
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)  # sorted_eig's own copy
    residuals = np.empty(vals.shape[0])
    for j in range(0, vals.shape[0], RESIDUAL_BLOCK):
        cols = slice(j, j + RESIDUAL_BLOCK)
        residuals[cols] = np.linalg.norm(mat @ vecs[:, cols] - vecs[:, cols] * vals[cols], axis=0)
    return Spectrum(vals, vecs, residuals, sop.bath_dim)


def decompose_state(spectrum: Spectrum, rho0: np.ndarray) -> np.ndarray:
    """Mode coefficients c = left @ vec(rho0).

    Requires a non-defective spectrum; near an exceptional point use the
    Jordan-chain machinery instead.
    """
    worst = float(np.max(spectrum.defectivity_scores))
    if worst > DEFECTIVITY_THRESHOLD:
        raise DefectiveSpectrumError(
            f"defectivity score {worst:.2e} exceeds {DEFECTIVITY_THRESHOLD:.0e}"
        )
    return spectrum.left @ np.asarray(rho0, dtype=complex).reshape(-1)


def reconstruct_state(spectrum: Spectrum, coeffs: np.ndarray, power: int = 0) -> np.ndarray:
    """sum_m lambda_m^power c_m right_m; power=0 reconstructs the state."""
    d = math.isqrt(spectrum.dim)
    return (spectrum.right @ (spectrum.eigenvalues ** power * coeffs)).reshape(d, d)


def outlier_threshold(n_bath_states: int) -> float:
    """The bulk radius 1/sqrt(N_b) of Haar-random reset dynamics."""
    return 1.0 / np.sqrt(n_bath_states)


def triangular_reference(n_bath_states: int) -> TriangularLaw:
    """Magnitude law of Haar-random reset dynamics: uniform disk of radius
    :func:`outlier_threshold` projected onto |lambda|."""
    return TriangularLaw(outlier_threshold(n_bath_states))


def find_outliers(spectrum: Spectrum) -> list[int]:
    """Indices of modes beyond the bulk radius :func:`outlier_threshold`."""
    thr = outlier_threshold(spectrum.bath_dim)
    lam = spectrum.eigenvalues
    return [i for i in range(len(lam)) if abs(lam[i]) > thr]


def minus_one_cluster(spectrum: Spectrum, window: float = 0.15) -> list[int]:
    """Indices of modes within ``window`` of lambda = -1 (the
    period-doubling cluster)."""
    if not 0 < window < 0.5:
        raise ValueError(f"window must lie in (0, 0.5), got {window}")
    lam = spectrum.eigenvalues
    return [i for i in range(len(lam)) if abs(lam[i] + 1.0) < window]


def ks_distance(samples: np.ndarray, law: TriangularLaw) -> float:
    """One-sample Kolmogorov-Smirnov distance to the reference magnitude law."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        return float("nan")
    ref = law.cdf(xs)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(emp_hi - ref)), np.max(np.abs(emp_lo - ref))))


def magnitude_histogram(spectrum: Spectrum, bins: int = 60) -> SpectralStats:
    """Histogram of |lambda| (probability density per unit magnitude) plus
    regime diagnostics; outliers are excluded from the KS comparison."""
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins}")
    lam = spectrum.eigenvalues
    mags = np.abs(lam)
    edges = np.linspace(0.0, mags.max(), bins + 1)
    counts, _ = np.histogram(mags, bins=edges)
    widths = np.diff(edges)
    densities = counts / (counts.sum() * widths)
    law = triangular_reference(spectrum.bath_dim)
    bulk = np.delete(mags, find_outliers(spectrum))
    tol = spectrum.real_tolerance()
    return SpectralStats(
        bin_edges=edges,
        densities=densities,
        real_fraction=float(np.mean(np.abs(lam.imag) <= tol)),
        ks_distance=ks_distance(bulk, law),
        reference=law,
    )
