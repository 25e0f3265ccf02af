"""Non-Hermitian eigendecomposition of channel matrices with biorthonormal
left/right eigenoperators, plus the spectral statistics of the different
dynamical regimes (bulk law, outliers, discreteness, period-doubling
cluster).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import SuperoperatorMatrix

REAL_TOL_FACTOR = 1e-8       # |Im| threshold relative to the spectral radius
PAIRING_ATOL = 1e-8
DEFECTIVITY_THRESHOLD = 1e6
# Eigen-residuals are matrix products over blocks of this many columns; one
# full-width product was no faster at dimension 1024 and raised the peak
# memory of the n_s=5 presets by 15 MB.
RESIDUAL_BLOCK = 128


class DefectiveSpectrumError(RuntimeError):
    """Eigenbasis too ill-conditioned for a plain mode expansion."""


class _Eigenbasis:
    """The unit-norm right-eigenvector matrix of one spectrum, shared by its
    modes, with what is derived from it computed on first use and kept.

    It holds no reference to the modes or the spectrum, so dropping the
    spectrum frees every array by reference counting alone.
    """

    def __init__(self, vecs: np.ndarray):
        self.vecs = vecs

    @cached_property
    def inverse(self) -> np.ndarray:
        """Rows are the left eigenvectors, paired with the columns of vecs."""
        return np.linalg.inv(self.vecs)

    @cached_property
    def defectivity(self) -> float:
        """1/sigma_min of vecs."""
        return float(1.0 / np.linalg.svd(self.vecs, compute_uv=False)[-1])


class EigenMode:
    """One eigenvalue with its biorthonormal right/left eigenoperators.

    Normalization: Tr(right^dag right) = 1 and Tr(left^dag right) = 1, so a
    state decomposes as rho = sum_m Tr(left_m^dag rho) right_m.

    Modes made by :func:`full_spectrum` derive ``left`` and
    ``defectivity_score`` (|left|_F, the eigenvalue condition number) from
    the inverse of the spectrum's eigenvector matrix, which is computed the
    first time any of its modes is asked for either.
    """

    def __init__(self, lam: complex, right: np.ndarray, left: np.ndarray,
                 residual: float, defectivity_score: float):
        self.lam = lam
        self.right = right
        self.residual = residual
        self._left = left
        self._score = defectivity_score
        self._basis: _Eigenbasis | None = None
        self._index = 0

    @classmethod
    def _of_basis(cls, lam: complex, right: np.ndarray, residual: float,
                  basis: _Eigenbasis, index: int) -> "EigenMode":
        """Mode ``index`` of ``basis``; its left side is read from the basis
        when asked for."""
        mode = cls(lam, right, None, residual, None)
        mode._basis, mode._index = basis, index
        return mode

    def _left_row(self) -> np.ndarray:
        return self._basis.inverse[self._index, :]

    @property
    def left(self) -> np.ndarray:
        if self._basis is None:
            return self._left
        return self._left_row().conj().reshape(self.right.shape)

    @property
    def defectivity_score(self) -> float:
        if self._basis is None:
            return self._score
        return float(np.linalg.norm(self._left_row()))


@dataclass
class Spectrum:
    """All eigenmodes of a channel matrix, sorted by |lambda| descending."""

    modes: list[EigenMode]
    meta: dict = field(default_factory=dict)
    _basis: _Eigenbasis | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.modes)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([m.lam for m in self.modes])

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def defectivity_global(self) -> float:
        """1/sigma_min of the unit-norm eigenvector matrix; one SVD, on
        first access."""
        return self._basis.defectivity

    def real_tolerance(self, tol_im: float | None = None) -> float:
        return REAL_TOL_FACTOR * self.spectral_radius if tol_im is None else tol_im


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
    outlier_indices: list[int]
    outlier_is_real: list[bool]
    ks_distance: float
    cluster: list["ClusterMode"]
    cluster_window: float
    reference: TriangularLaw


def sorted_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``mat`` sorted by |lambda|, then Re, then Im, each
    descending, with the matching right eigenvectors as columns (not
    normalized).

    :func:`full_spectrum` and the parameter sweeps both solve through here,
    so a sweep point and the full spectrum of the same matrix give the same
    eigenvalues in the same order, bit for bit.
    """
    if not np.all(np.isfinite(mat)):
        raise ValueError("channel matrix contains non-finite entries")
    vals, vecs = np.linalg.eig(mat)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    return vals[order], vecs[:, order]


def full_spectrum(sop: SuperoperatorMatrix) -> Spectrum:
    """Complete eigendecomposition of a channel matrix.

    Right eigenvectors are normalized to unit Frobenius norm; left
    eigenoperators come from the inverse of the right-eigenvector matrix, so
    biorthonormality holds structurally and its conditioning is monitored via
    the per-mode defectivity score |left_m|_F (the eigenvalue condition
    number) and the global score 1/sigma_min. The inverse and the SVD behind
    these are computed on first access (see :class:`EigenMode`).
    """
    mat = sop.mat
    vals, vecs = sorted_eig(mat)
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    residuals = np.empty(vals.shape[0])
    for j in range(0, vals.shape[0], RESIDUAL_BLOCK):
        cols = slice(j, j + RESIDUAL_BLOCK)
        residuals[cols] = np.linalg.norm(mat @ vecs[:, cols] - vecs[:, cols] * vals[cols], axis=0)
    basis = _Eigenbasis(vecs)
    d = sop.op_dim
    # synthetic (non-square-dimensional) matrices keep column-vector modes
    shape = (d, d) if d * d == mat.shape[0] else (mat.shape[0], 1)
    modes = [
        EigenMode._of_basis(complex(vals[k]), vecs[:, k].reshape(shape), float(residuals[k]),
                            basis, k)
        for k in range(vals.shape[0])
    ]
    return Spectrum(modes=modes, meta=dict(sop.meta), _basis=basis)


def decompose_state(spectrum: Spectrum, rho0: np.ndarray,
                    defectivity_threshold: float = DEFECTIVITY_THRESHOLD) -> np.ndarray:
    """Mode coefficients c_m = Tr(left_m^dag rho0).

    Requires a non-defective spectrum; near an exceptional point use the
    Jordan-chain machinery instead.
    """
    worst = max(m.defectivity_score for m in spectrum.modes)
    if worst > defectivity_threshold:
        raise DefectiveSpectrumError(
            f"defectivity score {worst:.2e} exceeds {defectivity_threshold:.0e}"
        )
    rho0 = np.asarray(rho0, dtype=complex)
    return np.array([np.sum(m.left.conj() * rho0) for m in spectrum.modes])


def reconstruct_state(spectrum: Spectrum, coeffs: np.ndarray, power: int = 0) -> np.ndarray:
    """sum_m lambda_m^power c_m right_m; power=0 reconstructs the state."""
    d = spectrum.modes[0].right.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for c, mode in zip(coeffs, spectrum.modes):
        out += (mode.lam ** power) * c * mode.right
    return out


@dataclass
class RealComplexSplit:
    real_indices: list[int]
    pairs: list[tuple[int, int]]
    anomalies: list[int]


def classify_real(spectrum: Spectrum, tol_im: float | None = None,
                  pairing_atol: float = PAIRING_ATOL) -> RealComplexSplit:
    """Split modes into real ones and conjugate pairs.

    Complex modes are matched greedily to their nearest conjugate partner;
    unmatched ones beyond the pairing tolerance are reported as anomalies.
    """
    lam = spectrum.eigenvalues
    tol = spectrum.real_tolerance(tol_im)
    real_idx = [i for i in range(len(lam)) if abs(lam[i].imag) <= tol]
    complex_idx = [i for i in range(len(lam)) if abs(lam[i].imag) > tol]
    pairs: list[tuple[int, int]] = []
    anomalies: list[int] = []
    unmatched = sorted(complex_idx, key=lambda i: -abs(lam[i].imag))
    used: set[int] = set()
    for i in unmatched:
        if i in used:
            continue
        cands = [j for j in complex_idx if j not in used and j != i]
        if not cands:
            anomalies.append(i)
            continue
        dist = [abs(lam[j] - np.conj(lam[i])) for j in cands]
        k = int(np.argmin(dist))
        scale = max(abs(lam[i]), 1.0)
        if dist[k] <= pairing_atol * scale + pairing_atol:
            pairs.append((min(i, cands[k]), max(i, cands[k])))
            used |= {i, cands[k]}
        else:
            anomalies.append(i)
            used.add(i)
    return RealComplexSplit(real_idx, pairs, anomalies)


def triangular_reference(n_bath_states: int) -> TriangularLaw:
    """Magnitude law of Haar-random reset dynamics: uniform disk of radius
    1/sqrt(N_b) projected onto |lambda|."""
    return TriangularLaw(1.0 / np.sqrt(n_bath_states))


def outlier_threshold(n_bath_states: int) -> float:
    return 1.0 / np.sqrt(n_bath_states)


def find_outliers(spectrum: Spectrum, n_bath_states: int | None = None,
                  tol_im: float | None = None) -> tuple[list[int], list[bool]]:
    """Indices of modes beyond the bulk radius 1/sqrt(N_b), each annotated
    with whether it is real within tolerance."""
    nb = _bath_states(spectrum, n_bath_states)
    thr = outlier_threshold(nb)
    tol = spectrum.real_tolerance(tol_im)
    lam = spectrum.eigenvalues
    idx = [i for i in range(len(lam)) if abs(lam[i]) > thr]
    return idx, [abs(lam[i].imag) <= tol for i in idx]


@dataclass
class ClusterMode:
    index: int
    magnitude: float
    is_real: bool


def minus_one_cluster(spectrum: Spectrum, window: float = 0.15,
                      tol_im: float | None = None) -> list[ClusterMode]:
    """Modes within ``window`` of lambda = -1 (the period-doubling cluster),
    reported with their magnitudes and realness."""
    if not 0 < window < 0.5:
        raise ValueError(f"window must lie in (0, 0.5), got {window}")
    lam = spectrum.eigenvalues
    tol = spectrum.real_tolerance(tol_im)
    return [
        ClusterMode(i, float(abs(lam[i])), bool(abs(lam[i].imag) <= tol))
        for i in range(len(lam))
        if abs(lam[i] + 1.0) < window
    ]


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


def magnitude_histogram(spectrum: Spectrum, bins: int = 60,
                        n_bath_states: int | None = None,
                        cluster_window: float = 0.15) -> SpectralStats:
    """Histogram of |lambda| (probability density per unit magnitude) plus
    regime diagnostics; outliers are excluded from the KS comparison."""
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins}")
    nb = _bath_states(spectrum, n_bath_states)
    lam = spectrum.eigenvalues
    mags = np.abs(lam)
    edges = np.linspace(0.0, mags.max(), bins + 1)
    counts, _ = np.histogram(mags, bins=edges)
    widths = np.diff(edges)
    densities = counts / (counts.sum() * widths)
    law = triangular_reference(nb)
    out_idx, out_real = find_outliers(spectrum, nb)
    bulk = np.delete(mags, out_idx)
    tol = spectrum.real_tolerance()
    return SpectralStats(
        bin_edges=edges,
        densities=densities,
        real_fraction=float(np.mean(np.abs(lam.imag) <= tol)),
        outlier_indices=out_idx,
        outlier_is_real=out_real,
        ks_distance=ks_distance(bulk, law),
        cluster=minus_one_cluster(spectrum, cluster_window),
        cluster_window=cluster_window,
        reference=law,
    )


def _bath_states(spectrum: Spectrum, n_bath_states: int | None) -> int:
    if n_bath_states is not None:
        return n_bath_states
    nb = spectrum.meta.get("bath_dim")
    if nb is None:
        raise ValueError("bath dimension unknown; pass n_bath_states")
    return int(nb)


def write_spectrum_csv(spectrum: Spectrum, path, n_bath_states: int | None = None) -> None:
    """Columns: index, re, im, abs, residual, is_real, is_outlier."""
    nb = _bath_states(spectrum, n_bath_states)
    thr = outlier_threshold(nb)
    tol = spectrum.real_tolerance()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im", "abs", "residual", "is_real", "is_outlier"])
        for i, mode in enumerate(spectrum.modes):
            lam = mode.lam
            writer.writerow([
                i,
                f"{lam.real:.17g}",
                f"{lam.imag:.17g}",
                f"{abs(lam):.17g}",
                f"{mode.residual:.17g}",
                int(abs(lam.imag) <= tol),
                int(abs(lam) > thr),
            ])


def write_histogram_csv(stats: SpectralStats, path) -> None:
    """Columns: bin_left, bin_right, density, reference_density."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "density", "reference_density"])
        centers = 0.5 * (stats.bin_edges[:-1] + stats.bin_edges[1:])
        ref = stats.reference.pdf(centers)
        for left, right, dens, rd in zip(stats.bin_edges[:-1], stats.bin_edges[1:],
                                         stats.densities, ref):
            writer.writerow([f"{left:.17g}", f"{right:.17g}", f"{dens:.17g}", f"{rd:.17g}"])
