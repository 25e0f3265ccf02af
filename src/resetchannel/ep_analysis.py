"""Parameter sweeps of channel spectra, eigenvalue band tracking,
exceptional-point localization with square-root scaling fits, and
Jordan-chain machinery for (near-)defective eigenvalues.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import ArpackError, eigs

# full_spectrum is not called here; the benchmark's span tracer
# (benchmarks/spans.py) wraps it under this module's name
from .spectra import full_spectrum, sorted_eig  # noqa: F401

EP_TOL_FACTOR = 1e-6         # looser than the realness tolerance: splitting is gradual
DEFAULT_RESOLUTION = 1e-4
MAX_BISECTIONS = 64
PROBE_MODES = 6              # eigenvalues a shift-invert probe solves for


class JordanChainError(RuntimeError):
    """Requested chain extends past the numerical Jordan block."""


@dataclass
class _Solved:
    """Eigenvalues solved at one parameter value: either the whole spectrum
    (``sigma`` is None) or the ``PROBE_MODES`` nearest ``sigma``, which all
    lie within ``radius`` of it while every other eigenvalue lies at least
    ``radius`` away."""

    lam: np.ndarray
    sigma: complex | None = None
    radius: float = 0.0

    def pair_probe(self, guess: np.ndarray, tol_im: float):
        """:func:`_pair_probe` on these eigenvalues, or None when they cannot
        prove that the whole spectrum gives the same answer.

        The proof is geometric: every mode at least as close to ``guess[0]``
        as the chosen ``a`` (to ``guess[1]`` as ``b``, to the pair's midpoint
        as the gap) lies inside the solved disc, so it was solved.
        """
        result = _pair_probe(self.lam, guess, tol_im)
        if self.sigma is None:
            return result
        (a, b), _, gap = result
        s, r = self.sigma, self.radius
        certified = (abs(guess[0] - s) + abs(a - guess[0]) < r
                     and abs(guess[1] - s) + abs(b - guess[1]) < r
                     and abs(0.5 * (a + b) - s) + gap < r)
        return result if certified else None


def _near_solve(mat: np.ndarray, sigma: complex) -> _Solved | None:
    """The ``PROBE_MODES`` eigenvalues of ``mat`` nearest ``sigma``, by
    shift-invert Arnoldi (ARPACK); None when the matrix is too small for
    ARPACK (it needs k < n - 1) or the solve fails."""
    n = mat.shape[0]
    if n <= PROBE_MODES + 2:
        return None
    # a fixed start vector: ARPACK's own random state persists across calls
    v0 = np.random.default_rng(0).standard_normal((2, n)).T @ np.array([1.0, 1.0j])
    try:
        lam = eigs(mat, k=PROBE_MODES, sigma=sigma, v0=v0, return_eigenvectors=False)
    except ArpackError:  # includes ArpackNoConvergence
        return None
    if not np.all(np.isfinite(lam)):
        return None
    return _Solved(lam, sigma, float(np.max(np.abs(lam - sigma))))


@dataclass
class SweepGrid:
    """One-parameter family of channel matrices.

    ``build`` maps a parameter value to the matrix whose spectrum is swept
    (the reversal-form channel matrix for the physical presets). The grid
    memoizes what it solved at each value for :meth:`probe` and
    :meth:`eigvals`, so the EP bisection and the sqrt fit on one grid share
    their solves; ``probe_counts`` tallies the probes answered from a
    shift-invert solve (``"near"``) and from a full spectrum (``"full"``).
    """

    parameter: str
    values: np.ndarray
    build: Callable[[float], np.ndarray]
    probe_counts: dict[str, int] = field(
        default_factory=lambda: {"near": 0, "full": 0}, init=False, repr=False)
    _solved: dict[float, _Solved] = field(default_factory=dict, init=False, repr=False)
    _sharing: bool = field(default=False, init=False, repr=False)
    _last: tuple[float, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size < 3:
            raise ValueError("sweep needs at least 3 points")
        diffs = np.diff(self.values)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep values must be strictly monotone")

    def _matrix(self, key: float) -> np.ndarray:
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self._last = None  # never hold two matrices
        mat = np.asarray(self.build(key), dtype=complex)
        if self._sharing:
            self._last = (key, mat)
        return mat

    @contextmanager
    def _shared_builds(self):
        """Within this block, solves at the value last built reuse its
        matrix; at most one matrix is held, and only until the block ends."""
        self._sharing = True
        try:
            yield
        finally:
            self._sharing, self._last = False, None

    def eigvals(self, value: float) -> np.ndarray:
        """All eigenvalues of ``build(value)``, solved once per value."""
        key = float(value)
        solved = self._solved.get(key)
        if solved is None or solved.sigma is not None:
            solved = self._solved[key] = _Solved(np.linalg.eigvals(self._matrix(key)))
        return solved.lam

    def probe(self, value: float, guess: np.ndarray, tol_im: float):
        """:func:`_pair_probe` of the full spectrum at ``value``, served from
        the eigenvalues nearest the guessed pair.

        A shift-invert Arnoldi solve at sigma = mean(guess) is used when it
        certifies the answer (:meth:`_Solved.pair_probe`); otherwise, and when
        ARPACK fails, the full ``eigvals`` of the same matrix answers. A
        repeat probe is served from the memo when that certifies for the new
        guess, and is solved afresh otherwise.
        """
        key = float(value)
        solved = self._solved.get(key)
        result = None if solved is None else solved.pair_probe(guess, tol_im)
        if result is None:
            mat = self._matrix(key)
            solved = _near_solve(mat, complex(np.mean(guess)))
            result = None if solved is None else solved.pair_probe(guess, tol_im)
            if result is None:
                solved = _Solved(np.linalg.eigvals(mat))
                result = solved.pair_probe(guess, tol_im)
            self._solved[key] = solved
        self.probe_counts["full" if solved.sigma is None else "near"] += 1
        return result


@dataclass
class SweepResult:
    """Eigenvalues per grid point, in :func:`sorted_eig` order (that of
    :func:`full_spectrum`); ``None`` where the point failed."""

    grid: SweepGrid
    eigenvalues: list[np.ndarray | None]
    failures: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class BandTrack:
    """Eigenvalue trajectories lambda_b(J) matched across a sweep."""

    parameter: str
    grid_values: np.ndarray
    bands: np.ndarray                 # (n_points, n_bands), band b = column
    step_distances: np.ndarray        # max matching distance per step
    selection: str = "all"


@dataclass
class EpRecord:
    """A localized exceptional point of a coalescing band pair."""

    parameter: str
    j_star: float
    lambda_star: complex
    band_pair: tuple[int, int]
    bracket: tuple[float, float]
    converged: bool = True
    exponent: float | None = None
    fit_r2: float | None = None
    fit_points: int = 0


@dataclass
class FitResult:
    exponent: float
    r2: float
    deltas: np.ndarray
    im_values: np.ndarray


@dataclass
class JordanChain:
    """Generalized eigenvectors at (near-)defective lambda:
    (M - lambda) v[0] ~ 0 and (M - lambda) v[d] ~ v[d-1]."""

    lam: complex
    vectors: list[np.ndarray]
    left_vectors: list[np.ndarray]
    residuals: list[float]

    @property
    def order(self) -> int:
        return len(self.vectors)


def sweep_spectrum(grid: SweepGrid, n_workers: int = 1,
                   known: dict[float, np.ndarray] | None = None) -> SweepResult:
    """Eigenvalues at every grid point; per-point failures are recorded and
    the sweep continues. ``known`` maps values to eigenvalues another sweep
    of the same family already solved there; those points are not rebuilt."""
    known = known or {}

    def one(value: float):
        if value in known:
            return known[value], None
        try:
            return sorted_eig(np.asarray(grid.build(value), dtype=complex))[0], None
        except Exception as exc:  # sweep robustness: record and move on
            return None, f"{type(exc).__name__}: {exc}"

    values = [float(v) for v in grid.values]
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(one, values))
    else:
        results = list(map(one, values))
    failures = [(i, err) for i, (_, err) in enumerate(results) if err]
    return SweepResult(grid, [lam for lam, _ in results], failures)


def _match_step(prev: np.ndarray, cur: np.ndarray, method: str) -> np.ndarray:
    """Indices into ``cur`` pairing each entry of ``prev`` bijectively."""
    if method == "optimal":
        cost = np.abs(cur[None, :] - prev[:, None])
        rows, cols = linear_sum_assignment(cost)
        out = np.empty(len(prev), dtype=int)
        out[rows] = cols
        return out
    used = np.zeros(len(cur), dtype=bool)
    out = np.empty(len(prev), dtype=int)
    for i in np.argsort(-np.abs(prev)):
        dist = np.abs(cur - prev[i])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        out[i] = j
        used[j] = True
    return out


def track_bands(sweep: SweepResult, select: str = "all", method: str = "greedy") -> BandTrack:
    """Match eigenvalues between consecutive sweep points into bands.

    Bands are labeled by their ordering at the first point (descending
    Re lambda). ``select="top_re_decile"`` restricts to the top decile by
    Re lambda at the sweep start (the slowly decaying bands where coalescence
    is visible); large matching distances are recorded, not raised.
    """
    spectra = sweep.eigenvalues
    if any(lam is None for lam in spectra):
        raise ValueError("cannot track bands across failed sweep points")
    if len(spectra) < 2:
        raise ValueError("band tracking needs at least 2 sweep points")
    lam0 = spectra[0]
    order0 = np.argsort(-lam0.real)
    if select == "top_re_decile":
        n_bands = max(2, len(lam0) // 10)
        order0 = order0[:n_bands]
    elif select != "all":
        raise ValueError(f"unknown selection {select!r}")
    bands = np.zeros((len(spectra), len(order0)), dtype=complex)
    bands[0] = lam0[order0]
    dists = np.zeros(len(spectra) - 1)
    for g in range(1, len(spectra)):
        cur = spectra[g]
        cols = _match_step(bands[g - 1], cur, method)
        bands[g] = cur[cols]
        dists[g - 1] = float(np.max(np.abs(bands[g] - bands[g - 1])))
    return BandTrack(sweep.grid.parameter, sweep.grid.values.copy(), bands, dists, select)


def split_tolerance(lam: np.ndarray) -> float:
    """Default |Im lambda| above which a mode counts as split off the real
    axis: ``EP_TOL_FACTOR`` times the largest |lambda| in ``lam``."""
    return EP_TOL_FACTOR * float(np.max(np.abs(lam)))


def count_complex(lam: np.ndarray, tol_im: float | None = None) -> int:
    """Number of eigenvalues with |Im| above tolerance; even by conjugate
    closure (an odd count is flagged as an anomaly)."""
    tol = split_tolerance(lam) if tol_im is None else tol_im
    n = int(np.sum(np.abs(lam.imag) > tol))
    if n % 2:
        warnings.warn(f"odd complex count {n}; conjugate pairing is broken", RuntimeWarning)
    return n


def _pair_probe(lam: np.ndarray, guess: np.ndarray, tol_im: float):
    """Locate the two modes nearest to the guessed pair; report whether they
    form a complex-conjugate pair and how isolated they are."""
    i0 = int(np.argmin(np.abs(lam - guess[0])))
    dist1 = np.abs(lam - guess[1])
    dist1[i0] = np.inf
    i1 = int(np.argmin(dist1))
    a, b = lam[i0], lam[i1]
    is_pair = (
        abs(a.imag) > tol_im
        and abs(b.imag) > tol_im
        and abs(a - np.conj(b)) < 1e-4 * max(1.0, abs(a))
    )
    others = np.delete(lam, [i0, i1])
    gap = float(np.min(np.abs(others - 0.5 * (a + b)))) if others.size else np.inf
    return np.array([a, b]), is_pair, gap


def locate_eps(grid: SweepGrid, track: BandTrack, resolution: float = DEFAULT_RESOLUTION,
               tol_im: float | None = None, max_eps: int | None = None) -> list[EpRecord]:
    """Localize exceptional points where tracked bands turn complex.

    Each real-to-complex flip between adjacent grid points is refined by
    bisection that follows only the coalescing conjugate pair (never the full
    matching problem), until the parameter bracket is narrower than
    ``resolution``. Pairs flagged in the same grid interval are bisected in
    lockstep, so a value they both probe is built once.
    """
    if tol_im is None:
        tol_im = split_tolerance(track.bands[0])
    records: list[EpRecord] = []
    for g in range(len(track.grid_values) - 1):
        newly = [
            k for k in range(track.bands.shape[1])
            if abs(track.bands[g + 1, k].imag) > tol_im
            and abs(track.bands[g, k].imag) <= tol_im
        ]
        paired: set[int] = set()
        band_pairs: list[tuple[int, int]] = []
        for k in newly:
            if max_eps is not None and len(records) + len(band_pairs) >= max_eps:
                break
            if k in paired:
                continue
            partner = next(
                (j for j in newly if j != k and j not in paired
                 and abs(track.bands[g + 1, j] - np.conj(track.bands[g + 1, k]))
                 < 1e-6 * max(1.0, abs(track.bands[g + 1, k]))),
                None,
            )
            if partner is None:
                continue
            paired |= {k, partner}
            band_pairs.append((k, partner))
        records += _bisect_pairs(
            grid, float(track.grid_values[g]), float(track.grid_values[g + 1]),
            track.bands[g + 1], band_pairs, tol_im, resolution, track.parameter,
        )
        if max_eps is not None and len(records) >= max_eps:
            return records
    return records


def _bisect_pairs(grid: SweepGrid, lo: float, hi: float, bands_hi: np.ndarray,
                  band_pairs: list[tuple[int, int]], tol_im: float, resolution: float,
                  parameter: str) -> list[EpRecord]:
    """Bisect the EP of each band pair, a conjugate pair in ``bands_hi`` at
    ``hi``, within [lo, hi]. Each pair keeps its own bracket; pairs whose
    brackets still coincide probe the same value one after the other, so its
    matrix is built once."""
    brackets = [(lo, hi, bands_hi[list(band_pair)]) for band_pair in band_pairs]
    active = list(range(len(brackets)))
    with grid._shared_builds():
        for _ in range(MAX_BISECTIONS):
            active = [i for i in active if brackets[i][1] - brackets[i][0] > resolution]
            for i in active:
                b_lo, b_hi, pair = brackets[i]
                mid = 0.5 * (b_lo + b_hi)
                p, is_pair, _ = grid.probe(mid, pair, tol_im)
                brackets[i] = (b_lo, mid, p) if is_pair else (mid, b_hi, pair)
    # a pair still active after the last round used every bisection
    return [
        EpRecord(
            parameter=parameter,
            j_star=0.5 * (b_lo + b_hi),
            lambda_star=complex(pair.mean()),
            band_pair=band_pair,
            bracket=(b_lo, b_hi),
            converged=i not in active,
        )
        for i, ((b_lo, b_hi, pair), band_pair) in enumerate(zip(brackets, band_pairs))
    ]


def fit_sqrt_exponent(grid: SweepGrid, ep: EpRecord, tol_im: float | None = None,
                      min_points: int = 5, max_points: int = 16,
                      ladder: float = 1.6, delta0: float | None = None) -> FitResult:
    """Fit the splitting exponent log|Im lambda| vs log(J - J*) just above an
    exceptional point; 0.5 for a generic second-order EP.

    Probes climb a geometric ladder from ``delta0`` and stop once the pair
    re-merges or stops being isolated; the fit uses the prefix of at least
    ``min_points`` probes with the best r^2, so a nearby second EP cannot
    contaminate the scaling window. ``delta0`` defaults to 30 bracket widths:
    the J* localization error must stay small against the probe offsets or it
    biases the fitted slope low.
    """
    bracket_width = max(ep.bracket[1] - ep.bracket[0], 1e-12)
    if delta0 is None:
        delta0 = 30.0 * bracket_width
    if tol_im is None:
        tol_im = split_tolerance(grid.eigvals(ep.bracket[1]))
    pair = np.array([ep.lambda_star, np.conj(ep.lambda_star)])
    deltas, ims = [], []
    d = delta0
    while len(deltas) < max_points:
        p, is_pair, gap = grid.probe(ep.j_star + d, pair, tol_im)
        split = abs(p[0] - p[1])
        if not is_pair or split > gap:
            break
        deltas.append(d)
        ims.append(0.5 * (abs(p[0].imag) + abs(p[1].imag)))
        pair = p
        d *= ladder
    if len(deltas) < min_points:
        raise ValueError(
            f"only {len(deltas)} valid probe points above the EP; need {min_points}"
        )
    deltas = np.array(deltas)
    ims = np.array(ims)
    best = None
    for npts in range(min_points, len(deltas) + 1):
        x = np.log(deltas[:npts])
        y = np.log(ims[:npts])
        a = np.vstack([x, np.ones(npts)]).T
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        pred = a @ coef
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        if best is None or r2 > best[1]:
            best = (float(coef[0]), r2, npts)
    return FitResult(best[0], best[1], deltas[:best[2]], ims[:best[2]])


def jordan_chain(mat: np.ndarray, lam: complex, order: int,
                 residual_tol: float = 1e-3) -> JordanChain:
    """Generalized eigenvector chain at a (near-)defective eigenvalue.

    The root vector comes from the SVD null space of (M - lambda); higher
    links solve (M - lambda) x = previous by minimum-norm least squares.
    A link whose relative residual exceeds ``residual_tol`` means the
    requested order exceeds the numerical Jordan block.
    """
    mat = np.asarray(mat, dtype=complex)
    if order < 1:
        raise ValueError("order must be at least 1")
    shifted = mat - lam * np.eye(mat.shape[0])
    _, _, vh = np.linalg.svd(shifted)
    vectors = [vh[-1].conj()]
    residuals = [float(np.linalg.norm(shifted @ vectors[0]))]
    for _ in range(1, order):
        x, *_ = np.linalg.lstsq(shifted, vectors[-1], rcond=None)
        res = float(np.linalg.norm(shifted @ x - vectors[-1]) / np.linalg.norm(vectors[-1]))
        if res > residual_tol:
            raise JordanChainError(
                f"chain link residual {res:.2e} exceeds {residual_tol:.0e}; "
                f"Jordan block shorter than requested order {order}"
            )
        vectors.append(x)
        residuals.append(res)
    adj = shifted.conj().T
    _, _, vh_l = np.linalg.svd(adj)
    left = [vh_l[-1].conj()]
    left_res = [float(np.linalg.norm(adj @ left[0]))]
    for _ in range(1, order):
        x, *_ = np.linalg.lstsq(adj, left[-1], rcond=None)
        left.append(x)
        left_res.append(float(np.linalg.norm(adj @ x - left[-1]) / np.linalg.norm(left[-1])))
    return JordanChain(complex(lam), vectors, left, residuals)


def iterate_jordan(chains: list[JordanChain], coeffs: list[np.ndarray], n_r: int) -> np.ndarray:
    """Evolve an initial vector written in a generalized eigenbasis through
    ``n_r`` channel applications.

    Order-1 chains reproduce the plain eigenmode powering; for longer chains
    the binomial ladder mixes each generalized level into the ones below it.
    """
    if len(chains) != len(coeffs):
        raise ValueError("need one coefficient array per chain")
    dim = chains[0].vectors[0].shape[0]
    out = np.zeros(dim, dtype=complex)
    for chain, c in zip(chains, coeffs):
        o = chain.order
        if len(c) != o:
            raise ValueError(f"chain of order {o} needs {o} coefficients, got {len(c)}")
        for d in range(o):
            acc = 0.0 + 0.0j
            for dd in range(0, min(o - 1 - d, n_r) + 1):
                binom = _binomial(n_r, dd)
                lam_pow = chain.lam ** (n_r - dd) if (n_r - dd) > 0 else (1.0 + 0.0j)
                acc += binom * lam_pow * c[d + dd]
            out += acc * chain.vectors[d]
    return out


def _binomial(n: int, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= (n - i) / (i + 1)
    return out


def generalized_modes(mat: np.ndarray, defect_threshold: float = 1e6,
                      cluster_tol: float = 1e-5,
                      residual_tol: float = 1e-3) -> list[JordanChain]:
    """Complete generalized eigenbasis of a matrix.

    Well-conditioned eigenvalues become order-1 chains; clusters of
    ill-conditioned, nearly equal eigenvalues are replaced by a single Jordan
    chain of the cluster size at the cluster mean.
    """
    mat = np.asarray(mat, dtype=complex)
    vals, vecs = np.linalg.eig(mat)
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    left = np.linalg.inv(vecs)
    cond = np.linalg.norm(left, axis=1)
    bad = np.where(cond > defect_threshold)[0]
    clusters: list[list[int]] = []
    for i in sorted(bad, key=lambda i: vals[i].real):
        for cl in clusters:
            if abs(vals[cl[0]] - vals[i]) < cluster_tol * max(1.0, abs(vals[i])):
                cl.append(i)
                break
        else:
            clusters.append([i])
    clusters = [cl for cl in clusters if len(cl) >= 2]
    clustered = {i for cl in clusters for i in cl}
    chains = []
    for i in range(len(vals)):
        if i not in clustered:
            chains.append(JordanChain(
                complex(vals[i]), [vecs[:, i]], [left[i, :].conj()],
                [float(np.linalg.norm(mat @ vecs[:, i] - vals[i] * vecs[:, i]))],
            ))
    for cl in clusters:
        lam = complex(np.mean(vals[cl]))
        chains.append(jordan_chain(mat, lam, len(cl), residual_tol))
    return chains


def decompose_generalized(chains: list[JordanChain], v0: np.ndarray) -> list[np.ndarray]:
    """Coefficients of a vector in the generalized basis, grouped per chain;
    rejects a basis that does not span the vector."""
    v0 = np.asarray(v0, dtype=complex)
    basis = np.column_stack([vec for ch in chains for vec in ch.vectors])
    coeffs, *_ = np.linalg.lstsq(basis, v0, rcond=None)
    misfit = np.linalg.norm(basis @ coeffs - v0)
    if misfit > 1e-8 * max(np.linalg.norm(v0), 1.0):
        raise ValueError(f"incomplete generalized basis: misfit {misfit:.2e}")
    out = []
    pos = 0
    for ch in chains:
        out.append(coeffs[pos:pos + ch.order])
        pos += ch.order
    return out


def write_bands_csv(track: BandTrack, path) -> None:
    """Columns: value, band, re, im."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([track.parameter, "band", "re", "im"])
        for g, value in enumerate(track.grid_values):
            for b in range(track.bands.shape[1]):
                lam = track.bands[g, b]
                writer.writerow([f"{value:.17g}", b, f"{lam.real:.17g}", f"{lam.imag:.17g}"])


def write_eps_csv(records: list[EpRecord], path) -> None:
    """Columns: j_star, re_lambda_star, exponent, r2, bracket_lo, bracket_hi."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j_star", "re_lambda_star", "exponent", "r2",
                         "bracket_lo", "bracket_hi", "converged"])
        for rec in records:
            writer.writerow([
                f"{rec.j_star:.17g}",
                f"{rec.lambda_star.real:.17g}",
                "" if rec.exponent is None else f"{rec.exponent:.17g}",
                "" if rec.fit_r2 is None else f"{rec.fit_r2:.17g}",
                f"{rec.bracket[0]:.17g}",
                f"{rec.bracket[1]:.17g}",
                int(rec.converged),
            ])


def write_complex_count_csv(parameter: str, values: np.ndarray, counts: list[int], path,
                            isotropic: int | None = None) -> None:
    """Columns: value, n_complex, plus n_complex_isotropic (the same count on
    every row) when an isotropic reference count is given."""
    extra = [] if isotropic is None else [isotropic]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([parameter, "n_complex"] + (["n_complex_isotropic"] if extra else []))
        for v, c in zip(values, counts):
            writer.writerow([f"{v:.17g}", c] + extra)
