"""Parameter sweeps of channel spectra, eigenvalue band tracking,
exceptional-point localization with square-root scaling fits, and
Jordan-chain machinery for (near-)defective eigenvalues.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectra import (
    DEFECTIVITY_THRESHOLD,
    SPLIT_TOL_FACTOR,
    conjugate_pair,
    relative_tolerance,
    sorted_eig,
    sorted_eigvals,
)
# full_spectrum is not called here; the benchmark's span tracer
# (benchmarks/spans.py) wraps it under this module's name
from .spectra import full_spectrum  # noqa: F401

MAX_BISECTIONS = 64
PROBE_MODES = 6              # eigenvalues a shift-invert probe solves for
KRYLOV_MAX = 64              # Arnoldi steps before a probe gives up
KRYLOV_RTOL = 1e-12          # Ritz residual, relative to |mu|, that a probe accepts
KRYLOV_CHECK = 4             # Arnoldi steps between two Ritz solves
# The sqrt fit's probe ladder: it starts FIT_START_WIDTHS EP bracket widths
# above J*, so the localization error stays small against the offsets (or it
# biases the fitted slope low), and grows by FIT_LADDER per probe for
# FIT_POINTS probes, all of which the fit reads.
FIT_POINTS = 5
FIT_LADDER = 1.6
FIT_START_WIDTHS = 30.0
FIT_MIN_BRACKET = 1e-12      # floor on the EP bracket width the ladder starts from
# A Jordan-chain link whose relative residual exceeds this is past the
# numerical Jordan block.
CHAIN_RESIDUAL_TOL = 1e-3
BASIS_MISFIT_RTOL = 1e-8     # lstsq misfit, relative to max(|v0|, 1), of a spanning basis


class JordanChainError(RuntimeError):
    """Requested chain extends past the numerical Jordan block."""


def attempt(fn: Callable, value) -> tuple:
    """``(fn(value), None)``, or ``(None, "Type: message")`` when it raises:
    the one failure rule of every point a stage tries (see :func:`attempt_each`),
    whose caller records the error and goes on without the result."""
    try:
        return fn(value), None
    except Exception as exc:  # one bad build must not sink the stage
        return None, f"{type(exc).__name__}: {exc}"


def attempt_each(fn: Callable, values, n_workers: int = 1) -> tuple[list, list, list]:
    """:func:`attempt` of ``fn`` at each of ``values``, through a pool of
    ``n_workers`` threads when there are more than one: the one place a
    stage tries many points. Returns the indices of the points that solved,
    their results, and ``(index, "Type: message")`` of each point that
    raised, each in index order."""
    values = list(values)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(lambda v: attempt(fn, v), values))
    else:  # no pool for one worker: through one, fig4's peak RSS rose from 46.7 to 50 MB
        results = [attempt(fn, v) for v in values]
    solved = [i for i, (_, err) in enumerate(results) if err is None]
    return (solved, [results[i][0] for i in solved],
            [(i, err) for i, (_, err) in enumerate(results) if err is not None])


def _near_solve(mat: np.ndarray, sigma: float) -> tuple[np.ndarray, float] | None:
    """The ``PROBE_MODES`` eigenvalues of ``mat`` nearest ``sigma``, by
    shift-invert Arnoldi, and the radius about ``sigma`` they lie within;
    None when the matrix is too small for a probe, ``mat - sigma`` is
    singular, or the Ritz values do not converge within ``KRYLOV_MAX`` steps.

    The Krylov space of (mat - sigma)^-1 grows from a fixed start vector,
    each new vector orthogonalized by classical Gram-Schmidt done twice.
    Every ``KRYLOV_CHECK`` steps the Ritz values mu of the Hessenberg matrix
    are solved; the ``PROBE_MODES`` largest |mu| are accepted once each
    Ritz pair's residual |h_{m+1,m} y_m| is at most ``KRYLOV_RTOL`` |mu|
    (ARPACK's test), and give lambda = sigma + 1/mu. A space that reaches
    the full dimension, or breaks down earlier, is invariant and its Ritz
    values are exact. A real ``mat`` stays in real arithmetic, so the Ritz
    values come in exact conjugate pairs.
    """
    n = mat.shape[0]
    if n <= PROBE_MODES + 2:
        return None
    try:
        op = np.linalg.inv(mat - sigma * np.eye(n))
    except np.linalg.LinAlgError:
        return None
    start = np.random.default_rng(0).standard_normal(n)
    steps = min(KRYLOV_MAX, n)
    basis = np.zeros((steps + 1, n), dtype=op.dtype)    # orthonormal rows
    hess = np.zeros((steps + 1, steps), dtype=op.dtype)
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        w = op @ basis[j]
        done = basis[:j + 1]
        for _ in range(2):
            h = done.conj() @ w
            w -= h @ done
            hess[:j + 1, j] += h
        m = j + 1
        beta = 0.0 if m == n else float(np.linalg.norm(w))
        if m >= PROBE_MODES and (m % KRYLOV_CHECK == 0 or m == steps or beta == 0.0):
            mu, y = np.linalg.eig(hess[:m, :m])
            top = np.argsort(-np.abs(mu))[:PROBE_MODES]
            if np.all(beta * np.abs(y[-1, top]) <= KRYLOV_RTOL * np.abs(mu[top])):
                lam = sigma + 1.0 / mu[top]
                if not np.all(np.isfinite(lam)):
                    return None
                return lam, float(np.max(np.abs(lam - sigma)))
        if beta == 0.0:
            return None
        hess[m, j] = beta
        basis[m] = w / beta
    return None


@dataclass
class SweepGrid:
    """One-parameter family of channel matrices.

    ``build`` maps a parameter value to the matrix whose spectrum is swept
    and probed (the reversal-form channel matrix for the physical presets;
    the runner's EP grid builds its real Hermitian-basis form).
    ``probe_counts`` tallies the :meth:`probe` calls answered by a
    shift-invert solve (``"near"``) and by a full spectrum (``"full"``),
    ``failures`` the bisection midpoints that failed, as (value, error).
    """

    parameter: str
    values: np.ndarray
    build: Callable[[float], np.ndarray]
    probe_counts: dict[str, int] = field(
        default_factory=lambda: {"near": 0, "full": 0}, init=False, repr=False)
    failures: list[tuple[float, str]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size < 3:
            raise ValueError("sweep needs at least 3 points")
        diffs = np.diff(self.values)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep values must be strictly monotone")

    def probe(self, mat: np.ndarray, guess: np.ndarray, tol_im: float) -> tuple:
        """:func:`_pair_probe` of the full spectrum of ``mat``, a matrix
        that :attr:`build` made, for the guessed pair ``guess``.

        One shift rule for every matrix, real or complex: sigma =
        Re mean(guess), a real number. A shift-invert Arnoldi solve at sigma
        answers when its eigenvalues, all within a radius of sigma while
        every other eigenvalue lies at least that radius away, prove that
        the whole spectrum gives the same answer. The proof is geometric and
        holds for any sigma: every mode at least as close to ``guess[0]`` as
        the chosen ``a`` (to ``guess[1]`` as ``b``, to the pair's midpoint
        as the gap) lies inside the solved disc, so it was solved.
        Otherwise, and when that solve fails, the full ``eigvals`` of
        ``mat`` answers. The real shift keeps a real matrix's solves real,
        so the eigenvalues they return come in exact conjugate pairs.
        """
        sigma = float(np.mean(guess).real)
        near = _near_solve(mat, sigma)
        if near is not None:
            lam, radius = near
            result = _pair_probe(lam, guess, tol_im)
            (a, b), _, gap = result
            if (abs(guess[0] - sigma) + abs(a - guess[0]) < radius
                    and abs(guess[1] - sigma) + abs(b - guess[1]) < radius
                    and abs(0.5 * (a + b) - sigma) + gap < radius):
                self.probe_counts["near"] += 1
                return result
        lam = np.linalg.eigvals(mat)
        self.probe_counts["full"] += 1  # once it answered: a solve that raises is not counted
        return _pair_probe(lam, guess, tol_im)


@dataclass
class SweepResult:
    """The grid values of the points that solved and their eigenvalues, in
    :func:`sorted_eig` order (that of :func:`full_spectrum`): a complex
    point's are :func:`sorted_eig`'s bits, a real one's :func:`sorted_eigvals`'.
    A point that failed is only in ``failures``, as (grid index, error)."""

    grid: SweepGrid
    values: np.ndarray
    eigenvalues: list[np.ndarray]
    failures: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class BandTrack:
    """Eigenvalue trajectories lambda_b(J) matched across a sweep."""

    parameter: str
    grid_values: np.ndarray
    bands: np.ndarray                 # (n_points, n_bands), band b = column
    step_distances: np.ndarray        # max matching distance per step

    @property
    def split_tolerance(self) -> float:
        """|Im| above which a band counts as split: ``SPLIT_TOL_FACTOR`` of
        the largest |lambda| at the first grid point. The EP bisection and
        the sqrt fit both split pairs at it."""
        return relative_tolerance(self.bands[0], SPLIT_TOL_FACTOR)


@dataclass
class EpRecord:
    """A localized exceptional point of a coalescing band pair."""

    j_star: float
    lambda_star: complex
    band_pair: tuple[int, int]
    bracket: tuple[float, float]
    converged: bool = True
    exponent: float | None = None
    fit_r2: float | None = None


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
    residuals: list[float]

    @property
    def order(self) -> int:
        return len(self.vectors)


def sweep_spectrum(grid: SweepGrid, n_workers: int = 1) -> SweepResult:
    """Eigenvalues at every grid point; a point that fails is recorded, has
    no entry in ``values`` or ``eigenvalues``, and the sweep continues. A
    real matrix is solved by ``eigvals`` alone, in real arithmetic, so its
    eigenvalues come in exact conjugate pairs. A complex one keeps
    :func:`sorted_eig`, whose bits the ``sweep`` grid's outputs pin."""

    def solve(value: float) -> np.ndarray:
        mat = grid.build(value)
        return sorted_eig(mat)[0] if np.iscomplexobj(mat) else sorted_eigvals(mat)

    solved, eigenvalues, failures = attempt_each(
        solve, [float(v) for v in grid.values], n_workers)
    return SweepResult(grid, grid.values[solved], eigenvalues, failures)


def _match_step(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Indices into ``cur`` pairing each entry of ``prev`` bijectively,
    greedily, the largest |lambda| of ``prev`` first."""
    used = np.zeros(len(cur), dtype=bool)
    out = np.empty(len(prev), dtype=int)
    for i in np.argsort(-np.abs(prev)):
        dist = np.abs(cur - prev[i])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        out[i] = j
        used[j] = True
    return out


def track_bands(sweep: SweepResult, select: str = "all") -> BandTrack:
    """Match eigenvalues between consecutive solved sweep points into bands.

    Bands are labeled by their ordering at the first point (descending
    Re lambda). ``select="top_re_decile"`` restricts to the top decile by
    Re lambda at the sweep start (the slowly decaying bands where coalescence
    is visible); large matching distances are recorded, not raised.
    """
    spectra = sweep.eigenvalues
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
        cols = _match_step(bands[g - 1], cur)
        bands[g] = cur[cols]
        dists[g - 1] = float(np.max(np.abs(bands[g] - bands[g - 1])))
    return BandTrack(sweep.grid.parameter, sweep.values, bands, dists)


def count_complex(lam: np.ndarray) -> int:
    """Number of eigenvalues with |Im| above ``SPLIT_TOL_FACTOR`` of the
    largest |lambda|; even by conjugate closure (an odd count is flagged as
    an anomaly)."""
    tol = relative_tolerance(lam, SPLIT_TOL_FACTOR)
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
    is_pair = abs(a.imag) > tol_im and abs(b.imag) > tol_im and conjugate_pair(a, b)
    others = np.delete(lam, [i0, i1])
    gap = float(np.min(np.abs(others - 0.5 * (a + b)))) if others.size else np.inf
    return np.array([a, b]), is_pair, gap


def locate_eps(grid: SweepGrid, track: BandTrack, resolution: float,
               max_eps: int | None = None) -> list[EpRecord]:
    """Localize exceptional points where tracked bands turn complex.

    Each real-to-complex flip between adjacent grid points is refined by
    bisection that follows only the coalescing conjugate pair (never the full
    matching problem), until the parameter bracket is narrower than
    ``resolution``. Pairs flagged in the same grid interval are bisected
    together while they share a bracket, so a midpoint is built once and
    probed once per pair there. A band is split above
    ``track.split_tolerance``. Records come in band-pair order.
    """
    tol_im = track.split_tolerance
    records: list[EpRecord] = []
    for g in range(len(track.grid_values) - 1):
        lam = track.bands[g + 1]
        newly = [k for k in range(lam.size)
                 if abs(lam[k].imag) > tol_im and abs(track.bands[g, k].imag) <= tol_im]
        paired: set[int] = set()
        band_pairs: list[tuple[int, int]] = []
        for k in newly:
            if max_eps is not None and len(records) + len(band_pairs) >= max_eps:
                break
            partner = None if k in paired else next(
                (j for j in newly if j != k and j not in paired
                 and conjugate_pair(lam[k], lam[j])), None)
            if partner is not None:
                paired |= {k, partner}
                band_pairs.append((k, partner))
        found = _bisect_pairs(grid, float(track.grid_values[g]), float(track.grid_values[g + 1]),
                              {bp: lam[list(bp)] for bp in band_pairs}, tol_im, resolution)
        records += [found[bp] for bp in band_pairs]
    return records


def _bisect_pairs(grid: SweepGrid, lo: float, hi: float,
                  pairs: dict[tuple[int, int], np.ndarray], tol_im: float,
                  resolution: float, rounds: int = MAX_BISECTIONS
                  ) -> dict[tuple[int, int], EpRecord]:
    """The EP record of each band pair of ``pairs``, which maps it to its
    conjugate pair of eigenvalues at ``hi``, bisected between ``lo`` (real
    side) and ``hi`` (complex side), which run in the grid's direction.

    The matrix at the midpoint is built once and probes every pair; those
    split there go on toward ``lo``, the others toward ``hi``. A bracket
    is recorded as (min, max), converged unless it took the last of the
    ``MAX_BISECTIONS`` probes or ends at a midpoint that failed (see
    :func:`attempt`), which goes to ``grid.failures``."""

    def probe_pairs(value: float) -> dict:
        mat = grid.build(value)
        return {bp: grid.probe(mat, pair, tol_im) for bp, pair in pairs.items()}

    error = None
    if rounds and abs(hi - lo) > resolution and pairs:
        mid = 0.5 * (lo + hi)
        probes, error = attempt(probe_pairs, mid)
        if error is None:
            split = {bp: p for bp, (p, is_pair, _) in probes.items() if is_pair}
            merged = {bp: pairs[bp] for bp, (_, is_pair, _) in probes.items() if not is_pair}
            return {**_bisect_pairs(grid, lo, mid, split, tol_im, resolution, rounds - 1),
                    **_bisect_pairs(grid, mid, hi, merged, tol_im, resolution, rounds - 1)}
        grid.failures.append((mid, error))
    return {bp: EpRecord(0.5 * (lo + hi), complex(pair.mean()), bp,
                         (min(lo, hi), max(lo, hi)), converged=rounds > 0 and error is None)
            for bp, pair in pairs.items()}


def fit_sqrt_exponent(grid: SweepGrid, ep: EpRecord, tol_im: float) -> FitResult:
    """Fit the splitting exponent log|Im lambda| vs log|J - J*| just on the
    complex side of an exceptional point, which is toward the end of the
    grid; 0.5 for a generic second-order EP. ``tol_im`` is the
    |Im| above which a probed pair counts as split; pass the one that located
    ``ep`` (:attr:`BandTrack.split_tolerance`).

    Probes climb the ``FIT_*`` geometric ladder, one build and one probe of
    the pair per value, and stop after ``FIT_POINTS`` of them; the fit reads
    exactly those, the window nearest the EP, so a nearby second EP cannot
    contaminate it, and r^2 is that window's. A longer window could read a
    higher r^2, but on the benchmark seeds and the test families none did.
    A rung where the pair has re-merged or stopped being isolated raises a
    ``ValueError`` that names the ladder's first offset and why it stopped.
    """
    bracket_width = max(ep.bracket[1] - ep.bracket[0], FIT_MIN_BRACKET)
    pair = np.array([ep.lambda_star, np.conj(ep.lambda_star)])
    toward = 1.0 if grid.values[-1] > grid.values[0] else -1.0
    deltas, ims = [], []
    d = FIT_START_WIDTHS * bracket_width
    for _ in range(FIT_POINTS):
        p, is_pair, gap = grid.probe(grid.build(ep.j_star + toward * d), pair, tol_im)
        if not is_pair or abs(p[0] - p[1]) > gap:
            raise ValueError(
                f"only {len(deltas)} valid probe points beyond the EP; need {FIT_POINTS}"
                f" (the ladder starts at offset {FIT_START_WIDTHS * bracket_width:.3e}; at"
                f" {d:.3e} the pair is no longer {'isolated' if is_pair else 'split'})"
            )
        deltas.append(d)
        ims.append(0.5 * (abs(p[0].imag) + abs(p[1].imag)))
        pair = p
        d *= FIT_LADDER
    deltas = np.array(deltas)
    ims = np.array(ims)
    x, y = np.log(deltas), np.log(ims)
    a = np.vstack([x, np.ones(FIT_POINTS)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_res = float(np.sum((y - a @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return FitResult(float(coef[0]), r2, deltas, ims)


def jordan_chain(mat: np.ndarray, lam: complex, order: int) -> JordanChain:
    """Generalized eigenvector chain at a (near-)defective eigenvalue.

    The root vector comes from the SVD null space of (M - lambda); higher
    links solve (M - lambda) x = previous by minimum-norm least squares.
    A link whose relative residual exceeds ``CHAIN_RESIDUAL_TOL`` means the
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
        if res > CHAIN_RESIDUAL_TOL:
            raise JordanChainError(
                f"chain link residual {res:.2e} exceeds {CHAIN_RESIDUAL_TOL:.0e}; "
                f"Jordan block shorter than requested order {order}"
            )
        vectors.append(x)
        residuals.append(res)
    return JordanChain(complex(lam), vectors, residuals)


def iterate_jordan(chains: list[JordanChain], coeffs: list[np.ndarray], n_r: int) -> np.ndarray:
    """Evolve an initial vector written in a generalized eigenbasis through
    ``n_r`` channel applications.

    A chain spans an invariant subspace on which M acts as its Jordan block
    lambda I + N, N the nilpotent shift, because M v[d] = lambda v[d] + v[d-1];
    an order-1 chain reproduces the plain eigenmode powering.
    """
    if len(chains) != len(coeffs):
        raise ValueError("need one coefficient array per chain")
    out = np.zeros(chains[0].vectors[0].shape[0], dtype=complex)
    for chain, c in zip(chains, coeffs):
        o = chain.order
        if len(c) != o:
            raise ValueError(f"chain of order {o} needs {o} coefficients, got {len(c)}")
        block = chain.lam * np.eye(o, dtype=complex) + np.eye(o, k=1)
        out += np.column_stack(chain.vectors) @ (np.linalg.matrix_power(block, n_r) @ c)
    return out


def generalized_modes(mat: np.ndarray, defect_threshold: float = DEFECTIVITY_THRESHOLD,
                      cluster_tol: float = 1e-5) -> list[JordanChain]:
    """Complete generalized eigenbasis of a matrix.

    Well-conditioned eigenvalues become order-1 chains; clusters of
    ill-conditioned, nearly equal eigenvalues are replaced by a single Jordan
    chain of the cluster size at the cluster mean.
    """
    mat = np.asarray(mat, dtype=complex)
    vals, vecs = np.linalg.eig(mat)
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    cond = np.linalg.norm(np.linalg.inv(vecs), axis=1)
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
                complex(vals[i]), [vecs[:, i]],
                [float(np.linalg.norm(mat @ vecs[:, i] - vals[i] * vecs[:, i]))],
            ))
    for cl in clusters:
        lam = complex(np.mean(vals[cl]))
        chains.append(jordan_chain(mat, lam, len(cl)))
    return chains


def decompose_generalized(chains: list[JordanChain], v0: np.ndarray) -> list[np.ndarray]:
    """Coefficients of a vector in the generalized basis, grouped per chain;
    rejects a basis that does not span the vector."""
    v0 = np.asarray(v0, dtype=complex)
    basis = np.column_stack([vec for ch in chains for vec in ch.vectors])
    coeffs, *_ = np.linalg.lstsq(basis, v0, rcond=None)
    misfit = np.linalg.norm(basis @ coeffs - v0)
    if misfit > BASIS_MISFIT_RTOL * max(np.linalg.norm(v0), 1.0):
        raise ValueError(f"incomplete generalized basis: misfit {misfit:.2e}")
    out = []
    pos = 0
    for ch in chains:
        out.append(coeffs[pos:pos + ch.order])
        pos += ch.order
    return out
