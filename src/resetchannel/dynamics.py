"""Iterated-channel observables and eigenmode diagnostics: rescaled
eigenstate overlaps, scar identification, Renyi-2 mutual information
trajectories, imbalance, and the localization phase scan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .channel import (
    KrausSet,
    apply_channel,  # noqa: F401  (not called here; benchmarks/spans.py wraps it)
    hermitian_coefficients,
    joint_index_table,
    real_channel_form,
)
from .spin_ops import (
    ChainLayout,
    ConstrainedBasis,
    ghz_state,
    neel_state,
    partial_trace,  # noqa: F401  (not called here; benchmarks/spans.py wraps it)
    site_signs,
)

QMI_MONOTONE_ATOL = 1e-9
OVERLAP_MIN_WEIGHT = 1e-12   # bath-vacuum weight below which an overlap is undefined
SCAR_COUNT = 4               # scar candidates picked per spectrum
SCAR_EDGE_FRACTION = 1 / 6   # fraction of the energy spectrum skipped at each edge


class UndefinedOverlapError(ValueError):
    """Eigenstate has (numerically) no weight in the bath reset sector."""


@dataclass
class TrajectoryRecord:
    n_k: int
    qmi: float
    imbalance: float
    sz: float
    purity_a: float
    purity_s: float
    purity_as: float


@dataclass
class ScarCandidates:
    indices: list[int]
    entropies: np.ndarray
    bulk_median_entropy: float
    states: np.ndarray  # columns are constrained-basis eigenvectors


def bath_vacuum_projection(psi: np.ndarray, layout: ChainLayout) -> np.ndarray:
    """System-space amplitudes <s, 0_b|psi> of a joint state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != layout.dim_joint:
        raise ValueError(f"state dim {psi.shape[0]} != joint dim {layout.dim_joint}")
    return psi[joint_index_table(layout)[0]]


def bath_vacuum_weight(psi: np.ndarray, layout: ChainLayout) -> float:
    """Weight |<s, 0_b|psi>|^2 summed over s: how much of a joint state the
    bath reset configuration reaches."""
    v = bath_vacuum_projection(psi, layout)
    return float(np.real(v.conj() @ v))


def eigen_overlap(right: np.ndarray, psi: np.ndarray, layout: ChainLayout) -> np.ndarray:
    """Rescaled overlaps xi_k = N_s |Tr(rho_psi right_k)| between every
    channel eigenmode (the columns of ``right``, row-stacking vecs of
    unit-norm eigenoperators) and one Hamiltonian eigenstate.

    rho_psi is the bath-vacuum projection of |psi><psi|, trace-normalized;
    it is formed once and contracted with all modes in one product. Bulk
    modes of scrambled dynamics sit near xi ~ 1; anomalously slow modes show
    xi >> 1 against the states they are built from. A state whose
    :func:`bath_vacuum_weight` is below ``OVERLAP_MIN_WEIGHT`` raises.
    """
    norm2 = bath_vacuum_weight(psi, layout)
    if norm2 < OVERLAP_MIN_WEIGHT:
        raise UndefinedOverlapError("eigenstate has no weight on the bath reset configuration")
    v = bath_vacuum_projection(psi, layout)
    return layout.dim_s * np.abs(np.kron(v.conj(), v) @ right) / norm2


def half_chain_renyi2(vec: np.ndarray, basis: ConstrainedBasis) -> float | np.ndarray:
    """Renyi-2 entanglement entropy of the left half-chain for a
    constrained-basis pure state, or for each column of a (dim, k) block of
    them in one batched SVD."""
    full = basis.embed_vector(np.asarray(vec, dtype=complex))
    n = basis.n_sites
    half = n // 2
    amps = np.moveaxis(full.reshape(2 ** half, 2 ** (n - half), -1), -1, 0)
    svals = np.linalg.svd(amps, compute_uv=False)
    entropies = -np.log(np.sum(svals ** 4, axis=-1))
    return entropies if full.ndim == 2 else float(entropies[0])


def scar_candidates(energies: np.ndarray, eigenvectors: np.ndarray,
                    basis: ConstrainedBasis) -> ScarCandidates:
    """Lowest-entanglement eigenstates in the middle of the spectrum.

    Scans eigenstates in the central (1 - 2*SCAR_EDGE_FRACTION) band of the
    energy spectrum and returns the ``SCAR_COUNT`` with the smallest
    half-chain Renyi-2 entropy -- the anomalously thermalization-resistant
    states.
    """
    dim = len(energies)
    lo = int(dim * SCAR_EDGE_FRACTION)
    hi = dim - lo
    if hi - lo <= SCAR_COUNT:
        raise ValueError(f"spectrum too small to exclude edges: bulk has {hi - lo} states")
    bulk = np.arange(lo, hi)
    entropies = half_chain_renyi2(eigenvectors[:, bulk], basis)
    order = np.argsort(entropies, kind="stable")[:SCAR_COUNT]
    picked = bulk[order]
    return ScarCandidates(
        indices=[int(k) for k in picked],
        entropies=entropies[order],
        bulk_median_entropy=float(np.median(entropies)),
        states=eigenvectors[:, picked],
    )


def scar_overlap_avg(right: np.ndarray, scar_states: np.ndarray,
                     layout: ChainLayout) -> np.ndarray:
    """Per-mode arithmetic mean of the rescaled overlaps against each scar
    state."""
    xis = [eigen_overlap(right, scar_states[:, j], layout) for j in range(scar_states.shape[1])]
    return np.mean(xis, axis=0)


def _site_sz(diags: np.ndarray, n_sites: int) -> np.ndarray:
    """Tr(rho S_m^z), S_m^z = sigma_m^z / 2, for every site m (last axis),
    from the diagonal of rho (last axis), of one state or of each in a
    stack."""
    return diags @ (0.5 * site_signs(np.arange(2 ** n_sites), n_sites)).T


@cache
def _initial_columns(n_s: int) -> np.ndarray:
    """Coefficient columns (see :func:`hermitian_coefficients`) of the
    states the dynamics start from, as one (d^2, 5) array: the system
    blocks of the (ancilla + system) GHZ state, rho_00, rho_11, and the
    Hermitian and anti-Hermitian parts (rho_01 + rho_01^dag) / 2 and
    (rho_01 - rho_01^dag) / 2i of rho_01, where rho_ab = <a|rho|b> with a
    and b ancilla states (rho_10 = rho_01^dag, and the channel keeps it
    so); then the alternating product state. Made once per system size and
    read-only."""
    d = 2 ** n_s
    psi = ghz_state(1 + n_s)
    rho = np.outer(psi, psi.conj()).reshape(2, d, 2, d)
    r01 = rho[0, :, 1]
    neel = neel_state(n_s)
    columns = hermitian_coefficients(np.array([
        rho[0, :, 0], rho[1, :, 1], (r01 + r01.conj().T) / 2, (r01 - r01.conj().T) / 2j,
        np.outer(neel, neel.conj())]))
    columns.flags.writeable = False
    return columns


def _ghz_readout(traj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per round of a (n, d^2, 4) trajectory of the GHZ columns of
    :func:`_initial_columns`: the diagonal of the system marginal rho_s =
    rho_00 + rho_11, the mutual information, and the purities of rho_a,
    rho_s and rho_as (rows).

    A trace is the sum of the d diagonal coefficients, Tr X^2 of a
    Hermitian X is |c|^2, and |rho_01|^2 is the sum of the two parts'.
    So rho_a = [[tr rho_00, tr rho_01], [conj(tr rho_01), tr rho_11]] and
    Tr rho_as^2 = |rho_00|^2 + 2 |rho_01|^2 + |rho_11|^2."""
    d = int(round(np.sqrt(traj.shape[1])))
    t00, t11, t_re, t_im = traj[:, :d].sum(axis=1).T
    p00, p11, p_re, p_im = np.einsum("nkb,nkb->bn", traj, traj)
    rho_s = traj[..., 0] + traj[..., 1]
    purities = np.array([t00 ** 2 + 2 * (t_re ** 2 + t_im ** 2) + t11 ** 2,
                         np.einsum("nk,nk->n", rho_s, rho_s), p00 + 2 * (p_re + p_im) + p11])
    qmi = -np.log(purities[0]) - np.log(purities[1]) + np.log(purities[2])
    return rho_s[:, :d], qmi, purities


def _warn_on_qmi_rise(qmis: np.ndarray) -> None:
    """Monotonicity violations of the mutual information (beyond
    ``QMI_MONOTONE_ATOL``) are logged as warnings, not raised."""
    for n in np.flatnonzero(qmis[1:] > qmis[:-1] + QMI_MONOTONE_ATOL) + 1:
        warnings.warn(
            f"mutual information rose by {qmis[n] - qmis[n - 1]:.2e} "
            f"at step {n}", RuntimeWarning,
        )


def _trajectory(kraus: KrausSet, c: np.ndarray, n_max: int) -> np.ndarray:
    """The real (d^2, b) coefficient columns ``c`` of b Hermitian operators
    and their images after each of ``n_max`` channel rounds, as one
    (n_max + 1, d^2, b) array: one real product with
    :func:`real_channel_form` per round. The states iterated here live on
    the full qubit basis, so a constrained layout raises."""
    if kraus.layout.constrained:
        raise ValueError("channel iterations assume the full qubit basis")
    mat = real_channel_form(kraus)
    traj = np.empty((n_max + 1, *c.shape))
    traj[0] = c
    for n in range(n_max):
        np.matmul(mat, traj[n], out=traj[n + 1])
    return traj


def qmi_trajectory(kraus: KrausSet, n_max: int) -> list[TrajectoryRecord]:
    """Iterate the channel on the system of an (ancilla + system) GHZ state,
    the ancilla untouched, recording mutual information, imbalance,
    magnetization, and purities at every step.

    The state is kept as the coefficients of its system blocks (see
    :func:`_initial_columns`); the channel maps them as one real (d^2, 4)
    array, and every record is read off the whole trajectory at once. A
    rise of the mutual information is warned about.
    """
    n_s = kraus.layout.n_s
    diags, qmi, purities = _ghz_readout(_trajectory(kraus, _initial_columns(n_s)[:, :4], n_max))
    _warn_on_qmi_rise(qmi)
    sz = _site_sz(diags, n_s)
    columns = zip(qmi, sz @ sz[0], 2.0 * sz.sum(axis=-1), *purities)
    return [TrajectoryRecord(n, *map(float, row)) for n, row in enumerate(columns)]


def magnetization_trajectory(kraus: KrausSet, rho0: np.ndarray, n_steps: int) -> np.ndarray:
    """Total system magnetization <sum_m sigma_m^z> along the iteration."""
    traj = _trajectory(kraus, hermitian_coefficients(rho0)[:, None], n_steps)[..., 0]
    return 2.0 * _site_sz(traj[:, :kraus.dim], kraus.layout.n_s).sum(axis=-1)


@dataclass
class PhaseScanPoint:
    value: float
    qmi: float
    imbalance_plus_one: float


def phase_scan(channel_factory: Callable[[float], KrausSet], values: np.ndarray,
               n_k: int) -> tuple[list[PhaseScanPoint], list[tuple[int, str]]]:
    """Final mutual information (from the GHZ protocol of
    :func:`qmi_trajectory`) and final imbalance + 1 (from the alternating
    product state) after ``n_k`` channel rounds, for each parameter value.
    Each point iterates the GHZ columns and the product state's (see
    :func:`_initial_columns`) as one real (d^2, 5) array. Per-point failures
    are recorded and skipped.
    """
    points: list[PhaseScanPoint] = []
    failures: list[tuple[int, str]] = []
    for i, value in enumerate(np.asarray(values, dtype=float)):
        try:
            kraus = channel_factory(float(value))
            n_s, d = kraus.layout.n_s, kraus.dim
            traj = _trajectory(kraus, _initial_columns(n_s), n_k)
            qmi = _ghz_readout(traj[..., :4])[1]
            _warn_on_qmi_rise(qmi)
            sz_0, sz_n = _site_sz(traj[[0, -1], :d, 4], n_s)
            points.append(PhaseScanPoint(
                value=float(value),
                qmi=float(qmi[-1]),
                imbalance_plus_one=1.0 + float(sz_n @ sz_0),
            ))
        except Exception as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return points, failures
