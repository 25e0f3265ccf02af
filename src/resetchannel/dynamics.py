"""Iterated-channel observables and eigenmode diagnostics: rescaled
eigenstate overlaps, scar identification, Renyi-2 mutual information
trajectories, imbalance, and the localization phase scan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import KrausSet, apply_channel, joint_index_table
from .hamiltonians import ConstrainedBasis
from .spin_ops import (
    ChainLayout,
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


def eigen_overlap(right: np.ndarray, psi: np.ndarray, layout: ChainLayout) -> np.ndarray:
    """Rescaled overlaps xi_k = N_s |Tr(rho_psi right_k)| between every
    channel eigenmode (the columns of ``right``, row-stacked unit-norm
    eigenoperators) and one Hamiltonian eigenstate.

    rho_psi is the bath-vacuum projection of |psi><psi|, trace-normalized;
    it is formed once and contracted with all modes in one product. Bulk
    modes of scrambled dynamics sit near xi ~ 1; anomalously slow modes show
    xi >> 1 against the states they are built from.
    """
    v = bath_vacuum_projection(psi, layout)
    norm2 = float(np.real(v.conj() @ v))
    if norm2 < OVERLAP_MIN_WEIGHT:
        raise UndefinedOverlapError("eigenstate has no weight on the bath reset configuration")
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


def _site_sz(rhos: np.ndarray, n_sites: int) -> np.ndarray:
    """Tr(rho S_m^z), S_m^z = sigma_m^z / 2, for every site m (last axis)
    of one state or of each state in a stack."""
    diags = np.real(np.diagonal(rhos, axis1=-2, axis2=-1))
    return diags @ (0.5 * site_signs(np.arange(2 ** n_sites), n_sites)).T


def imbalance(rho_t: np.ndarray, rho_0: np.ndarray, n_sites: int) -> float | np.ndarray:
    """Memory diagnostic B = sum_i Tr(rho_t S_i^z) Tr(rho_0 S_i^z) with
    S_i^z = sigma_i^z / 2; a (k, d, d) stack ``rho_t`` gives the k values."""
    rho_t = np.asarray(rho_t, dtype=complex)
    rho_0 = np.asarray(rho_0, dtype=complex)
    dim = 2 ** n_sites
    if rho_0.shape != (dim, dim) or rho_t.shape[-2:] != (dim, dim):
        raise ValueError("state dimensions do not match the chain size")
    b = _site_sz(rho_t, n_sites) @ _site_sz(rho_0, n_sites)
    return float(b) if rho_t.ndim == 2 else b


def _purities(rhos: np.ndarray) -> np.ndarray:
    """Tr rho^2 = sum |rho_ij|^2 of each Hermitian rho in a stack."""
    x = rhos.reshape(*rhos.shape[:-2], -1).view(np.float64)
    return np.einsum("...k,...k->...", x, x)


def _ghz_blocks(kraus: KrausSet) -> np.ndarray:
    """The system blocks (rho_00, rho_01, rho_11), rho_ab = <a|rho|b> with
    a and b ancilla states, of the (ancilla + system) GHZ state; rho_10 =
    rho_01^dag, and the channel keeps it so."""
    if kraus.layout.constrained:
        raise ValueError("mutual-information trajectories assume the full qubit basis")
    d = kraus.dim
    psi = ghz_state(1 + kraus.layout.n_s)
    rho = np.outer(psi, psi.conj())
    return rho.reshape(2, d, 2, d).transpose(0, 2, 1, 3).reshape(4, d, d)[[0, 1, 3]]


def _ghz_readout(traj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per round of a trajectory of GHZ blocks (rho_00, rho_01, rho_11): the
    system marginal rho_s = rho_00 + rho_11, the mutual information, and the
    purities of rho_a, rho_s and rho_as (rows), read off the blocks:
    rho_a = [[tr rho_00, tr rho_01], [conj(tr rho_01), tr rho_11]] and
    Tr rho_as^2 = |rho_00|^2 + 2 |rho_01|^2 + |rho_11|^2."""
    t00, t01, t11 = np.abs(np.trace(traj, axis1=-2, axis2=-1).T) ** 2
    rho_s = traj[:, 0] + traj[:, 2]
    p00, p01, p11 = _purities(traj).T
    purities = np.array([t00 + 2 * t01 + t11, _purities(rho_s), p00 + 2 * p01 + p11])
    qmi = -np.log(purities[0]) - np.log(purities[1]) + np.log(purities[2])
    return rho_s, qmi, purities


def _warn_on_qmi_rise(qmis: np.ndarray) -> None:
    """Monotonicity violations of the mutual information (beyond
    ``QMI_MONOTONE_ATOL``) are logged as warnings, not raised."""
    for n in np.flatnonzero(qmis[1:] > qmis[:-1] + QMI_MONOTONE_ATOL) + 1:
        warnings.warn(
            f"mutual information rose by {qmis[n] - qmis[n - 1]:.2e} "
            f"at step {n}", RuntimeWarning,
        )


def _trajectory(kraus: KrausSet, x: np.ndarray, n_max: int) -> np.ndarray:
    """The (b, d, d) stack ``x`` and its images after each of ``n_max``
    channel applications, as one (n_max + 1, b, d, d) array."""
    traj = np.empty((n_max + 1, *np.shape(x)), dtype=complex)
    traj[0] = x
    for n in range(n_max):
        traj[n + 1] = apply_channel(kraus, traj[n])
    return traj


def qmi_trajectory(kraus: KrausSet, n_max: int) -> list[TrajectoryRecord]:
    """Iterate the channel on the system of an (ancilla + system) GHZ state,
    the ancilla untouched, recording mutual information, imbalance,
    magnetization, and purities at every step.

    The state is kept as its system blocks (rho_00, rho_01, rho_11); the
    channel maps them as one stack, and every record is read off the whole
    trajectory at once. A rise of the mutual information is warned about.
    """
    n_s = kraus.layout.n_s
    rho_s, qmi, purities = _ghz_readout(_trajectory(kraus, _ghz_blocks(kraus), n_max))
    _warn_on_qmi_rise(qmi)
    columns = zip(qmi, imbalance(rho_s, rho_s[0], n_s), 2.0 * _site_sz(rho_s, n_s).sum(axis=-1),
                  *purities)
    return [TrajectoryRecord(n, *map(float, row)) for n, row in enumerate(columns)]


def magnetization_trajectory(kraus: KrausSet, rho0: np.ndarray, n_steps: int) -> np.ndarray:
    """Total system magnetization <sum_m sigma_m^z> along the iteration."""
    if kraus.layout.constrained:
        raise ValueError("magnetization trajectories assume the full qubit basis")
    traj = _trajectory(kraus, np.asarray(rho0)[None], n_steps)[:, 0]
    return 2.0 * _site_sz(traj, kraus.layout.n_s).sum(axis=-1)


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
    Each point iterates the GHZ blocks and the product state as one stack.
    Per-point failures are recorded and skipped.
    """
    points: list[PhaseScanPoint] = []
    failures: list[tuple[int, str]] = []
    for i, value in enumerate(np.asarray(values, dtype=float)):
        try:
            kraus = channel_factory(float(value))
            psi = neel_state(kraus.layout.n_s)
            rho0 = np.outer(psi, psi.conj())
            traj = _trajectory(kraus, np.concatenate([_ghz_blocks(kraus), rho0[None]]), n_k)
            qmi = _ghz_readout(traj[:, :3])[1]
            _warn_on_qmi_rise(qmi)
            points.append(PhaseScanPoint(
                value=float(value),
                qmi=float(qmi[-1]),
                imbalance_plus_one=1.0 + imbalance(traj[-1, 3], rho0, kraus.layout.n_s),
            ))
        except Exception as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return points, failures
