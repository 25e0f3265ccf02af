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
    energies: np.ndarray
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


def half_chain_renyi2(vec: np.ndarray, basis: ConstrainedBasis) -> float:
    """Renyi-2 entanglement entropy of the left half-chain for a
    constrained-basis pure state."""
    full = basis.embed_vector(np.asarray(vec, dtype=complex))
    n = basis.n_sites
    half = n // 2
    amps = full.reshape(2 ** half, 2 ** (n - half))
    svals = np.linalg.svd(amps, compute_uv=False)
    purity = float(np.sum(svals ** 4))
    return -np.log(purity)


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
    entropies = np.array([half_chain_renyi2(eigenvectors[:, k], basis) for k in bulk])
    order = np.argsort(entropies, kind="stable")[:SCAR_COUNT]
    picked = bulk[order]
    return ScarCandidates(
        indices=[int(k) for k in picked],
        energies=energies[picked],
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


def _renyi2(purities) -> float:
    return -np.log(purities[0]) - np.log(purities[1]) + np.log(purities[2])


def _site_sz_diagonals(n_sites: int) -> np.ndarray:
    """Row m holds the diagonal of sigma_m^z / 2."""
    return 0.5 * site_signs(np.arange(2 ** n_sites), n_sites)


def imbalance(rho_t: np.ndarray, rho_0: np.ndarray, n_sites: int) -> float:
    """Memory diagnostic B = sum_i Tr(rho_t S_i^z) Tr(rho_0 S_i^z) with
    S_i^z = sigma_i^z / 2."""
    rho_t = np.asarray(rho_t, dtype=complex)
    rho_0 = np.asarray(rho_0, dtype=complex)
    if rho_t.shape != rho_0.shape or rho_t.shape[0] != 2 ** n_sites:
        raise ValueError("state dimensions do not match the chain size")
    sz = _site_sz_diagonals(n_sites)
    now = sz @ np.real(np.diag(rho_t))
    init = sz @ np.real(np.diag(rho_0))
    return float(now @ init)


def _purity(rho: np.ndarray) -> float:
    """Tr rho^2 = sum |rho_ij|^2 of a Hermitian rho."""
    return float(np.vdot(rho, rho).real)


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


def _block_purities(blocks: np.ndarray) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The system marginal rho_s = rho_00 + rho_11 and the purities of
    rho_a, rho_s and rho_as, read off the blocks (rho_00, rho_01, rho_11):
    rho_a = [[tr rho_00, tr rho_01], [conj(tr rho_01), tr rho_11]] and
    Tr rho_as^2 = |rho_00|^2 + 2 |rho_01|^2 + |rho_11|^2."""
    t00, t01, t11 = np.trace(blocks, axis1=1, axis2=2)
    rho_s = blocks[0] + blocks[2]
    purity_a = float(abs(t00) ** 2 + 2 * abs(t01) ** 2 + abs(t11) ** 2)
    purity_as = _purity(blocks[0]) + 2 * _purity(blocks[1]) + _purity(blocks[2])
    return rho_s, (purity_a, _purity(rho_s), purity_as)


def _warn_on_qmi_rise(qmis: list[float]) -> None:
    """Monotonicity violations of the mutual information (beyond
    ``QMI_MONOTONE_ATOL``) are logged as warnings, not raised."""
    for n in range(1, len(qmis)):
        if qmis[n] > qmis[n - 1] + QMI_MONOTONE_ATOL:
            warnings.warn(
                f"mutual information rose by {qmis[n] - qmis[n - 1]:.2e} "
                f"at step {n}", RuntimeWarning,
            )


def _rounds(kraus: KrausSet, x: np.ndarray, n_max: int):
    """``x`` and its images after each of ``n_max`` channel applications."""
    yield x
    for _ in range(n_max):
        x = apply_channel(kraus, x)
        yield x


def qmi_trajectory(kraus: KrausSet, n_max: int) -> list[TrajectoryRecord]:
    """Iterate the channel on the system of an (ancilla + system) GHZ state,
    the ancilla untouched, recording mutual information, imbalance,
    magnetization, and purities at every step.

    The state is kept as its system blocks (rho_00, rho_01, rho_11); the
    channel maps them as one stack, and the marginals and purities are read
    off the blocks. A rise of the mutual information is warned about.
    """
    sz = _site_sz_diagonals(kraus.layout.n_s)
    records: list[TrajectoryRecord] = []
    sz_0 = None
    for n, blocks in enumerate(_rounds(kraus, _ghz_blocks(kraus), n_max)):
        rho_s, purities = _block_purities(blocks)
        sz_n = sz @ np.real(np.diag(rho_s))
        if sz_0 is None:
            sz_0 = sz_n
        records.append(TrajectoryRecord(
            n_k=n,
            qmi=float(_renyi2(purities)),
            imbalance=float(sz_n @ sz_0),
            sz=float(2.0 * sz_n.sum()),
            purity_a=purities[0],
            purity_s=purities[1],
            purity_as=purities[2],
        ))
    _warn_on_qmi_rise([r.qmi for r in records])
    return records


def magnetization_trajectory(kraus: KrausSet, rho0: np.ndarray, n_steps: int) -> np.ndarray:
    """Total system magnetization <sum_m sigma_m^z> along the iteration."""
    if kraus.layout.constrained:
        raise ValueError("magnetization trajectories assume the full qubit basis")
    sz_total = 2.0 * _site_sz_diagonals(kraus.layout.n_s).sum(axis=0)
    rhos = _rounds(kraus, np.asarray(rho0, dtype=complex), n_steps)
    return np.array([float(sz_total @ np.real(np.diag(rho))) for rho in rhos])


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
            stack = np.concatenate([_ghz_blocks(kraus), rho0[None]])
            qmis = []
            for stack in _rounds(kraus, stack, n_k):
                qmis.append(float(_renyi2(_block_purities(stack[:3])[1])))
            _warn_on_qmi_rise(qmis)
            points.append(PhaseScanPoint(
                value=float(value),
                qmi=qmis[-1],
                imbalance_plus_one=1.0 + imbalance(stack[3], rho0, kraus.layout.n_s),
            ))
        except Exception as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return points, failures
