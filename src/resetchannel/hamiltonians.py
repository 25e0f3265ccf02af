"""Dense spin-chain Hamiltonians: quasiperiodic XY chain, its chaos-driving
three-body extension, the anisotropic variant, and the blockade-constrained
PXP model on :class:`~resetchannel.spin_ops.ConstrainedBasis`.

All couplings are dimensionless ratios to the XY scale (or to the Rabi scale
for PXP); hbar = 1. Chains are open.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .spin_ops import ConstrainedBasis, pauli_sum, site_signs

GOLDEN_OMEGA = 2 * np.pi * (np.sqrt(5) - 1) / 2  # inverse golden ratio modulation
HERMITIAN_RTOL = 1e-10  # |H - H^dag| relative to max(|H|, 1)


# The parameter dataclasses are the schema of a config's ``params``: a
# field's name is its key and its default the value an absent key takes.
# Metadata "positive" bounds a field, checked here and by config validation;
# "fixed" keeps it out of every sweep (the energy unit, the field frequency).
@dataclass(frozen=True)
class AahParams:
    """Quasiperiodic XY chain couplings: XY scale ``j2``, Ising ``jzz``,
    on-site cosine field amplitude ``jz`` with frequency ``omega``."""

    j2: float = field(default=1.0, metadata={"positive": True, "fixed": True})
    jzz: float = 0.0
    jz: float = 0.0
    omega: float = field(default=GOLDEN_OMEGA, metadata={"fixed": True})

    def __post_init__(self):
        _check_positive(self)


@dataclass(frozen=True)
class XxxParams(AahParams):
    """AAH chain plus a three-site XXX coupling that breaks U(1)."""

    jxxx: float = 0.0


@dataclass(frozen=True)
class XxParams:
    """Anisotropic chain: unequal XX/YY couplings break U(1)."""

    jxx: float = 1.0
    jyy: float = 1.0
    jzz: float = 0.0
    jz: float = 0.0
    omega: float = field(default=GOLDEN_OMEGA, metadata={"fixed": True})


@dataclass(frozen=True)
class PxpParams:
    """Blockaded spin-flip model; ``omega_rabi`` sets the energy scale."""

    omega_rabi: float = field(default=1.0, metadata={"positive": True, "fixed": True})

    def __post_init__(self):
        _check_positive(self)


def _check_positive(params) -> None:
    for f in fields(params):
        if f.metadata.get("positive") and not getattr(params, f.name) > 0:
            raise ValueError(f"{f.name} sets the energy unit and must be positive")


MODEL_PARAMS = {"aah": AahParams, "xxx": XxxParams, "xx": XxParams, "pxp": PxpParams}


def _chain(n_sites: int, jxx: float, jyy: float, jzz: float, jz: float, omega: float,
           jxxx: float = 0.0) -> np.ndarray:
    if n_sites < 2:
        raise ValueError("chain needs at least 2 sites")
    bonds = [(coeff, axis * 2, (m, m + 1))
             for m in range(n_sites - 1)
             for coeff, axis in ((jxx, "x"), (jyy, "y"), (jzz, "z")) if coeff != 0.0]
    if jxxx != 0.0:
        bonds += [(jxxx, "xxx", (m - 1, m, m + 1)) for m in range(1, n_sites - 1)]
    field = [(jz * np.cos(omega * m), "z", (m,)) for m in range(n_sites)]
    h = pauli_sum(bonds, n_sites)
    h += pauli_sum(field, n_sites)  # summing the field apart fixes the diagonal's rounding
    return h


def build_aah(params: AahParams, n_sites: int) -> np.ndarray:
    """Quasiperiodic XY chain; commutes with total sigma^z."""
    return _chain(n_sites, params.j2, params.j2, params.jzz, params.jz, params.omega)


def build_xxx(params: XxxParams, n_sites: int) -> np.ndarray:
    """AAH chain plus the three-site XXX term on interior sites."""
    if n_sites < 3:
        raise ValueError("three-site coupling needs at least 3 sites")
    return _chain(n_sites, params.j2, params.j2, params.jzz, params.jz, params.omega,
                  params.jxxx)


def build_xx(params: XxParams, n_sites: int) -> np.ndarray:
    """Anisotropic chain; reduces to the AAH chain at jxx == jyy == j2."""
    return _chain(n_sites, params.jxx, params.jyy, params.jzz, params.jz, params.omega)


def build_pxp(params: PxpParams, n_sites: int) -> np.ndarray:
    """Blockaded spin-flip Hamiltonian with open boundaries (edge projectors
    replaced by identity), on the blockade subspace.

    Restricted to the blockade subspace, (Omega/2) sum_m X_m equals the
    projector-dressed sum_m P0_{m-1} X_m P0_{m+1}.
    """
    if n_sites < 2:
        raise ValueError("chain needs at least 2 sites")
    terms = [(params.omega_rabi / 2, "x", (m,)) for m in range(n_sites)]
    return pauli_sum(terms, n_sites, ConstrainedBasis(n_sites).states)


@cache
def _sectors(n_sites: int) -> tuple[np.ndarray, ...]:
    """The total-S_z sectors of ``n_sites`` qubits: the states of each, in
    ascending index, in ascending count of 1 bits. Made once per chain size
    and read-only, since every real solve of that size shares them."""
    ones = (n_sites - site_signs(np.arange(2 ** n_sites), n_sites).sum(axis=0)) // 2
    members = tuple(np.flatnonzero(ones == k) for k in range(n_sites + 1))
    for idx in members:
        idx.flags.writeable = False
    return members


def _sector_eigensystem(h: np.ndarray, n_sites: int):
    """Eigensystem of a real symmetric ``h`` on the qubit basis of ``n_sites``
    sites, solved one total-S_z sector at a time (see :func:`_sectors`), or
    None when an entry between two different sectors is not exactly zero.

    The stable sort keeps the sector order among equal energies.
    """
    members = _sectors(n_sites)
    blocks = [h[np.ix_(idx, idx)] for idx in members]
    if np.count_nonzero(h) != sum(np.count_nonzero(b) for b in blocks):
        return None
    solved = [np.linalg.eigh(b) for b in blocks]
    vals = np.concatenate([w for w, _ in solved])  # in sector order
    ascending = np.argsort(vals, kind="stable")
    column = np.argsort(ascending)  # where each sector-order pair lands
    out, lo = np.zeros(h.shape), 0
    for idx, (_, v) in zip(members, solved):
        out[np.ix_(idx, column[lo:lo + len(idx)])] = v
        lo += len(idx)
    return vals[ascending], out


def drop_zero_imag(x: np.ndarray) -> np.ndarray:
    """The real part of ``x`` when ``x`` is complex with an imaginary part
    that is exactly zero, so that a check on it runs in real arithmetic;
    ``x`` itself otherwise. No tolerance decides it."""
    return x.real if np.iscomplexobj(x) and not np.any(x.imag) else x


def require_hermitian(x: np.ndarray) -> None:
    """Reject a square matrix, or a stack of them on the last two axes, unless
    |X - X^dag| <= ``HERMITIAN_RTOL`` max(|X|, 1) for each (Frobenius norms).
    An exactly real complex ``x`` is checked as its real part (see
    :func:`drop_zero_imag`), which gives the same norms."""
    for m in drop_zero_imag(x).reshape(-1, *x.shape[-2:]):
        scale = max(np.linalg.norm(m), 1.0)
        if not np.linalg.norm(m - m.conj().T) <= HERMITIAN_RTOL * scale:  # NaN fails too
            raise ValueError("operator is not Hermitian within tolerance")


def hermitian_eigensystem(h: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix; rejects others (see :func:`require_hermitian`).

    The dtype of ``h`` decides the arithmetic: a complex ``h`` takes the
    complex Hermitian ``eigh``, any other is cast to float64 and takes the
    real symmetric one, which agrees with the complex solve to rounding, not
    bit for bit. A real ``2**n``-dimensional matrix whose entries between
    different total-S_z sectors of ``n`` qubits are all exactly zero is
    solved one sector at a time, with the eigenvectors embedded in the full
    basis; no tolerance decides that, so the split is exact for any matrix
    that passes it.
    """
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"operator must be square, got shape {h.shape}")
    require_hermitian(h)
    n_sites = len(h).bit_length() - 1
    if h.dtype == float and len(h) == 1 << n_sites:
        solved = _sector_eigensystem(h, n_sites)
        if solved is not None:
            return solved
    return np.linalg.eigh(h)
