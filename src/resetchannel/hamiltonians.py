"""Dense spin-chain Hamiltonians: quasiperiodic XY chain, its chaos-driving
three-body extension, the anisotropic variant, and the blockade-constrained
PXP model on :class:`~resetchannel.spin_ops.ConstrainedBasis`.

All couplings are dimensionless ratios to the XY scale (or to the Rabi scale
for PXP); hbar = 1. Chains are open.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import AahParams, PxpParams, XxParams, XxxParams
from .spin_ops import ConstrainedBasis, pauli_sum

HERMITIAN_RTOL = 1e-10  # |H - H^dag| relative to max(|H|, 1)


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


@lru_cache(maxsize=64)
def _components(pattern: bytes, shape: tuple[int, int],
                reach: tuple[int, ...] | None) -> tuple[np.ndarray, ...]:
    """The connected components of the graph whose edges are the nonzero
    entries of a matrix ``h``, given as ``pattern``, the packed bits of
    ``h != 0``, and its ``shape``: each as its states in ascending index, in
    ascending order of their first state, all of them or, with ``reach``,
    basis-state indices, those that hold one of its states. No nonzero entry
    links two components, so ``h`` is exactly block diagonal on them. The
    index arrays are read-only and cached: builds that vary only couplings
    already nonzero share one pattern (fig8's 13 phase points, fig4's EP
    builds at jxxx > 0), so the breadth-first search runs once for them."""
    linked = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8),
                           count=shape[0] * shape[1]).reshape(shape).astype(bool)
    unseen = np.ones(shape[0], dtype=bool)
    found = []
    for seed in (range(shape[0]) if reach is None else reach):
        if unseen[seed]:
            before = unseen.copy()
            unseen[seed] = False
            level = [seed]
            while len(level):  # breadth first: the unseen neighbours of a level
                level = np.flatnonzero(np.logical_or.reduce(linked[level]) & unseen)
                unseen[level] = False
            found.append(np.flatnonzero(before != unseen))
            found[-1].flags.writeable = False
    return tuple(sorted(found, key=lambda idx: idx[0]))


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


def hermitian_eigensystem(h: np.ndarray, reach=None):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix; rejects others (see :func:`require_hermitian`).

    The dtype of ``h`` decides the arithmetic: a complex ``h`` takes one
    complex Hermitian ``eigh``, any other is cast to float64 and takes the
    real symmetric one, which agrees with the complex solve to rounding, not
    bit for bit. A real ``h`` is solved one block at a time, a block being a
    connected component of its nonzero entries (see :func:`_components`),
    with the eigenvectors embedded in the full basis; a stable sort of the
    energies keeps the block order among equal ones. No tolerance decides
    the split: it is exact because no nonzero entry links two blocks. A
    real ``h`` of one block takes one ``eigh``.

    ``reach``, basis-state indices or None for all, narrows the real solve
    to the blocks holding those states: the eigenvectors are then the m
    orthonormal columns of a (dim, m) isometry, m the summed size of those
    blocks, enough for the columns of exp(-i H t) at ``reach`` and no more.
    A complex ``h``, or a reach whose blocks cover every state, gives every
    eigenvector.
    """
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"operator must be square, got shape {h.shape}")
    require_hermitian(h)
    if h.dtype == complex:
        return np.linalg.eigh(h)
    linked = h != 0
    blocks = _components(np.packbits(linked).tobytes(), linked.shape,
                         None if reach is None else tuple(np.asarray(reach).tolist()))
    if len(blocks[0]) == len(h):
        return np.linalg.eigh(h)
    solved = [np.linalg.eigh(h[np.ix_(idx, idx)]) for idx in blocks]
    vals = np.concatenate([w for w, _ in solved])  # in block order
    ascending = np.argsort(vals, kind="stable")
    column = np.argsort(ascending)  # where each block-order pair lands
    out, lo = np.zeros((len(h), len(vals))), 0
    for idx, (_, v) in zip(blocks, solved):
        out[np.ix_(idx, column[lo:lo + len(idx)])] = v
        lo += len(idx)
    return vals[ascending], out
