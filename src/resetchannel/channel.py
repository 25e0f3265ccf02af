"""Reset-driven Floquet channel: joint propagator, Kraus extraction by bath
reset, channel application, and the vectorized superoperator.

Vectorization is row-stacking throughout: vec(rho)[i*d + j] = rho[i, j], so
the channel matrix is M = sum_m K_m (x) conj(K_m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .hamiltonians import drop_zero_imag, hermitian_eigensystem, require_hermitian
from .spin_ops import ChainLayout, site_signs

UNITARITY_ATOL = 1e-9
COMPLETENESS_ATOL = 1e-9


class CompletenessError(RuntimeError):
    """Kraus completeness residual beyond tolerance; basis/ordering bug."""


@dataclass
class Propagator:
    """Evolution operator U = V exp(-i E t) V^dag for one Floquet period,
    held as the energies ``vals`` and eigenvectors ``vecs`` of the
    Hamiltonian; U itself is never formed (see :meth:`columns`). Its
    unitarity deviation is |V^dag V - I| (Frobenius norm) of the
    eigenvectors, in real arithmetic when V is exactly real (see
    :func:`drop_zero_imag`)."""

    vals: np.ndarray
    vecs: np.ndarray = field(repr=False)
    t: float
    unitarity_deviation: float = field(default=0.0, init=False)

    def __post_init__(self):
        vecs = drop_zero_imag(self.vecs)
        dev = float(np.linalg.norm(vecs.conj().T @ vecs - np.eye(len(self.vals))))
        if not dev <= UNITARITY_ATOL:  # NaN fails too
            raise ValueError(f"propagator is not unitary: |V^dag V - I| = {dev:.2e}")
        self.unitarity_deviation = dev

    def columns(self, idx) -> np.ndarray:
        """U[:, idx], and only those columns of U."""
        return (self.vecs * np.exp(-1j * self.vals * self.t)) @ self.vecs[idx].conj().T


@dataclass
class KrausSet:
    """System-space Kraus operators of the bath-reset channel, with the
    joint propagator they were cut from (set by :func:`kraus_from_unitary`;
    None for a set built from its operators alone)."""

    ops: list[np.ndarray]
    layout: ChainLayout
    propagator: Propagator | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def completeness_residual(self) -> float:
        """max |sum_m K_m^dag K_m - 1|, computed on the first call and kept:
        :func:`kraus_from_unitary` checks it, and the run's health reads
        the same value."""
        return self._residual

    @cached_property
    def _residual(self) -> float:
        acc = sum(k.conj().T @ k for k in self.ops)
        return float(np.max(np.abs(acc - np.eye(self.dim))))


@dataclass
class SuperoperatorMatrix:
    """Channel as a matrix on vectorized operators: the plain channel
    action, or its :func:`reversal_form`, with the bath dimension N_b."""

    mat: np.ndarray
    bath_dim: int

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def op_dim(self) -> int:
        return int(round(np.sqrt(self.mat.shape[0])))


def propagate(h: np.ndarray, t: float) -> Propagator:
    """exp(-i H t) as the Hermitian eigensystem of H, solved in the
    arithmetic of H's dtype (see :func:`hermitian_eigensystem`)."""
    return Propagator(*hermitian_eigensystem(h), t)


@cache
def joint_index_table(layout: ChainLayout) -> np.ndarray:
    """Joint-basis index of system state s with bath state b at entry
    [b, s] of a (dim_b, dim_s) table, or -1 where the pair breaks the
    blockade at the system/bath cut (constrained layouts only). Made once
    per layout and read-only, since every caller shares it."""
    joint = layout.states(layout.n_h)
    bits = (layout.states(layout.n_s)[None, :] << layout.n_b) | layout.states(layout.n_b)[:, None]
    idx = np.minimum(np.searchsorted(joint, bits), len(joint) - 1)
    table = np.where(joint[idx] == bits, idx, -1)
    table.flags.writeable = False
    return table


def kraus_from_unitary(prop: Propagator, layout: ChainLayout) -> KrausSet:
    """Extract the bath-reset Kraus set K_m = <m|U|0...0> from a joint
    propagator: the bath resets to all |0>.

    Only the d_s columns of U with the bath in its reset state are formed
    (row 0 of :func:`joint_index_table`; the all-|0> bath never breaks the
    blockade). For a constrained layout, joint configurations whose
    system/bath boundary violates the blockade carry zero amplitude; the
    Kraus list runs over the constrained bath configurations.
    """
    if len(prop.vals) != layout.dim_joint:
        raise ValueError(f"propagator dim {len(prop.vals)} does not match layout "
                         f"joint dim {layout.dim_joint}")
    table = joint_index_table(layout)
    w = prop.columns(table[0])
    # a zero last row, read wherever the table holds -1
    w = np.vstack([w, np.zeros((1, layout.dim_s))])
    kraus = KrausSet(list(w[table]), layout, prop)
    residual = kraus.completeness_residual()
    if not residual <= COMPLETENESS_ATOL:  # NaN fails too
        raise CompletenessError(f"sum K^dag K deviates from identity by {residual:.2e}")
    return kraus


def apply_channel(kraus: KrausSet, x: np.ndarray) -> np.ndarray:
    """One application X -> sum_m K_m X K_m^dag, of one (d, d) matrix or of
    each matrix in a (b, d, d) stack."""
    x = np.asarray(x, dtype=complex)
    d = kraus.dim
    if x.ndim not in (2, 3) or x.shape[-2:] != (d, d):
        raise ValueError(f"state shape {x.shape} does not match channel dim {d}")
    return sum(k @ x @ k.conj().T for k in kraus.ops)


def superoperator_matrix(kraus: KrausSet) -> SuperoperatorMatrix:
    """Row-stacking matrix M = sum_m K_m (x) conj(K_m), so that
    vec(channel(rho)) = M vec(rho)."""
    d = kraus.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus.ops:
        m += np.kron(k, k.conj())
    return SuperoperatorMatrix(m, kraus.layout.dim_b)


def vec(rho: np.ndarray) -> np.ndarray:
    """Row-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.shape[0])))
    return np.asarray(v, dtype=complex).reshape(d, d)


def reversal_form(sop: SuperoperatorMatrix) -> SuperoperatorMatrix:
    """Channel composed with computational-basis transposition, M . S, where
    S vec(rho) = vec(rho^T); the product is a gather of M's columns.

    Transposition implements time reversal for the real-symmetric chain
    Hamiltonians used here. The composition strips the dynamical phase
    winding from the spectrum: when the Hamiltonian additionally conserves
    total sigma^z, the eigenvalues become +/- products of singular values of
    the magnetization blocks of <0_b|U|0_b> and are therefore exactly real.
    Symmetry breaking then shows up as real eigenvalue pairs coalescing and
    bifurcating into complex-conjugate pairs. All spectral statistics in
    this package are computed in this form; dynamical predictions (state
    evolution, mode powering) use the plain form.
    """
    dim, d = sop.dim, sop.op_dim
    gathered = sop.mat.reshape(dim, d, d).transpose(0, 2, 1).reshape(dim, dim)
    return SuperoperatorMatrix(gathered, sop.bath_dim)


@cache
def _hermitian_basis_gather(d: int) -> np.ndarray:
    """Flat indices into G = A A^dag (see :func:`real_reversal_form`) of the
    reversal-form entries R[x, y], rows x = (i, i) then (i, j) for i < j,
    columns y = (k, k), (k, l) for k < l, then (l, k) for k < l. The
    transpose is folded in: R[(i, j), (k, l)] = G[(i, l), (j, k)]. Made once
    per operator dimension and read-only."""
    diag = np.arange(d)
    upper, lower = np.triu_indices(d, 1)
    rows_i, rows_j = np.concatenate([diag, upper]), np.concatenate([diag, lower])
    cols_k, cols_l = np.concatenate([diag, upper, lower]), np.concatenate([diag, lower, upper])
    gather = ((rows_i[:, None] * d + cols_l) * (d * d) + rows_j[:, None] * d + cols_k)
    gather.flags.writeable = False
    return gather


def real_reversal_form(kraus: KrausSet) -> np.ndarray:
    """The reversal form M . S of :func:`reversal_form`, as the real matrix
    T R T^dag in the orthonormal Hermitian operator basis: |i><i| for each
    i, then (|i><j| + |j><i|)/sqrt(2) and then i(|i><j| - |j><i|)/sqrt(2)
    for each i < j in row-major order.

    A channel that maps Hermitian operators to Hermitian operators is real
    in that basis, and so is its composition with the transpose. With
    A[(i, l), m] = K_m[i, l], G = A A^dag holds every entry of R (one
    product); a cached gather picks R's rows of the diagonal and upper
    elements, sums and differences of its columns make R T^dag there, and
    the real and imaginary parts of those rows make T R T^dag.

    The result is similar to the reversal form, so it has the same
    eigenvalues; its eigenvectors are coefficient vectors in that basis, not
    row-stacking vecs of operators, so it is returned as a plain array and
    never as a :class:`SuperoperatorMatrix`.
    """
    d = kraus.dim
    n = d * (d - 1) // 2
    a = np.asarray(kraus.ops).reshape(len(kraus.ops), d * d).T
    r = (a @ a.conj().T).ravel()[_hermitian_basis_gather(d)]
    upper, lower = r[:, d:d + n], r[:, d + n:]
    # R T^dag, on the rows of the diagonal and the upper elements
    y = np.hstack([r[:, :d], (upper + lower) / np.sqrt(2), 1j * (upper - lower) / np.sqrt(2)])
    # each column of R T^dag is a Hermitian operator: its (j, i) row is the
    # conjugate of its (i, j) row, so T's rows reduce to real and imaginary parts
    return np.vstack([y[:d].real, np.sqrt(2) * y[d:].real, np.sqrt(2) * y[d:].imag])


def real_channel_form(kraus: KrausSet) -> np.ndarray:
    """The plain channel M as the real matrix T M T^dag in the Hermitian
    operator basis of :func:`real_reversal_form`, acting on the
    coefficients of :func:`hermitian_coefficients`.

    M = R S with R the reversal form, and the transpose S is diagonal in
    that basis: +1 on |i><i| and the symmetric elements, -1 on the
    antisymmetric ones. So this is the real reversal form with its last
    d(d - 1)/2 columns negated, and needs no assembly of its own.
    """
    mat = real_reversal_form(kraus)
    d = kraus.dim
    mat[:, d * (d + 1) // 2:] *= -1.0
    return mat


def hermitian_coefficients(x: np.ndarray) -> np.ndarray:
    """Coefficients of a Hermitian (d, d) operator in the basis of
    :func:`real_reversal_form`: its diagonal, then sqrt(2) Re and sqrt(2) Im
    of its upper triangle in row-major order, as one real (d^2,) vector; a
    (b, d, d) stack gives them as the columns of a (d^2, b) array. No other
    entry is read, so a non-Hermitian input raises (see require_hermitian)."""
    x = np.asarray(x)
    require_hermitian(x)
    rows, cols = np.triu_indices(x.shape[-1], 1)
    upper = x[..., rows, cols]
    diag = np.diagonal(x, axis1=-2, axis2=-1).real
    return np.concatenate([diag, np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag], axis=-1).T


def magnetization_violation(sop: SuperoperatorMatrix, layout: ChainLayout) -> float:
    """Largest |M| element that moves weight away from the bath reset sector.

    The bath resets to the top-magnetization configuration, so the channel
    can only raise the grading g = S_z(i) + S_z(j) of |i><j|; entries with
    output grading below input grading must vanish (block triangularity).
    """
    if layout.constrained:
        raise ValueError("magnetization grading applies to the full qubit basis")
    sz = site_signs(layout.states(layout.n_s), layout.n_s).sum(axis=0)
    g = (sz[:, None] + sz[None, :]).reshape(-1)
    return float(np.max(np.abs(sop.mat[g[:, None] < g[None, :]])))  # g_out < g_in
