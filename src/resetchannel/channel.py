"""Reset-driven Floquet channel: joint propagator, Kraus extraction by bath
reset, channel application, and the vectorized superoperator.

Vectorization is row-stacking throughout: vec(rho)[i*d + j] = rho[i, j], so
the channel matrix is M = sum_m K_m (x) conj(K_m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hamiltonians import hermitian_eigensystem, joint_constrained_maps
from .spin_ops import ChainLayout, DenseOperator, site_signs

UNITARITY_ATOL = 1e-9
COMPLETENESS_ATOL = 1e-9


class CompletenessError(RuntimeError):
    """Kraus completeness residual beyond tolerance; basis/ordering bug."""


@dataclass
class Propagator:
    """Unitary evolution operator for one Floquet period, with the energies
    and eigenvectors of the Hamiltonian it was made from, when known, and
    its unitarity deviation |U^dag U - I| (Frobenius norm)."""

    u: DenseOperator
    t: float
    hamiltonian_eigensystem: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)
    unitarity_deviation: float = field(default=0.0, init=False)

    def __post_init__(self):
        dev = float(np.linalg.norm(self.u.mat.conj().T @ self.u.mat - np.eye(self.u.dim)))
        if dev > UNITARITY_ATOL:
            raise ValueError(f"propagator is not unitary: |U^dag U - I| = {dev:.2e}")
        self.unitarity_deviation = dev


@dataclass
class KrausSet:
    """System-space Kraus operators of the bath-reset channel.

    ``hamiltonian_eigensystem`` holds the joint Hamiltonian's energies and
    eigenvectors where the builder attaches them (``runner.build_channel``
    does for the configured channel).
    """

    ops: list[np.ndarray]
    layout: ChainLayout
    bath_reset_index: int = 0
    meta: dict = field(default_factory=dict)
    hamiltonian_eigensystem: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def completeness_residual(self) -> float:
        acc = sum(k.conj().T @ k for k in self.ops)
        return float(np.max(np.abs(acc - np.eye(self.dim))))

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """[K_0 ... K_{m-1}] and [K_0^dag ... K_{m-1}^dag], each side by side
        as one (d, m d) matrix; made on first use by :func:`apply_channel`."""
        ops = np.asarray(self.ops, dtype=complex)
        adjoints = ops.conj().transpose(0, 2, 1)
        return tuple(a.transpose(1, 0, 2).reshape(self.dim, -1) for a in (ops, adjoints))


@dataclass
class SuperoperatorMatrix:
    """Channel as a matrix on vectorized operators.

    ``form`` records whether this is the plain channel action ("plain") or
    the channel composed with basis transposition ("reversal"); see
    :func:`reversal_form`.
    """

    mat: np.ndarray
    form: str = "plain"
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def op_dim(self) -> int:
        return int(round(np.sqrt(self.mat.shape[0])))


def propagate(h: DenseOperator, t: float, real: bool = False) -> Propagator:
    """exp(-i H t) via the Hermitian eigensystem, solved in real arithmetic
    when ``real`` and H is exactly real (see :func:`hermitian_eigensystem`)."""
    vals, vecs = hermitian_eigensystem(h, real=real)
    u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    return Propagator(DenseOperator(u, h.basis), t, (vals, vecs))


def kraus_from_unitary(prop: Propagator, layout: ChainLayout, reset_index: int = 0) -> KrausSet:
    """Extract the bath-reset Kraus set K_m = <m|U|reset> from a joint
    propagator.

    For a constrained layout, joint configurations whose system/bath boundary
    violates the blockade carry zero amplitude; the Kraus list runs over the
    constrained bath configurations.
    """
    u = prop.u
    if u.basis != layout.basis_joint:
        raise ValueError(f"propagator basis {u.basis} does not match layout {layout.basis_joint}")
    if layout.constrained:
        ops = _constrained_kraus(u.mat, layout, reset_index)
    else:
        ds, db = layout.dim_s, layout.dim_b
        if not 0 <= reset_index < db:
            raise ValueError(f"reset index {reset_index} out of range for bath dim {db}")
        u4 = u.mat.reshape(ds, db, ds, db)
        ops = [np.ascontiguousarray(u4[:, m, :, reset_index]) for m in range(db)]
    kraus = KrausSet(ops, layout, reset_index,
                     meta={"t": prop.t, "unitarity_deviation": prop.unitarity_deviation})
    residual = kraus.completeness_residual()
    if residual > COMPLETENESS_ATOL:
        raise CompletenessError(f"sum K^dag K deviates from identity by {residual:.2e}")
    kraus.meta["completeness_residual"] = residual
    return kraus


def _constrained_kraus(u: np.ndarray, layout: ChainLayout, reset_index: int) -> list[np.ndarray]:
    sys_basis, bath_basis, _, joint_index = joint_constrained_maps(layout.n_s, layout.n_b)
    ds = sys_basis.dim
    if not 0 <= reset_index < bath_basis.dim:
        raise ValueError(f"reset index {reset_index} out of range for bath dim {bath_basis.dim}")
    in_idx = [joint_index(si, reset_index) for si in range(ds)]
    if any(j is None for j in in_idx):
        raise ValueError("bath reset configuration clashes with the blockade")
    ops = []
    for bi in range(bath_basis.dim):
        k = np.zeros((ds, ds), dtype=complex)
        for so in range(ds):
            jo = joint_index(so, bi)
            if jo is not None:
                k[so, :] = u[jo, in_idx]
        ops.append(k)
    return ops


def apply_channel(kraus: KrausSet, x: np.ndarray) -> np.ndarray:
    """One application X -> sum_m K_m X K_m^dag, of one (d, d) matrix or of
    each matrix in a (b, d, d) stack, in two products: X [K_0^dag ...]
    holds every X K_m^dag side by side, and [K_0 ...] times those blocks,
    stacked, is the sum."""
    x = np.asarray(x, dtype=complex)
    d = kraus.dim
    if x.ndim not in (2, 3) or x.shape[-2:] != (d, d):
        raise ValueError(f"state shape {x.shape} does not match channel dim {d}")
    k_row, kdag_row = kraus.stacked
    b = 1 if x.ndim == 2 else x.shape[0]
    y = (x.reshape(b * d, d) @ kdag_row).reshape(b, d, -1, d)
    out = k_row @ y.transpose(2, 1, 0, 3).reshape(-1, b * d)
    return out.reshape(d, b, d).transpose(1, 0, 2).reshape(x.shape)


def superoperator_matrix(kraus: KrausSet) -> SuperoperatorMatrix:
    """Row-stacking matrix M = sum_m K_m (x) conj(K_m), so that
    vec(channel(rho)) = M vec(rho)."""
    d = kraus.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus.ops:
        m += np.kron(k, k.conj())
    meta = {
        "n_s": kraus.layout.n_s,
        "n_b": kraus.layout.n_b,
        "constrained": kraus.layout.constrained,
        "bath_dim": kraus.layout.dim_b,
        **kraus.meta,
    }
    return SuperoperatorMatrix(m, meta=meta)


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
    if sop.form != "plain":
        raise ValueError("reversal_form expects the plain channel matrix")
    dim, d = sop.dim, sop.op_dim
    gathered = sop.mat.reshape(dim, d, d).transpose(0, 2, 1).reshape(dim, dim)
    return SuperoperatorMatrix(gathered, form="reversal", meta=dict(sop.meta))


def magnetization_grading(layout: ChainLayout) -> np.ndarray:
    """Grading g(i, j) = S_z(i) + S_z(j) of each vectorized operator-basis
    element |i><j|, in vec ordering."""
    if layout.constrained:
        raise ValueError("magnetization grading applies to the full qubit basis")
    sz = site_signs(np.arange(layout.dim_s), layout.n_s).sum(axis=0)
    return (sz[:, None] + sz[None, :]).reshape(-1)


def magnetization_violation(sop: SuperoperatorMatrix, layout: ChainLayout) -> float:
    """Largest |M| element that moves weight away from the bath reset sector.

    The bath resets to the top-magnetization configuration, so the channel
    can only raise the operator grading g = S_z(i) + S_z(j); entries with
    output grading below input grading must vanish (block triangularity).
    """
    g = magnetization_grading(layout)
    lower = g[:, None] < g[None, :]  # g_out < g_in
    if not lower.any():
        return 0.0
    return float(np.max(np.abs(sop.mat[lower])))
