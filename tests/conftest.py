"""Shared fixtures: preset-parameter channels at desk scale, small random
state helpers, and the loader of the benchmark's modules."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from resetchannel.config import BLAS_THREAD_VARS, AahParams, XxxParams

# The reference outputs hold at one BLAS thread. As the CLI does, start the
# BLAS there unless a variable is set; numpy reads them once, when it loads,
# and so do the fresh interpreters the tests start, which inherit them.
assert "numpy" not in sys.modules, "numpy loaded before the BLAS thread variables were set"
if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np
from scipy.stats import unitary_group

from resetchannel.channel import (
    KrausSet,
    kraus_from_unitary,
    propagate,
    reversal_form,
    superoperator_matrix,
)
from resetchannel.hamiltonians import build_aah, build_xxx
from resetchannel.spectra import full_spectrum
from resetchannel.spin_ops import ChainLayout, partial_trace, pauli_sum, site_signs

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def bench_module(name, monkeypatch):
    """``benchmarks/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def make_channel(n_s, n_b, t, jzz=0.0, jz=0.0, jxxx=0.0):
    layout = ChainLayout(n_s, n_b)
    params = XxxParams(jzz=jzz, jz=jz, jxxx=jxxx)
    h = build_xxx(params, layout.n_h) if layout.n_h >= 3 else build_aah(params, layout.n_h)
    return kraus_from_unitary(propagate(h, t), layout)


def pauli_on_site(axis, site, n_sites):
    """Pauli operator on one site of an ``n_sites`` qubit chain."""
    return pauli_sum([(1.0, axis, (site,))], n_sites)


def projector0_on_site(site, n_sites):
    """Projector onto |0> at one site, identity elsewhere."""
    terms = [(0.5, "", ()), (0.5, "z", (site,))]
    return pauli_sum(terms, n_sites)


def total_sz(n_sites):
    """Diagonal total magnetization sum_m sigma_m^z."""
    return np.diag(site_signs(np.arange(2 ** n_sites), n_sites).sum(axis=0)).astype(complex)


def renyi2_qmi(rho_as, n_system_qubits):
    """Renyi-2 mutual information S = -ln Tr(rho_a^2) - ln Tr(rho_s^2)
    + ln Tr(rho_as^2) between a single leading ancilla qubit and the system,
    from explicit partial traces: the oracle for the block iteration of
    ``qmi_trajectory``."""
    n_tot = 1 + n_system_qubits
    rho_as = np.asarray(rho_as, dtype=complex)
    rho_a = partial_trace(rho_as, [0], n_tot)
    rho_s = partial_trace(rho_as, list(range(1, n_tot)), n_tot)
    p_a, p_s, p_as = (float(np.real(np.trace(r @ r))) for r in (rho_a, rho_s, rho_as))
    assert min(p_a, p_s, p_as) > 0, "non-positive purity; state is numerically invalid"
    return -np.log(p_a) - np.log(p_s) + np.log(p_as)


def imbalance(rho_t, rho_0, n_sites):
    """Memory diagnostic B = sum_i Tr(rho_t S_i^z) Tr(rho_0 S_i^z), S_i^z =
    sigma_i^z / 2, from explicit site operators: the oracle for the
    imbalance columns of ``qmi_trajectory`` and ``phase_scan``, which read
    it off diagonal coefficients. A (k, d, d) stack ``rho_t`` gives the k
    values."""
    rho_t = np.asarray(rho_t, dtype=complex)
    rho_0 = np.asarray(rho_0, dtype=complex)
    dim = 2 ** n_sites
    if rho_0.shape != (dim, dim) or rho_t.shape[-2:] != (dim, dim):
        raise ValueError("state dimensions do not match the chain size")
    b = sum(np.trace(rho_t @ sz, axis1=-2, axis2=-1).real * np.trace(rho_0 @ sz).real
            for sz in (0.5 * pauli_on_site("z", m, n_sites) for m in range(n_sites)))
    return float(b) if rho_t.ndim == 2 else b


def pure_density_matrix(psi):
    """|psi><psi| of a state vector."""
    return np.outer(psi, psi.conj())


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_product_density(rng, n_sites):
    """Random Bloch-sphere product state as a density matrix."""
    vec = np.ones(1, dtype=complex)
    for _ in range(n_sites):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        vec = np.kron(vec, np.array([np.cos(theta / 2),
                                     np.exp(1j * phi) * np.sin(theta / 2)]))
    return np.outer(vec, vec.conj())


def haar_channel(n_s, n_b, seed):
    layout = ChainLayout(n_s, n_b)
    u = unitary_group.rvs(layout.dim_joint, random_state=np.random.default_rng(seed))
    ds, db = layout.dim_s, layout.dim_b
    u4 = u.reshape(ds, db, ds, db)
    return KrausSet(np.ascontiguousarray(u4[:, :, :, 0].transpose(1, 0, 2)), layout)


def ghz_coherence_eigenvalue(kraus):
    """Channel eigenvalue on the GHZ coherence |0...0><1...1| of a U(1) model.

    The all-0 joint state is an eigenstate, so only K_0 (bath found back in
    |0...0>) acts on this operator, and it spans a one-dimensional sector:
    the channel multiplies it by <0...0|K_0|0...0> conj(<1...1|K_0|1...1>).
    """
    k0 = kraus.ops[0]
    return k0[0, 0] * np.conj(k0[-1, -1])


@pytest.fixture(scope="session")
def ergodic_channel():
    """Criterion-3 parameters: symmetry-constrained ergodic regime."""
    return make_channel(3, 4, 100.0, jzz=0.3, jz=0.1)


@pytest.fixture(scope="session")
def chaotic_channel():
    """Fig-2 parameters at desk scale: strongly chaotic regime."""
    return make_channel(4, 4, 100.0, jzz=0.1, jz=0.1, jxxx=2.0)


@pytest.fixture(scope="session")
def mbl_channel():
    """Criterion-9 parameters: localized regime."""
    return make_channel(3, 5, 200.0, jzz=0.0, jz=5.0)


@pytest.fixture(scope="session")
def small_channel():
    """Fast 2+2 channel for oracle-style unit tests."""
    return make_channel(2, 2, 10.0, jzz=0.2, jz=0.3, jxxx=0.4)


@pytest.fixture(scope="session")
def chaotic_reversal_spectrum(chaotic_channel):
    return full_spectrum(reversal_form(superoperator_matrix(chaotic_channel)))


@pytest.fixture(scope="session")
def mbl_reversal_spectrum(mbl_channel):
    return full_spectrum(reversal_form(superoperator_matrix(mbl_channel)))


@pytest.fixture(scope="session")
def ergodic_reversal_spectrum(ergodic_channel):
    return full_spectrum(reversal_form(superoperator_matrix(ergodic_channel)))


def swap_unitary():
    """Two-qubit SWAP on the 1+1 joint chain, as the propagator of
    H = (pi/2)(I - SWAP) over t = 1."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    return propagate(np.pi / 2 * (np.eye(4) - swap), 1.0)
