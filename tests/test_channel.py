import csv
import json
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from conftest import (
    BENCH_DIR,
    bench_module,
    haar_channel,
    imbalance,
    make_channel,
    pauli_on_site,
    pure_density_matrix,
    random_density_matrix,
    renyi2_qmi,
    swap_unitary,
)
from resetchannel import runner
from resetchannel.channel import (
    CompletenessError,
    KrausSet,
    Propagator,
    SuperoperatorMatrix,
    apply_channel,
    joint_index_table,
    kraus_from_unitary,
    hermitian_coefficients,
    magnetization_violation,
    propagate,
    real_channel_form,
    real_reversal_form,
    reversal_form,
    superoperator_matrix,
    unvec,
    vec,
)
from resetchannel.config import PxpParams, list_presets, preset_config
from resetchannel.dynamics import phase_scan, qmi_trajectory
from resetchannel.ep_analysis import count_complex
from resetchannel.hamiltonians import ConstrainedBasis, build_pxp, hermitian_eigensystem
from resetchannel.runner import (
    analysis_matrix,
    build_channel,
    build_hamiltonian,
    spectral_matrix_factory,
)
from resetchannel.spectra import Spectrum, sorted_eig, sorted_eigvals
from resetchannel.spin_ops import ChainLayout, ghz_state, neel_state, partial_trace


def transpose_swap(op_dim):
    """Permutation S with S vec(rho) = vec(rho^T), the reversal_form oracle."""
    s = np.zeros((op_dim * op_dim, op_dim * op_dim))
    for i in range(op_dim):
        for j in range(op_dim):
            s[i * op_dim + j, j * op_dim + i] = 1.0
    return s


def hermitian_basis(op_dim):
    """Unitary T whose row a is vec(B_a)^dag, for the orthonormal Hermitian
    basis B: |i><i|, then (|i><j| + |j><i|)/sqrt(2), then
    i(|i><j| - |j><i|)/sqrt(2), each i < j in row-major order; built entry
    by entry, the real_reversal_form oracle."""
    pairs = [(i, j) for i in range(op_dim) for j in range(i + 1, op_dim)]
    basis = []
    for i in range(op_dim):
        b = np.zeros((op_dim, op_dim), dtype=complex)
        b[i, i] = 1.0
        basis.append(b)
    for phase in (1.0, 1j):
        for i, j in pairs:
            b = np.zeros((op_dim, op_dim), dtype=complex)
            b[i, j], b[j, i] = phase / np.sqrt(2), np.conj(phase) / np.sqrt(2)
            basis.append(b)
    return np.array([vec(b).conj() for b in basis])


def kraus_oracle(h, t, layout, real):
    """K_m = <m|U|0_b> gathered entry by entry from the full propagator U."""
    vals, vecs = hermitian_eigensystem(h.real if real else h)
    u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    ds, db = layout.dim_s, layout.dim_b
    if not layout.constrained:
        u4 = u.reshape(ds, db, ds, db)
        return [u4[:, m, :, 0] for m in range(db)]
    sys_states = ConstrainedBasis(layout.n_s).states
    bath_states = ConstrainedBasis(layout.n_b).states
    joint = {b: i for i, b in enumerate(ConstrainedBasis(layout.n_h).states)}

    def joint_index(si, bi):
        return joint.get((sys_states[si] << layout.n_b) | bath_states[bi])

    in_idx = [joint_index(si, 0) for si in range(ds)]
    ops = []
    for bi in range(db):
        k = np.zeros((ds, ds), dtype=complex)
        for so in range(ds):
            jo = joint_index(so, bi)
            if jo is not None:
                k[so, :] = u[jo, in_idx]
        ops.append(k)
    return ops


class TestPropagate:
    def test_zero_hamiltonian(self):
        h = np.zeros((4, 4))
        assert np.allclose(propagate(h, 3.0).columns(np.arange(4)), np.eye(4))

    def test_pauli_z_quarter_period(self):
        prop = propagate(pauli_on_site("z", 0, 1), np.pi / 2)
        assert np.allclose(prop.columns(np.arange(2)),
                           np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]))

    def test_matches_scaling_and_squaring_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (a + a.conj().T) / 2
        got = propagate(h, 1.0).columns(np.arange(16))
        expected = scipy.linalg.expm(-1j * h)
        assert np.linalg.norm(got - expected) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            propagate(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_propagator_validates_unitarity(self):
        with pytest.raises(ValueError, match="unitary"):
            Propagator(np.zeros(2), np.diag([1.0, 0.5]), 1.0)

    def test_propagator_rejects_nan_eigenvectors(self):
        with pytest.raises(ValueError, match="not unitary"):
            Propagator(np.zeros(2), np.array([[1.0, np.nan], [0.0, 1.0]]), 1.0)

    def test_corrupted_eigenvector_raises(self):
        h = build_hamiltonian("xxx", {"jzz": 0.1, "jz": 0.1, "jxxx": 0.5}, 4)
        vals, vecs = hermitian_eigensystem(h)
        assert Propagator(vals, vecs, 10.0).unitarity_deviation < 1e-12
        vecs[:, 3] += 1e-6 * vecs[:, 4]
        with pytest.raises(ValueError, match="not unitary"):
            Propagator(vals, vecs, 10.0)

    def test_exactly_real_complex_eigenvectors_are_checked_as_real(self):
        # 5 sites: large enough for the complex V^dag V to round unlike the real one
        h = build_hamiltonian("xxx", {"jzz": 0.1, "jz": 0.1, "jxxx": 0.5}, 5)
        vals, vecs = hermitian_eigensystem(h.real)
        assert vecs.dtype == float
        dev = Propagator(vals, vecs, 10.0).unitarity_deviation
        assert Propagator(vals, vecs.astype(complex), 10.0).unitarity_deviation == dev
        vecs[:, 3] += 1e-6 * vecs[:, 4]
        with pytest.raises(ValueError, match="not unitary"):
            Propagator(vals, vecs.astype(complex), 10.0)


class TestKrausExtraction:
    def test_identity_unitary(self):
        layout = ChainLayout(1, 1)
        prop = Propagator(np.zeros(4), np.eye(4), 0.0)
        kraus = kraus_from_unitary(prop, layout)
        assert np.allclose(kraus.ops[0], np.eye(2))
        assert np.allclose(kraus.ops[1], 0.0)

    def test_swap_gives_reset_channel(self):
        layout = ChainLayout(1, 1)
        kraus = kraus_from_unitary(swap_unitary(), layout)
        for m in range(2):
            expected = np.zeros((2, 2))
            expected[0, m] = 1.0  # |0><m|
            assert np.allclose(kraus.ops[m], expected)

    def test_chaotic_preset_completeness(self, chaotic_channel):
        assert chaotic_channel.completeness_residual() < 1e-9

    def test_constrained_completeness(self):
        layout = ChainLayout(3, 3, constrained=True)
        h = build_pxp(PxpParams(), 6)
        kraus = kraus_from_unitary(propagate(h, 7.0), layout)
        assert kraus.completeness_residual() < 1e-9
        assert len(kraus.ops) == layout.dim_b

    @pytest.mark.parametrize("preset", ["fig7", "fig6"])  # fig6's pxp table holds -1 entries
    def test_stacked_ops_and_one_product_residual(self, preset):
        kraus = build_channel(preset_config(preset))
        d, m = kraus.layout.dim_s, kraus.layout.dim_b
        assert isinstance(kraus.ops, np.ndarray) and kraus.ops.shape == (m, d, d)
        oracle = sum(k.conj().T @ k for k in kraus.ops)  # one operator at a time
        assert abs(kraus.completeness_residual() - np.max(np.abs(oracle - np.eye(d)))) <= 1e-15

    def test_extraction_derives_its_table(self):
        config = preset_config("fig6")
        layout = ChainLayout(config.n_s, config.n_b, constrained=True)
        prop = build_channel(config).propagator
        table = joint_index_table(layout)
        assert np.any(table < 0)
        w = np.vstack([prop.columns(table[0]), np.zeros((1, layout.dim_s))])
        assert np.array_equal(kraus_from_unitary(prop, layout).ops, w[table])

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("preset", ["fig3", "fig2", "fig9", "fig6"],
                             ids=["aah", "xxx", "xx", "pxp"])
    def test_preset_kraus_match_full_unitary_oracle(self, preset, real):
        config = preset_config(preset)
        layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
        h = build_hamiltonian(config.model, config.params, layout.n_h)
        expected = kraus_oracle(h, config.time, layout, real)
        got = build_channel(config, real=real).ops
        assert len(got) == len(expected) == layout.dim_b
        assert max(np.max(np.abs(k - e)) for k, e in zip(got, expected)) <= 1e-14

    @pytest.mark.parametrize("preset", ["fig3", "fig6"])
    def test_scaled_reset_column_raises(self, preset, monkeypatch):
        columns = Propagator.columns

        def skewed(self, idx):
            w = columns(self, idx)
            w[:, 1] *= 1 + 1e-6
            return w

        monkeypatch.setattr(Propagator, "columns", skewed)
        with pytest.raises(CompletenessError):
            build_channel(preset_config(preset))

    def test_completeness_violation_raises(self):
        layout = ChainLayout(1, 1)
        bad = KrausSet(0.5 * np.eye(2)[None], layout)
        assert bad.completeness_residual() > 0.5
        prop = Propagator(np.zeros(4), np.eye(4), 0.0)
        with pytest.raises(ValueError):
            kraus_from_unitary(prop, ChainLayout(2, 2))  # dimension mismatch

    @pytest.mark.parametrize("layout", [ChainLayout(1, 1), ChainLayout(2, 2, constrained=True)],
                             ids=["2-qubits", "4-blockade-sites"])
    def test_dimension_mismatch_raises(self, layout):
        # a 4-qubit propagator against 2 joint qubits and against the
        # F(6) = 8 states of 4 blockade sites
        prop = Propagator(np.zeros(16), np.eye(16), 0.0)
        with pytest.raises(ValueError, match="propagator dim 16 does not match"):
            kraus_from_unitary(prop, layout)

    def test_nan_energy_raises(self):
        # unitary eigenvectors, so only the completeness check sees the NaN
        prop = Propagator(np.array([np.nan, 0.0, 0.0, 0.0]), np.eye(4), 1.0)
        with pytest.raises(CompletenessError):
            kraus_from_unitary(prop, ChainLayout(1, 1))


class TestApplyChannel:
    def test_identity_kraus(self):
        kraus = KrausSet(np.eye(2)[None], ChainLayout(1, 1))
        rho = random_density_matrix(np.random.default_rng(0), 2)
        assert np.allclose(apply_channel(kraus, rho), rho)

    def test_swap_resets_any_state(self):
        layout = ChainLayout(1, 1)
        kraus = kraus_from_unitary(swap_unitary(), layout)
        rho = random_density_matrix(np.random.default_rng(1), 2)
        out = apply_channel(kraus, rho)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_agrees_with_superoperator_action(self, small_channel):
        rng = np.random.default_rng(2)
        sop = superoperator_matrix(small_channel)
        for _ in range(20):
            rho = random_density_matrix(rng, small_channel.dim)
            direct = apply_channel(small_channel, rho)
            via_matrix = unvec(sop.mat @ vec(rho))
            assert np.max(np.abs(direct - via_matrix)) < 1e-12

    def test_output_is_state(self, small_channel):
        rho = random_density_matrix(np.random.default_rng(3), small_channel.dim)
        out = apply_channel(small_channel, rho)
        assert np.linalg.norm(out - out.conj().T) < 1e-10
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-8

    def test_dimension_mismatch(self, small_channel):
        with pytest.raises(ValueError, match="shape"):
            apply_channel(small_channel, np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            apply_channel(small_channel, np.zeros((3, 4, 3)))
        with pytest.raises(ValueError, match="shape"):
            apply_channel(small_channel, np.zeros((2, 2, 4, 4)))
        # one matrix per call: a (b, d, d) stack is rejected
        d = small_channel.dim
        with pytest.raises(ValueError, match="shape"):
            apply_channel(small_channel, np.zeros((3, d, d)))


class TestSuperoperator:
    def test_identity_channel(self):
        sop = superoperator_matrix(KrausSet(np.eye(2)[None], ChainLayout(1, 1)))
        assert np.allclose(sop.mat, np.eye(4))

    def test_swap_reset_eigenvalues(self):
        layout = ChainLayout(1, 1)
        kraus = kraus_from_unitary(swap_unitary(), layout)
        lam = np.sort_complex(np.linalg.eigvals(superoperator_matrix(kraus).mat))
        assert np.allclose(lam, [0, 0, 0, 1], atol=1e-12)

    def test_spectral_radius_and_fixed_point(self, small_channel):
        lam = np.linalg.eigvals(superoperator_matrix(small_channel).mat)
        assert np.max(np.abs(lam)) <= 1 + 1e-8
        assert np.min(np.abs(lam - 1.0)) < 1e-8

    def test_conjugate_closure(self, small_channel):
        lam = np.linalg.eigvals(superoperator_matrix(small_channel).mat)
        for z in lam:
            assert np.min(np.abs(lam - np.conj(z))) < 1e-8

    def test_reversal_form_same_magnitude_fixed_point(self, small_channel):
        sop = reversal_form(superoperator_matrix(small_channel))
        lam = np.linalg.eigvals(sop.mat)
        assert np.max(np.abs(lam)) <= 1 + 1e-8
        assert np.min(np.abs(lam - 1.0)) < 1e-8

    def test_reversal_form_equals_swap_product(self, small_channel):
        sop = superoperator_matrix(small_channel)
        expected = sop.mat @ transpose_swap(sop.op_dim)
        assert np.array_equal(reversal_form(sop).mat, expected)

    @pytest.mark.parametrize("preset", ["fig3", "fig5", "fig8"])
    def test_u1_reversal_spectrum_closed_form(self, preset):
        # With U(1) symmetry the reversal-form eigenvalues are exactly
        # {s_a^2} and {+/- s_a s_b, a < b} for the singular values s of K_0.
        kraus = build_channel(preset_config(preset))
        lam = np.linalg.eigvals(analysis_matrix(kraus).mat)
        s = np.linalg.svd(kraus.ops[0], compute_uv=False)
        a, b = np.triu_indices(len(s), k=1)
        expected = np.sort(np.concatenate([s ** 2, s[a] * s[b], -s[a] * s[b]]))
        assert np.max(np.abs(np.sort(lam.real) - expected)) <= 1e-12
        assert np.max(np.abs(lam.imag)) <= 1e-12

    @pytest.mark.parametrize("jxx", [1.0, 0.9, 0.8])
    def test_xx_parity_sectors(self, jxx):
        # Every xx term flips 0 or 2 spins, so the channel keeps the parity of
        # popcount(i) + popcount(j) of |i><j|: two decoupled equal sectors.
        mat = analysis_matrix(build_channel(preset_config("fig9"), {"jxx": jxx})).mat
        pop = np.array([bin(i).count("1") for i in range(int(round(np.sqrt(len(mat)))))])
        parity = ((pop[:, None] + pop[None, :]) % 2).reshape(-1)
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        assert len(even) == len(odd) == 128
        assert np.max(np.abs(mat[np.ix_(even, odd)])) <= 1e-12
        assert np.max(np.abs(mat[np.ix_(odd, even)])) <= 1e-12
        sectors = np.concatenate([np.linalg.eigvals(mat[np.ix_(idx, idx)])
                                  for idx in (even, odd)])
        full = np.linalg.eigvals(mat)
        rows, cols = linear_sum_assignment(np.abs(full[:, None] - sectors[None, :]))
        assert np.max(np.abs(full[rows] - sectors[cols])) <= 1e-10

    def test_transpose_swap_involution(self):
        s = transpose_swap(3)
        assert np.allclose(s @ s, np.eye(9))
        rho = np.arange(9).reshape(3, 3)
        assert np.allclose(unvec(s @ vec(rho)), rho.T)


class TestRealProbeBuilds:
    """EP probe builds (``real=True``) diagonalize an exactly real H in real
    arithmetic and return the real Hermitian-basis form; every other build
    keeps the complex solve and the kron form bit for bit."""

    def test_preset_hamiltonians_are_exactly_real(self):
        models = set()
        for name, _ in list_presets():
            config = preset_config(name)
            layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
            swept = [section for section in (config.sweep, config.ep) if section is not None]
            # the preset point, and the far end of each grid it sweeps
            for overrides in [{}] + [{config.sweep.parameter: section.stop}
                                     for section in swept]:
                params = dict(config.params, **overrides)
                h = build_hamiltonian(config.model, params, layout.n_h)
                assert not np.any(h.imag), (name, overrides)
            models.add(config.model)
        assert models == {"aah", "xxx", "xx", "pxp"}

    def test_solver_follows_caller_and_imaginary_part(self, monkeypatch):
        config = preset_config("fig7")
        solves = []  # True where the Hamiltonian is solved in real arithmetic
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: solves.append(not np.iscomplexobj(a)) or eigh(a))
        build_channel(config, {"jz": 0.3})
        assert solves == [False]
        solves.clear()
        # the real build may solve sector by sector: one or more real solves
        build_channel(config, {"jz": 0.3}, real=True)
        assert solves and all(solves)

        # build_channel hands a Hermitian H with a nonzero imaginary part
        # over whole, so it stays on the complex path
        hamiltonian = runner.build_hamiltonian

        def complex_hamiltonian(*args):
            h = hamiltonian(*args)
            b = np.random.default_rng(1).standard_normal(h.shape)
            return h + 1e-3j * (b - b.T)

        monkeypatch.setattr(runner, "build_hamiltonian", complex_hamiltonian)
        solves.clear()
        exact = build_channel(config, {"jz": 0.3})
        probe = build_channel(config, {"jz": 0.3}, real=True)
        assert solves == [False, False]
        for k_exact, k_probe in zip(exact.ops, probe.ops):
            assert np.array_equal(k_exact, k_probe)

    def test_fig4_probe_matrices_near_exact_and_sweep_exact(self):
        config = preset_config("fig4")
        # a point of the EP grid, one next to the first EP of the shipped
        # preset (j* = 0.0025181...), and one deep in the complex regime
        values = np.array([0.0005, 0.00251813, 0.05])
        exact = spectral_matrix_factory(config, "jxxx")
        sweep = runner._sweep(config, values, {"failures": []}, "sweep", 1, exact)
        real = spectral_matrix_factory(config, "jxxx", real=True)
        t = hermitian_basis(16)
        for value, lam in zip(values, sweep.eigenvalues):
            mat = exact(value)
            assert np.array_equal(lam, sorted_eig(mat)[0])
            # the probe matrix is the exact one in the Hermitian basis
            probe = real(value)
            assert probe.dtype == np.float64
            assert np.max(np.abs(probe - t @ mat @ t.conj().T)) <= 1e-10

    def test_non_unitary_real_solve_raises(self, monkeypatch):
        h = build_hamiltonian("xxx", {"jzz": 0.1, "jz": 0.1, "jxxx": 0.5}, 4)
        eigh = np.linalg.eigh

        def skewed_real_eigh(a):
            vals, vecs = eigh(a)
            return (vals, vecs) if np.iscomplexobj(a) else (vals, 1.01 * vecs)

        monkeypatch.setattr(np.linalg, "eigh", skewed_real_eigh)
        propagate(h, 10.0)
        with pytest.raises(ValueError, match="not unitary"):
            propagate(h.real, 10.0)


# the S_z-conserving point of each chain model: aah (fig8), xxx at jxxx = 0
# (fig7's configured point) and xx at jxx = jyy (fig9's)
REACH_PRESETS = {"aah": "fig8", "xxx": "fig7", "xx": "fig9"}


class TestReachedSectorBuild:
    """A real build solves only the blocks of H that hold the columns Kraus
    extraction reads: for a U(1) H, the magnetization sectors with at most
    n_s 1 bits. The configured channel keeps every eigenstate."""

    @pytest.mark.parametrize("n_s, n_b", [(3, 4), (4, 4), (2, 5), (5, 2)],
                             ids=["3+4", "4+4", "2+5", "5+2"])
    @pytest.mark.parametrize("model", REACH_PRESETS)
    def test_matches_all_sector_solve(self, model, n_s, n_b):
        config = preset_config(REACH_PRESETS[model], [f"layout.n_s={n_s}", f"layout.n_b={n_b}"])
        layout = ChainLayout(n_s, n_b)
        h = build_hamiltonian(config.model, config.params, layout.n_h).real
        every = kraus_from_unitary(propagate(h, config.time), layout)
        reached = build_channel(config, real=True)
        n_reached = sum(math.comb(layout.n_h, k) for k in range(n_s + 1))
        assert every.propagator.vecs.shape == (layout.dim_joint, layout.dim_joint)
        assert reached.propagator.vecs.shape == (layout.dim_joint, n_reached)
        assert max(np.max(np.abs(k - e)) for k, e in zip(reached.ops, every.ops)) <= 1e-12
        assert np.max(np.abs(real_channel_form(reached) - real_channel_form(every))) <= 1e-12

    def test_parity_blocks_match_full_solve(self):
        # fig9 off jxx = jyy: H splits into two parity blocks of 128 states,
        # both reached by the bath reset
        config = preset_config("fig9")
        layout = ChainLayout(config.n_s, config.n_b)
        h = build_hamiltonian(config.model, {**config.params, "jxx": 0.9}, layout.n_h).real
        full = kraus_from_unitary(Propagator(*np.linalg.eigh(h), config.time), layout)
        blocks = build_channel(config, {"jxx": 0.9}, real=True)
        assert blocks.propagator.vecs.shape == (256, 256)
        assert max(np.max(np.abs(k - f)) for k, f in zip(blocks.ops, full.ops)) <= 1e-12

    @pytest.mark.parametrize("preset, overrides, columns", [
        ("fig8", {}, 64),  # 1 + 7 + 21 + 35 of 128 states
        ("fig7", {}, 163),  # 1 + 8 + 28 + 56 + 70 of 256
        ("fig7", {"jxxx": 2.0}, 256),  # the chaotic case breaks S_z: one full solve
    ], ids=["fig8", "fig7", "fig7-chaotic"])
    def test_solved_columns(self, preset, overrides, columns, monkeypatch):
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        config = preset_config(preset)
        prop = build_channel(config, overrides, real=True).propagator
        assert sum(sizes) == len(prop.vals) == columns
        assert prop.vecs.shape == (2 ** (config.n_s + config.n_b), columns)

    @pytest.mark.parametrize("preset, overrides, analysis", [
        ("fig2", ["params.jxxx=0"], "overlaps"),  # an S_z-conserving H
        ("fig6", [], "scar_overlaps"),
    ])
    def test_configured_channel_keeps_every_eigenstate(self, preset, overrides, analysis,
                                                       monkeypatch, tmp_path):
        config = preset_config(preset, overrides + [f"analyses=[\"{analysis}\"]"])
        dim = len(build_channel(config).propagator.vals)
        shapes = []  # of the eigenvectors, the second-to-last argument of both
        for name in ("bath_vacuum_weight", "scar_candidates"):
            original = getattr(runner, name)
            monkeypatch.setattr(runner, name, lambda *args, f=original: (
                shapes.append(args[-2].shape) or f(*args)))
        runner.run_experiment(config, tmp_path)
        assert shapes == [(dim, dim)]
        assert dim == ChainLayout(config.n_s, config.n_b, config.model == "pxp").dim_joint


class TestRealReversalForm:
    """The reversal form in the Hermitian basis, against T R T^dag with R
    from the kron superoperator and T built entry by entry."""

    @pytest.fixture(params=["fig4", "fig9", "fig6", "haar"])
    def kraus(self, request):
        if request.param == "haar":
            return haar_channel(3, 2, seed=11)
        overrides = {"fig4": {"jxxx": 0.0025}}.get(request.param, {})
        return build_channel(preset_config(request.param), overrides)

    def test_matches_basis_changed_kron_form(self, kraus):
        t = hermitian_basis(kraus.dim)
        assert np.allclose(t @ t.conj().T, np.eye(kraus.dim ** 2), atol=1e-15)
        want = t @ reversal_form(superoperator_matrix(kraus)).mat @ t.conj().T
        got = real_reversal_form(kraus)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_same_spectrum_as_complex_form(self, kraus):
        got = np.linalg.eigvals(real_reversal_form(kraus))
        want = np.linalg.eigvals(reversal_form(superoperator_matrix(kraus)).mat)
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
        assert np.max(np.abs(got[rows] - want[cols])) <= 1e-12

    @pytest.mark.parametrize("preset, overrides", [
        ("fig2", {}), ("fig3", {}), ("fig5", {}), ("fig6", {}),
        ("fig4", {"jxxx": 0.0025}), ("fig4", {"jxxx": 0.05}),
        ("fig9", {"jxx": 0.98}), ("fig9", {"jxx": 0.9}),
    ], ids=["fig2", "fig3", "fig5", "fig6", "fig4-0.0025", "fig4-0.05", "fig9-0.98", "fig9-0.9"])
    def test_real_path_eigenvalues_are_members(self, preset, overrides):
        # the membership gate of the real-path regeneration (ROADMAP item 2):
        # the real form of a channel whose H is solved in real arithmetic has
        # the eigenvalues of the complex analysis matrix, each used once
        config = preset_config(preset)
        got = np.linalg.eigvals(real_reversal_form(build_channel(config, overrides, real=True)))
        want = np.linalg.eigvals(analysis_matrix(build_channel(config, overrides)).mat)
        assert got.shape == want.shape
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
        err = np.abs(got[rows] - want[cols]) / np.maximum(1.0, np.abs(want[cols]))
        assert np.max(err) <= 1e-10

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig6", "fig7", "fig9"])
    def test_plain_form_is_basis_changed_superoperator(self, preset):
        # M = R S, and S is +1 on the diagonal and symmetric elements and -1
        # on the antisymmetric ones: negating the reversal form's last
        # d(d - 1)/2 columns gives T M T^dag, which the iteration powers
        kraus = build_channel(preset_config(preset), real=True)
        t = hermitian_basis(kraus.dim)
        want = t @ superoperator_matrix(kraus).mat @ t.conj().T
        got = real_channel_form(kraus)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12
        # states enter through the same T: c = T vec(X), for one X or a stack
        rng = np.random.default_rng(13)
        xs = np.array([random_density_matrix(rng, kraus.dim) for _ in range(3)])
        coeffs = hermitian_coefficients(xs)
        assert coeffs.shape == (kraus.dim ** 2, 3)
        for x, c in zip(xs, coeffs.T):
            assert np.max(np.abs(t @ vec(x) - c)) <= 1e-15
            assert np.array_equal(hermitian_coefficients(x), c)

    def test_coefficients_reject_non_hermitian_members(self):
        # the coefficients read the diagonal and upper triangle only, so one
        # bad member of a stack, or a NaN, raises instead of being misread
        rng = np.random.default_rng(14)
        xs = np.array([random_density_matrix(rng, 4) for _ in range(3)])
        hermitian_coefficients(xs)
        for value in (xs[1, 2, 0] + 1e-6, np.nan):
            bad = xs.copy()
            bad[1, 2, 0] = value
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_coefficients(bad)


def reference_run(label, monkeypatch):
    """The config of the benchmark run ``label``, checked to be the one its
    stored reference was written from, and the reader of its reference CSVs."""
    workloads = bench_module("workloads", monkeypatch).WORKLOADS
    runs = {run.label: run for workload in workloads.values() for run in workload}
    config = preset_config(runs[label].preset, list(runs[label].overrides))
    reference = BENCH_DIR / "reference"
    assert json.loads((reference / "index.json").read_text())[label]["config_hash"] \
        == config.config_hash()

    def read(name):
        with open(reference / label / name, newline="") as fh:
            return list(csv.reader(fh))

    return config, read


class TestRealPathMatchesReferences:
    """The gates of the real-path regeneration (ROADMAP items 2 and 20),
    against the references the complex path wrote: the real path (H solved
    in real arithmetic, its real reversal form, eigenvalues only) reproduces
    every stored spectrum, histogram, complex count and overlap file."""

    @pytest.mark.parametrize("label", ["fig2-ns5", "fig5-ns5", "fig6"])
    def test_spectrum(self, label, monkeypatch):
        config, read = reference_run(label, monkeypatch)
        header, *body = read("spectrum.csv")
        re_col, im_col = header.index("re"), header.index("im")
        want = np.array([complex(float(row[re_col]), float(row[im_col])) for row in body])
        got = np.linalg.eigvals(real_reversal_form(build_channel(config, real=True)))
        assert got.shape == want.shape
        # one to one: each stored eigenvalue is matched by a distinct one
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
        err = np.abs(got[rows] - want[cols]) / np.maximum(1.0, np.abs(want[cols]))
        assert np.max(err) <= 1e-10

    @pytest.mark.parametrize("label", ["fig2-ns5", "fig5-ns5", "fig6"])
    def test_histogram(self, label, monkeypatch, tmp_path):
        # written by the runner's own histogram branch from the real path's
        # eigenvalues, and checked as the benchmark checks its outputs
        config, _ = reference_run(label, monkeypatch)
        kraus = build_channel(config, real=True)
        spectrum = Spectrum(sorted_eigvals(real_reversal_form(kraus)), None, None,
                            kraus.layout.dim_b)
        runner._run_one("histogram", config, spectrum, None, None, tmp_path, {}, [], 1)
        check = bench_module("check", monkeypatch)
        assert check.compare_csv(tmp_path / "histogram.csv",
                                 BENCH_DIR / "reference" / label / "histogram.csv", config) == []

    @pytest.mark.parametrize("label, analysis", [("fig2-ns5", "overlaps"),
                                                 ("fig6", "scar_overlaps")])
    def test_overlaps(self, label, analysis, monkeypatch, tmp_path):
        # the real path's eigenvectors, mapped back to row-stacking vecs
        # through T^dag and normalized, written by the runner's own overlap
        # branch: each reference's (|lambda|, xi) rows are matched one to one,
        # within check.py's 1e-10 relative to max(1, |reference|)
        config, read = reference_run(label, monkeypatch)
        kraus = build_channel(config, real=True)
        vals, coeffs = np.linalg.eig(real_reversal_form(kraus))
        right = hermitian_basis(kraus.dim).conj().T @ coeffs
        right /= np.linalg.norm(right, axis=0, keepdims=True)
        spectrum = Spectrum(vals, right, None, kraus.layout.dim_b)
        runner._run_one(analysis, config, spectrum, kraus, None, tmp_path, {}, [], 1)

        def by_reference(rows):
            header, *body = rows
            cols = [header.index(c) for c in ("abs_lambda", "xi", "reference")]
            table = {}
            for row in body:
                mag, xi, ref = (row[c] for c in cols)
                table.setdefault(ref, []).append((float(mag), float(xi)))
            return {ref: np.array(pairs) for ref, pairs in table.items()}

        with open(tmp_path / f"{analysis}.csv", newline="") as fh:
            got = by_reference(list(csv.reader(fh)))
        want = by_reference(read(f"{analysis}.csv"))
        assert set(got) == set(want)
        for ref, pairs in want.items():
            assert got[ref].shape == pairs.shape
            cost = np.max(np.abs(got[ref][:, None] - pairs[None, :])
                          / np.maximum(1.0, np.abs(pairs[None, :])), axis=-1)
            rows, cols = linear_sum_assignment(cost)
            assert np.max(cost[rows, cols]) <= 1e-10, ref

    @pytest.mark.parametrize("label", ["fig4", "fig9"])
    def test_complex_counts(self, label, monkeypatch):
        config, read = reference_run(label, monkeypatch)
        parameter = config.sweep.parameter
        build = spectral_matrix_factory(config, parameter, real=True)
        header, *body = read("complex_count.csv")
        got = [[value, count_complex(np.linalg.eigvals(build(value)))]
               for value in config.sweep_values().tolist()]
        if header[-1] == "n_complex_isotropic":
            # the swept coupling set equal to the other one, as the runner does
            other = "jyy" if parameter == "jxx" else "jxx"
            iso = count_complex(np.linalg.eigvals(build(config.params[other])))
            got = [row + [iso] for row in got]
        assert [[float(row[0]), *map(int, row[1:])] for row in body] == got


class TestMagnetizationStructure:
    def test_symmetric_channel_is_block_triangular(self, ergodic_channel):
        sop = superoperator_matrix(ergodic_channel)
        assert magnetization_violation(sop, ergodic_channel.layout) < 1e-10

    def test_symmetry_breaking_destroys_triangularity(self):
        kraus = make_channel(2, 2, 10.0, jzz=0.1, jz=0.1, jxxx=1.0)
        sop = superoperator_matrix(kraus)
        assert magnetization_violation(sop, kraus.layout) > 1e-3

    def test_constrained_layout_raises(self):
        with pytest.raises(ValueError, match="full qubit basis"):
            magnetization_violation(SuperoperatorMatrix(np.eye(9), 3), ChainLayout(2, 2, True))


def short_period_generators(config):
    """L1 = -i[A, .] with A = <0_b|H|0_b>, and the Lindblad dissipator D of
    the jumps L_k = <k_b|H|0_b> (k != 0), as row-stacking matrices read off
    H's blocks; with half the spread of H's spectrum, the norm of H up to
    the energy shift that no channel sees."""
    layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
    h = build_hamiltonian(config.model, config.params, layout.n_h)
    table = joint_index_table(layout)
    # block k holds <k_b|H|0_b>; a zero last row is read where the table holds -1
    blocks = np.vstack([h, np.zeros((1, len(h)))])[table][:, :, table[0]]
    a, jumps = blocks[0], blocks[1:]
    eye = np.eye(layout.dim_s)
    l1 = -1j * (np.kron(a, eye) - np.kron(eye, a.T))
    rate = sum(jump.conj().T @ jump for jump in jumps)
    dissipator = (sum(np.kron(jump, jump.conj()) for jump in jumps)
                  - 0.5 * (np.kron(rate, eye) + np.kron(eye, rate.T)))
    energies = np.linalg.eigvalsh(h)
    return l1, dissipator, (energies[-1] - energies[0]) / 2, layout.dim_b


class TestShortPeriodLimit:
    """A reset channel is a collision model: at a short period tau its
    matrix is M = I + tau L1 + tau^2 (L1^2 / 2 + D) + O(tau^3) (F.
    Ciccarello, S. Lorenzo, V. Giovannetti and G. M. Palma, Phys. Rep. 954,
    1 (2022)). The generators come from H's blocks and solve nothing, so the
    whole path from config to channel is checked on every model: the time,
    the sign of the evolution, the reset state, the Kraus cut and the
    row-stacking convention."""

    TAUS = (1e-2, 5e-3, 2.5e-3)

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig5", "fig6", "fig9"],
                             ids=["xxx", "aah", "aah-n5", "pxp", "xx"])
    def test_channel_matches_lindblad_expansion(self, preset):
        l1, dissipator, spread, dim_b = short_period_generators(preset_config(preset))
        second = 0.5 * l1 @ l1 + dissipator
        errors = []
        for tau in self.TAUS:
            m = superoperator_matrix(build_channel(preset_config(preset, [f"time={tau}"]))).mat
            errors.append(np.linalg.norm(m - np.eye(len(m)) - tau * l1 - tau ** 2 * second, 2))
        # M = W exp(tau G) V: G = -i(H (x) 1 - 1 (x) conj H) has norm 2 spread, V puts
        # the bath in its reset state and W, of norm sqrt(dim_b), sums over bath states.
        # Consecutive Taylor terms shrink by 2 spread tau / (n + 1), so the error is
        # c3 tau^3 + c4 tau^4 + ... with |c4 tau / c3| of order eps = spread tau (twice
        # that factor at n = 3), and each halving of tau divides it by about 8
        for tau, coarse, fine in zip(self.TAUS, errors, errors[1:]):
            eps = spread * tau
            assert 8 * (1 - eps) / (1 - eps / 2) <= coarse / fine <= 8 * (1 + eps) / (1 + eps / 2)
        # the remainder from tau^3 on is at most sqrt(dim_b) sum_{n>=3} (2 spread tau)^n / n!
        x = 2 * spread * self.TAUS[-1]
        assert errors[-1] <= np.sqrt(dim_b) * x ** 3 / 6 * np.exp(x)


def extend_with_ancilla(kraus):
    """Oracle: the doubled Kraus set 1 (x) K_m, an untouched ancilla qubit
    tensored onto each operator."""
    eye2 = np.eye(2, dtype=complex)
    return KrausSet(np.array([np.kron(eye2, k) for k in kraus.ops]), kraus.layout)


class TestAncillaExtension:
    def test_identity_extends_to_identity(self):
        kraus = KrausSet(np.eye(2)[None], ChainLayout(1, 1))
        assert np.allclose(extend_with_ancilla(kraus).ops[0], np.eye(4))

    def test_completeness_preserved(self, small_channel):
        extended = extend_with_ancilla(small_channel)
        assert extended.completeness_residual() < 1e-9

    def test_product_ancilla_stays_uncorrelated(self, small_channel):
        extended = extend_with_ancilla(small_channel)
        d = small_channel.dim
        rho_s = random_density_matrix(np.random.default_rng(4), d)
        rho = np.kron(np.diag([1.0, 0.0]).astype(complex), rho_s)
        for _ in range(3):
            rho = apply_channel(extended, rho)
            assert abs(renyi2_qmi(rho, small_channel.layout.n_s)) < 1e-10


    @pytest.mark.parametrize("case", ["small", "fig7-mbl", "fig7-chaotic", "fig8"])
    def test_qmi_trajectory_equals_extended_iteration(self, case, request):
        """Every record column, per round, against the doubled channel on
        the full (ancilla + system) state with explicit partial traces; and
        phase_scan's two columns after each round count against the same
        GHZ state and explicit rounds of apply_channel on the Neel state."""
        overrides = {"fig7-mbl": {"jxxx": 0.0, "jz": 5.0},
                     "fig7-chaotic": {"jxxx": 2.0, "jz": 0.1}, "fig8": {"jz": 0.7}}
        if case == "small":
            kraus = request.getfixturevalue("small_channel")
        else:
            kraus = build_channel(preset_config(case[:4]), overrides[case], real=True)
        n_s, n_k = kraus.layout.n_s, 10
        sz_total = sum(pauli_on_site("z", m, n_s) for m in range(n_s))
        extended = extend_with_ancilla(kraus)
        rho = pure_density_matrix(ghz_state(1 + n_s))
        neel0 = neel = pure_density_matrix(neel_state(n_s))
        records = qmi_trajectory(kraus, n_k)
        assert [r.n_k for r in records] == list(range(n_k + 1))
        rho_s0 = None
        for n in range(n_k + 1):
            (point,), failures = phase_scan(lambda _: kraus, [0.0], n)
            assert not failures
            assert abs(point.qmi - renyi2_qmi(rho, n_s)) <= 1e-12, n
            assert abs(point.imbalance_plus_one - 1.0 - imbalance(neel, neel0, n_s)) <= 1e-12, n
            neel = apply_channel(kraus, neel)
            rho_a = partial_trace(rho, [0], 1 + n_s)
            rho_s = partial_trace(rho, list(range(1, 1 + n_s)), 1 + n_s)
            rho_s0 = rho_s if rho_s0 is None else rho_s0
            expected = {
                "qmi": renyi2_qmi(rho, n_s),
                "imbalance": imbalance(rho_s, rho_s0, n_s),
                "sz": np.trace(sz_total @ rho_s).real,
                "purity_a": np.trace(rho_a @ rho_a).real,
                "purity_s": np.trace(rho_s @ rho_s).real,
                "purity_as": np.trace(rho @ rho).real,
            }
            for column, value in expected.items():
                assert abs(getattr(records[n], column) - value) <= 1e-12, (n, column)
            rho = apply_channel(extended, rho)


class TestPositivity:
    def test_outputs_positive_on_random_states(self, ergodic_channel):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = random_density_matrix(rng, ergodic_channel.dim)
            out = apply_channel(ergodic_channel, rho)
            assert np.linalg.eigvalsh(out).min() > -1e-8

    def test_complete_positivity_via_choi(self, small_channel):
        d = small_channel.dim
        choi = np.zeros((d * d, d * d), dtype=complex)
        for k in small_channel.ops:
            v = k.reshape(-1)
            choi += np.outer(v, v.conj())
        evals = np.linalg.eigvalsh(choi)
        assert evals.min() > -1e-10
        assert abs(np.trace(choi) - d) < 1e-9  # trace preservation
