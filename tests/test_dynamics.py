import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    ghz_coherence_eigenvalue,
    imbalance,
    make_channel,
    pauli_on_site,
    pure_density_matrix,
    random_density_matrix,
    random_product_density,
    renyi2_qmi,
)
from resetchannel.channel import KrausSet, apply_channel
from resetchannel.config import preset_config
from resetchannel.dynamics import (
    OVERLAP_MIN_WEIGHT,
    UndefinedOverlapError,
    bath_vacuum_projection,
    bath_vacuum_weight,
    eigen_overlap,
    half_chain_renyi2,
    magnetization_trajectory,
    phase_scan,
    qmi_trajectory,
    scar_candidates,
    scar_overlap_avg,
)
from resetchannel.hamiltonians import ConstrainedBasis, PxpParams, build_pxp, hermitian_eigensystem
from resetchannel.runner import analysis_matrix, build_channel, build_hamiltonian
from resetchannel.spectra import full_spectrum
from resetchannel.spin_ops import ChainLayout, ghz_state, neel_state, product_state


def pure_mode(vec):
    """One-column right-eigenvector matrix: the normalized projector on vec,
    row-stacked."""
    rho = np.outer(vec, vec.conj())
    rho = rho / np.linalg.norm(rho)
    return rho.reshape(-1, 1)


def per_mode_overlaps(spectrum, psi, layout):
    """The rescaled overlap formula applied one mode at a time,
    N_s |v^dag R_k v| / |v|^2: the oracle for the all-modes product."""
    v = bath_vacuum_projection(psi, layout)
    norm2 = float(np.real(v.conj() @ v))
    d = layout.dim_s
    return np.array([d * abs(v.conj() @ spectrum.right[:, k].reshape(d, d) @ v) / norm2
                     for k in range(spectrum.dim)])


@pytest.fixture(scope="module", params=["fig2", "fig6"])
def preset_spectrum(request):
    """Configured channel spectrum of a preset, with its layout and the
    Hamiltonian eigensystem."""
    kraus = build_channel(preset_config(request.param))
    prop = kraus.propagator
    return full_spectrum(analysis_matrix(kraus)), kraus.layout, (prop.vals, prop.vecs)


class TestEigenOverlap:
    def test_self_overlap_of_pure_projection(self):
        layout = ChainLayout(2, 2)
        psi = np.kron(np.array([0.6, 0.8, 0.0, 0.0]), np.array([1, 0, 0, 0]))
        v = bath_vacuum_projection(psi, layout)
        mode = pure_mode(v / np.linalg.norm(v))
        assert abs(eigen_overlap(mode, psi, layout)[0] - layout.dim_s) < 1e-12

    def test_bath_projection_full_layout(self):
        layout = ChainLayout(1, 1)
        psi = np.array([0.5, 0.5, 0.5, 0.5])
        assert np.allclose(bath_vacuum_projection(psi, layout), [0.5, 0.5])

    def test_bath_projection_constrained_layout(self):
        layout = ChainLayout(2, 2, constrained=True)
        basis = ConstrainedBasis(4)
        psi = np.zeros(basis.dim)
        psi[basis.states.index(0b0100)] = 1.0  # system |01>, bath |00>
        v = bath_vacuum_projection(psi, layout)
        sys_basis = ConstrainedBasis(2)
        assert v[sys_basis.states.index(0b01)] == 1.0
        assert np.sum(np.abs(v)) == 1.0

    def test_vanishing_projection_is_error(self):
        layout = ChainLayout(1, 1)
        psi = np.array([0.0, 1.0, 0.0, 0.0])  # bath always |1>
        with pytest.raises(UndefinedOverlapError):
            eigen_overlap(pure_mode(np.array([1.0, 0.0])), psi, layout)

    @pytest.mark.parametrize("weight", [0.5 * OVERLAP_MIN_WEIGHT, 2.0 * OVERLAP_MIN_WEIGHT])
    def test_raises_exactly_below_min_weight(self, weight):
        # amplitude sqrt(weight) on system |0>, bath |0>; the rest on bath |1>
        layout = ChainLayout(1, 1)
        psi = np.array([np.sqrt(weight), np.sqrt(1.0 - weight), 0.0, 0.0])
        below = bath_vacuum_weight(psi, layout) < OVERLAP_MIN_WEIGHT
        assert below == (weight < OVERLAP_MIN_WEIGHT)
        mode = pure_mode(np.array([1.0, 0.0]))
        if below:
            with pytest.raises(UndefinedOverlapError):
                eigen_overlap(mode, psi, layout)
        else:
            assert abs(eigen_overlap(mode, psi, layout)[0] - layout.dim_s) < 1e-9

    def test_chaotic_bulk_near_unity(self, chaotic_channel, chaotic_reversal_spectrum):
        from resetchannel.hamiltonians import XxxParams, build_xxx

        h = build_xxx(XxxParams(jzz=0.1, jz=0.1, jxxx=2.0), 8)
        _, vecs = hermitian_eigensystem(h)
        layout = chaotic_channel.layout
        psi = vecs[:, vecs.shape[1] // 2]
        xis = eigen_overlap(chaotic_reversal_spectrum.right[:, 50:150], psi, layout)
        assert 0.3 < np.mean(xis) < 3.0

    def test_all_modes_match_per_mode_formula(self, preset_spectrum):
        spectrum, layout, (_, vecs) = preset_spectrum
        for k in (0, vecs.shape[1] // 2, vecs.shape[1] - 1):
            xi = eigen_overlap(spectrum.right, vecs[:, k], layout)
            expected = per_mode_overlaps(spectrum, vecs[:, k], layout)
            assert xi.shape == (spectrum.dim,)
            assert np.all(np.abs(xi - expected) <= 1e-13 * np.maximum(1.0, expected))


@pytest.fixture(scope="module")
def pxp_eigensystem():
    h = build_pxp(PxpParams(), 8)
    basis = ConstrainedBasis(8)
    vals, vecs = hermitian_eigensystem(h)
    return vals, vecs, basis


class TestScars:
    def test_candidates_are_low_entropy_bulk_states(self, pxp_eigensystem):
        vals, vecs, basis = pxp_eigensystem
        scars = scar_candidates(vals, vecs, basis)
        assert len(scars.indices) == 4
        assert np.all(scars.entropies < scars.bulk_median_entropy - 0.3)

    def test_candidates_are_eigenstates(self, pxp_eigensystem):
        vals, vecs, basis = pxp_eigensystem
        h = build_pxp(PxpParams(), 8)
        scars = scar_candidates(vals, vecs, basis)
        for col, energy in zip(scars.states.T, vals[scars.indices]):
            assert np.linalg.norm(h @ col - energy * col) < 1e-9
        gram = scars.states.conj().T @ scars.states
        assert np.allclose(gram, np.eye(4), atol=1e-9)

    def test_entropy_of_product_state_is_zero(self):
        basis = ConstrainedBasis(4)
        vec = np.zeros(basis.dim)
        vec[basis.states.index(0b0101)] = 1.0
        assert abs(half_chain_renyi2(vec, basis)) < 1e-12

    def test_block_entropies_equal_per_state_calls(self, pxp_eigensystem):
        _, vecs, basis = pxp_eigensystem
        block = half_chain_renyi2(vecs[:, 10:20], basis)
        assert block.shape == (10,)
        assert list(block) == [half_chain_renyi2(vecs[:, k], basis) for k in range(10, 20)]

    def test_scar_average_of_equal_overlaps(self):
        layout = ChainLayout(1, 1)
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        states = np.column_stack([psi, psi, psi, psi])
        mode = pure_mode(np.array([1.0, 0.0]))
        single = eigen_overlap(mode, psi, layout)[0]
        assert abs(scar_overlap_avg(mode, states, layout)[0] - single) < 1e-12

    def test_scar_average_matches_per_mode_formula(self):
        config = preset_config("fig6")
        kraus = build_channel(config)
        spectrum = full_spectrum(analysis_matrix(kraus))
        vals, vecs = kraus.propagator.vals, kraus.propagator.vecs
        scars = scar_candidates(vals, vecs, ConstrainedBasis(kraus.layout.n_h))
        avg = scar_overlap_avg(spectrum.right, scars.states, kraus.layout)
        expected = np.mean([per_mode_overlaps(spectrum, psi, kraus.layout)
                            for psi in scars.states.T], axis=0)
        assert np.all(np.abs(avg - expected) <= 1e-13 * np.maximum(1.0, expected))


class TestRenyiQmi:
    def test_product_pure_state(self):
        rho = pure_density_matrix(product_state("000"))
        assert abs(renyi2_qmi(rho, 2)) < 1e-12

    def test_ghz_value(self):
        rho = pure_density_matrix(ghz_state(4))
        assert abs(renyi2_qmi(rho, 3) - 2 * np.log(2)) < 1e-12

    def test_classical_ghz_mixture(self):
        d = 2 ** 4
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = rho[-1, -1] = 0.5
        assert abs(renyi2_qmi(rho, 3) - np.log(2)) < 1e-12


class TestQmiTrajectory:
    def test_identity_channel_keeps_qmi(self):
        kraus = KrausSet([np.eye(4)], ChainLayout(2, 1))
        records = qmi_trajectory(kraus, 4)
        assert all(abs(r.qmi - 2 * np.log(2)) < 1e-12 for r in records)

    def test_monotone_and_purities(self, small_channel):
        records = qmi_trajectory(small_channel, 8)
        qmis = [r.qmi for r in records]
        assert all(b <= a + 1e-9 for a, b in zip(qmis, qmis[1:]))
        for r in records:
            assert r.purity_as <= 1 + 1e-10
            assert r.purity_a >= 0.5 - 1e-10
            assert r.purity_s >= 1.0 / small_channel.dim - 1e-10

    def test_initial_record(self, small_channel):
        rec = qmi_trajectory(small_channel, 0)[0]
        assert abs(rec.qmi - 2 * np.log(2)) < 1e-12
        assert abs(rec.purity_as - 1.0) < 1e-12

    def test_qmi_rise_warns(self):
        # X -> X / 4 is no channel; it divides every purity by 16, so the
        # mutual information rises by ln 16 per round
        kraus = KrausSet([0.5 * np.eye(4)], ChainLayout(2, 1))
        with pytest.warns(RuntimeWarning, match="mutual information rose") as caught:
            qmi_trajectory(kraus, 2)
        assert [str(w.message) for w in caught] == [
            f"mutual information rose by {np.log(16):.2e} at step {n}" for n in (1, 2)]

    def test_fig7_localized_matches_explicit_joint_evolution(self):
        """Oracle: (ancilla, system, bath) evolved under 1 (x) U with the
        bath reset to |0...0> each round, partial traces by einsum."""
        config = preset_config("fig7")
        overrides = {"jxxx": 0.0, "jz": 5.0}
        n_k = config.qmi.n_k
        kraus = build_channel(config, overrides)
        h = build_hamiltonian(config.model, {**config.params, **overrides},
                              config.n_s + config.n_b)
        u_joint = np.kron(np.eye(2), expm(-1j * config.time * h))
        ds, db = 2 ** config.n_s, 2 ** config.n_b
        bath0 = np.zeros((db, db))
        bath0[0, 0] = 1.0
        lam_c = ghz_coherence_eigenvalue(kraus)

        rho = pure_density_matrix(ghz_state(1 + config.n_s))
        records = qmi_trajectory(kraus, n_k)
        for n in range(n_k + 1):
            r = rho.reshape(2, ds, 2, ds)
            purities = [np.real(np.trace(m @ m)) for m in
                        (np.einsum("isjs->ij", r), np.einsum("aiaj->ij", r), rho)]
            qmi = -np.log(purities[0]) - np.log(purities[1]) + np.log(purities[2])
            assert abs(records[n].qmi - qmi) < 1e-10, n
            assert abs(rho[0, -1] - 0.5 * lam_c ** n) < 1e-10, n
            joint = u_joint @ np.kron(rho, bath0) @ u_joint.conj().T
            rho = np.einsum("ibjb->ij", joint.reshape(2 * ds, db, 2 * ds, db))


class TestImbalance:
    def test_neel_self_overlap(self):
        rho = pure_density_matrix(neel_state(4))
        assert abs(imbalance(rho, rho, 4) - 1.0) < 1e-12

    def test_maximally_mixed_vanishes(self):
        rho0 = pure_density_matrix(neel_state(3))
        assert abs(imbalance(np.eye(8) / 8, rho0, 3)) < 1e-12

    def test_sign_flip(self):
        rho0 = pure_density_matrix(neel_state(2))
        flipped = pure_density_matrix(product_state("10"))
        assert abs(imbalance(flipped, rho0, 2) + imbalance(rho0, rho0, 2)) < 1e-12

    def test_bilinearity(self):
        rng = np.random.default_rng(9)
        rho0 = pure_density_matrix(neel_state(2))
        r1 = random_density_matrix(rng, 4)
        r2 = random_density_matrix(rng, 4)
        a, b = 0.3, 0.7
        lhs = imbalance(a * r1 + b * r2, rho0, 2)
        rhs = a * imbalance(r1, rho0, 2) + b * imbalance(r2, rho0, 2)
        assert abs(lhs - rhs) < 1e-12

    def test_stack_equals_per_state_calls(self):
        rng = np.random.default_rng(11)
        rho0 = pure_density_matrix(neel_state(3))
        stack = np.array([random_density_matrix(rng, 8) for _ in range(4)])
        values = imbalance(stack, rho0, 3)
        assert values.shape == (4,)
        for rho, value in zip(stack, values):
            assert abs(value - imbalance(rho, rho0, 3)) <= 1e-12

    @pytest.mark.parametrize("rho_t, rho_0", [
        (np.eye(8), np.eye(4)),            # states of different chains
        (np.eye(4), np.eye(4)),            # both of the wrong size
        (np.ones((2, 8, 4)), np.eye(8)),   # a stack of non-square matrices
        (np.ones(8), np.ones(8)),          # vectors, not density matrices
    ])
    def test_shape_mismatch_raises(self, rho_t, rho_0):
        with pytest.raises(ValueError, match="state dimensions"):
            imbalance(rho_t, rho_0, 3)


class TestMagnetization:
    def test_monotone_toward_bath_sector(self, ergodic_channel):
        rng = np.random.default_rng(10)
        for _ in range(3):
            rho = random_product_density(rng, ergodic_channel.layout.n_s)
            traj = magnetization_trajectory(ergodic_channel, rho, 10)
            assert np.all(np.diff(traj) >= -1e-9)

    def test_fixed_point_is_top_sector(self, ergodic_channel):
        n_s = ergodic_channel.layout.n_s
        rho = pure_density_matrix(product_state("0" * n_s))
        traj = magnetization_trajectory(ergodic_channel, rho, 5)
        assert np.allclose(traj, n_s, atol=1e-9)

    def test_matches_explicit_rounds(self, ergodic_channel):
        # the desk-scale ergodic channel, and the iterated channels of fig7
        # (chaotic case) and fig8 as their runs build them
        channels = [ergodic_channel,
                    build_channel(preset_config("fig7"), {"jxxx": 2.0, "jz": 0.1}, real=True),
                    build_channel(preset_config("fig8"), {"jz": 0.7}, real=True)]
        rng = np.random.default_rng(12)
        for kraus in channels:
            n_s = kraus.layout.n_s
            sz_total = sum(pauli_on_site("z", m, n_s) for m in range(n_s))
            rho = random_product_density(rng, n_s)
            traj = magnetization_trajectory(kraus, rho, 6)
            assert traj.shape == (7,)
            for n, value in enumerate(traj):
                assert abs(value - np.trace(sz_total @ rho).real) <= 1e-12, (n_s, n)
                rho = apply_channel(kraus, rho)

    def test_non_hermitian_state_raises(self):
        # the coefficients read only the diagonal and the upper triangle, so
        # a non-Hermitian rho0 would otherwise iterate some other operator
        kraus = build_channel(preset_config("fig7"), {"jxxx": 2.0, "jz": 0.1}, real=True)
        rho = np.zeros((kraus.dim, kraus.dim), dtype=complex)
        rho[0, 0], rho[0, 3], rho[3, 0] = 0.5, 0.5j, 0.2
        with pytest.raises(ValueError, match="not Hermitian"):
            magnetization_trajectory(kraus, rho, 1)


class TestPhaseScan:
    def test_zero_rounds_give_initial_values(self):
        factory = lambda jz: make_channel(3, 2, 5.0, jzz=0.1, jz=jz)
        points, failures = phase_scan(factory, np.array([0.1, 1.0, 5.0]), 0)
        assert not failures
        for p in points:
            assert abs(p.qmi - 2 * np.log(2)) < 1e-12
            assert abs(p.imbalance_plus_one - (1 + 3 / 4)) < 1e-12

    def test_fig8_points_match_trajectory_and_separate_neel_iteration(self):
        config = preset_config("fig8")
        factory = lambda jz: build_channel(config, {"jz": jz}, real=True)
        values, n_k = config.phase_values(), config.phase.n_k
        points, failures = phase_scan(factory, values, n_k)
        assert not failures and len(points) == len(values)
        for value, point in zip(values, points):
            kraus = factory(value)
            rho0 = pure_density_matrix(neel_state(config.n_s))
            rho = rho0
            for _ in range(n_k):
                rho = apply_channel(kraus, rho)
            assert point.value == value
            assert abs(point.qmi - qmi_trajectory(kraus, n_k)[-1].qmi) <= 1e-12, value
            assert abs(point.imbalance_plus_one
                       - (1.0 + imbalance(rho, rho0, config.n_s))) <= 1e-12, value

    def test_qmi_rise_warns(self):
        factory = lambda jz: KrausSet([0.5 * np.eye(4)], ChainLayout(2, 1))
        with pytest.warns(RuntimeWarning, match="mutual information rose") as caught:
            points, failures = phase_scan(factory, np.array([0.1, 0.2]), 1)
        assert not failures and len(points) == 2
        assert [str(w.message) for w in caught] == [
            f"mutual information rose by {np.log(16):.2e} at step 1"] * 2

    def test_failures_recorded(self):
        def factory(jz):
            if jz > 1:
                raise RuntimeError("nope")
            return make_channel(2, 2, 5.0, jz=jz)

        points, failures = phase_scan(factory, np.array([0.1, 0.5, 2.0]), 1)
        assert len(points) == 2
        assert failures[0][0] == 2
