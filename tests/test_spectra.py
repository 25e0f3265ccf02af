import gc
import weakref

import numpy as np
import pytest

from conftest import random_density_matrix, swap_unitary
from resetchannel.channel import (
    Propagator,
    SuperoperatorMatrix,
    apply_channel,
    kraus_from_unitary,
    superoperator_matrix,
)
from resetchannel.spectra import (
    DefectiveSpectrumError,
    classify_real,
    decompose_state,
    find_outliers,
    full_spectrum,
    ks_distance,
    magnitude_histogram,
    minus_one_cluster,
    reconstruct_state,
    triangular_reference,
    write_histogram_csv,
    write_spectrum_csv,
)
from resetchannel.spin_ops import ChainLayout


def diag_sop(values, meta=None):
    return SuperoperatorMatrix(np.diag(np.asarray(values, dtype=complex)),
                               meta=meta or {"bath_dim": 4})


@pytest.fixture(scope="module")
def small_spectrum(small_channel):
    return full_spectrum(superoperator_matrix(small_channel))


class TestFullSpectrum:
    def test_identity_matrix(self):
        spec = full_spectrum(diag_sop([1, 1, 1, 1]))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert all(m.residual < 1e-12 for m in spec.modes)

    def test_swap_reset_channel_modes(self):
        kraus = kraus_from_unitary(Propagator(swap_unitary(), 1.0), ChainLayout(1, 1))
        spec = full_spectrum(superoperator_matrix(kraus))
        assert np.allclose(sorted(np.abs(spec.eigenvalues)), [0, 0, 0, 1])
        top = spec.modes[0]
        assert abs(top.lam - 1.0) < 1e-12
        expected = np.diag([1.0, 0.0])
        phase = np.vdot(expected, top.right)
        assert np.allclose(top.right * np.conj(phase) / abs(phase), expected, atol=1e-10)

    def test_sorted_by_magnitude(self, small_spectrum):
        mags = np.abs(small_spectrum.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-14)

    def test_right_eigenoperators_unit_norm(self, small_spectrum):
        for mode in small_spectrum.modes:
            assert abs(np.linalg.norm(mode.right) - 1.0) < 1e-12

    def test_biorthonormality(self, small_spectrum):
        modes = small_spectrum.modes
        gram = np.array([[np.sum(mi.left.conj() * mj.right) for mj in modes] for mi in modes])
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-6

    def test_eigen_residuals(self, small_spectrum):
        assert max(m.residual for m in small_spectrum.modes) < 1e-7

    def test_resolution_of_identity(self, small_channel, small_spectrum):
        d = small_channel.dim
        recon = np.zeros((d * d, d * d), dtype=complex)
        for mode in small_spectrum.modes:
            recon += mode.lam * np.outer(mode.right.reshape(-1),
                                         mode.left.conj().reshape(-1))
        assert np.linalg.norm(recon - superoperator_matrix(small_channel).mat) < 1e-6

    def test_fixed_point_mode_is_state(self, small_spectrum):
        top = small_spectrum.modes[0]
        assert abs(top.lam - 1.0) < 1e-8
        rho = (top.right + top.right.conj().T) / 2
        rho /= np.trace(rho)
        assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            full_spectrum(diag_sop([np.nan, 1, 1, 1]))

    def test_lazy_left_side_equals_eager_inverse(self, chaotic_reversal_spectrum):
        spec = chaotic_reversal_spectrum
        vecs = np.column_stack([m.right.reshape(-1) for m in spec.modes])
        left = np.linalg.inv(vecs)
        for k, mode in enumerate(spec.modes):
            assert np.array_equal(mode.left, left[k].conj().reshape(mode.right.shape))
            assert mode.defectivity_score == float(np.linalg.norm(left[k]))
        sigma_min = np.linalg.svd(vecs, compute_uv=False)[-1]
        assert spec.defectivity_global == float(1.0 / sigma_min)

    def test_dropping_spectrum_frees_its_arrays(self, small_channel):
        # the modes share their eigenvector matrix without pointing back at
        # the spectrum, so reference counting alone frees it
        gc.disable()
        try:
            spec = full_spectrum(superoperator_matrix(small_channel))
            assert spec.modes[1].left.shape == spec.modes[1].right.shape
            assert spec.defectivity_global >= 1.0
            arrays = [weakref.ref(spec._basis.vecs), weakref.ref(spec._basis.inverse)]
            del spec
            assert all(ref() is None for ref in arrays)
        finally:
            gc.enable()


class TestDecomposition:
    def test_eigenoperator_gives_unit_vector(self):
        kraus = kraus_from_unitary(Propagator(swap_unitary(), 1.0), ChainLayout(1, 1))
        spec = full_spectrum(superoperator_matrix(kraus))
        rho = np.diag([1.0, 0.0]).astype(complex)  # the lambda=1 eigenoperator
        coeffs = decompose_state(spec, rho)
        expected = np.zeros(4)
        expected[0] = np.sum(spec.modes[0].left.conj() * rho).real
        assert abs(coeffs[0]) > 0.99
        recon = reconstruct_state(spec, coeffs)
        assert np.linalg.norm(recon - rho) < 1e-10

    def test_reconstruction_of_random_state(self, small_channel, small_spectrum):
        rho = random_density_matrix(np.random.default_rng(7), small_channel.dim)
        coeffs = decompose_state(small_spectrum, rho)
        assert np.linalg.norm(reconstruct_state(small_spectrum, coeffs) - rho) < 1e-7

    def test_mode_powering_matches_iteration(self, small_channel, small_spectrum):
        rho = random_density_matrix(np.random.default_rng(8), small_channel.dim)
        coeffs = decompose_state(small_spectrum, rho)
        n_r = 10
        predicted = reconstruct_state(small_spectrum, coeffs, power=n_r)
        direct = rho
        for _ in range(n_r):
            direct = apply_channel(small_channel, direct)
        assert np.linalg.norm(predicted - direct) < 1e-6 * max(np.linalg.norm(direct), 1)

    def test_defective_spectrum_rejected(self):
        near_jordan = np.diag([0.1, 0.2, 0.3, 0.5]).astype(complex)
        near_jordan[2, 3] = 1.0
        near_jordan[3, 3] = 0.3 + 1e-14
        spec = full_spectrum(SuperoperatorMatrix(near_jordan, meta={"bath_dim": 2}))
        with pytest.raises(DefectiveSpectrumError):
            decompose_state(spec, np.eye(2))


class TestClassifyReal:
    def test_hand_built_pair(self):
        spec = full_spectrum(diag_sop([1.0, 0.3 + 0.1j, 0.3 - 0.1j, 0.0]))
        split = classify_real(spec)
        assert len(split.pairs) == 1
        assert len(split.real_indices) == 2
        assert not split.anomalies

    def test_ergodic_channel_all_real(self, ergodic_reversal_spectrum):
        split = classify_real(ergodic_reversal_spectrum, tol_im=1e-6)
        assert not split.pairs
        assert not split.anomalies

    def test_chaotic_channel_has_pairs(self, chaotic_reversal_spectrum):
        split = classify_real(chaotic_reversal_spectrum, tol_im=1e-6)
        assert len(split.pairs) > 0

    def test_unpaired_mode_is_anomaly(self):
        spec = full_spectrum(diag_sop([1.0, 0.3 + 0.1j, 0.0, 0.0]))
        split = classify_real(spec, pairing_atol=1e-10)
        assert split.anomalies


class TestTriangularLaw:
    def test_radius_and_density(self):
        law = triangular_reference(4)
        assert law.radius == 0.5
        assert np.isclose(law.pdf(0.5), 4.0)
        assert law.pdf(0.6) == 0.0

    def test_normalization_by_quadrature(self):
        law = triangular_reference(7)
        xs = np.linspace(0, law.radius, 20001)
        integral = np.trapezoid(law.pdf(xs), xs)
        assert abs(integral - 1.0) < 1e-9

    def test_ks_of_exact_quantiles_is_small(self):
        law = triangular_reference(4)
        n = 500
        quantiles = law.radius * np.sqrt((np.arange(n) + 0.5) / n)
        assert ks_distance(quantiles, law) < 1e-2


class TestOutliers:
    def test_swap_channel_flags_fixed_point(self):
        kraus = kraus_from_unitary(Propagator(swap_unitary(), 1.0), ChainLayout(1, 1))
        spec = full_spectrum(superoperator_matrix(kraus))
        idx, is_real = find_outliers(spec, n_bath_states=2)
        assert idx == [0]
        assert is_real == [True]

    def test_chaotic_outliers_are_sparse(self, chaotic_reversal_spectrum):
        idx, _ = find_outliers(chaotic_reversal_spectrum)
        assert 0 < len(idx) < 0.2 * chaotic_reversal_spectrum.dim

    def test_ergodic_tail_has_substantial_weight(self, ergodic_reversal_spectrum):
        idx, _ = find_outliers(ergodic_reversal_spectrum)
        assert len(idx) > 0.2 * ergodic_reversal_spectrum.dim


class TestMinusOneCluster:
    def test_hand_built_cluster(self):
        spec = full_spectrum(diag_sop([-0.99, 0.5, 0.1, 0.0]))
        cluster = minus_one_cluster(spec, window=0.15)
        # sorted by magnitude: -0.99 comes first
        assert [m.index for m in cluster] == [0]
        assert cluster[0].is_real
        assert abs(cluster[0].magnitude - 0.99) < 1e-12

    def test_window_validation(self, small_spectrum):
        with pytest.raises(ValueError):
            minus_one_cluster(small_spectrum, window=0.6)

    def test_mbl_cluster_nonempty(self, mbl_reversal_spectrum):
        assert minus_one_cluster(mbl_reversal_spectrum, window=0.15)

    def test_chaotic_cluster_empty(self, chaotic_reversal_spectrum):
        assert not minus_one_cluster(chaotic_reversal_spectrum, window=0.1)


class TestHistogram:
    def test_density_normalization(self, chaotic_reversal_spectrum):
        stats = magnitude_histogram(chaotic_reversal_spectrum)
        mass = np.sum(stats.densities * np.diff(stats.bin_edges))
        assert abs(mass - 1.0) < 1e-9

    def test_bin_count_validation(self, chaotic_reversal_spectrum):
        with pytest.raises(ValueError):
            magnitude_histogram(chaotic_reversal_spectrum, bins=5)

    def test_csv_exports(self, tmp_path, chaotic_reversal_spectrum):
        spec_path = tmp_path / "spectrum.csv"
        write_spectrum_csv(chaotic_reversal_spectrum, spec_path)
        lines = spec_path.read_text().splitlines()
        assert lines[0] == "index,re,im,abs,residual,is_real,is_outlier"
        assert len(lines) == chaotic_reversal_spectrum.dim + 1
        stats = magnitude_histogram(chaotic_reversal_spectrum)
        hist_path = tmp_path / "histogram.csv"
        write_histogram_csv(stats, hist_path)
        header = hist_path.read_text().splitlines()[0]
        assert header == "bin_left,bin_right,density,reference_density"
