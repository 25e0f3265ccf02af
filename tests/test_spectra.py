import gc
import weakref

import numpy as np
import pytest

from conftest import random_density_matrix, swap_unitary
from resetchannel.channel import (
    SuperoperatorMatrix,
    apply_channel,
    kraus_from_unitary,
    superoperator_matrix,
)
from resetchannel.ep_analysis import BandTrack, SweepGrid, _pair_probe, count_complex, locate_eps
from resetchannel.spectra import (
    PAIR_RTOL,
    REAL_TOL_FACTOR,
    SPLIT_TOL_FACTOR,
    DefectiveSpectrumError,
    Spectrum,
    decompose_state,
    find_outliers,
    full_spectrum,
    ks_distance,
    magnitude_histogram,
    minus_one_cluster,
    reconstruct_state,
    triangular_reference,
)
from resetchannel.config import validate_config
from resetchannel.runner import _run_one
from resetchannel.spin_ops import ChainLayout


def runner_csv(analysis, spectrum, out):
    """The lines of ``analysis``'s CSV of ``spectrum``, as a run writes it
    (default histogram settings)."""
    config = validate_config({"model": "aah", "layout": {"n_s": 2, "n_b": 2}, "time": 1.0,
                              "params": {}, "analyses": [analysis]})
    [name] = _run_one(analysis, config, spectrum, None, None, out, {}, [], 1)
    return (out / name).read_text().splitlines()


def diag_sop(values, bath_dim=4):
    return SuperoperatorMatrix(np.diag(np.asarray(values, dtype=complex)), bath_dim)


@pytest.fixture(scope="module")
def small_spectrum(small_channel):
    return full_spectrum(superoperator_matrix(small_channel))


class TestFullSpectrum:
    def test_identity_matrix(self):
        spec = full_spectrum(diag_sop([1, 1, 1, 1]))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert np.all(spec.residuals < 1e-12)

    def test_swap_reset_channel_modes(self):
        kraus = kraus_from_unitary(swap_unitary(), ChainLayout(1, 1))
        spec = full_spectrum(superoperator_matrix(kraus))
        assert np.allclose(sorted(np.abs(spec.eigenvalues)), [0, 0, 0, 1])
        top = spec.right[:, 0].reshape(2, 2)
        assert abs(spec.eigenvalues[0] - 1.0) < 1e-12
        expected = np.diag([1.0, 0.0])
        phase = np.vdot(expected, top)
        assert np.allclose(top * np.conj(phase) / abs(phase), expected, atol=1e-10)

    def test_sorted_by_magnitude(self, small_spectrum):
        mags = np.abs(small_spectrum.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-14)

    def test_right_eigenoperators_unit_norm(self, small_spectrum):
        for k in range(small_spectrum.dim):
            assert abs(np.linalg.norm(small_spectrum.right[:, k].reshape(4, 4)) - 1.0) < 1e-12

    def test_biorthonormality(self, small_spectrum):
        gram = small_spectrum.left @ small_spectrum.right
        assert np.max(np.abs(gram - np.eye(small_spectrum.dim))) < 1e-6

    def test_eigen_residuals(self, small_spectrum):
        assert np.max(small_spectrum.residuals) < 1e-7

    def test_resolution_of_identity(self, small_channel, small_spectrum):
        d = small_channel.dim
        recon = np.zeros((d * d, d * d), dtype=complex)
        for k, lam in enumerate(small_spectrum.eigenvalues):
            recon += lam * np.outer(small_spectrum.right[:, k], small_spectrum.left[k])
        assert np.linalg.norm(recon - superoperator_matrix(small_channel).mat) < 1e-6

    def test_fixed_point_mode_is_state(self, small_spectrum):
        top = small_spectrum.right[:, 0].reshape(4, 4)
        assert abs(small_spectrum.eigenvalues[0] - 1.0) < 1e-8
        rho = (top + top.conj().T) / 2
        rho /= np.trace(rho)
        assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            full_spectrum(diag_sop([np.nan, 1, 1, 1]))

    def test_rejects_non_square_dimension(self):
        # a 3x3 matrix acts on no (d, d) operator space
        with pytest.raises(ValueError, match="perfect square"):
            full_spectrum(diag_sop([1.0, 0.5, 0.2]))

    def test_left_side_equals_eager_inverse(self, chaotic_reversal_spectrum):
        spec = chaotic_reversal_spectrum
        assert np.max(np.abs(spec.left @ spec.right - np.eye(spec.dim))) < 1e-8
        vecs = spec.right.copy()
        left = np.linalg.inv(vecs)
        assert np.array_equal(spec.left, left)
        assert np.array_equal(spec.defectivity_scores, np.linalg.norm(left, axis=1))
        sigma_min = np.linalg.svd(vecs, compute_uv=False)[-1]
        assert spec.defectivity_global == float(1.0 / sigma_min)

    def test_dropping_spectrum_frees_its_arrays(self, small_channel):
        # the spectrum holds its arrays without reference cycles, so
        # reference counting alone frees them
        gc.disable()
        try:
            spec = full_spectrum(superoperator_matrix(small_channel))
            assert spec.left.shape == spec.right.shape
            assert spec.defectivity_global >= 1.0
            arrays = [weakref.ref(spec.right), weakref.ref(spec.left)]
            del spec
            assert all(ref() is None for ref in arrays)
        finally:
            gc.enable()


class TestDecomposition:
    def test_eigenoperator_gives_unit_vector(self):
        kraus = kraus_from_unitary(swap_unitary(), ChainLayout(1, 1))
        spec = full_spectrum(superoperator_matrix(kraus))
        rho = np.diag([1.0, 0.0]).astype(complex)  # the lambda=1 eigenoperator
        coeffs = decompose_state(spec, rho)
        expected = np.zeros(4)
        expected[0] = (spec.left[0] @ rho.reshape(-1)).real
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
        spec = full_spectrum(SuperoperatorMatrix(near_jordan, 2))
        with pytest.raises(DefectiveSpectrumError):
            decompose_state(spec, np.eye(2))


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
        kraus = kraus_from_unitary(swap_unitary(), ChainLayout(1, 1))
        spec = full_spectrum(superoperator_matrix(kraus))
        assert find_outliers(spec) == [0]

    def test_chaotic_outliers_are_sparse(self, chaotic_reversal_spectrum):
        idx = find_outliers(chaotic_reversal_spectrum)
        assert 0 < len(idx) < 0.2 * chaotic_reversal_spectrum.dim

    def test_ergodic_tail_has_substantial_weight(self, ergodic_reversal_spectrum):
        idx = find_outliers(ergodic_reversal_spectrum)
        assert len(idx) > 0.2 * ergodic_reversal_spectrum.dim


class TestMinusOneCluster:
    def test_hand_built_cluster(self):
        spec = full_spectrum(diag_sop([-0.99, 0.5, 0.1, 0.0]))
        # sorted by magnitude: -0.99 comes first
        assert minus_one_cluster(spec, window=0.15) == [0]
        assert spec.eigenvalues[0] == -0.99

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
        lines = runner_csv("spectrum", chaotic_reversal_spectrum, tmp_path)
        assert lines[0] == "index,re,im,abs,residual,is_real,is_outlier"
        assert len(lines) == chaotic_reversal_spectrum.dim + 1
        header = runner_csv("histogram", chaotic_reversal_spectrum, tmp_path)[0]
        assert header == "bin_left,bin_right,density,reference_density"


class TestTolerancePolicy:
    """Each classification follows its documented threshold: modes sit just
    inside (factor IN) and just outside (factor OUT) of each one."""

    IN, OUT = 1 - 1e-3, 1 + 1e-3
    REAL, SPLIT = 1j * REAL_TOL_FACTOR, 1j * SPLIT_TOL_FACTOR  # spectral radius 1

    def spectrum(self):
        r, s = self.REAL, self.SPLIT
        lam = [1.0, 0.1, -0.2,
               0.9 + self.IN * r, 0.9 - self.IN * r,        # real
               0.8 + self.OUT * r, 0.8 - self.OUT * r,      # not real, not split
               0.7 + self.IN * s, 0.7 - self.IN * s,        # not real, not split
               0.6 + self.OUT * s, 0.6 - self.OUT * s,      # split
               -0.9 + self.IN * r, -0.9 - self.IN * r,      # in the -1 cluster, real
               -0.95 + self.OUT * r, -0.95 - self.OUT * r]  # in the -1 cluster, not real
        n = len(lam)
        return Spectrum(np.array(lam, dtype=complex), np.eye(n), np.zeros(n), 4)

    def test_real_threshold(self, tmp_path):
        spec = self.spectrum()
        lam = spec.eigenvalues
        real = [0, 1, 2, 3, 4, 11, 12]
        rows = runner_csv("spectrum", spec, tmp_path)[1:]
        assert [i for i, row in enumerate(rows) if row.split(",")[5] == "1"] == real
        stats = magnitude_histogram(spec, bins=10)
        assert stats.real_fraction == len(real) / len(lam)
        assert find_outliers(spec) == [i for i in range(len(lam)) if abs(lam[i]) > 0.5]
        assert minus_one_cluster(spec) == [11, 12, 13, 14]

    def test_split_threshold(self):
        lam = self.spectrum().eigenvalues
        assert count_complex(lam) == 2  # the split pair

    @pytest.mark.parametrize("factor, matched", [(IN, True), (OUT, False)],
                             ids=["inside", "outside"])
    def test_probe_conjugate_match(self, factor, matched):
        d = factor * PAIR_RTOL  # relative to max(1, |a|) = 1
        lam = np.array([0.5 + 0.01j, 0.5 + d - 0.01j, 0.1])
        _, is_pair, _ = _pair_probe(lam, lam[:2], 1e-6)
        assert is_pair == matched

    @pytest.mark.parametrize("factor, matched", [(IN, True), (OUT, False)],
                             ids=["inside", "outside"])
    def test_band_partner_match(self, factor, matched):
        d = factor * PAIR_RTOL  # relative to max(1, |lambda|) = 1
        s = 1j * SPLIT_TOL_FACTOR
        bands = np.array([[1.0, 0.5, 0.5, 0.3, 0.3],
                          [1.0, 0.5 + 0.01j, 0.5 + d - 0.01j,
                           0.3 + self.IN * s, 0.3 - self.IN * s]])  # the last two stay real
        track = BandTrack("j", np.array([0.0, 1.0]), bands, np.zeros(1))
        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), lambda j: pytest.fail("probed"))
        # a resolution wider than the interval: the pair is matched, never probed
        records = locate_eps(grid, track, resolution=2.0)
        assert [rec.band_pair for rec in records] == ([(1, 2)] if matched else [])
