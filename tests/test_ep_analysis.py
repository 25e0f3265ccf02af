import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import eigs

from resetchannel import ep_analysis
from resetchannel.channel import SuperoperatorMatrix
from resetchannel.ep_analysis import (
    FIT_LADDER,
    FIT_POINTS,
    FIT_START_WIDTHS,
    KRYLOV_MAX,
    MAX_BISECTIONS,
    PROBE_MODES,
    EpRecord,
    JordanChainError,
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
    _near_solve,
    _pair_probe,
)
from resetchannel.spectra import SPLIT_TOL_FACTOR, full_spectrum, relative_tolerance
from resetchannel.spin_ops import ChainLayout


def analytic_family(level=0.5, gap=0.05):
    """2x2 family with a known exceptional point at J = gap: eigenvalues
    level +/- sqrt(gap^2 - J^2)."""

    def build(j):
        return np.array([[level + gap, j], [-j, level - gap]], dtype=complex)

    return build


def optimal_track(sweep):
    """Bands and step distances of ``sweep`` (all bands) matched by optimal
    (Hungarian) assignment: the oracle for greedy ``track_bands``."""
    lam0 = sweep.eigenvalues[0]
    bands = [lam0[np.argsort(-lam0.real)]]
    for cur in sweep.eigenvalues[1:]:
        _, cols = linear_sum_assignment(np.abs(cur[None, :] - bands[-1][:, None]))
        bands.append(cur[cols])
    bands = np.array(bands)
    return bands, np.max(np.abs(np.diff(bands, axis=0)), axis=1)


def random_family(n=24, seed=3):
    """Real non-normal family A + j B: conjugate pairs form and split as j
    varies."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, n, n)) / np.sqrt(n)
    return lambda j: (a + j * b).astype(complex)


def split_tol(lam):
    """The split threshold :func:`locate_eps` applies by default to
    eigenvalues ``lam`` at the first grid point."""
    return relative_tolerance(lam, SPLIT_TOL_FACTOR)


def assert_probe_matches_full_solve(grid, value, guess, tol_im, exact=None):
    """``grid.probe`` of the matrix built at ``value`` answers the guessed
    pair as :func:`_pair_probe` does on the full eigvals of ``exact(value)``
    (default ``grid.build(value)``); returns the verdict."""
    full = np.linalg.eigvals((exact or grid.build)(value))
    pair, is_pair, gap = grid.probe(grid.build(value), guess, tol_im)
    want_pair, want_is_pair, want_gap = _pair_probe(full, guess, tol_im)
    assert is_pair == want_is_pair
    assert abs(gap - want_gap) <= 1e-10
    assert min(np.max(np.abs(pair - want_pair)),
               np.max(np.abs(pair[::-1] - want_pair))) <= 1e-10
    return is_pair


class TestSweep:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="monotone"):
            SweepGrid("j", [0.0, 0.0, 1.0], lambda j: np.eye(2))
        with pytest.raises(ValueError, match="3 points"):
            SweepGrid("j", [0.0, 1.0], lambda j: np.eye(2))

    def test_determinism(self):
        build = analytic_family()
        grid = SweepGrid("j", np.linspace(0.01, 0.09, 5), build)
        s1 = sweep_spectrum(grid)
        s2 = sweep_spectrum(grid)
        for a, b in zip(s1.eigenvalues, s2.eigenvalues):
            assert np.array_equal(a, b)

    def test_failures_recorded_and_sweep_continues(self):
        def build(j):
            if 0.04 < j < 0.06:
                raise RuntimeError("boom")
            return np.eye(4) * j

        grid = SweepGrid("j", np.linspace(0.0, 0.1, 11), build)
        result = sweep_spectrum(grid)
        assert result.failures == [(5, "RuntimeError: boom")]
        # the failed point is in failures alone; every other point solved
        solved = np.delete(grid.values, 5)
        assert np.array_equal(result.values, solved)
        assert len(result.eigenvalues) == 10
        for value, lam in zip(result.values, result.eigenvalues):
            assert np.array_equal(lam, np.full(4, value, dtype=complex))

    def test_non_finite_matrix_recorded_as_failure(self):
        def build(j):
            return np.full((4, 4), np.nan) if j == 0.5 else np.eye(4) * j

        result = sweep_spectrum(SweepGrid("j", np.linspace(0.0, 1.0, 3), build))
        assert result.failures == [(1, "ValueError: channel matrix contains non-finite entries")]
        assert result.values.tolist() == [0.0, 1.0]
        assert [lam.tolist() for lam in result.eigenvalues] == [[0.0] * 4, [1.0] * 4]

    def test_bands_track_across_a_failed_point(self):
        # the analytic family's EP at J = 0.05 lies between solved points
        # 0.04 and 0.06 once the sweep's solve at 0.05 fails; the bisection
        # builds 0.05 again, once the failure has passed
        family, failed = analytic_family(), []

        def build(j):
            if j == 0.05 and not failed:
                failed.append(j)
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return family(j)

        grid = SweepGrid("j", np.linspace(0.0, 0.1, 11), build)
        sweep = sweep_spectrum(grid)
        assert sweep.failures == [(5, "LinAlgError: Eigenvalues did not converge")]
        track = track_bands(sweep)
        assert np.array_equal(track.grid_values, np.delete(grid.values, 5))
        assert track.bands.shape == (10, 2) and track.step_distances.shape == (9,)
        (ep,) = locate_eps(grid, track, resolution=1e-9)
        assert ep.bracket[0] >= 0.04 and ep.bracket[1] <= 0.06
        assert abs(ep.j_star - 0.05) < 1e-9

    @pytest.mark.parametrize("preset", ["fig4", "fig9"])
    def test_eigenvalues_match_full_spectrum_on_preset_grid(self, preset):
        from resetchannel.config import preset_config
        from resetchannel.runner import spectral_matrix_factory

        config = preset_config(preset)
        factory = spectral_matrix_factory(config, config.sweep.parameter)
        dim_b = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp")).dim_b
        built = {}
        values = config.sweep_values()
        grid = SweepGrid(config.sweep.parameter, values[[0, len(values) // 2, -1]],
                         lambda v: built.setdefault(v, factory(v)))
        sweep = sweep_spectrum(grid)
        assert not sweep.failures
        for value, lam in zip(grid.values, sweep.eigenvalues):
            sop = SuperoperatorMatrix(built[value], dim_b)
            assert np.array_equal(lam, full_spectrum(sop).eigenvalues)

    def test_real_grid_spectrum_closed_under_conjugation(self):
        from resetchannel.config import preset_config
        from resetchannel.runner import spectral_matrix_factory

        # the EP grid's real matrix at a point past fig4's first EPs
        config = preset_config("fig4")
        grid = SweepGrid("jxxx", [0.0045, 0.005, 0.0055],
                         spectral_matrix_factory(config, "jxxx", real=True))
        lam = sweep_spectrum(grid).eigenvalues[1]
        assert np.any(lam.imag != 0)
        assert np.array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))

    def test_threaded_matches_serial(self):
        build = analytic_family()
        grid = SweepGrid("j", np.linspace(0.01, 0.09, 9), build)
        serial = sweep_spectrum(grid, n_workers=1)
        threaded = sweep_spectrum(grid, n_workers=4)
        for a, b in zip(serial.eigenvalues, threaded.eigenvalues):
            assert np.array_equal(a, b)


class TestTrackBands:
    def test_constant_spectra_give_constant_bands(self):
        grid = SweepGrid("j", np.linspace(0, 1, 4),
                         lambda j: np.diag([0.9, 0.5, 0.1]).astype(complex))
        track = track_bands(sweep_spectrum(grid))
        assert np.allclose(track.bands, track.bands[0])
        assert np.allclose(track.step_distances, 0.0)

    def test_modes_swapping_positions_keep_labels(self):
        # two modes exchange real parts while staying separated in the
        # imaginary direction; distance continuity keeps each label on its
        # own trajectory
        def build(j):
            return np.diag([0.5 + j, 0.7 - j + 0.03j]).astype(complex)

        grid = SweepGrid("j", np.linspace(0.0, 0.2, 41), build)
        track = track_bands(sweep_spectrum(grid))
        start_high = int(np.argmax(track.bands[0].real))
        moving_down = track.bands[:, start_high]
        assert np.allclose(moving_down.imag, 0.03)
        assert np.all(np.diff(moving_down.real) < 0)
        other = track.bands[:, 1 - start_high]
        assert np.allclose(other.imag, 0.0)

    def test_top_decile_selection(self):
        grid = SweepGrid("j", np.linspace(0, 1, 3), lambda j: np.eye(40))
        track = track_bands(sweep_spectrum(grid), select="top_re_decile")
        assert track.bands.shape[1] == 4

    def test_optimal_matching_agrees_on_easy_case(self):
        def build(j):
            return np.diag([0.9 - j, 0.2 + j]).astype(complex)

        grid = SweepGrid("j", np.linspace(0, 0.1, 5), build)
        sweep = sweep_spectrum(grid)
        greedy = track_bands(sweep)
        optimal, _ = optimal_track(sweep)
        assert np.allclose(greedy.bands, optimal)


@pytest.fixture(scope="module")
def chain_grid():
    from resetchannel.config import validate_config
    from resetchannel.runner import spectral_matrix_factory

    config = validate_config({
        "name": "mini", "model": "xxx", "layout": {"n_s": 3, "n_b": 3},
        "time": 50.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 0.0},
        "analyses": ["spectrum"],
    })
    return spectral_matrix_factory(config, "jxxx")


class TestPhysicalSweep:
    def test_three_point_chain_sweep(self, chain_grid):
        grid = SweepGrid("jxxx", np.array([0.0, 0.05, 0.1]), chain_grid)
        sweep = sweep_spectrum(grid)
        assert not sweep.failures
        assert all(s.size == 64 for s in sweep.eigenvalues)
        # the symmetric point is entirely real; chaos admits conjugate pairs
        assert count_complex(sweep.eigenvalues[0]) == 0
        assert count_complex(sweep.eigenvalues[2]) > 0

    def test_matching_distance_shrinks_under_grid_refinement(self, chain_grid):
        # spectrum continuity: with optimal assignment the largest matched
        # step shrinks as the grid refines (greedy stalls at congested
        # crossings of the small-magnitude bulk)
        maxima = []
        for pts in (5, 9, 17, 33):
            grid = SweepGrid("jxxx", np.linspace(0.0, 0.04, pts), chain_grid)
            _, step_distances = optimal_track(sweep_spectrum(grid))
            maxima.append(np.max(step_distances))
        assert all(b < a for a, b in zip(maxima, maxima[1:]))


class TestCountComplex:
    def test_hand_built(self):
        sop = SuperoperatorMatrix(np.diag([1.0, 0.5j, -0.5j, 0.1]).astype(complex), 2)
        assert count_complex(full_spectrum(sop).eigenvalues) == 2

    def test_odd_count_warns(self):
        sop = SuperoperatorMatrix(np.diag([1.0, 0.5j, 0.1, 0.1]).astype(complex), 2)
        with pytest.warns(RuntimeWarning, match="odd"):
            count_complex(full_spectrum(sop).eigenvalues)

    def test_ergodic_channel_is_fully_real(self, ergodic_reversal_spectrum):
        assert count_complex(ergodic_reversal_spectrum.eigenvalues) == 0


class TestLocateEps:
    def test_analytic_family_localization(self):
        gap = 0.05
        build = analytic_family(gap=gap)
        grid = SweepGrid("j", np.linspace(0.03, 0.07, 5), build)
        track = track_bands(sweep_spectrum(grid))
        records = locate_eps(grid, track, resolution=1e-5)
        assert len(records) == 1
        rec = records[0]
        assert abs(rec.j_star - gap) < 1e-4
        assert abs(rec.lambda_star - 0.5) < 1e-3
        assert rec.converged
        # just below: two distinct real eigenvalues; just above: a conjugate
        # pair with opposite imaginary parts
        below = np.linalg.eigvals(build(rec.j_star - 1e-3))
        assert np.max(np.abs(below.imag)) < 1e-12
        assert abs(below[0] - below[1]) > 1e-3
        above = np.linalg.eigvals(build(rec.j_star + 1e-3))
        assert np.min(np.abs(above.imag)) > 1e-3
        assert abs(above[0] - np.conj(above[1])) < 1e-8

    def test_bisection_that_runs_out_is_not_converged(self):
        # below the float spacing at 0.05 the bracket stops shrinking at one
        # ulp, so the bisection spends every one of its probes
        grid = SweepGrid("j", np.linspace(0.03, 0.07, 5), analytic_family())
        track = track_bands(sweep_spectrum(grid))
        [rec] = locate_eps(grid, track, resolution=1e-300)
        assert rec.converged is False
        assert sum(grid.probe_counts.values()) == MAX_BISECTIONS
        lo, hi = rec.bracket
        assert hi - lo == np.spacing(lo)
        assert abs(rec.j_star - 0.05) < 1e-9

    def test_no_flip_gives_empty_list(self):
        build = analytic_family(gap=0.5)  # EP far outside the grid
        grid = SweepGrid("j", np.linspace(0.01, 0.05, 5), build)
        track = track_bands(sweep_spectrum(grid))
        assert locate_eps(grid, track, resolution=1e-4) == []

    def test_bisection_and_fit_build_each_value_once(self):
        probed = []
        build = analytic_family(gap=0.05)

        def counting_build(j):
            probed.append(j)
            return build(j)

        grid = SweepGrid("j", np.linspace(0.03, 0.07, 5), counting_build)
        track = track_bands(sweep_spectrum(grid))
        probed.clear()
        rec = locate_eps(grid, track, resolution=1e-5)[0]
        fit_sqrt_exponent(grid, rec, split_tol(track.bands[0]))
        assert probed
        assert len(probed) == len(set(probed))

    def test_pairs_flagged_in_one_interval_build_each_value_once(self):
        # EPs of two and of three (level, j*) blocks in the grid interval
        # [0.05, 0.06], with real modes around them. In the three-block
        # family the middle pair (by band order) leaves the others' bracket
        # at the first midpoint and bisects on its own, while the outer two
        # keep sharing their midpoints.
        fillers = [0.40, 0.42, 0.58, 0.60, 0.62, -0.3, -0.5]
        for blocks in (((0.5, 0.052), (0.3, 0.056)),
                       ((0.5, 0.052), (0.3, 0.058), (0.1, 0.053))):
            probed = []

            def build(j):
                probed.append(j)
                n = 2 * len(blocks)
                mat = np.diag(np.array([0.0] * n + fillers, dtype=complex))
                for b, (level, gap) in enumerate(blocks):
                    mat[2 * b:2 * b + 2, 2 * b:2 * b + 2] = analytic_family(level, gap)(j)
                return mat

            grid = SweepGrid("j", np.linspace(0.03, 0.07, 5), build)
            track = track_bands(sweep_spectrum(grid))
            probed.clear()
            records = locate_eps(grid, track, resolution=1e-6)
            assert (sorted(round(rec.j_star, 4) for rec in records)
                    == sorted(gap for _, gap in blocks))
            # band-pair order, though the middle pair's bisection parts ways
            assert [rec.band_pair for rec in records] == sorted(rec.band_pair for rec in records)
            assert all(rec.converged for rec in records)
            assert all(0.05 <= rec.bracket[0] < rec.bracket[1] <= 0.06 for rec in records)
            assert probed and len(probed) == len(set(probed))
            assert sum(grid.probe_counts.values()) > len(probed)

    def test_sqrt_exponent_on_analytic_family(self):
        gap = 0.05
        build = analytic_family(gap=gap)
        grid = SweepGrid("j", np.linspace(0.03, 0.07, 5), build)
        track = track_bands(sweep_spectrum(grid))
        rec = locate_eps(grid, track, resolution=1e-5)[0]
        fit = fit_sqrt_exponent(grid, rec, split_tol(track.bands[0]))
        assert abs(fit.exponent - 0.5) < 0.02
        assert fit.r2 > 0.999

    def test_fit_builds_exactly_its_ladder(self):
        built = []
        build = analytic_family(gap=0.05)

        def counting_build(j):
            built.append(j)
            return build(j)

        grid = SweepGrid("j", np.linspace(0.03, 0.07, 5), counting_build)
        track = track_bands(sweep_spectrum(grid))
        rec = locate_eps(grid, track, resolution=1e-5)[0]
        built.clear()
        fit = fit_sqrt_exponent(grid, rec, split_tol(track.bands[0]))
        width = rec.bracket[1] - rec.bracket[0]
        offsets = FIT_START_WIDTHS * width * FIT_LADDER ** np.arange(FIT_POINTS)
        assert len(built) == FIT_POINTS
        np.testing.assert_allclose(np.array(built) - rec.j_star, offsets, rtol=1e-9)
        np.testing.assert_allclose(fit.deltas, offsets, rtol=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_grid_direction(self, sign):
        # EP at j = 0.05, complex below it: the decreasing grid meets it from
        # the real side, as does the mirrored increasing one at j = -0.05
        def build(j):
            return np.array([[0.5 + j, 0.05], [-0.05, 0.5 - j]], dtype=complex)

        grid = SweepGrid("j", sign * np.linspace(0.07, 0.03, 5), build)
        track = track_bands(sweep_spectrum(grid))
        [rec] = locate_eps(grid, track, resolution=1e-5)
        assert rec.converged
        assert rec.bracket[0] <= rec.bracket[1] <= rec.bracket[0] + 1e-5
        assert rec.bracket[0] <= sign * 0.05 <= rec.bracket[1]
        fit = fit_sqrt_exponent(grid, rec, split_tol(track.bands[0]))
        assert abs(fit.exponent - 0.5) < 0.02
        assert fit.r2 > 0.999

    def test_exact_sqrt_data_fits_half(self):
        # family built so the splitting is exactly sqrt(J): fitted slope 0.5
        def build(j):
            s = np.sqrt(max(j, 0.0))
            return np.array([[0.5, s], [-s, 0.5]], dtype=complex)

        grid = SweepGrid("j", np.linspace(0.0, 0.01, 5), build)
        rec = EpRecord(0.0, 0.5 + 0j, (0, 1), (0.0, 1e-6))
        tol_im = split_tol(np.linalg.eigvals(build(0.0)))
        fit = fit_sqrt_exponent(grid, rec, tol_im)
        assert abs(fit.exponent - 0.5) < 1e-6
        assert fit.r2 > 1 - 1e-12

    def test_fit_failure_names_ladder_start_and_stop(self):
        # a real pair complex only for 0.05 < j < 0.05015: a window narrower
        # than the FIT_START_WIDTHS bracket widths the ladder starts at
        window = 1.5e-4

        def build(j):
            return np.array([[0.5, 1.0], [(j - 0.05) * (j - 0.05 - window), 0.5]])

        grid = SweepGrid("j", np.linspace(0.0499, 0.0501, 3), build)
        track = track_bands(sweep_spectrum(grid))
        [rec] = locate_eps(grid, track, resolution=1e-5)
        start = FIT_START_WIDTHS * (rec.bracket[1] - rec.bracket[0])
        assert rec.bracket[0] <= 0.05 < rec.bracket[1] and start > window
        with pytest.raises(ValueError) as err:
            fit_sqrt_exponent(grid, rec, track.split_tolerance)
        assert str(err.value) == (
            f"only 0 valid probe points beyond the EP; need {FIT_POINTS} (the ladder"
            f" starts at offset {start:.3e}; at {start:.3e} the pair is no longer split)")

    def test_insufficient_points_raises(self):
        def build(j):
            return np.diag([0.5, 0.4]).astype(complex)  # never complex

        grid = SweepGrid("j", np.linspace(0.0, 0.01, 3), build)
        rec = EpRecord(0.0, 0.45 + 0j, (0, 1), (0.0, 1e-6))
        with pytest.raises(ValueError, match="probe points"):
            fit_sqrt_exponent(grid, rec, split_tol(np.linalg.eigvals(build(0.0))))


class TestProbe:
    def test_matches_full_eigvals_on_fig4_ep_grid(self):
        self.check_fig4_ep_grid(real=False)

    def test_real_probe_build_matches_full_eigvals_on_fig4_ep_grid(self):
        # probes of the real Hermitian-basis matrix, as a run's EP grid makes
        # them, against the full eigvals of the complex one
        self.check_fig4_ep_grid(real=True)

    @staticmethod
    def check_fig4_ep_grid(real):
        from resetchannel.config import preset_config
        from resetchannel.runner import spectral_matrix_factory

        config = preset_config("fig4")
        exact = spectral_matrix_factory(config, "jxxx")
        grid = SweepGrid("jxxx", np.linspace(config.ep.start, config.ep.stop, config.ep.points),
                         spectral_matrix_factory(config, "jxxx", real=real))
        # two EPs of the shipped preset, probed as the bisection and the fit
        # do: below the EP, and on the fit's ladder above it
        verdicts = []
        for j_star, lam_star in ((0.0025181274414062494, 0.52380340422807348),
                                 (0.0034303588867187502, 0.46350063105477501)):
            guess = np.array([lam_star, lam_star], dtype=complex)
            for d in (-1e-5, 3.7e-6, 1.5e-5, 6e-5):
                verdicts.append(assert_probe_matches_full_solve(grid, j_star + d, guess, 1e-6,
                                                                exact))
        assert any(verdicts) and not all(verdicts)
        assert grid.probe_counts == {"near": 8, "full": 0}

    def test_matches_full_eigvals_on_random_family(self):
        build = random_family()
        # generic guesses: a guess exactly equidistant from two conjugate
        # modes is a tie that either solve breaks by its storage order
        rng = np.random.default_rng(7)
        verdicts, counts = [], {"near": 0, "full": 0}
        for j in (0.0, 0.3, 0.6):
            lam = np.linalg.eigvals(build(j - 0.01))
            for mu in lam:
                nearest = lam[np.argsort(np.abs(lam - mu))[1]]
                for guess in ([mu, np.conj(mu)], [mu, nearest]):
                    guess = np.array(guess) + 1e-3 * (rng.random(2) + 1j * rng.random(2))
                    grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), build)
                    verdicts.append(assert_probe_matches_full_solve(grid, j, guess, 1e-6))
                    counts = {k: counts[k] + grid.probe_counts[k] for k in counts}
        assert any(verdicts) and not all(verdicts)
        # widely split pairs cannot be certified from their midpoint
        assert counts["near"] > 0 and counts["full"] > 0

    def test_small_matrix_falls_back_to_full_solve(self):
        build = random_family(n=PROBE_MODES + 2)
        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), build)
        lam = np.linalg.eigvals(build(0.5))
        assert_probe_matches_full_solve(grid, 0.5, lam[:2], 1e-6)
        assert grid.probe_counts == {"near": 0, "full": 1}

    def test_uncertified_guess_falls_back_to_full_solve(self):
        # a guess spanning the whole spectrum: its midpoint's nearest modes
        # cannot prove which modes lie nearest the two far-apart guesses
        build = random_family()
        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), build)
        lam = np.linalg.eigvals(build(0.5))
        guess = np.array([lam[np.argmin(lam.real)], lam[np.argmax(lam.real)]])
        assert_probe_matches_full_solve(grid, 0.5, guess, 1e-6)
        assert grid.probe_counts == {"near": 0, "full": 1}

    def test_gap_neighbour_outside_solved_disc_falls_back(self):
        # the guess sits 0.1 right of the pair, so the solved disc (the six
        # modes nearest 0.6) misses the mode at 0.33 that sets the pair's gap
        lam = np.array([0.5 + 0.01j, 0.5 - 0.01j, 0.72, 0.73, 0.74, 0.75, 0.33,
                        -0.3, -0.4, -0.5, -0.6, -0.7])
        rng = np.random.default_rng(11)
        s = np.eye(lam.size) + 0.1 * rng.standard_normal((lam.size, lam.size))
        mat = s @ np.diag(lam) @ np.linalg.inv(s)
        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), lambda j: mat)
        _, is_pair, gap = grid.probe(mat, lam[:2] + 0.1, 1e-6)
        assert is_pair and abs(gap - 0.17) < 1e-10
        assert grid.probe_counts == {"near": 0, "full": 1}

    def test_real_matrix_with_pair_split_at_solved_disc_edge(self):
        # a real matrix: its 6th and 7th modes nearest the real shift 0.5
        # are one conjugate pair, so the solve keeps one half of it, and the
        # other lies on the solved disc's edge
        lam = np.array([0.5 + 0.01j, 0.5 - 0.01j, 0.53, 0.46, 0.55, 0.5 + 0.08j, 0.5 - 0.08j,
                        -0.3, -0.4, -0.5, -0.6, -0.7, 0.9, 0.95])
        blocks = np.zeros((lam.size, lam.size))
        for i in range(lam.size):
            blocks[i, i] = lam[i].real
            if lam[i].imag > 0:
                blocks[i, i + 1], blocks[i + 1, i] = lam[i].imag, -lam[i].imag
        rng = np.random.default_rng(5)
        s = np.eye(lam.size) + 0.1 * rng.standard_normal((lam.size, lam.size))
        mat = s @ blocks @ np.linalg.inv(s)
        guess = lam[:2] + 1e-3 * (rng.random(2) + 1j * rng.random(2))
        sigma = float(np.mean(guess).real)
        near, radius = _near_solve(mat, sigma)
        assert near.size == PROBE_MODES
        assert abs(radius - abs(lam[5] - sigma)) <= 1e-10
        assert np.sum(np.abs(near - lam[5]) <= 1e-10) + np.sum(np.abs(near - lam[6]) <= 1e-10) == 1

        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), lambda j: mat)
        pair, is_pair, gap = grid.probe(mat, guess, 1e-6)
        assert grid.probe_counts == {"near": 1, "full": 0}
        want_pair, want_is_pair, want_gap = _pair_probe(np.linalg.eigvals(mat), guess, 1e-6)
        assert is_pair and want_is_pair
        assert abs(gap - want_gap) <= 1e-10
        assert np.max(np.abs(pair - want_pair)) <= 1e-10
        assert pair[0] == np.conj(pair[1])  # real arithmetic: exactly conjugate

    def test_bisection_and_fit_are_deterministic(self, chain_grid):
        def run():
            grid = SweepGrid("jxxx", np.linspace(0.0, 0.1, 11), chain_grid)
            track = track_bands(sweep_spectrum(grid), select="top_re_decile")
            records = locate_eps(grid, track, resolution=1e-6, max_eps=2)
            fits = [fit_sqrt_exponent(grid, rec, split_tol(track.bands[0])) for rec in records]
            assert grid.probe_counts["near"] > 0
            return records, fits

        records, fits = run()
        assert len(records) == 2
        # an unrelated ARPACK solve moves ARPACK's own random state
        eigs(random_family(n=30)(0.0), k=3, return_eigenvectors=False)
        again, fits_again = run()
        assert again == records
        for a, b in zip(fits, fits_again):
            assert (a.exponent, a.r2) == (b.exponent, b.r2)
            assert np.array_equal(a.deltas, b.deltas)
            assert np.array_equal(a.im_values, b.im_values)


class TestNearSolve:
    """The shift-invert Arnoldi solve of the probes against ARPACK and
    against full ``eigvals``."""

    @pytest.mark.parametrize("real", [False, True])
    def test_matches_arpack_on_fig4_probes(self, real):
        from resetchannel.config import preset_config
        from resetchannel.runner import spectral_matrix_factory

        build = spectral_matrix_factory(preset_config("fig4"), "jxxx", real=real)
        # the eight probes of TestProbe.check_fig4_ep_grid
        for j_star, lam_star in ((0.0025181274414062494, 0.52380340422807348),
                                 (0.0034303588867187502, 0.46350063105477501)):
            for d in (-1e-5, 3.7e-6, 1.5e-5, 6e-5):
                mat = build(j_star + d)
                sigma = lam_star if real else complex(lam_star)
                lam, radius = _near_solve(mat, sigma)
                v0 = np.random.default_rng(0).standard_normal((2, mat.shape[0]))
                v0 = v0[0] if real else v0[0] + 1j * v0[1]
                want = eigs(mat, k=PROBE_MODES, sigma=sigma, v0=v0, return_eigenvectors=False)
                if real:
                    # a conjugate pair split at the disc's edge may keep
                    # either half: compare Re + i|Im|
                    lam, want = lam.real + 1j * np.abs(lam.imag), want.real + 1j * np.abs(want.imag)
                assert lam.size == PROBE_MODES
                assert max(np.min(np.abs(want - x)) for x in lam) <= 1e-10
                assert max(np.min(np.abs(lam - x)) for x in want) <= 1e-10
                assert abs(radius - np.max(np.abs(want - sigma))) <= 1e-10

    @pytest.mark.parametrize("real", [False, True])
    def test_small_matrix_gives_exact_eigenvalues(self, real):
        # n < KRYLOV_MAX: the Krylov space fills the whole space, which is
        # invariant, so the Ritz values are the eigenvalues nearest sigma
        n = 24
        assert n < KRYLOV_MAX
        mat = random_family(n=n)(0.3)
        mat = mat.real if real else mat
        sigma = 0.1 if real else 0.1 + 0.05j
        lam, radius = _near_solve(mat, sigma)
        full = np.linalg.eigvals(mat)
        want = full[np.argsort(np.abs(full - sigma))[:PROBE_MODES]]
        if real:  # either half of a pair at the disc's edge
            lam, want = lam.real + 1j * np.abs(lam.imag), want.real + 1j * np.abs(want.imag)
        assert lam.size == PROBE_MODES
        assert max(np.min(np.abs(want - x)) for x in lam) <= 1e-12
        assert abs(radius - np.max(np.abs(want - sigma))) <= 1e-12

    def test_singular_shift_falls_back_to_full_solve(self):
        # the shift is an eigenvalue, so mat - sigma cannot be inverted
        lam = np.linspace(-0.9, 0.9, PROBE_MODES + 6)
        mat = np.diag(lam)
        guess = np.array([lam[4] + 0.01j, lam[4] - 0.01j])
        assert _near_solve(mat, lam[4]) is None
        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), lambda j: mat)
        pair, is_pair, gap = grid.probe(mat, guess, 1e-6)
        assert grid.probe_counts == {"near": 0, "full": 1}
        want_pair, want_is_pair, want_gap = _pair_probe(np.linalg.eigvals(mat), guess, 1e-6)
        assert np.array_equal(pair, want_pair)
        assert (is_pair, gap) == (want_is_pair, want_gap)

    def test_unconverged_solve_falls_back_to_full_solve(self, monkeypatch):
        build = random_family()
        lam = np.linalg.eigvals(build(0.5))
        guess = lam[np.argsort(np.abs(lam - 0.2))[:2]] + 1e-3
        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), build)
        assert_probe_matches_full_solve(grid, 0.5, guess, 1e-6)
        assert grid.probe_counts == {"near": 1, "full": 0}
        # too few steps for the Ritz values to converge
        monkeypatch.setattr(ep_analysis, "KRYLOV_MAX", PROBE_MODES + 2)
        assert _near_solve(build(0.5), complex(np.mean(guess))) is None
        grid = SweepGrid("j", np.linspace(0.0, 1.0, 3), build)
        assert_probe_matches_full_solve(grid, 0.5, guess, 1e-6)
        assert grid.probe_counts == {"near": 0, "full": 1}


class TestJordan:
    def test_canonical_block(self):
        lam = 0.5
        mat = np.array([[lam, 1.0], [0.0, lam]], dtype=complex)
        chain = jordan_chain(mat, lam, order=2)
        assert np.allclose(np.abs(chain.vectors[0]), [1, 0])
        assert np.linalg.norm((mat - lam * np.eye(2)) @ chain.vectors[1]
                              - chain.vectors[0]) < 1e-10
        assert chain.order == 2

    def test_diagonalizable_matrix_rejects_order_two(self):
        mat = np.diag([0.5, 0.3]).astype(complex)
        with pytest.raises(JordanChainError):
            jordan_chain(mat, 0.5, order=2)

    def test_order_one_reduces_to_plain_powering(self):
        mat = np.diag([0.5, -0.2]).astype(complex)
        chains = generalized_modes(mat)
        coeffs = decompose_generalized(chains, np.array([1.0, 2.0], dtype=complex))
        out = iterate_jordan(chains, coeffs, 7)
        assert np.allclose(out, np.array([0.5 ** 7, 2 * (-0.2) ** 7]))

    def test_canonical_block_matches_cube(self):
        lam = 0.5
        mat = np.array([[lam, 1.0], [0.0, lam]], dtype=complex)
        chain = jordan_chain(mat, lam, order=2)
        v0 = np.array([0.3, 0.7], dtype=complex)
        coeffs = decompose_generalized([chain], v0)
        out = iterate_jordan([chain], coeffs, 3)
        expected = np.linalg.matrix_power(mat, 3) @ v0  # upper entry carries 3 lam^2
        assert np.linalg.norm(out - expected) < 1e-10
        assert abs(np.linalg.matrix_power(mat, 3)[0, 1] - 3 * lam ** 2) < 1e-12

    def test_near_defective_matrix_powering(self):
        eps = 1e-8
        mat = np.array([[0.5, 1.0, 0.0],
                        [0.0, 0.5 + eps, 0.0],
                        [0.0, 0.0, -0.3]], dtype=complex)
        chains = generalized_modes(mat, defect_threshold=1e6)
        orders = sorted(ch.order for ch in chains)
        assert orders == [1, 2]
        v0 = np.array([0.2, 0.5, -0.4], dtype=complex)
        coeffs = decompose_generalized(chains, v0)
        for n in (1, 5, 10):
            out = iterate_jordan(chains, coeffs, n)
            expected = np.linalg.matrix_power(mat, n) @ v0
            assert np.linalg.norm(out - expected) < 1e-6 * np.linalg.norm(expected)

    def test_coefficient_count_validated(self):
        mat = np.diag([0.5, 0.25]).astype(complex)
        chains = generalized_modes(mat)
        with pytest.raises(ValueError, match="coefficient"):
            iterate_jordan(chains, [np.array([1.0, 2.0]), np.array([1.0])], 3)

    def test_incomplete_basis_rejected(self):
        mat = np.diag([0.5, 0.25, -0.1]).astype(complex)
        chains = generalized_modes(mat)[:2]  # drop one mode
        with pytest.raises(ValueError, match="incomplete"):
            decompose_generalized(chains, np.array([1.0, 1.0, 1.0], dtype=complex))
