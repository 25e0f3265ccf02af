"""Experiment runner: assemble channels from a configuration, execute the
enabled analyses, and write deterministic CSV outputs plus a JSON manifest.
"""

from __future__ import annotations

import csv
import json
import platform
import time as _time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import (
    KrausSet,
    SuperoperatorMatrix,
    kraus_from_unitary,
    propagate,
    reversal_form,
    superoperator_matrix,
)
from .config import ExperimentConfig
from .dynamics import (
    OverlapRecord,
    eigen_overlap,
    phase_scan,
    qmi_trajectory,
    scar_candidates,
    scar_overlap_avg,
    write_overlaps_csv,
    write_phase_scan_csv,
    write_trajectory_csv,
)
from .ep_analysis import (
    SweepGrid,
    SweepResult,
    count_complex,
    fit_sqrt_exponent,
    locate_eps,
    split_tolerance,
    sweep_spectrum,
    track_bands,
    write_bands_csv,
    write_complex_count_csv,
    write_eps_csv,
)
from .hamiltonians import (
    AahParams,
    ConstrainedBasis,
    PxpParams,
    XxParams,
    XxxParams,
    build_aah,
    build_pxp,
    build_xx,
    build_xxx,
    hermitian_eigensystem,  # noqa: F401  (not called here; benchmarks/spans.py wraps it)
)
from .spectra import (
    full_spectrum,
    magnitude_histogram,
    sorted_eig,
    write_histogram_csv,
    write_spectrum_csv,
)
from .spin_ops import ChainLayout


def build_hamiltonian(model: str, params: dict, n_sites: int):
    if model == "aah":
        return build_aah(AahParams(**params), n_sites)
    if model == "xxx":
        jxxx = params.get("jxxx", 0.0)
        aah = {k: v for k, v in params.items() if k != "jxxx"}
        return build_xxx(XxxParams(AahParams(**aah), jxxx), n_sites)
    if model == "xx":
        return build_xx(XxParams(**params), n_sites)
    if model == "pxp":
        return build_pxp(PxpParams(**params), n_sites)
    raise ValueError(f"unknown model {model!r}")


def build_channel(config: ExperimentConfig, param_overrides: dict | None = None) -> KrausSet:
    """Kraus set of the configured channel, optionally with some couplings
    replaced (used by sweeps and scans). Without overrides it carries the
    Hamiltonian's eigensystem from its propagator, which the overlap
    analyses read; channels with overrides drop it, so that it does not
    live on through a sweep or a channel iteration."""
    params = dict(config.params)
    if param_overrides:
        params.update(param_overrides)
    layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
    h = build_hamiltonian(config.model, params, layout.n_h)
    prop = propagate(h, config.time)
    kraus = kraus_from_unitary(prop, layout)
    if not param_overrides:
        kraus.hamiltonian_eigensystem = prop.hamiltonian_eigensystem
    return kraus


def analysis_matrix(kraus: KrausSet) -> SuperoperatorMatrix:
    """Reversal-form channel matrix used for all spectral statistics."""
    return reversal_form(superoperator_matrix(kraus))


def spectral_matrix_factory(config: ExperimentConfig, parameter: str):
    def build(value: float) -> np.ndarray:
        return analysis_matrix(build_channel(config, {parameter: value})).mat

    return build


def run_experiment(config: ExperimentConfig, output_dir, n_workers: int = 1) -> dict:
    """Execute every enabled analysis; returns the manifest dictionary.

    CSV outputs are deterministic for a fixed config; the manifest includes
    the config hash, library versions, and runtimes per analysis plus the
    shared stages ``"channel"`` (the configured channel's spectrum) and
    ``"sweep"`` (the spectra of the ``sweep`` grid). ``"health"`` holds the
    configured channel's Kraus completeness residual and its largest
    eigen-residual, when its spectrum is computed.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "name": config.name,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "versions": {
            "resetchannel": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "seed": config.seed,
        "outputs": [],
        "runtimes": {},
        "failures": [],
        "health": {},
    }

    analyses = set(config.analyses)
    spectrum = eigensystem = sweep = None
    if analyses & {"spectrum", "histogram", "overlaps", "scar_overlaps"}:
        started = _time.perf_counter()
        spectrum, eigensystem = _configured_spectrum(
            config, keep_hamiltonian=bool(analyses & {"overlaps", "scar_overlaps"}))
        manifest["runtimes"]["channel"] = round(_time.perf_counter() - started, 3)
        manifest["health"] = {
            "completeness_residual": spectrum.meta["completeness_residual"],
            "max_eigen_residual": max(m.residual for m in spectrum.modes),
        }
    # one sweep of the configured grid feeds every analysis that reads it
    if analyses & {"bands", "complex_count", "anisotropy_compare"}:
        started = _time.perf_counter()
        sweep = _sweep(config, config.sweep_values(), manifest, "sweep", n_workers)
        manifest["runtimes"]["sweep"] = round(_time.perf_counter() - started, 3)

    for analysis in config.analyses:
        started = _time.perf_counter()
        files = _run_one(analysis, config, spectrum, eigensystem, sweep, out, manifest,
                         n_workers)
        manifest["runtimes"][analysis] = round(_time.perf_counter() - started, 3)
        manifest["outputs"].extend(files)

    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _configured_spectrum(config: ExperimentConfig, keep_hamiltonian: bool):
    """Spectrum of the configured channel, plus the eigensystem of its
    Hamiltonian (as its propagator computed it) when ``keep_hamiltonian``."""
    kraus = build_channel(config)
    eigensystem = kraus.hamiltonian_eigensystem if keep_hamiltonian else None
    sop = analysis_matrix(kraus)
    del kraus  # the Hamiltonian's eigenvectors need not outlive the eigensolve's peak
    return full_spectrum(sop), eigensystem


def _sweep(config: ExperimentConfig, values: np.ndarray, manifest: dict, label: str,
           n_workers: int, known: dict[float, np.ndarray] | None = None) -> SweepResult:
    """Eigenvalues of the swept family on ``values``, reusing those ``known``
    from another sweep; failed points are recorded in the manifest under
    ``label``."""
    grid = SweepGrid(config.sweep.parameter, values,
                     spectral_matrix_factory(config, config.sweep.parameter))
    sweep = sweep_spectrum(grid, n_workers, known)
    manifest["failures"].extend(
        {"analysis": label, "point": i, "error": err} for i, err in sweep.failures)
    return sweep


def _run_one(analysis: str, config: ExperimentConfig, spectrum, eigensystem,
             sweep: SweepResult | None, out: Path, manifest: dict,
             n_workers: int) -> list[str]:
    if analysis == "spectrum":
        path = out / "spectrum.csv"
        write_spectrum_csv(spectrum, path)
        return [path.name]

    if analysis == "histogram":
        stats = magnitude_histogram(spectrum, bins=config.histogram_bins,
                                    cluster_window=config.cluster_window)
        path = out / "histogram.csv"
        write_histogram_csv(stats, path)
        return [path.name]

    if analysis == "overlaps":
        return _overlaps(config, spectrum, eigensystem[1], out)

    if analysis == "scar_overlaps":
        return _scar_overlaps(config, spectrum, *eigensystem, out)

    if analysis in ("complex_count", "anisotropy_compare"):
        return _complex_counts(analysis, config, sweep, out)

    if analysis == "bands":
        track = track_bands(sweep, select="top_re_decile")
        path = out / "bands.csv"
        write_bands_csv(track, path)
        return [path.name]

    if analysis == "ep":
        return _ep_pipeline(config, sweep, out, manifest, n_workers)

    if analysis == "qmi":
        records = {}
        for case in config.qmi.cases:
            kraus = build_channel(config, {"jxxx": case.jxxx, "jz": case.jz})
            records[case.name] = qmi_trajectory(kraus, config.qmi.n_k)
        path = out / "qmi.csv"
        write_trajectory_csv(records, path)
        return [path.name]

    if analysis == "phase":
        factory = lambda jz: build_channel(config, {"jz": jz})
        points, failures = phase_scan(factory, config.phase_values(), config.phase.n_k)
        manifest["failures"].extend(
            {"analysis": "phase", "point": i, "error": err} for i, err in failures)
        path = out / "phase_scan.csv"
        write_phase_scan_csv(config.phase.parameter, points, path)
        return [path.name]

    raise ValueError(f"unknown analysis {analysis!r}")


def _overlaps(config: ExperimentConfig, spectrum, vecs: np.ndarray, out: Path) -> list[str]:
    layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
    dim = vecs.shape[1]
    refs = {"ground": 0, "median": dim // 2, "top": dim - 1}
    records = []
    for label, k in refs.items():
        psi = vecs[:, k]
        for i, mode in enumerate(spectrum.modes):
            records.append(OverlapRecord(i, abs(mode.lam),
                                         eigen_overlap(mode, psi, layout), label))
    path = out / "overlaps.csv"
    write_overlaps_csv(records, path)
    return [path.name]


def _scar_overlaps(config: ExperimentConfig, spectrum, vals: np.ndarray, vecs: np.ndarray,
                   out: Path) -> list[str]:
    layout = ChainLayout(config.n_s, config.n_b, constrained=True)
    basis = ConstrainedBasis(layout.n_h)
    scars = scar_candidates(vals, vecs, basis)
    records = [
        OverlapRecord(i, abs(mode.lam), scar_overlap_avg(mode, scars.states, layout),
                      "scar_avg")
        for i, mode in enumerate(spectrum.modes)
    ]
    path = out / "scar_overlaps.csv"
    write_overlaps_csv(records, path)
    return [path.name]


def _complex_counts(analysis: str, config: ExperimentConfig, sweep: SweepResult,
                    out: Path) -> list[str]:
    counts = [count_complex(lam, tol_im=config.tol_im) if lam is not None else -1
              for lam in sweep.eigenvalues]
    iso_count = None
    if analysis == "anisotropy_compare":
        # isotropic reference: the swept coupling set equal to the other one
        # (validation admits only jxx/jyy sweeps of the xx model)
        parameter = config.sweep.parameter
        other = "jyy" if parameter == "jxx" else "jxx"
        iso_value = config.params.get(other, getattr(XxParams(), other))
        on_grid = np.flatnonzero(sweep.grid.values == iso_value)
        if on_grid.size:
            iso_count = counts[on_grid[0]]
        else:
            iso_kraus = build_channel(config, {parameter: iso_value})
            iso_count = count_complex(sorted_eig(analysis_matrix(iso_kraus).mat)[0],
                                      tol_im=config.tol_im)
    path = out / "complex_count.csv"
    write_complex_count_csv(config.sweep.parameter, sweep.grid.values, counts, path, iso_count)
    return [path.name]


def _ep_pipeline(config: ExperimentConfig, shared: SweepResult | None, out: Path,
                 manifest: dict, n_workers: int) -> list[str]:
    ep_cfg = config.ep
    values = np.linspace(ep_cfg.start, ep_cfg.stop, ep_cfg.points)
    # both grids sweep the same family, so values they share are solved once
    known = {} if shared is None else {
        float(v): lam for v, lam in zip(shared.grid.values, shared.eigenvalues)
        if lam is not None}
    sweep = _sweep(config, values, manifest, "ep", n_workers, known)
    track = track_bands(sweep, select="top_re_decile")
    # the fit reuses the bisection's tolerance, so it needs no full solve
    tol_im = split_tolerance(track.bands[0]) if config.tol_im is None else config.tol_im
    records = locate_eps(sweep.grid, track, resolution=ep_cfg.resolution,
                         tol_im=tol_im, max_eps=ep_cfg.max_eps)
    fits = {}
    for rec in records:
        try:
            fit = fit_sqrt_exponent(sweep.grid, rec, tol_im=tol_im)
            rec.exponent, rec.fit_r2, rec.fit_points = fit.exponent, fit.r2, len(fit.deltas)
            fits[rec.j_star] = fit
        except ValueError as exc:
            manifest["failures"].append(
                {"analysis": "ep", "j_star": rec.j_star, "error": str(exc)})
    manifest["ep_probes"] = dict(sweep.grid.probe_counts)
    path = out / "eps.csv"
    write_eps_csv(records, path)
    fit_path = out / "ep_fit_points.csv"
    with open(fit_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j_star", "delta", "im"])
        for j_star, fit in fits.items():
            for delta, im in zip(fit.deltas, fit.im_values):
                writer.writerow([f"{j_star:.17g}", f"{delta:.17g}", f"{im:.17g}"])
    return [path.name, fit_path.name]
