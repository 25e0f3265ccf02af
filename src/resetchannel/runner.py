"""Experiment runner: assemble channels from a configuration, execute the
enabled analyses, and write deterministic CSV outputs plus a JSON manifest.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
import platform
import time as _time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    KrausSet,
    SuperoperatorMatrix,
    joint_index_table,
    kraus_from_unitary,
    propagate,
    real_reversal_form,
    reversal_form,
    superoperator_matrix,
)
from .config import ANALYSES, BLAS_THREAD_VARS, MODEL_PARAMS, ExperimentConfig
from .dynamics import (
    OVERLAP_MIN_WEIGHT,
    bath_vacuum_weight,
    eigen_overlap,
    phase_scan,
    qmi_trajectory,
    scar_candidates,
    scar_overlap_avg,
)
from .ep_analysis import (
    SweepGrid,
    SweepResult,
    count_complex,
    fit_sqrt_exponent,
    locate_eps,
    sweep_spectrum,
    track_bands,
)
from .hamiltonians import (
    build_aah,
    build_pxp,
    build_xx,
    build_xxx,
    drop_zero_imag,
    hermitian_eigensystem,  # noqa: F401  (not called here; benchmarks/spans.py wraps it)
)
from .spectra import (
    full_spectrum,
    magnitude_histogram,
    outlier_threshold,
    sorted_eigvals,
)
from .spin_ops import ChainLayout, ConstrainedBasis


def build_hamiltonian(model: str, params: dict, n_sites: int):
    # looked up per call, in this module, where benchmarks/spans.py wraps them
    builders = {"aah": build_aah, "xxx": build_xxx, "xx": build_xx, "pxp": build_pxp}
    return builders[model](MODEL_PARAMS[model](**params), n_sites)


def build_channel(config: ExperimentConfig, param_overrides: dict | None = None,
                  real: bool = False) -> KrausSet:
    """Kraus set of the configured channel, optionally with some couplings
    replaced (used by sweeps and scans), carrying the propagator it was cut
    from.

    ``real`` marks a caller that accepts a channel exact to rounding rather
    than bit for bit (the EP pipeline and the iterated channels): an H whose
    imaginary part is exactly zero then goes to :func:`propagate` as its
    real part, which is solved in real arithmetic. No other function
    chooses the arithmetic of an H solve. Every build passes the states the
    Kraus extraction reads, row 0 of :func:`joint_index_table`, as the
    reach (see :func:`propagate`): a real solve narrows to the blocks of H
    the bath reset reaches, and a complex one ignores it."""
    params = dict(config.params)
    if param_overrides:
        params.update(param_overrides)
    layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
    h = build_hamiltonian(config.model, params, layout.n_h)
    prop = propagate(drop_zero_imag(h) if real else h, config.time, joint_index_table(layout)[0])
    return kraus_from_unitary(prop, layout)


def analysis_matrix(kraus: KrausSet) -> SuperoperatorMatrix:
    """Reversal-form channel matrix used for all spectral statistics."""
    return reversal_form(superoperator_matrix(kraus))


def spectral_matrix_factory(config: ExperimentConfig, parameter: str, real: bool = False):
    """Analysis matrix as a function of ``parameter``. With ``real`` (the EP
    grid and its probes) it is the :func:`real_reversal_form` of a channel built with
    ``real=True`` (see :func:`build_channel`): a real matrix similar to the
    analysis matrix, in another basis."""

    def build(value: float) -> np.ndarray:
        if real:
            return real_reversal_form(build_channel(config, {parameter: value}, real=True))
        return analysis_matrix(build_channel(config, {parameter: value})).mat

    return build


# where a numpy wheel bundles its 64-bit-integer OpenBLAS
NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def _blas_runtime(libs: Path) -> dict:
    """The thread count and configuration string (whose kernel is the one
    picked on this machine, not the build's) of the OpenBLAS
    ``lib<prefix>64_*`` in ``libs``, read from the loaded library; None for
    both, with the reason under ``"unread"``, where there is none, it does
    not load or it lacks the symbols."""
    found = sorted(libs.glob("lib*openblas64_*"))
    record = {"library": found[0].name if found else None, "threads": None,
              "config": None, "unread": None}
    try:
        if not found:
            raise OSError(f"no lib*openblas64_* in {libs}")
        lib = ctypes.CDLL(str(found[0]))
        prefix = found[0].name[len("lib"):found[0].name.index("64_")]
        threads, config = (getattr(lib, f"{prefix}_{name}64_")
                           for name in ("get_num_threads", "get_config"))
    except (OSError, AttributeError) as exc:
        record["unread"] = f"{type(exc).__name__}: {exc}"
        return record
    threads.argtypes = config.argtypes = []
    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
    record.update(threads=threads(), config=config().decode())
    return record


def _environment(n_workers: int) -> dict:
    """The settings that decide whether a run reproduces bit for bit: the
    BLAS that numpy links, as built and as it runs (:func:`_blas_runtime`),
    the BLAS thread variables as set (None when unset) and the sweep worker
    count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": _blas_runtime(NUMPY_LIBS)},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "n_workers": n_workers,
    }


def run_experiment(config: ExperimentConfig, output_dir, n_workers: int = 1) -> dict:
    """Execute every enabled analysis; returns the manifest dictionary.

    CSV outputs are deterministic for a fixed config; the manifest includes
    the config hash, library versions, and runtimes per analysis plus the
    shared stages ``"channel"`` (the configured channel's spectrum) and
    ``"sweep"`` (the spectra of the ``sweep`` grid). ``"health"`` holds the
    worst Kraus completeness residual and propagator unitarity deviation
    over the configured channel, when its spectrum is computed, and the
    channels that ``qmi`` and ``phase`` iterate; the configured channel's
    largest eigen-residual; the largest band-matching step of ``bands``
    and ``ep``, and the bracket widths, convergence and fit r^2 of ``ep``.
    ``"environment"`` holds the reproducibility settings and ``"warnings"``
    every warning the run raised, whatever the caller's warning filters, as
    ``"Category: message"``; they are issued again after the run, under
    those filters. Numpy's BLAS runs the analyses at the
    thread count it loaded with, whatever ``n_workers``: the one under
    ``"environment"``. A run started with none of ``BLAS_THREAD_VARS`` set
    warns, as its outputs may then depend on the core count; the CLI sets
    them to one before numpy loads.
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
            "python": platform.python_version(),
        },
        "environment": _environment(n_workers),
        "outputs": [],
        "runtimes": {},
        "failures": [],
        "health": {},
    }
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if not any(var in os.environ for var in BLAS_THREAD_VARS):
                warnings.warn(f"BLAS threads not pinned: set one of {', '.join(BLAS_THREAD_VARS)} "
                              "before numpy loads, or outputs may depend on the core count",
                              RuntimeWarning)
            _run_analyses(config, out, manifest, n_workers)
    finally:
        # also when the run fails: the manifest is written, the warnings issued again
        manifest["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return manifest


@contextmanager
def _stage(manifest: dict, name: str):
    """Time a stage into the manifest's runtimes; one that raises goes to its failures."""
    started = _time.perf_counter()
    try:
        yield
    except Exception as exc:
        manifest["failures"].append({"analysis": name, "error": f"{type(exc).__name__}: {exc}"})
        raise
    manifest["runtimes"][name] = round(_time.perf_counter() - started, 3)


def _run_analyses(config: ExperimentConfig, out: Path, manifest: dict, n_workers: int) -> None:
    reads = {ANALYSES[a] for a in config.analyses}
    spectrum = kraus = sweep = None
    if None in reads:
        with _stage(manifest, "channel"):
            spectrum, kraus = _configured_spectrum(
                config, manifest,
                keep_kraus=not {"overlaps", "scar_overlaps"}.isdisjoint(config.analyses))
        manifest["health"]["max_eigen_residual"] = float(np.max(spectrum.residuals))
    # one sweep of the configured grid feeds every analysis that reads it; it
    # keeps the complex path, whose bits the bands and complex counts pin
    if "sweep" in reads:
        with _stage(manifest, "sweep"):
            sweep = _sweep(config, config.sweep_values(), manifest, "sweep", n_workers,
                           spectral_matrix_factory(config, config.sweep.parameter))

    for analysis in config.analyses:
        with _stage(manifest, analysis):
            manifest["outputs"] += _run_one(analysis, config, spectrum, kraus, sweep, out,
                                            manifest, n_workers)


def _record_health(manifest: dict, kraus: KrausSet) -> None:
    """Keep in the manifest's health the worst Kraus completeness residual
    and propagator unitarity deviation over every channel build recorded."""
    health = manifest["health"]
    for key, value in (("completeness_residual", kraus.completeness_residual()),
                       ("unitarity_deviation", kraus.propagator.unitarity_deviation)):
        health[key] = max(health.get(key, 0.0), value)


def _configured_spectrum(config: ExperimentConfig, manifest: dict, keep_kraus: bool):
    """Spectrum of the configured channel, whose health is recorded, and,
    when ``keep_kraus``, its Kraus set (None otherwise)."""
    kraus = build_channel(config)
    _record_health(manifest, kraus)
    sop = analysis_matrix(kraus)
    if not keep_kraus:
        kraus = None  # its propagator need not outlive the eigensolve's peak
    return full_spectrum(sop), kraus


def _sweep(config: ExperimentConfig, values: np.ndarray, manifest: dict, label: str,
           n_workers: int, build) -> SweepResult:
    """Eigenvalues of the matrices ``build`` makes on ``values``; a failed
    point is recorded in the manifest under ``label``, and has no CSV row."""
    sweep = sweep_spectrum(SweepGrid(config.sweep.parameter, values, build), n_workers)
    manifest["failures"].extend(
        {"analysis": label, "point": i, "error": err} for i, err in sweep.failures)
    return sweep


def _write_csv(out: Path, name: str, header: list[str], rows) -> list[str]:
    """Write ``rows`` under ``header`` to ``out / name``; returns ``[name]``.
    Every output CSV follows this one rule: reals as ``.17g`` (they parse
    back bit for bit), None as an empty cell, everything else as is."""
    with open(out / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in rows)
    return [name]


def _run_one(analysis: str, config: ExperimentConfig, spectrum, kraus: KrausSet | None,
             sweep: SweepResult | None, out: Path, manifest: dict,
             n_workers: int) -> list[str]:
    if analysis == "spectrum":
        thr = outlier_threshold(spectrum.bath_dim)
        tol = spectrum.real_tolerance()
        # builtin abs(complex) per value: np.abs may differ in the last bit
        rows = [[i, lam.real, lam.imag, abs(lam), residual, int(abs(lam.imag) <= tol),
                 int(abs(lam) > thr)]
                for i, (lam, residual) in enumerate(zip(spectrum.eigenvalues.tolist(),
                                                        spectrum.residuals.tolist()))]
        return _write_csv(out, "spectrum.csv",
                          ["index", "re", "im", "abs", "residual", "is_real", "is_outlier"], rows)

    if analysis == "histogram":
        stats = magnitude_histogram(spectrum, bins=config.histogram_bins)
        edges = stats.bin_edges
        rows = zip(edges[:-1], edges[1:], stats.densities,
                   stats.reference.pdf(0.5 * (edges[:-1] + edges[1:])))
        return _write_csv(out, "histogram.csv",
                          ["bin_left", "bin_right", "density", "reference_density"], rows)

    if analysis == "overlaps":
        # lowest, median and highest energy among the eigenstates the reset reaches
        vecs = kraus.propagator.vecs
        reached = np.flatnonzero(bath_vacuum_weight(vecs, kraus.layout) >= OVERLAP_MIN_WEIGHT)
        refs = {"ground": reached[0], "median": reached[len(reached) // 2], "top": reached[-1]}
        return _overlaps("overlaps.csv", spectrum, {
            label: eigen_overlap(spectrum.right, vecs[:, k], kraus.layout)
            for label, k in refs.items()}, out)

    if analysis == "scar_overlaps":
        prop = kraus.propagator
        scars = scar_candidates(prop.vals, prop.vecs, ConstrainedBasis(kraus.layout.n_h))
        return _overlaps("scar_overlaps.csv", spectrum, {
            "scar_avg": scar_overlap_avg(spectrum.right, scars.states, kraus.layout)}, out)

    if analysis in ("complex_count", "anisotropy_compare"):
        return _complex_counts(analysis, config, sweep, out)

    if analysis == "bands":
        track = track_bands(sweep, select="top_re_decile")
        manifest["health"]["max_band_step"] = float(np.max(track.step_distances))
        rows = [[value, b, lam.real, lam.imag]
                for value, lams in zip(track.grid_values, track.bands)
                for b, lam in enumerate(lams)]
        return _write_csv(out, "bands.csv", [track.parameter, "band", "re", "im"], rows)

    if analysis == "ep":
        return _ep_pipeline(config, out, manifest, n_workers)

    if analysis == "qmi":
        rows = []
        for case in config.qmi.cases:
            kraus = _iterated_channel(config, {"jxxx": case.jxxx, "jz": case.jz}, manifest)
            rows += [[case.name, r.n_k, r.qmi, r.imbalance, r.sz, r.purity_a, r.purity_s,
                      r.purity_as] for r in qmi_trajectory(kraus, config.qmi.n_k)]
        return _write_csv(out, "qmi.csv", ["case", "n_k", "qmi", "imbalance", "sz", "purity_a",
                                           "purity_s", "purity_as"], rows)

    if analysis == "phase":
        factory = lambda jz: _iterated_channel(config, {"jz": jz}, manifest)
        points, failures = phase_scan(factory, config.phase_values(), config.phase.n_k)
        manifest["failures"].extend(
            {"analysis": "phase", "point": i, "error": err} for i, err in failures)
        return _write_csv(out, "phase_scan.csv",
                          [config.phase.parameter, "qmi", "imbalance_plus_one"],
                          [[p.value, p.qmi, p.imbalance_plus_one] for p in points])


def _iterated_channel(config: ExperimentConfig, overrides: dict, manifest: dict) -> KrausSet:
    """A channel that the QMI and phase analyses iterate, built from the real
    solve (its outputs are checked within tolerances, not bit for bit), whose
    health is recorded."""
    kraus = build_channel(config, overrides, real=True)
    _record_health(manifest, kraus)
    return kraus


def _overlaps(name: str, spectrum, xis: dict, out: Path) -> list[str]:
    """One row per reference label of ``xis`` and channel mode: the mode's
    |lambda| and its overlap from that label's xi array."""
    # builtin abs(complex) per value: np.abs may differ in the last bit
    mags = [abs(lam) for lam in spectrum.eigenvalues.tolist()]
    rows = [[i, mag, xi, label] for label, xi_k in xis.items()
            for i, (mag, xi) in enumerate(zip(mags, xi_k.tolist()))]
    return _write_csv(out, name, ["mode", "abs_lambda", "xi", "reference"], rows)


def _complex_counts(analysis: str, config: ExperimentConfig, sweep: SweepResult,
                    out: Path) -> list[str]:
    counts = [count_complex(lam) for lam in sweep.eigenvalues]
    header = [config.sweep.parameter, "n_complex"]
    rows = [[v, c] for v, c in zip(sweep.values, counts)]
    if analysis == "anisotropy_compare":
        # isotropic reference: the swept coupling set equal to the other one
        # (validation admits only jxx/jyy sweeps of the xx model)
        other = "jyy" if config.sweep.parameter == "jxx" else "jxx"
        iso_value = getattr(MODEL_PARAMS[config.model](**config.params), other)
        on_grid = np.flatnonzero(sweep.values == iso_value)
        if on_grid.size:
            iso_count = counts[on_grid[0]]
        else:
            iso_count = count_complex(sorted_eigvals(sweep.grid.build(iso_value)))
        header.append("n_complex_isotropic")
        rows = [row + [iso_count] for row in rows]
    return _write_csv(out, "complex_count.csv", header, rows)


def _ep_pipeline(config: ExperimentConfig, out: Path, manifest: dict,
                 n_workers: int) -> list[str]:
    ep_cfg = config.ep
    values = np.linspace(ep_cfg.start, ep_cfg.stop, ep_cfg.points)
    # the grid, the bisection and the sqrt fit all solve the real
    # Hermitian-basis form; their outputs are checked within tolerances
    sweep = _sweep(config, values, manifest, "ep", n_workers,
                   spectral_matrix_factory(config, config.sweep.parameter, real=True))
    track = track_bands(sweep, select="top_re_decile")
    records = locate_eps(sweep.grid, track, resolution=ep_cfg.resolution,
                         max_eps=ep_cfg.max_eps)
    fits = []  # (j*, fit) in record order: two EPs may end in one bracket, at one j*
    for rec in records:
        try:
            fit = fit_sqrt_exponent(sweep.grid, rec, track.split_tolerance)
            rec.exponent, rec.fit_r2 = fit.exponent, fit.r2
            fits.append((rec.j_star, fit))
        except ValueError as exc:
            manifest["failures"].append({"analysis": "ep", "j_star": rec.j_star,
                                         "error": f"{type(exc).__name__}: {exc}"})
    manifest["ep_probes"] = dict(sweep.grid.probe_counts)
    manifest["health"].update({
        "ep_max_band_step": float(np.max(track.step_distances)),
        "ep_max_bracket_width": max((r.bracket[1] - r.bracket[0] for r in records),
                                    default=None),
        "ep_converged": {"converged": sum(r.converged for r in records),
                         "total": len(records)},
        "ep_min_fit_r2": min((fit.r2 for _, fit in fits), default=None),
    })
    # a failed fit leaves its exponent and r2 cells empty
    eps = [[r.j_star, r.lambda_star.real, r.exponent, r.fit_r2, *r.bracket, int(r.converged)]
           for r in records]
    fit_points = [[j_star, delta, im] for j_star, fit in fits
                  for delta, im in zip(fit.deltas, fit.im_values)]
    return (_write_csv(out, "eps.csv", ["j_star", "re_lambda_star", "exponent", "r2",
                                        "bracket_lo", "bracket_hi", "converged"], eps)
            + _write_csv(out, "ep_fit_points.csv", ["j_star", "delta", "im"], fit_points))
