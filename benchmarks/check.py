"""Output check behind the benchmark's failure count.

Every run must finish with an empty ``manifest["failures"]`` and keep the
seed-independent invariants: the reference EP count, even complex counts
(conjugate closure), and an all-real spectrum wherever the reference
spectrum is all real. A run whose config equals the one the reference was
made from (every seed-0 run, and grid-free presets at any seed) must also
match the stored reference CSVs:

- numeric columns within 1e-10, relative to max(1, |reference|);
- integer and text columns exactly;
- EP locations (``j_star`` and the bracket ends) within the configured
  bracket resolution, fit exponents and r^2 within 1e-6;
- eigen-residual columns as a bound, not a value.

The references were written by ``make_reference.py`` with BLAS pinned to one
thread and ``n_workers=1``, the settings the benchmark runs under.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
INDEX_FILE = "index.json"

NUMERIC_RTOL = 1e-10
FIT_ATOL = 1e-6
RESIDUAL_BOUND = 1e-10
INT_COLUMNS = {"index", "is_real", "is_outlier", "mode", "band", "n_k",
               "n_complex", "n_complex_isotropic", "converged"}
TEXT_COLUMNS = {"case", "reference"}
RESIDUAL_COLUMNS = {"residual"}
FIT_COLUMNS = {("eps.csv", "exponent"), ("eps.csv", "r2")}
EP_LOCATION_COLUMNS = {("eps.csv", "j_star"), ("eps.csv", "bracket_lo"),
                       ("eps.csv", "bracket_hi"), ("ep_fit_points.csv", "j_star")}


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def load_index() -> dict:
    with open(REFERENCE_DIR / INDEX_FILE) as fh:
        return json.load(fh)


def _cell_problem(fname: str, column: str, got: str, ref: str, config) -> str | None:
    if column in TEXT_COLUMNS or column in INT_COLUMNS or "" in (got, ref):
        return None if got == ref else f"{got!r} != {ref!r}"
    g, r = float(got), float(ref)
    if column in RESIDUAL_COLUMNS:
        return None if g <= RESIDUAL_BOUND else f"residual {g:.3g} > {RESIDUAL_BOUND:g}"
    if (fname, column) in EP_LOCATION_COLUMNS:
        tol = config.ep.resolution
    elif (fname, column) in FIT_COLUMNS:
        tol = FIT_ATOL
    else:
        tol = NUMERIC_RTOL * max(1.0, abs(r))
    return None if abs(g - r) <= tol else f"{got} differs from {ref} by more than {tol:.3g}"


def compare_csv(got_path: Path, ref_path: Path, config) -> list[str]:
    """Problems found comparing one output CSV with its reference."""
    fname = got_path.name
    got, ref = _read(got_path), _read(ref_path)
    if got[:1] != ref[:1]:
        return [f"{fname}: header {got[:1]} != {ref[:1]}"]
    if len(got) != len(ref):
        return [f"{fname}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0]
    problems = []
    for row, (g_row, r_row) in enumerate(zip(got[1:], ref[1:]), start=1):
        if len(g_row) != len(r_row):
            problems.append(f"{fname} row {row}: {len(g_row)} cells, reference has {len(r_row)}")
            continue
        for column, g, r in zip(header, g_row, r_row):
            msg = _cell_problem(fname, column, g, r, config)
            if msg:
                problems.append(f"{fname} row {row} {column}: {msg}")
    return problems


def _column(rows: list[list[str]], name: str) -> list[str]:
    if not rows or name not in rows[0]:
        return []
    k = rows[0].index(name)
    return [r[k] for r in rows[1:]]


def invariant_problems(out_dir: Path, manifest: dict, ref: dict) -> list[str]:
    """Seed-independent checks of one run's outputs."""
    problems = [f"failure recorded: {f}" for f in manifest["failures"]]
    missing = sorted(set(ref["files"]) - set(manifest["outputs"]))
    if missing:
        return problems + [f"missing outputs {missing}"]
    for name in ref["files"]:
        rows = _read(out_dir / name)
        for column in ("n_complex", "n_complex_isotropic"):
            odd = [c for c in _column(rows, column) if int(c) % 2]
            if odd:
                problems.append(f"{name}: odd {column} {odd}")
        if name == "eps.csv" and len(rows) - 1 != ref["eps_count"]:
            problems.append(f"eps.csv: {len(rows) - 1} EPs, reference has {ref['eps_count']}")
        if name == "spectrum.csv" and ref["spectrum_real"]:
            if _column(rows, "is_real").count("0"):
                problems.append("spectrum.csv: complex eigenvalues where the reference is real")
        for row in rows[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{name}: non-finite value {cell!r}")
                    break
    return problems


def check_run(label: str, config, out_dir: Path, manifest: dict, index: dict) -> list[str]:
    """All problems with one preset run's outputs; empty when it passes."""
    ref = index[label]
    problems = invariant_problems(out_dir, manifest, ref)
    if ref["config_hash"] == config.config_hash():
        for name in ref["files"]:
            if (out_dir / name).exists():
                problems += compare_csv(out_dir / name, REFERENCE_DIR / label / name, config)
    return problems


def reference_entry(config, out_dir: Path, manifest: dict) -> dict:
    """Index entry describing the outputs of a reference run."""
    files = sorted(f for f in manifest["outputs"] if f.endswith(".csv"))
    eps = _read(out_dir / "eps.csv") if "eps.csv" in files else [[]]
    spectrum = _read(out_dir / "spectrum.csv") if "spectrum.csv" in files else []
    return {
        "config_hash": config.config_hash(),
        "files": files,
        "eps_count": len(eps) - 1,
        "spectrum_real": bool(spectrum) and "0" not in _column(spectrum, "is_real"),
    }
