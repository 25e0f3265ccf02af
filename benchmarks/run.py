"""Run the resetchannel benchmark from the root of a checkout:

    python3 benchmarks/run.py --workload ep-sweep --seed 0 --seconds 10 --trace 0

``--workload all`` runs every workload, each in its own process. The package
is imported from ``src/`` of the same checkout; BLAS is pinned to one thread
before numpy loads. See benchmarks/README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> str | None:
    """Pin BLAS to one thread and import resetchannel from this checkout;
    returns an error message when the package is not there."""
    # The benchmark measures the single-threaded baseline, whatever the caller's
    # environment says; the set-up probes inherit these settings.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(1, str(ROOT / "src"))
    try:
        import resetchannel
    except ImportError as exc:
        return f"cannot import resetchannel from {ROOT / 'src'}: {exc}"
    if not Path(resetchannel.__file__).resolve().is_relative_to(ROOT / "src"):
        return f"resetchannel was imported from {resetchannel.__file__}, not {ROOT / 'src'}"
    return None


def main() -> int:
    error = prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
