"""Write the seed-0 reference outputs the benchmark checks against:

    python3 benchmarks/make_reference.py

Runs every preset run of every workload at seed 0 under the benchmark's
settings (BLAS pinned to one thread, ``n_workers=1``) and stores its CSVs in
``benchmarks/reference/<label>/`` with an index of config hashes and
invariants. Regenerate only when a change is meant to alter the outputs.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    error = run.prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    import check
    import harness
    import workloads
    from resetchannel.runner import run_experiment

    scratch = run.ROOT / harness.OUT_DIRNAME
    scratch.mkdir(exist_ok=True)
    index = {}
    for name in workloads.WORKLOADS:
        for preset_run, config in workloads.generate(name, 0):
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                manifest = run_experiment(config, tmp, n_workers=harness.N_WORKERS)
                if manifest["failures"]:
                    print(f"{preset_run.label}: failures {manifest['failures']}", file=sys.stderr)
                    return 1
                entry = check.reference_entry(config, Path(tmp), manifest)
                target = check.REFERENCE_DIR / preset_run.label
                shutil.rmtree(target, ignore_errors=True)
                target.mkdir(parents=True)
                for fname in entry["files"]:
                    shutil.copyfile(Path(tmp) / fname, target / fname)
            index[preset_run.label] = entry
            print(f"{preset_run.label}: {entry['files']}")
    with open(check.REFERENCE_DIR / check.INDEX_FILE, "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
