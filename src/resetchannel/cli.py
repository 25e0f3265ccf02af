"""Command-line interface: run experiments, inspect presets, validate
configurations, and emit plot scripts.

Exit codes: 0 success, 1 configuration error, 2 numerical/runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import PRESETS, ConfigError, list_presets, load_config, preset_config
from .plots import emit_plots
from .runner import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resetchannel",
        description="Spectra and information dynamics of reset-driven Floquet channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    running = argparse.ArgumentParser(add_help=False)  # the options of run and preset
    running.add_argument("--out", default=None, help="output directory (default: runs/<name>)")
    running.add_argument("--threads", type=int, default=1,
                         help="worker threads for sweeps (default: 1)")

    p_run = sub.add_parser("run", parents=[running], help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to a JSON configuration")

    p_preset = sub.add_parser("preset", parents=[running], help="run a named preset")
    p_preset.add_argument("name", nargs="?", help=f"preset name ({', '.join(sorted(PRESETS))})")
    p_preset.add_argument("--list", action="store_true", help="list available presets")
    p_preset.add_argument("--override", action="append", default=[],
                          metavar="KEY=VALUE", help="override a config entry (dotted path)")

    p_val = sub.add_parser("validate", help="validate a JSON config")
    p_val.add_argument("config")

    p_plots = sub.add_parser("plots", help="emit gnuplot scripts for experiment outputs")
    p_plots.add_argument("directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "preset" and (args.list or not args.name):
            for name, note in list_presets():
                print(f"{name}: {note}")
            return EXIT_OK

        if args.command in ("run", "preset"):
            config = (load_config(args.config) if args.command == "run"
                      else preset_config(args.name, args.override))
            out = args.out or os.path.join("runs", config.name)
            manifest = run_experiment(config, out, max(1, args.threads))
            print(f"{config.name}: wrote {len(manifest['outputs'])} files to {out}")
            return EXIT_OK

        if args.command == "validate":
            config = load_config(args.config)
            print(f"OK: {config.name} ({config.model}, n_s={config.n_s}, n_b={config.n_b}, "
                  f"hash {config.config_hash()[:12]})")
            return EXIT_OK

        if args.command == "plots":
            written = emit_plots(args.directory)
            print("wrote " + ", ".join(written))
            return EXIT_OK

        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
