"""Command-line front end.

Subcommands::

    matprod analytic --field real --d 2 --ensemble ginibre
    matprod run {lyapunov,stability,fluctuations,realprob,verify} --config FILE
                [--threads N] [--out PATH] [--format {jsonl,csv}] [--emit-plotdata]

The experiments module's runners return the records; this front end only
parses the config, numbers the records, writes them with a manifest, prints
them and chooses the exit code.

Exit codes: 0 success, 2 config error, 3 numeric failure (including failed
verification and I/O errors). The default thread count can be set with the
MATPROD_THREADS environment variable; --threads overrides everything.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .configtext import ConfigError, config_to_text, parse_config
from .ensembles import FIELDS, EnsembleSpec, parse_ensemble
from .experiments import (
    ExperimentConfig,
    run_equality,
    run_fluctuations,
    run_lyapunov,
    run_real_probability,
    run_verify,
    verify_passed,
)
from .exponents import analytic_spectrum
from .linalg import NumericError, SingularInputError
from .recordio import FORMATS, ResultRecord, RunManifest, manifest_timestamp, write_records

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matprod", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"matprod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="print the closed-form exponent spectrum")
    p_an.add_argument("--field", required=True, choices=FIELDS)
    p_an.add_argument("--d", required=True, type=int)
    p_an.add_argument("--ensemble", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("experiment", choices=tuple(_EXPERIMENTS))
    p_run.add_argument("--config", required=True, help="key=value config file")
    p_run.add_argument("--threads", type=int, default=None)
    p_run.add_argument("--out", default=None, help="override the config's output path")
    p_run.add_argument("--format", default=None, choices=FORMATS)
    p_run.add_argument(
        "--emit-plotdata",
        action="store_true",
        help="also write two-column curve files next to the output",
    )
    return parser


def _fmt10(x: float) -> str:
    return format(float(x), ".10g")


def cmd_analytic(field: str, d: int, ensemble: str) -> int:
    try:
        spec = EnsembleSpec(field, d, parse_ensemble(ensemble))
        spectrum = analytic_spectrum(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"# analytic spectrum for {spec.tag()}")
    print(f"{'i':>3}  {'lambda':>18}  {'variance':>18}")
    for i in range(d):
        print(f"{i + 1:>3}  {_fmt10(spectrum.lyapunov[i]):>18}  {_fmt10(spectrum.variance[i]):>18}")
    return EXIT_OK


# experiment -> (config -> records, (stat, file suffix) of its --emit-plotdata curve)
_EXPERIMENTS = {
    "lyapunov": (run_lyapunov, None),
    "stability": (run_equality, ("maxgap", ".gapcurve.txt")),
    "fluctuations": (run_fluctuations, None),
    "realprob": (run_real_probability, ("p_hat", ".phat.txt")),
    "verify": (run_verify, None),
}


def _print_records(records: Sequence[ResultRecord]) -> None:
    print(f"{'experiment':<40} {'n':>8} {'stat':<28} {'value':>22} {'se':>12}")
    for rec in records:
        for name, stat in rec.stats.items():
            se = "" if stat.se is None else format(stat.se, ".3g")
            print(f"{rec.experiment:<40} {rec.n:>8} {name:<28} {format(stat.value, '.10g'):>22} {se:>12}")


def _emit_plotdata(experiment: str, records: Sequence[ResultRecord], out_path: str) -> list[str]:
    """Two-column (n, value) curve files for the per-n experiments."""
    curve = _EXPERIMENTS[experiment][1]
    if curve is None:
        return []
    stat_name, suffix = curve
    path = out_path + suffix
    rows = [(rec.n, rec.stats[stat_name].value) for rec in records if stat_name in rec.stats]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for n, value in sorted(rows):
            fh.write(f"{n} {format(value, '.17g')}\n")
    return [path]


def cmd_run(experiment: str, config: ExperimentConfig, emit_plotdata: bool = False) -> int:
    if emit_plotdata and config.out is None:
        raise ConfigError("--emit-plotdata needs an output path (out=... or --out)")
    records = [replace(rec, seq=i) for i, rec in enumerate(_EXPERIMENTS[experiment][0](config), start=1)]

    if config.out is not None:
        manifest = RunManifest(
            tool=f"matprod {__version__}",
            seed=config.seed,
            config_text=config_to_text(config),
            started_utc=manifest_timestamp(),
        )
        write_records(records, config.format, config.out, manifest)
        print(f"wrote {len(records)} record(s) to {config.out}", file=sys.stderr)
        if emit_plotdata:
            for path in _emit_plotdata(experiment, records, config.out):
                print(f"wrote plot data to {path}", file=sys.stderr)

    _print_records(records)
    if not verify_passed(records):
        print("verification FAILED: checks outside their family-wise or own tolerance", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analytic":
        return cmd_analytic(args.field, args.d, args.ensemble)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    env_threads = os.environ.get("MATPROD_THREADS")
    try:
        default_threads = int(env_threads) if env_threads else None
    except ValueError:
        print(f"error: MATPROD_THREADS must be an integer, got {env_threads!r}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = parse_config(text, default_threads=default_threads)
        overrides = {}
        if args.threads is not None:
            overrides["threads"] = args.threads
        if args.out is not None:
            overrides["out"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        if overrides:
            config = replace(config, **overrides)
        return cmd_run(args.experiment, config, emit_plotdata=args.emit_plotdata)
    except (NumericError, SingularInputError, np.linalg.LinAlgError, OSError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # after LinAlgError and SingularInputError, which are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
