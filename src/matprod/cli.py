"""Command-line front end.

Subcommands::

    matprod analytic --field real --d 2 --ensemble ginibre
    matprod run {lyapunov,stability,fluctuations,realprob,verify} --config FILE
                [--threads N] [--out PATH] [--format {jsonl,csv}] [--emit-plotdata]

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
    _EXP_LYAPUNOV,
    ExperimentConfig,
    family_passed,
    run_equality,
    run_fluctuations,
    run_factorization_checks,
    run_minor_identity,
    run_real_probability,
)
from .exponents import (
    SpreadOverflowError,
    analytic_spectrum,
    lyapunov_qr_stream,
    single_step_estimate,
    supports_analytic_spectrum,
)
from .linalg import NumericError, SingularInputError
from .recordio import FORMATS, ResultRecord, RunManifest, Stat, manifest_timestamp, write_records

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


def _stat_vec(prefix: str, values, se=None, count=None) -> dict[str, Stat]:
    out = {}
    for i, v in enumerate(np.atleast_1d(values), start=1):
        out[f"{prefix}_{i}"] = Stat(
            float(v),
            None if se is None else float(np.atleast_1d(se)[i - 1]),
            count,
        )
    return out


def _record(experiment: str, spec: EnsembleSpec, n: int, replications: int, stats: dict[str, Stat],
            d: Optional[int] = None, field: Optional[str] = None) -> ResultRecord:
    """A record of spec's ensemble; d and field default to spec's. cmd_run numbers the records."""
    return ResultRecord(experiment, d or spec.d, field or spec.field, spec.ensemble_text, n, replications, 0, stats)


def _lyapunov(config: ExperimentConfig) -> list[ResultRecord]:
    spec, mc = config.spec, config.mc_samples
    ref = _stat_vec("ref_lambda", analytic_spectrum(spec).lyapunov) if supports_analytic_spectrum(spec) else {}
    est = single_step_estimate(spec, mc, config.stream().derive(_EXP_LYAPUNOV, 0, 0))
    qr = lyapunov_qr_stream(spec, mc, config.stream().derive(_EXP_LYAPUNOV, 1, 0))
    return [
        _record("lyapunov:single-step", spec, 1, mc, {**_stat_vec("lambda", est.mean, est.se, est.count), **ref}),
        _record("lyapunov:qr-stream", spec, mc, 1,
                {**_stat_vec("lambda", qr.mean, qr.se, mc), **ref, "skipped": Stat(float(qr.skipped))}),
    ]


def _stability(config: ExperimentConfig) -> list[ResultRecord]:
    result = run_equality(config)
    records = []
    for pn in result.per_n:
        stats = {
            **_stat_vec("mean_singular", pn.mean_singular, pn.se_singular, pn.count),
            **_stat_vec("mean_stability", pn.mean_stability, pn.se_stability, pn.count),
        }
        for gap in ("gap_singular_stability", "gap_singular_ref", "gap_stability_ref"):
            stats.update(_stat_vec(gap, getattr(pn, gap).mean, getattr(pn, gap).se))
        stats["maxgap"] = Stat(pn.maxgap_mean, pn.maxgap_se, pn.count)
        stats["maxgap_worst"] = Stat(pn.maxgap_max)
        stats.update(_stat_vec("ref_lambda", result.reference, result.reference_se))
        stats["skipped"] = Stat(float(config.replications - pn.count))
        records.append(_record("stability", result.spec, pn.n, pn.count, stats))
    return records


def _fluctuations(config: ExperimentConfig) -> list[ResultRecord]:
    result = run_fluctuations(config)
    stats: dict[str, Stat] = {}
    for i in range(result.spec.d):
        for j in range(i, result.spec.d):
            ij = f"{i + 1}_{j + 1}"
            stats[f"cov_singular_{ij}"] = Stat(
                float(result.cov_singular[i, j]), float(result.cov_singular_se[i, j]), result.count
            )
            stats[f"cov_stability_{ij}"] = Stat(
                float(result.cov_stability[i, j]), float(result.cov_stability_se[i, j]), result.count
            )
            stats[f"cov_diff_se_{ij}"] = Stat(float(result.cov_diff_se[i, j]))
            stats[f"ref_cov_{ij}"] = Stat(float(result.reference_cov[i, j]))
    stats["skipped"] = Stat(float(result.skipped))
    return [_record("fluctuations", result.spec, result.n, result.count, stats)]


def _realprob(config: ExperimentConfig) -> list[ResultRecord]:
    result = run_real_probability(config)
    return [
        _record("realprob", result.spec, pn.n, result.replications, {
            "p_hat": Stat(pn.p_hat, (pn.p_hat * (1 - pn.p_hat) / pn.trials) ** 0.5, pn.trials),
            "all_real": Stat(float(pn.all_real)),
            "trials": Stat(float(pn.trials)),
            "wilson_low": Stat(pn.wilson_low),
            "wilson_high": Stat(pn.wilson_high),
            "excluded": Stat(float(pn.excluded)),
        })
        for pn in result.per_n
    ]


def _verify(config: ExperimentConfig) -> list[ResultRecord]:
    """Records of both verification runs; a check that failed has passed = 0."""
    spec = config.spec
    minor = run_minor_identity(config)
    records = [
        _record("verify:minor-identity", spec, spec.d, minor.trials, {
            "max_coefficient_residual": Stat(minor.max_coefficient_residual),
            "max_factorization_residual": Stat(minor.max_factorization_residual),
            "max_partial_product_excess": Stat(minor.max_partial_product_excess),
            "tol": Stat(minor.tol),
            "passed": Stat(float(minor.passed)),
        })
    ]
    for row in run_factorization_checks(config).rows:
        records.append(_record(f"verify:{row.check}:field={row.field}:d={row.d}", spec, row.index, row.samples, {
            "estimate": Stat(row.estimate, row.se, row.samples),
            "reference": Stat(row.reference),
            "z": Stat(row.z),
            "passed": Stat(float(row.passed)),
        }, d=row.d, field=row.field))
    return records


# experiment -> (config -> records, (stat, file suffix) of its --emit-plotdata curve)
_EXPERIMENTS = {
    "lyapunov": (_lyapunov, None),
    "stability": (_stability, ("maxgap", ".gapcurve.txt")),
    "fluctuations": (_fluctuations, None),
    "realprob": (_realprob, ("p_hat", ".phat.txt")),
    "verify": (_verify, None),
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
    # the verify rows with a z form one family (family_passed); every other check stands alone
    checks = [rec.stats for rec in records if "passed" in rec.stats]
    family = [(s["estimate"].value, s["reference"].value, s["estimate"].se) for s in checks if "z" in s]
    if not (family_passed(family) and all(s["passed"].value for s in checks if "z" not in s)):
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
    except (NumericError, SingularInputError, SpreadOverflowError, np.linalg.LinAlgError, OSError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # after LinAlgError and SingularInputError, which are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
