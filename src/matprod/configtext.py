"""Key-value experiment config parsing with a canonical round-trip form.

Accepted syntax per line: one or more ``key=value`` assignments separated by
whitespace; spaces around ``=`` are allowed, values may be double-quoted,
``#`` outside a quoted value starts a comment. An unterminated quote, and
unknown and duplicate keys, are rejected by name and line.
"""
from __future__ import annotations

import re
from typing import Optional

from .ensembles import EnsembleSpec, parse_ensemble
from .experiments import ExperimentConfig

__all__ = ["ConfigError", "parse_config", "config_to_text", "CONFIG_KEYS"]

CONFIG_KEYS = (
    "seed",
    "field",
    "d",
    "ensemble",
    "n_grid",
    "replications",
    "mc_samples",
    "threads",
    "out",
    "format",
)

_REQUIRED = ("seed", "field", "d", "ensemble", "n_grid", "replications")

_ASSIGN_RE = re.compile(r'\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*("[^"]*"?|[^\s#]+)')


class ConfigError(ValueError):
    """Config text is malformed; the message names the key and line."""


def _scan_assignments(text: str) -> list[tuple[str, str, int]]:
    found = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while line[pos:].strip() and not line[pos:].lstrip().startswith("#"):
            match = _ASSIGN_RE.match(line, pos)
            if match is None:
                raise ConfigError(
                    f"line {lineno}: cannot parse {line[pos:].split('#', 1)[0].strip()!r}; "
                    "expected key=value"
                )
            value = match.group(2)
            if value.startswith('"'):
                if len(value) < 2 or not value.endswith('"'):
                    raise ConfigError(f"line {lineno}: unterminated quote in the value of {match.group(1)!r}")
                value = value[1:-1]
            found.append((match.group(1), value, lineno))
            pos = match.end()
    return found


def _want_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} needs an integer, got {value!r}") from None


def parse_config(text: str, default_threads: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate config text into an ExperimentConfig.

    Defaults: threads=1 (or ``default_threads``), format=jsonl,
    mc_samples=100000, out unset.
    """
    seen: dict[str, tuple[str, int]] = {}
    for key, value, lineno in _scan_assignments(text):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; known: {', '.join(CONFIG_KEYS)}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {seen[key][1]})")
        seen[key] = (value, lineno)

    for key in _REQUIRED:
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")

    def get(key: str) -> tuple[str, int]:
        return seen[key]

    seed_s, seed_line = get("seed")
    seed = _want_int("seed", seed_s, seed_line)

    field_s, field_line = get("field")
    if field_s not in ("real", "complex"):
        raise ConfigError(f"line {field_line}: field must be real or complex, got {field_s!r}")

    d = _want_int("d", *get("d"))

    ens_s, ens_line = get("ensemble")
    try:
        kind = parse_ensemble(ens_s)
        spec = EnsembleSpec(field_s, d, kind)
    except ValueError as exc:
        raise ConfigError(f"line {ens_line}: ensemble: {exc}") from None

    grid_s, grid_line = get("n_grid")
    try:
        grid = tuple(int(tok) for tok in grid_s.split(","))
    except ValueError:
        raise ConfigError(
            f"line {grid_line}: n_grid needs comma-separated integers, got {grid_s!r}"
        ) from None

    replications = _want_int("replications", *get("replications"))

    mc_samples = 100_000
    if "mc_samples" in seen:
        mc_samples = _want_int("mc_samples", *get("mc_samples"))

    threads = default_threads if default_threads is not None else 1
    if "threads" in seen:
        threads = _want_int("threads", *get("threads"))

    out = seen["out"][0] if "out" in seen else None

    fmt = "jsonl"
    if "format" in seen:
        fmt, fmt_line = get("format")
        if fmt not in ("jsonl", "csv"):
            raise ConfigError(f"line {fmt_line}: format must be jsonl or csv, got {fmt!r}")

    try:
        return ExperimentConfig(
            seed=seed,
            spec=spec,
            n_grid=grid,
            replications=replications,
            mc_samples=mc_samples,
            threads=threads,
            out=out,
            format=fmt,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical echo: every effective value explicit, one key per line.

    parse_config(config_to_text(c)) == c.
    """
    lines = [
        f"seed={config.seed}",
        f"field={config.spec.field}",
        f"d={config.spec.d}",
        f'ensemble="{config.spec.ensemble_text}"',
        f"n_grid={','.join(str(n) for n in config.n_grid)}",
        f"replications={config.replications}",
        f"mc_samples={config.mc_samples}",
        f"threads={config.threads}",
        f"format={config.format}",
    ]
    if config.out is not None:
        lines.append(f'out="{config.out}"')
    return "\n".join(lines) + "\n"
