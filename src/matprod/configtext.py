"""Key-value experiment config parsing with a canonical round-trip form.

Accepted syntax per line: one or more ``key=value`` assignments separated by
whitespace; spaces around ``=`` are allowed, values may be double-quoted,
``#`` outside a quoted value starts a comment. An unterminated quote, and
unknown and duplicate keys, are rejected by name and line.

Parsing only converts text, one converter per key. ``ExperimentConfig`` and
``EnsembleSpec`` own every default and value check; their ``ValueError``
comes back as a ``ConfigError`` on the line of the key it names.
"""
from __future__ import annotations

import re
from typing import Optional

from .ensembles import EnsembleSpec, parse_ensemble
from .experiments import ExperimentConfig

__all__ = ["ConfigError", "parse_config", "config_to_text", "CONFIG_KEYS"]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


# key -> (converter from text, what a value it cannot convert needs)
_CONVERTERS = {
    "seed": (int, "an integer"),
    "field": (str, None), "d": (int, "an integer"), "ensemble": (str, None),
    "n_grid": (_int_list, "comma-separated integers"),
    "replications": (int, "an integer"), "mc_samples": (int, "an integer"), "threads": (int, "an integer"),
    "out": (str, None), "format": (str, None),
}

CONFIG_KEYS = tuple(_CONVERTERS)
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


def parse_config(text: str, default_threads: Optional[int] = None) -> ExperimentConfig:
    """Parse config text into an ExperimentConfig.

    A key left out takes ExperimentConfig's default; a missing threads key
    takes ``default_threads`` first, when given.
    """
    lines: dict[str, int] = {}
    values = {}
    for key, raw, lineno in _scan_assignments(text):
        if key not in _CONVERTERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; known: {', '.join(CONFIG_KEYS)}")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {lines[key]})")
        lines[key] = lineno
        convert, needs = _CONVERTERS[key]
        try:
            values[key] = convert(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: key {key!r} needs {needs}, got {raw!r}") from None

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    if default_threads is not None:
        values.setdefault("threads", default_threads)
    try:
        kind = parse_ensemble(values.pop("ensemble"))
    except ValueError as exc:
        raise ConfigError(f"line {lines['ensemble']}: ensemble: {exc}") from None
    try:
        return ExperimentConfig(spec=EnsembleSpec(values.pop("field"), values.pop("d"), kind), **values)
    except ValueError as exc:
        # a check's message starts with the key it checks; the ensemble's own checks name none
        key, message = str(exc).split(" ", 1)[0], str(exc)
        if key not in CONFIG_KEYS:
            key, message = "ensemble", f"ensemble: {exc}"
        where = f"line {lines[key]}: " if key in lines else ""  # threads may be default_threads
        raise ConfigError(where + message) from None


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
