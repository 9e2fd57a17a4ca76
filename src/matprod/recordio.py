"""Persistent, reproducible result records.

A run writes one manifest followed by flat result records, append-only.
JSON-lines output puts the manifest on the first line; CSV output writes the
manifest to a sidecar ``<path>.manifest.json`` (RFC 4180 leaves no room for
comment lines) and then a header plus one row per record. Reals serialize
with 17 significant digits so doubles round-trip bit for bit.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

__all__ = ["FORMATS", "Stat", "ResultRecord", "RunManifest", "write_records", "read_jsonl"]

FORMATS = ("jsonl", "csv")


@dataclass(frozen=True)
class Stat:
    """One named statistic: value with optional standard error and count."""

    value: float
    se: Optional[float] = None
    count: Optional[int] = None


@dataclass(frozen=True)
class ResultRecord:
    """Flat record: experiment tag, parameter tuple, named statistics."""

    experiment: str
    d: int
    field: str
    ensemble: str
    n: int
    replications: int
    seq: int
    stats: dict[str, Stat] = field(default_factory=dict)


@dataclass(frozen=True)
class RunManifest:
    """Written before any record; the config echo reparses to the same config."""

    tool: str
    seed: int
    config_text: str
    started_utc: str

    def to_dict(self) -> dict:
        return {
            "manifest": True,
            "tool": self.tool,
            "seed": self.seed,
            "config": self.config_text,
            "started_utc": self.started_utc,
        }


def manifest_timestamp() -> str:
    """UTC ISO-8601 start stamp.

    Honors SOURCE_DATE_EPOCH (the reproducible-builds convention) so that
    reruns can be made byte-identical; otherwise the wall clock is used.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _record_to_dict(rec: ResultRecord) -> dict:
    out = {
        "experiment": rec.experiment,
        "d": rec.d,
        "field": rec.field,
        "ensemble": rec.ensemble,
        "n": rec.n,
        "replications": rec.replications,
        "seq": rec.seq,
        "stats": {},
    }
    for name, stat in rec.stats.items():
        entry = {"value": stat.value}
        if stat.se is not None:
            entry["se"] = stat.se
        if stat.count is not None:
            entry["count"] = stat.count
        out["stats"][name] = entry
    return out


def _stat_columns(records: Sequence[ResultRecord]) -> list[str]:
    names = sorted({name for rec in records for name in rec.stats})
    cols = []
    for name in names:
        cols.append(name)
        if any(rec.stats.get(name) and rec.stats[name].se is not None for rec in records):
            cols.append(f"se_{name}")
        if any(rec.stats.get(name) and rec.stats[name].count is not None for rec in records):
            cols.append(f"count_{name}")
    return cols


def write_records(
    records: Sequence[ResultRecord],
    fmt: str,
    path: str,
    manifest: RunManifest,
) -> None:
    """Write manifest plus records; the manifest always lands first."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest.to_dict(), sort_keys=True) + "\n")
            for rec in records:
                fh.write(json.dumps(_record_to_dict(rec), sort_keys=True) + "\n")
        return
    with open(path + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest.to_dict(), sort_keys=True) + "\n")
    head = ["experiment", "d", "field", "ensemble", "n", "replications", "seq"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, head + _stat_columns(records), restval="")
        writer.writeheader()
        for rec in records:
            row = {name: getattr(rec, name) for name in head}
            for name, stat in rec.stats.items():
                row[name] = _fmt_real(stat.value)
                if stat.se is not None:
                    row[f"se_{name}"] = _fmt_real(stat.se)
                if stat.count is not None:
                    row[f"count_{name}"] = stat.count
            writer.writerow(row)


def read_jsonl(path: str) -> tuple[dict, list[dict]]:
    """Manifest dict and record dicts back from a JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or not lines[0].get("manifest"):
        raise ValueError(f"{path} does not start with a manifest line")
    return lines[0], lines[1:]
