"""Seeded sampling of matrix ensembles.

An EnsembleSpec names the common distribution of the i.i.d. factors: the
scalar field, the dimension, and the kind (Ginibre, a truncated Haar block,
a random scalar multiple of a Haar matrix, or a custom singular-value law).
Every sampler is a pure function of (arguments, stream): reruns with the
same stream reproduce samples bit for bit.

Gaussian conventions: real Ginibre entries are N(0, 1); complex Ginibre
entries have independent N(0, 1) real and imaginary parts, so E|entry|^2 = 2.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .linalg import qr_positive
from .rng import as_generator

__all__ = [
    "ScalarLaw",
    "Ginibre",
    "TruncatedHaar",
    "HaarScaled",
    "CustomSingular",
    "EnsembleSpec",
    "parse_ensemble",
    "format_ensemble",
    "sample_ginibre",
    "sample_haar_unitary",
    "sample_truncated_haar",
    "sample_singular_values",
    "sample_isotropic",
    "sample_isotropic_chunk",
]

FIELDS = ("real", "complex")

_LAW_ARITY = {"const": 1, "lognormal": 2, "uniform": 2, "chisq": 1}


@dataclass(frozen=True)
class ScalarLaw:
    """Named distribution over positive reals, e.g. const(2) or lognormal(0,1)."""

    name: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in _LAW_ARITY:
            raise ValueError(
                f"unknown scalar law {self.name!r}; known: {sorted(_LAW_ARITY)}"
            )
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != _LAW_ARITY[self.name]:
            raise ValueError(
                f"{self.name} takes {_LAW_ARITY[self.name]} parameter(s), got {params}"
            )
        if self.name == "const" and params[0] <= 0:
            raise ValueError(f"const law needs a positive value, got {params[0]}")
        if self.name == "lognormal" and params[1] < 0:
            raise ValueError(f"lognormal sigma must be >= 0, got {params[1]}")
        if self.name == "uniform" and not 0 < params[0] < params[1]:
            raise ValueError(f"uniform law needs 0 < low < high, got {params}")
        if self.name == "chisq" and params[0] < 1:
            raise ValueError(f"chisq law needs k >= 1, got {params[0]}")

    def sample(self, gen: np.random.Generator, size=None) -> np.ndarray:
        if self.name == "const":
            return np.broadcast_to(np.float64(self.params[0]), () if size is None else (size,)).copy()
        if self.name == "lognormal":
            return gen.lognormal(self.params[0], self.params[1], size)
        if self.name == "uniform":
            return gen.uniform(self.params[0], self.params[1], size)
        return gen.chisquare(self.params[0], size)

    def __str__(self) -> str:
        return f"{self.name}({','.join(_fmt_float(p) for p in self.params)})"


def _fmt_float(x: float) -> str:
    return repr(float(x)).removesuffix(".0")


@dataclass(frozen=True)
class Ginibre:
    """Matrix of i.i.d. Gaussian entries; bi-unitarily invariant."""


@dataclass(frozen=True)
class TruncatedHaar:
    """Top-left d x d corner of an m x m Haar unitary (orthogonal) matrix."""

    m: int


@dataclass(frozen=True)
class HaarScaled:
    """Random positive scalar times a Haar unitary (orthogonal) matrix."""

    law: ScalarLaw


@dataclass(frozen=True)
class CustomSingular:
    """Singular values fixed, i.i.d. from one law, or per-slot laws."""

    values: Optional[tuple[float, ...]] = None
    laws: Optional[tuple[ScalarLaw, ...]] = None
    iid: Optional[ScalarLaw] = None

    def __post_init__(self) -> None:
        given = sum(x is not None for x in (self.values, self.laws, self.iid))
        if given != 1:
            raise ValueError("custom ensemble needs exactly one of values/laws/iid")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if any(v <= 0 for v in vals):
                raise ValueError(f"custom singular values must be positive, got {vals}")
            object.__setattr__(self, "values", vals)
        if self.laws is not None:
            object.__setattr__(self, "laws", tuple(self.laws))


EnsembleKind = Union[Ginibre, TruncatedHaar, HaarScaled, CustomSingular]


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of the i.i.d. factor distribution."""

    field: str
    d: int
    kind: EnsembleKind

    def __post_init__(self) -> None:
        if self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}, got {self.field!r}")
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        kind = self.kind
        if isinstance(kind, TruncatedHaar):
            if not isinstance(kind.m, int) or kind.m <= self.d:
                raise ValueError(f"m must exceed d (got m={kind.m}, d={self.d})")
        elif isinstance(kind, CustomSingular):
            if kind.values is not None and len(kind.values) != self.d:
                raise ValueError(
                    f"custom fixed vector has length {len(kind.values)}, need d={self.d}"
                )
            if kind.laws is not None and len(kind.laws) != self.d:
                raise ValueError(
                    f"custom law list has length {len(kind.laws)}, need d={self.d}"
                )
        elif not isinstance(kind, (Ginibre, HaarScaled)):
            raise ValueError(f"unknown ensemble kind {kind!r}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self.field == "complex" else np.float64)

    @property
    def ensemble_text(self) -> str:
        return format_ensemble(self.kind)

    def tag(self) -> str:
        return f"{self.field}:{self.ensemble_text}:d={self.d}"


_LAW_RE = re.compile(r"^([a-z]+)\(([^()]*)\)$")


def _parse_law(text: str) -> ScalarLaw:
    m = _LAW_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse scalar law {text!r}; expected name(args)")
    name, args = m.group(1), m.group(2)
    try:
        params = tuple(float(p) for p in args.split(",")) if args.strip() else ()
    except ValueError:
        raise ValueError(f"non-numeric parameter in scalar law {text!r}") from None
    return ScalarLaw(name, params)


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_ensemble(text: str) -> EnsembleKind:
    """Parse the canonical ensemble string.

    Grammar::

        ginibre
        truncated-haar:m=<int>
        haar-scaled:<law>
        custom:fixed(<v1>,...,<vd>)
        custom:iid(<law>)
        custom:laws(<law1>,...,<lawd>)

    where <law> is one of const(c), lognormal(mu,sigma), uniform(a,b),
    chisq(k).
    """
    text = text.strip()
    if text == "ginibre":
        return Ginibre()
    if text.startswith("truncated-haar:"):
        body = text[len("truncated-haar:"):]
        m = re.match(r"^m=(\d+)$", body)
        if not m:
            raise ValueError(f"cannot parse {text!r}; expected truncated-haar:m=<int>")
        return TruncatedHaar(int(m.group(1)))
    if text.startswith("haar-scaled:"):
        return HaarScaled(_parse_law(text[len("haar-scaled:"):]))
    if text.startswith("custom:"):
        body = text[len("custom:"):].strip()
        m = re.match(r"^(fixed|iid|laws)\((.*)\)$", body)
        if not m:
            raise ValueError(
                f"cannot parse {text!r}; expected custom:fixed(...)/iid(...)/laws(...)"
            )
        mode, args = m.group(1), m.group(2)
        if mode == "fixed":
            try:
                vals = tuple(float(v) for v in args.split(","))
            except ValueError:
                raise ValueError(f"non-numeric value in {text!r}") from None
            return CustomSingular(values=vals)
        if mode == "iid":
            return CustomSingular(iid=_parse_law(args))
        return CustomSingular(laws=tuple(_parse_law(p) for p in _split_top_level(args)))
    raise ValueError(
        f"unknown ensemble {text!r}; known: ginibre, truncated-haar:m=<int>, "
        f"haar-scaled:<law>, custom:..."
    )


def format_ensemble(kind: EnsembleKind) -> str:
    """Canonical text form; round-trips through parse_ensemble."""
    if isinstance(kind, Ginibre):
        return "ginibre"
    if isinstance(kind, TruncatedHaar):
        return f"truncated-haar:m={kind.m}"
    if isinstance(kind, HaarScaled):
        return f"haar-scaled:{kind.law}"
    if isinstance(kind, CustomSingular):
        if kind.values is not None:
            return f"custom:fixed({','.join(_fmt_float(v) for v in kind.values)})"
        if kind.iid is not None:
            return f"custom:iid({kind.iid})"
        return f"custom:laws({','.join(str(l) for l in kind.laws)})"
    raise ValueError(f"unknown ensemble kind {kind!r}")


def _shape(rows: int, cols: int, size) -> tuple[int, ...]:
    return (rows, cols) if size is None else (int(size), rows, cols)


def sample_ginibre(rows: int, cols: int, field: str, rng, size=None) -> np.ndarray:
    """Matrix of i.i.d. Gaussian entries (see module docstring for variance)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"need rows, cols >= 1, got {rows}, {cols}")
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
    gen = as_generator(rng)
    shape = _shape(rows, cols, size)
    if field == "real":
        return gen.standard_normal(shape)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def sample_haar_unitary(d: int, field: str, rng, size=None) -> np.ndarray:
    """Haar-distributed unitary (orthogonal) matrix.

    QR of a Ginibre sample with the positive-diagonal normalization; with
    that normalization the unitary factor carries exactly the Haar measure.
    """
    return qr_positive(sample_ginibre(d, d, field, rng, size=size)).q


def sample_truncated_haar(m: int, d: int, field: str, rng, size=None) -> np.ndarray:
    """Top-left d x d corner of an m x m Haar unitary (orthogonal) matrix.

    Deliberately samples the full m x m matrix and truncates, so this
    sampler is usable as its own reference for corner-law checks.
    """
    if not (isinstance(m, int) and isinstance(d, int) and m > d >= 1):
        raise ValueError(f"need integers m > d >= 1, got m={m}, d={d}")
    u = sample_haar_unitary(m, field, rng, size=size)
    return np.ascontiguousarray(u[..., :d, :d])


def sample_singular_values(spec: EnsembleSpec, rng, size=None) -> np.ndarray:
    """Descending positive singular-value vector(s) of length spec.d.

    Shape (d,) for size=None, else (size, d).
    """
    gen = as_generator(rng)
    d = spec.d
    kind = spec.kind
    if isinstance(kind, Ginibre):
        a = sample_ginibre(d, d, spec.field, gen, size=size)
        vals = np.linalg.svd(a, compute_uv=False)
    elif isinstance(kind, TruncatedHaar):
        a = sample_truncated_haar(kind.m, d, spec.field, gen, size=size)
        vals = np.linalg.svd(a, compute_uv=False)
    elif isinstance(kind, HaarScaled):
        c = kind.law.sample(gen, size)
        vals = np.repeat(np.asarray(c, dtype=np.float64)[..., None], d, axis=-1)
    else:
        if kind.values is not None:
            base = np.sort(np.asarray(kind.values, dtype=np.float64))[::-1]
            vals = base.copy() if size is None else np.tile(base, (int(size), 1))
        else:
            if kind.iid is not None:
                cols = [kind.iid.sample(gen, size) for _ in range(d)]
            else:
                cols = [law.sample(gen, size) for law in kind.laws]
            vals = np.stack(cols, axis=-1).astype(np.float64)
            vals = np.sort(vals, axis=-1)[..., ::-1]
    if np.any(vals <= 0):
        raise ValueError(
            f"singular-value law of {spec.tag()} produced a nonpositive value"
        )
    return np.ascontiguousarray(vals)


def sample_isotropic(spec: EnsembleSpec, rng, size=None) -> np.ndarray:
    """Bi-unitarily invariant sample u @ diag(D) @ v.

    Ginibre is already bi-unitarily invariant, so that kind returns the
    Gaussian matrix directly; equality in distribution with the u/D/v route
    is a test target, not an assumption. Draw order is fixed: D, u, v.
    """
    gen = as_generator(rng)
    if isinstance(spec.kind, Ginibre):
        return sample_ginibre(spec.d, spec.d, spec.field, gen, size=size)
    dvals = sample_singular_values(spec, gen, size=size)
    u = sample_haar_unitary(spec.d, spec.field, gen, size=size)
    v = sample_haar_unitary(spec.d, spec.field, gen, size=size)
    return u @ (dvals[..., :, None] * v)


def sample_isotropic_chunk(spec: EnsembleSpec, rng, count: int, n: int) -> np.ndarray:
    """Factors of count replications of n factors each, (count, n, d, d).

    The stream is read as by count calls of sample_isotropic, one batch of
    n a replication. Ginibre takes one draw for the whole chunk: laid out as
    (count, 1 or 2, n, d, d), the real and then the imaginary parts of each
    replication come off the stream in that order. Other kinds interleave
    several laws within a replication, so they are drawn one at a time.
    """
    gen = as_generator(rng)
    d = spec.d
    if isinstance(spec.kind, Ginibre):
        if spec.field == "real":
            return gen.standard_normal((count, n, d, d))
        x = gen.standard_normal((count, 2, n, d, d))
        return x[:, 0] + 1j * x[:, 1]
    draws = [sample_isotropic(spec, gen, size=n) if n > 1 else sample_isotropic(spec, gen)
             for _ in range(count)]
    return np.reshape(draws, (count, n, d, d))

