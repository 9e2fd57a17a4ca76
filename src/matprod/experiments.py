"""Replication-parallel experiment runners.

Each runner turns one limit statement into a desk-scale Monte Carlo check
with standard errors or Wilson intervals. Replications are processed in
fixed-size chunks, each chunk on its own derived random stream, and chunk
results are folded in index order - so aggregated statistics are identical
for any thread count adopted.

The trajectory runners (equality, fluctuations, reality) share one chunk
worker: it draws the chunk's factors (sample_isotropic_chunk, in the order
of one replication after the other), advances the whole chunk as one stack
(evolve_stack: one QR call a step, where a step takes one factor or an
aligned block of 2, 4, 8, ... factors that passes an exact conditioning
guard, and one SVD call a grid point), and hands the stack at each grid
point, in SVD form, to the runner's observer. A replication that fails a check anywhere on its trajectory is
dropped at every grid point.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ensembles import EnsembleSpec, sample_haar_unitary, sample_isotropic_chunk, sample_singular_values
from .exponents import (
    SPREAD_ACCURACY_CAP,
    ProductStack,
    _batches,
    analytic_spectrum,
    analytic_truncated_logdet,
    evolve_stack,
    single_step_estimate,
    stability_rows,
    supports_analytic_spectrum,
)
from .linalg import NumericError, complex_pair_counts, eig_by_modulus, lq_positive, principal_minor, svd_descending
from .rng import RngStream

__all__ = [
    "ExperimentConfig",
    "GapStats",
    "EqualityAtN",
    "EqualityResult",
    "FluctResult",
    "RealProbAtN",
    "RealProbResult",
    "CheckRow",
    "FactorizationReport",
    "MinorIdentityReport",
    "run_equality",
    "run_fluctuations",
    "run_real_probability",
    "run_factorization_checks",
    "run_minor_identity",
    "wilson_interval",
]

# Replications per work unit; fixed so that stream derivation, and therefore
# every sampled bit, is independent of the thread count.
_CHUNK = 256

# Stream derivation indices: (experiment, role, index) with role 0 for the
# reference estimator and role 1 for replication chunks.
_EXP_EQUALITY = 1
_EXP_FLUCT = 2
_EXP_REALPROB = 3
_EXP_FACTOR = 4
_EXP_MINOR = 5
_EXP_LYAPUNOV = 6  # role 0 single-step, role 1 QR stream (cli's lyapunov records)

# Worst relative residual the exact minor identities may show.
_MINOR_TOL = 1e-8

_Z95 = 1.959963984540054

@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible description of one experiment run."""

    seed: int
    spec: EnsembleSpec
    n_grid: tuple[int, ...]
    replications: int
    mc_samples: int = 100_000
    threads: int = 1
    out: Optional[str] = None
    format: str = "jsonl"

    def __post_init__(self) -> None:
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 1 for n in grid):
            raise ValueError(f"n_grid must be positive integers, got {self.n_grid!r}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly increasing, got {grid}")
        object.__setattr__(self, "n_grid", grid)
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.mc_samples < 2:
            raise ValueError(f"mc_samples must be >= 2, got {self.mc_samples}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.format not in ("jsonl", "csv"):
            raise ValueError(f"format must be jsonl or csv, got {self.format!r}")
        if self.out is not None and '"' in self.out:
            raise ValueError(f"out must not contain a double quote, got {self.out!r}")

    def stream(self) -> RngStream:
        return RngStream(self.seed)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Score confidence interval for a binomial proportion.

    Stays inside [0, 1] and behaves sensibly for proportions near the
    endpoints, which is exactly the regime the reality experiment lives in.
    """
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # rounding may land a bound a few ulps past p or outside [0, 1]
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _chunk_jobs(total: int) -> list[tuple[int, int]]:
    """(chunk_index, count) pairs covering range(total)."""
    return [(ci, min(_CHUNK, total - ci * _CHUNK)) for ci in range((total + _CHUNK - 1) // _CHUNK)]


def _map_chunks(jobs, worker: Callable, threads: int) -> list:
    if threads <= 1:
        return [worker(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(lambda job: worker(*job), jobs))


def _reference(config: ExperimentConfig, exp_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Reference exponents, their SEs, the fluctuation covariance and the source tag:
    the closed form where one exists, else the single-step estimate on stream (exp_index, 0, 0)."""
    spec = config.spec
    if supports_analytic_spectrum(spec):
        spectrum = analytic_spectrum(spec)
        return spectrum.lyapunov, np.zeros(spec.d), np.diag(spectrum.variance), "analytic"
    est = single_step_estimate(spec, config.mc_samples, config.stream().derive(exp_index, 0, 0))
    return est.mean, est.se, est.cov, "single-step"


def _evolve_chunks(config: ExperimentConfig, exp_index: int, grid: Sequence[int], observe: Callable) -> list:
    """observe(stacks) for every chunk of replications, in chunk order.

    stacks are the chunk's ProductStacks at the grid points; the last one
    tells which replications survived their whole trajectory.
    """
    spec, n_max, base = config.spec, grid[-1], config.stream()

    def worker(ci: int, count: int):
        gen = base.derive(exp_index, 1, ci).generator()
        return observe(evolve_stack(sample_isotropic_chunk(spec, gen, count, n_max), grid))

    return _map_chunks(_chunk_jobs(config.replications), worker, config.threads)


def _observe_exponents(stacks: list[ProductStack]):
    """Scaled log singular values and log eigenvalue moduli, (B, grid, d)
    each, and which rows to keep: a row whose spectrum cannot be taken is
    dropped like one that failed a step."""
    ok = stacks[-1].ok
    sig = np.stack([s.log_sigma / s.n for s in stacks], axis=1)
    stab = np.full_like(sig, np.nan)
    for gi, s in enumerate(stacks):
        rows = np.flatnonzero(ok)
        logs, failure = stability_rows(s.log_sigma[rows], s.u_frame[rows], s.v_frame[rows])
        stab[rows, gi] = logs / s.n
        ok[rows] = np.equal(failure, None)
    return sig, stab, ok


def _exponent_samples(config: ExperimentConfig, exp_index: int, grid: Sequence[int]):
    """(singular, stability) samples of the surviving replications, (used, len(grid), d) each."""
    parts = _evolve_chunks(config, exp_index, grid, _observe_exponents)
    sig, stab, ok = (np.concatenate(p) for p in zip(*parts))
    if int(ok.sum()) < 2:
        raise NumericError("fewer than 2 replications survived; cannot report statistics")
    return sig[ok], stab[ok]


def _observe_reality(stacks: list[ProductStack]):
    """All-real and classified counts per grid point over the surviving rows;
    rows over the accuracy cap, or whose eigenvalue iteration fails, are not
    classified."""
    ok = stacks[-1].ok
    real = np.zeros(len(stacks), dtype=np.int64)
    classified = np.zeros(len(stacks), dtype=np.int64)
    for gi, s in enumerate(stacks):
        rows = np.flatnonzero(ok & (s.spread <= SPREAD_ACCURACY_CAP))
        ls = s.log_sigma[rows]
        pairs = complex_pair_counts((s.v_frame[rows] @ s.u_frame[rows]) * np.exp(ls - ls[:, :1])[:, None, :])
        classified[gi] = np.count_nonzero(pairs >= 0)
        real[gi] = np.count_nonzero(pairs == 0)
    return real, classified


@dataclass(frozen=True)
class GapStats:
    """Componentwise gap statistics over replications."""

    mean: np.ndarray
    max: np.ndarray
    se: np.ndarray


@dataclass(frozen=True)
class EqualityAtN:
    n: int
    count: int
    gap_singular_ref: GapStats
    gap_stability_ref: GapStats
    gap_singular_stability: GapStats
    maxgap_mean: float  # mean over replications of max_i |singular_i - stability_i|
    maxgap_se: float
    maxgap_max: float
    mean_singular: np.ndarray
    se_singular: np.ndarray
    mean_stability: np.ndarray
    se_stability: np.ndarray


@dataclass(frozen=True)
class EqualityResult:
    spec: EnsembleSpec
    n_grid: tuple[int, ...]
    reference: np.ndarray
    reference_se: np.ndarray
    reference_source: str
    per_n: tuple[EqualityAtN, ...]
    skipped: int


def _gap_stats(values: np.ndarray) -> GapStats:
    count = values.shape[0]
    return GapStats(
        mean=values.mean(axis=0),
        max=values.max(axis=0),
        se=values.std(axis=0, ddof=1) / math.sqrt(count),
    )


def run_equality(config: ExperimentConfig) -> EqualityResult:
    """Convergence of scaled log singular values and log eigenvalue moduli.

    Per replication the product advances through n_grid on one trajectory
    (grid points are checkpoints of the same path, hence dependent across n);
    at each grid point both exponent vectors are recorded and compared to the
    reference. Replications that overflow or hit a singular step are dropped
    and counted.
    """
    spec = config.spec
    ref, ref_se, _, ref_source = _reference(config, _EXP_EQUALITY)
    grid = config.n_grid
    sig, stab = _exponent_samples(config, _EXP_EQUALITY, grid)
    used = sig.shape[0]

    per_n = []
    for gi, n in enumerate(grid):
        s, e = sig[:, gi, :], stab[:, gi, :]
        maxgap = np.abs(s - e).max(axis=1)
        per_n.append(
            EqualityAtN(
                n=n,
                count=used,
                gap_singular_ref=_gap_stats(np.abs(s - ref)),
                gap_stability_ref=_gap_stats(np.abs(e - ref)),
                gap_singular_stability=_gap_stats(np.abs(s - e)),
                maxgap_mean=float(maxgap.mean()),
                maxgap_se=float(maxgap.std(ddof=1) / math.sqrt(used)),
                maxgap_max=float(maxgap.max()),
                mean_singular=s.mean(axis=0),
                se_singular=s.std(axis=0, ddof=1) / math.sqrt(used),
                mean_stability=e.mean(axis=0),
                se_stability=e.std(axis=0, ddof=1) / math.sqrt(used),
            )
        )
    return EqualityResult(
        spec=spec,
        n_grid=grid,
        reference=ref,
        reference_se=ref_se,
        reference_source=ref_source,
        per_n=tuple(per_n),
        skipped=config.replications - used,
    )


@dataclass(frozen=True)
class FluctResult:
    spec: EnsembleSpec
    n: int
    count: int
    cov_singular: np.ndarray          # covariance of sqrt(n) * (log sigma / n)
    cov_stability: np.ndarray         # covariance of sqrt(n) * (log |eig| / n)
    cov_singular_se: np.ndarray       # large-sample SEs of the entries
    cov_stability_se: np.ndarray
    cov_diff_se: np.ndarray           # paired SEs of cov_singular - cov_stability
    reference_cov: np.ndarray
    reference_source: str
    skipped: int


def _cov_entry_se(cov: np.ndarray, count: int) -> np.ndarray:
    diag = np.diag(cov)
    return np.sqrt((np.outer(diag, diag) + cov**2) / (count - 1))


def run_fluctuations(config: ExperimentConfig) -> FluctResult:
    """Covariance of sqrt(n)-scaled fluctuations at n = last grid point.

    Both the singular-value and the eigenvalue-modulus fluctuation
    covariances are estimated from the same replications; the paired SE of
    the entrywise difference is reported alongside the marginal SEs.
    """
    if config.replications < 100:
        raise ValueError("fluctuation runs need replications >= 100")
    spec = config.spec
    n = config.n_grid[-1]
    sig, stab = (a[:, 0] for a in _exponent_samples(config, _EXP_FLUCT, (n,)))
    used = sig.shape[0]

    x = math.sqrt(n) * sig
    y = math.sqrt(n) * stab
    cov_x = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    cov_y = np.atleast_2d(np.cov(y, rowvar=False, ddof=1))
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    prod_diff = xc[:, :, None] * xc[:, None, :] - yc[:, :, None] * yc[:, None, :]
    diff_se = prod_diff.std(axis=0, ddof=1) / math.sqrt(used)
    _, _, ref_cov, ref_source = _reference(config, _EXP_FLUCT)

    return FluctResult(
        spec=spec,
        n=n,
        count=used,
        cov_singular=cov_x,
        cov_stability=cov_y,
        cov_singular_se=_cov_entry_se(cov_x, used),
        cov_stability_se=_cov_entry_se(cov_y, used),
        cov_diff_se=diff_se,
        reference_cov=ref_cov,
        reference_source=ref_source,
        skipped=config.replications - used,
    )


@dataclass(frozen=True)
class RealProbAtN:
    n: int
    trials: int          # classified trials
    all_real: int
    p_hat: float
    wilson_low: float
    wilson_high: float
    excluded: int        # spread over accuracy cap, overflow, or singular step

    def __post_init__(self) -> None:
        if not self.wilson_low <= self.p_hat <= self.wilson_high:
            raise ValueError("Wilson interval must contain the point estimate")


@dataclass(frozen=True)
class RealProbResult:
    spec: EnsembleSpec
    n_grid: tuple[int, ...]
    replications: int
    per_n: tuple[RealProbAtN, ...]


def run_real_probability(config: ExperimentConfig) -> RealProbResult:
    """Probability that every eigenvalue of the running product is real.

    Classification counts the 2x2 blocks of the real Schur form of the
    shift-scaled similarity carrying the product's spectrum. Replications
    whose spread exceeds the accuracy cap at a grid point are excluded and
    counted there rather than classified.
    """
    spec = config.spec
    if spec.field != "real":
        raise ValueError("realprob requires field=real")
    grid = config.n_grid
    real, classified = np.sum(_evolve_chunks(config, _EXP_REALPROB, grid, _observe_reality), axis=0)

    per_n = []
    for gi, n in enumerate(grid):
        trials = int(classified[gi])
        hits = int(real[gi])
        if trials == 0:
            raise NumericError(f"no classifiable replications at n={n}")
        lo, hi = wilson_interval(hits, trials)
        per_n.append(
            RealProbAtN(
                n=n,
                trials=trials,
                all_real=hits,
                p_hat=hits / trials,
                wilson_low=lo,
                wilson_high=hi,
                excluded=config.replications - trials,
            )
        )
    return RealProbResult(
        spec=spec, n_grid=grid, replications=config.replications, per_n=tuple(per_n)
    )


@dataclass(frozen=True)
class CheckRow:
    """One line of a verification table: estimate vs reference."""

    check: str
    field: str
    d: int
    index: int           # corner size i, diagonal slot j, or minor order
    estimate: float
    reference: float
    se: float
    samples: int

    @property
    def z(self) -> float:
        return (self.estimate - self.reference) / self.se if self.se > 0 else 0.0

    @property
    def passed(self) -> bool:
        # 1e-12 floor absorbs pure rounding noise in exactly-zero checks
        return abs(self.estimate - self.reference) <= 3.0 * self.se + 1e-12


@dataclass(frozen=True)
class FactorizationReport:
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


class _Moments:
    """Streaming first four power sums per column."""

    def __init__(self, width: int) -> None:
        self.n = 0
        self.s1 = np.zeros(width)
        self.s2 = np.zeros(width)
        self.s3 = np.zeros(width)
        self.s4 = np.zeros(width)

    def add(self, block: np.ndarray) -> None:
        self.n += block.shape[0]
        self.s1 += block.sum(axis=0)
        self.s2 += (block**2).sum(axis=0)
        self.s3 += (block**3).sum(axis=0)
        self.s4 += (block**4).sum(axis=0)

    def mean(self) -> np.ndarray:
        return self.s1 / self.n

    def mean_se(self) -> np.ndarray:
        var = np.maximum(self.s2 / self.n - self.mean() ** 2, 0.0)
        return np.sqrt(var / self.n)

    def var(self) -> np.ndarray:
        return (self.s2 - self.s1**2 / self.n) / (self.n - 1)

    def var_se(self) -> np.ndarray:
        # large-sample SE of the sample variance via the fourth central moment
        m = self.mean()
        m2 = self.s2 / self.n - m**2
        m4 = (self.s4 - 4 * m * self.s3 + 6 * m**2 * self.s2) / self.n - 3 * m**4
        return np.sqrt(np.maximum(m4 - m2**2, 0.0) / self.n)


def run_factorization_checks(config: ExperimentConfig) -> FactorizationReport:
    """Triangular-factorization checks tying Gaussian and Haar samples together.

    (a) Monte Carlo mean of log |det(corner of a Haar matrix)| against the
        chi-square telescoping value, for every corner size i <= d <= spec.d.
    (b) Row-orthogonalization of Gaussian matrices: squared diagonal entries
        against their chi-square mean/variance, off-diagonals against the
        standard normal, for square and one-row-short shapes.
    (c) Scaling: corner entries of an (m = 4d) Haar matrix times sqrt(m) have
        unit second moment.
    """
    spec = config.spec
    field = spec.field
    mc = config.mc_samples
    base = config.stream()
    rows: list[CheckRow] = []

    for d in range(1, spec.d + 1):
        gen = base.derive(_EXP_FACTOR, 1, d).generator()
        corner = [_Moments(1) for _ in range(d)]
        for _, b in _batches(mc):
            u = sample_haar_unitary(d, field, gen, size=b)
            for i in range(1, d + 1):
                dets = np.linalg.det(u[:, :i, :i])
                corner[i - 1].add(np.log(np.abs(dets))[:, None])
        for i in range(1, d + 1):
            mom = corner[i - 1]
            rows.append(
                CheckRow(
                    check="corner-logdet",
                    field=field,
                    d=d,
                    index=i,
                    estimate=float(mom.mean()[0]),
                    reference=analytic_truncated_logdet(i, d, field),
                    se=float(mom.mean_se()[0]),
                    samples=mom.n,
                )
            )

    dof_scale = 2 if field == "complex" else 1
    for d in range(1, spec.d + 1):
        shapes = [d] if d == 1 else [d, d - 1]
        for nrows in shapes:
            gen = base.derive(_EXP_FACTOR, 2, d, nrows).generator()
            diag_mom = _Moments(nrows)
            off_mom = _Moments(1) if nrows > 1 else None
            for _, b in _batches(mc):
                g = _ginibre_block(nrows, d, field, gen, b)
                t = lq_positive(g).t
                tdiag = np.diagonal(t, axis1=-2, axis2=-1).real
                diag_mom.add(tdiag**2)
                if off_mom is not None:
                    li, lj = np.tril_indices(nrows, k=-1)
                    tril = t[:, li, lj]
                    parts = [tril.real, tril.imag] if field == "complex" else [tril]
                    off_mom.add(np.concatenate(parts, axis=1).reshape(-1, 1))
            for j in range(1, nrows + 1):
                k = dof_scale * (d - j + 1)
                rows += _mean_var_rows(f"lq-diag-{{}}:rows={nrows}", field, d, j, diag_mom, j - 1, float(k), float(2 * k))
            if off_mom is not None:
                rows += _mean_var_rows(f"lq-offdiag-{{}}:rows={nrows}", field, d, nrows, off_mom, 0, 0.0, 1.0)

    for d in range(1, spec.d + 1):
        m = 4 * d
        gen = base.derive(_EXP_FACTOR, 3, d).generator()
        mom = _Moments(1)
        for _, b in _batches(min(mc, 20_000)):
            u = sample_haar_unitary(m, field, gen, size=b)
            block = m * np.abs(u[:, :d, :d]) ** 2
            mom.add(block.reshape(b, -1).mean(axis=1)[:, None])
        rows.append(
            CheckRow(
                check="corner-scaling",
                field=field,
                d=d,
                index=m,
                estimate=float(mom.mean()[0]),
                reference=1.0,
                se=float(mom.mean_se()[0]),
                samples=mom.n,
            )
        )

    return FactorizationReport(rows=tuple(rows))


def _mean_var_rows(check: str, field: str, d: int, index: int, mom: _Moments, col: int,
                   mean_ref: float, var_ref: float) -> list[CheckRow]:
    """Check rows of one moment column's mean and variance; check has a {} for mean/var."""
    return [
        CheckRow(check.format("mean"), field, d, index, float(mom.mean()[col]), mean_ref,
                 float(mom.mean_se()[col]), mom.n),
        CheckRow(check.format("var"), field, d, index, float(mom.var()[col]), var_ref,
                 float(mom.var_se()[col]), mom.n),
    ]


def _ginibre_block(rows: int, cols: int, field: str, gen, size: int) -> np.ndarray:
    if field == "real":
        return gen.standard_normal((size, rows, cols))
    return gen.standard_normal((size, rows, cols)) + 1j * gen.standard_normal((size, rows, cols))


@dataclass(frozen=True)
class MinorIdentityReport:
    """Worst relative residuals of the exact minor identities."""

    spec: EnsembleSpec
    trials: int
    tol: float
    max_coefficient_residual: float   # minor sums vs char-poly coefficients, over the sum of |minors|
    max_factorization_residual: float  # [w s]_J vs [w]_J [s]_J
    max_partial_product_excess: float             # eigenvalue over singular partial products

    @property
    def passed(self) -> bool:
        return (
            self.max_coefficient_residual <= self.tol
            and self.max_factorization_residual <= self.tol
            and self.max_partial_product_excess <= self.tol
        )


def run_minor_identity(config: ExperimentConfig) -> MinorIdentityReport:
    """Exact identities on random unitary-times-diagonal matrices.

    For each trial, checks (i) that order-i principal-minor sums equal the
    corresponding elementary symmetric functions of the eigenvalues, (ii)
    the minor factorization across the diagonal factor, and (iii) that
    eigenvalue-modulus partial products never exceed singular-value partial
    products beyond rounding.
    """
    spec = config.spec
    if spec.d > 6:
        raise ValueError("minor identity checks are limited to d <= 6")
    base = config.stream()
    worst_coeff = 0.0
    worst_factor = 0.0
    worst_bound = 0.0

    def worker(ci: int, count: int):
        gen = base.derive(_EXP_MINOR, 1, ci).generator()
        wc = wf = wh = 0.0
        d = spec.d
        for _ in range(count):
            s = sample_singular_values(spec, gen)
            w = sample_haar_unitary(d, spec.field, gen)
            a = w * s[None, :]
            eig = eig_by_modulus(a)
            coeffs = np.poly(eig)
            sigma = svd_descending(a).sigma
            for i in range(1, d + 1):
                total = 0.0 + 0.0j
                magnitude = 0.0  # scale of the rounding in total, also where total is 0
                for subset in itertools.combinations(range(d), i):
                    minor_a = principal_minor(a, subset)
                    total += minor_a
                    magnitude += abs(minor_a)
                    ref = principal_minor(w, subset) * np.prod(s[list(subset)])
                    scale = max(abs(minor_a), abs(ref))
                    if scale > 0:
                        wf = max(wf, abs(minor_a - ref) / scale)
                elem = (-1) ** i * coeffs[i]
                if magnitude > 0:
                    wc = max(wc, abs(total - elem) / magnitude)
            excess = np.cumsum(np.log(np.abs(eig))) - np.cumsum(np.log(sigma))
            wh = max(wh, float(np.exp(excess.max()) - 1.0))
        return wc, wf, wh

    parts = _map_chunks(_chunk_jobs(config.replications), worker, config.threads)
    for wc, wf, wh in parts:
        worst_coeff = max(worst_coeff, wc)
        worst_factor = max(worst_factor, wf)
        worst_bound = max(worst_bound, wh)
    return MinorIdentityReport(
        spec=spec,
        trials=config.replications,
        tol=_MINOR_TOL,
        max_coefficient_residual=worst_coeff,
        max_factorization_residual=worst_factor,
        max_partial_product_excess=worst_bound,
    )
