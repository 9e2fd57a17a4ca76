"""Replication-parallel experiment runners.

Each runner turns one limit statement into a desk-scale Monte Carlo check
with standard errors or Wilson intervals, and returns it as the result
records `matprod run` writes (unnumbered: seq = 0): run_lyapunov,
run_equality (the "stability" experiment), run_fluctuations,
run_real_probability and run_verify. verify_passed decides from a run's
records whether its checks passed, and is the verdict `matprod run` exits
on. Replications are drawn in fixed-size chunks, each chunk on its own
derived random stream, and chunk results are folded in index order - so
aggregated statistics are identical for any thread count adopted.

The trajectory runners (equality, fluctuations, reality) share one stack
worker. A stack is a run of consecutive chunks, as many whole ones as fit
in _STACK_ENTRIES factor entries and at least one, so its bounds follow
from the replications, the last grid point and d alone. The calling thread
computes the Philox key of every chunk's stream in one philox_keys call
(_chunk_jobs); the worker builds each chunk's generator from its key and
draws the chunk's factors from it (sample_isotropic_chunk, in the order of
one replication after the other), concatenates them in
chunk order and hands them to the runner's observer in one call; the
stacks, not the chunks, are what `threads` spreads over a pool. Every
observer is row-wise, so a row's bits do not depend on the rows that share
its stack. The observer advances the rows it needs together (evolve_stack:
one LQ a step, in closed form at d = 2 and by one QR call at d >= 3, where a
step takes one factor or an aligned block of 2, 4, 8, ... factors that passes
an exact conditioning guard, and one SVD call a grid point) and reads each
grid point off the stack in SVD form. The
reality observer counts complex pairs by one routine, pair_rows: at n = 1
on the well-conditioned factors themselves, so with n = 1 the only grid
point it evolves only the other rows, and in SVD form on the similarity
carrying the product's spectrum. Each grid point is read off its own
stack: a replication counts at n when its trajectory is alive in the stack
at n and its spectrum there converged, so one that fails at step k still
counts at the grid points before k.

The verify runners take whole samples: a minor-identity chunk reads its
trials off its stream one by one and checks them in stacked calls, and a law
check draws its sample in batches (_samples) and reads its rows off it.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ensembles import EnsembleSpec, sample_ginibre, sample_haar_unitary, sample_isotropic_chunk, sample_singular_values
from .exponents import (
    _bound_clears,
    _samples,
    analytic_spectrum,
    analytic_truncated_logdet,
    evolve_stack,
    lyapunov_qr_stream,
    pair_rows,
    single_step_estimate,
    stability_rows,
    supports_analytic_spectrum,
)
from .linalg import NumericError, lq_positive
from .recordio import FORMATS, ResultRecord, Stat
from .rng import RngStream, philox_generator, philox_keys

__all__ = [
    "ExperimentConfig",
    "run_lyapunov",
    "run_equality",
    "run_fluctuations",
    "run_real_probability",
    "run_verify",
    "run_factorization_checks",
    "run_minor_identity",
    "verify_passed",
    "wilson_interval",
]

# Replications per derived stream; fixed so that stream derivation, and
# therefore every sampled bit, is independent of the thread count.
_CHUNK = 256
# Factor entries (replications x n_max x d^2) one observer call may take:
# whole chunks are stacked up to it, and a chunk over it is a stack alone.
# Short trajectories pay fixed numpy dispatch on every observer call (at
# n = 1, d = 2 a row, drawn and classified, costs 0.57-0.60 us on a 256-row
# chunk and 0.18-0.20 us on 3072 rows), and with threads > 1 each stack is a
# pool hand-off. 2^18 entries (2 MB of real factors) makes a
# 3072-replication n = 1 run one call on the calling thread, and keeps
# criterion 6 (10^6 replications at n = 1, d = 2, threads=2: 16 stacks) at a
# peak RSS of 80-82 MB, against 66 MB with one call a chunk (in-process run,
# 2-core Xeon, BLAS on 1 thread).
_STACK_ENTRIES = 1 << 18

# Stream derivation indices: (experiment, role, index) with role 0 for the
# reference estimator and role 1 for replication chunks.
_EXP_EQUALITY = 1
_EXP_FLUCT = 2
_EXP_REALPROB = 3
_EXP_FACTOR = 4
_EXP_MINOR = 5
_EXP_LYAPUNOV = 6  # run_lyapunov: role 0 single-step, role 1 QR stream

# Worst relative residual the exact minor identities may show.
_MINOR_TOL = 1e-8

_Z95 = 1.959963984540054
# Family-wise level of verify_passed over the check rows: the two-sided level of one 3-SE test.
_FAMILY_LEVEL = 0.0027
# Floor of every check's tolerance: absorbs pure rounding noise in exactly-zero checks.
_CHECK_FLOOR = 1e-12

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
        if self.format not in FORMATS:
            raise ValueError(f"format must be {' or '.join(FORMATS)}, got {self.format!r}")
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


def _chunk_jobs(total: int, stream: RngStream) -> list[tuple[np.ndarray, int]]:
    """(key, count) of each chunk covering range(total), in order: the Philox key of
    chunk ci's stream, stream.derive(ci), and its replications. Every key of the
    run is computed here, on the calling thread, in one philox_keys call."""
    counts = [min(_CHUNK, total - start) for start in range(0, total, _CHUNK)]
    return list(zip(philox_keys(stream, range(len(counts))), counts))


def _stack_jobs(total: int, n_max: int, d: int, stream: RngStream) -> list[list[tuple[np.ndarray, int]]]:
    """_chunk_jobs(total, stream) cut into stacks of consecutive chunks: as many whole
    chunks of _CHUNK * n_max * d^2 factor entries as fit in _STACK_ENTRIES, at least one."""
    jobs = _chunk_jobs(total, stream)
    per = max(1, _STACK_ENTRIES // (_CHUNK * n_max * d * d))
    return [jobs[i:i + per] for i in range(0, len(jobs), per)]


def _map_chunks(jobs, worker: Callable, threads: int) -> list:
    """worker(*job) for every job, in order; on a pool only with threads > 1 and more than one job."""
    if threads <= 1 or len(jobs) <= 1:
        return [worker(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(lambda job: worker(*job), jobs))


def _reference(config: ExperimentConfig, exp_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference exponents, their SEs (0 for a closed form) and the fluctuation covariance:
    the closed form where one exists, else the single-step estimate on stream (exp_index, 0, 0)."""
    spec = config.spec
    if supports_analytic_spectrum(spec):
        spectrum = analytic_spectrum(spec)
        return spectrum.lyapunov, np.zeros(spec.d), np.diag(spectrum.variance)
    est = single_step_estimate(spec, config.mc_samples, config.stream().derive(exp_index, 0, 0))
    return est.mean, est.se, est.cov


def _observe_chunks(config: ExperimentConfig, exp_index: int, grid: Sequence[int], observe: Callable) -> list:
    """observe(factors, grid) for every stack of chunks, in chunk order;
    factors is the (count, grid[-1], d, d) draws of the stack's chunks, concatenated."""
    spec, n_max = config.spec, grid[-1]

    def worker(*chunks: tuple[np.ndarray, int]):
        draws = [sample_isotropic_chunk(spec, philox_generator(key), count, n_max) for key, count in chunks]
        # a lone chunk goes as drawn: copying it cost 2% of a 100-replication n = 100 run
        return observe(draws[0] if len(draws) == 1 else np.concatenate(draws), grid)

    stacks = _stack_jobs(config.replications, n_max, spec.d, config.stream().derive(exp_index, 1))
    return _map_chunks(stacks, worker, config.threads)


def _observe_exponents(factors: np.ndarray, grid: Sequence[int]):
    """Scaled log singular values and log eigenvalue moduli, (B, grid, d)
    each, and which rows count at each grid point, (B, grid): those alive in
    its stack whose spectrum there converged."""
    stacks = evolve_stack(factors, grid)
    sig = np.stack([s.log_sigma / s.n for s in stacks], axis=1)
    stab = np.full_like(sig, np.nan)
    ok = np.stack([s.ok for s in stacks], axis=1)
    for gi, s in enumerate(stacks):
        rows = np.flatnonzero(ok[:, gi])
        logs, failure = stability_rows(s.log_sigma[rows], s.u_frame[rows], s.v_frame[rows])
        stab[rows, gi] = logs / s.n
        ok[rows, gi] = np.equal(failure, None)
    return sig, stab, ok


def _exponent_samples(config: ExperimentConfig, exp_index: int, grid: Sequence[int]):
    """(singular, stability) samples of the rows that count at each grid point, (count, d) each."""
    parts = _observe_chunks(config, exp_index, grid, _observe_exponents)
    sig, stab, ok = (np.concatenate(p) for p in zip(*parts))
    for gi, n in enumerate(grid):
        if int(ok[:, gi].sum()) < 2:
            raise NumericError(f"fewer than 2 replications survived at n={n}; cannot report statistics")
    return [(sig[ok[:, gi], gi], stab[ok[:, gi], gi]) for gi in range(len(grid))]


def _reality_pairs(factors: np.ndarray, grid: Sequence[int]) -> np.ndarray:
    """Complex pairs (eigenvalues with imaginary part > 0) of each row's
    product at each grid point, (B, len(grid)), or -1 for a row dropped by
    then or unconverged, all by pair_rows. At n = 1 a factor that clears
    _bound_clears (not singular, spread < 23: the graded routine's LAPACK
    branch) is classified off the factor itself, at log scale 0. The rest,
    and a factor whose eigenvalue iteration does not converge (with the grid
    (1,) only they are evolved), and every row at a later grid point, are
    classified on q = v @ u with log sigma."""
    m = factors[:, 0]
    pairs = np.full((len(m), len(grid)), -1)
    by_svd = np.ones(len(m), dtype=bool)  # rows classified at grid[0] from the SVD form
    if grid[0] == 1:
        first = pair_rows(m, np.zeros(m.shape[:2]))
        by_svd = ~_bound_clears(m) | (first < 0)
        pairs[:, 0] = np.where(by_svd, -1, first)
    evolved = np.arange(len(m))
    if len(grid) == 1:
        evolved = np.flatnonzero(by_svd)
        factors = factors[evolved]
    for gi, s in enumerate(evolve_stack(factors, grid) if evolved.size else ()):
        rows = np.flatnonzero(s.ok & by_svd[evolved]) if gi == 0 else np.flatnonzero(s.ok)
        pairs[evolved[rows], gi] = pair_rows(s.v_frame[rows] @ s.u_frame[rows], s.log_sigma[rows])
    return pairs


def _observe_reality(factors: np.ndarray, grid: Sequence[int]):
    """All-real and classified counts per grid point."""
    pairs = _reality_pairs(factors, grid)
    return np.count_nonzero(pairs == 0, axis=0), np.count_nonzero(pairs >= 0, axis=0)


def _stat_vec(prefix: str, values, se=None, count=None) -> dict[str, Stat]:
    """Stats prefix_1, prefix_2, ... of a vector, with its SEs if given."""
    ses = [None] * np.size(values) if se is None else np.atleast_1d(se).tolist()
    return {f"{prefix}_{i}": Stat(float(v), s, count) for i, (v, s) in enumerate(zip(np.atleast_1d(values), ses), 1)}


def _record(experiment: str, spec: EnsembleSpec, n: int, replications: int, stats: dict[str, Stat],
            d: Optional[int] = None) -> ResultRecord:
    """A record of spec's ensemble; d defaults to spec's. matprod run numbers the records."""
    return ResultRecord(experiment, d or spec.d, spec.field, spec.ensemble_text, n, replications, 0, stats)


def _mean_se(x: np.ndarray) -> np.ndarray:
    """Standard error of the mean over replications (axis 0)."""
    return x.std(axis=0, ddof=1) / math.sqrt(x.shape[0])


def run_lyapunov(config: ExperimentConfig) -> list[ResultRecord]:
    """Lyapunov exponents two ways: the single-step estimate over mc_samples
    factors and one QR stream of mc_samples steps, each next to the closed
    form where one exists."""
    spec, mc = config.spec, config.mc_samples
    ref = _stat_vec("ref_lambda", analytic_spectrum(spec).lyapunov) if supports_analytic_spectrum(spec) else {}
    est = single_step_estimate(spec, mc, config.stream().derive(_EXP_LYAPUNOV, 0, 0))
    qr = lyapunov_qr_stream(spec, mc, config.stream().derive(_EXP_LYAPUNOV, 1, 0))
    return [
        _record("lyapunov:single-step", spec, 1, mc, {**_stat_vec("lambda", est.mean, est.se, est.count), **ref}),
        _record("lyapunov:qr-stream", spec, mc, 1,
                {**_stat_vec("lambda", qr.mean, qr.se, mc), **ref, "skipped": Stat(float(qr.skipped))}),
    ]


def run_equality(config: ExperimentConfig) -> list[ResultRecord]:
    """Convergence of scaled log singular values and log eigenvalue moduli.

    Per replication the product advances through n_grid on one trajectory
    (grid points are checkpoints of the same path, hence dependent across n);
    at each grid point both exponent vectors are recorded and compared to the
    reference. Each grid point n averages the replications alive at n whose
    spectrum there converged (its record's replications); one that overflows
    or hits a singular step is dropped from that step on. One "stability"
    record per grid point.
    """
    spec = config.spec
    ref, ref_se, _ = _reference(config, _EXP_EQUALITY)
    records = []
    for n, (s, e) in zip(config.n_grid, _exponent_samples(config, _EXP_EQUALITY, config.n_grid)):
        used = s.shape[0]
        maxgap = np.abs(s - e).max(axis=1)
        stats = {
            **_stat_vec("mean_singular", s.mean(axis=0), _mean_se(s), used),
            **_stat_vec("mean_stability", e.mean(axis=0), _mean_se(e), used),
        }
        for name, gap in (("gap_singular_stability", np.abs(s - e)), ("gap_singular_ref", np.abs(s - ref)),
                          ("gap_stability_ref", np.abs(e - ref))):
            stats.update(_stat_vec(name, gap.mean(axis=0), _mean_se(gap)))
        # max over components of |singular_i - stability_i|, per replication
        stats["maxgap"] = Stat(float(maxgap.mean()), float(_mean_se(maxgap)), used)
        stats["maxgap_worst"] = Stat(float(maxgap.max()))
        stats.update(_stat_vec("ref_lambda", ref, ref_se))
        stats["skipped"] = Stat(float(config.replications - used))
        records.append(_record("stability", spec, n, used, stats))
    return records


def _cov_entry_se(cov: np.ndarray, count: int) -> np.ndarray:
    diag = np.diag(cov)
    return np.sqrt((np.outer(diag, diag) + cov**2) / (count - 1))


def run_fluctuations(config: ExperimentConfig) -> list[ResultRecord]:
    """Covariance of sqrt(n)-scaled fluctuations at n = last grid point.

    Both the singular-value and the eigenvalue-modulus fluctuation
    covariances are estimated from the same replications, each entry with
    its large-sample SE; the paired SE of the entrywise difference and the
    reference covariance stand alongside. One record.
    """
    if config.replications < 100:
        raise ValueError("fluctuation runs need replications >= 100")
    spec = config.spec
    n = config.n_grid[-1]
    sig, stab = _exponent_samples(config, _EXP_FLUCT, (n,))[0]
    used = sig.shape[0]

    x = math.sqrt(n) * sig
    y = math.sqrt(n) * stab
    cov_x = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    cov_y = np.atleast_2d(np.cov(y, rowvar=False, ddof=1))
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    prod_diff = xc[:, :, None] * xc[:, None, :] - yc[:, :, None] * yc[:, None, :]
    diff_se = _mean_se(prod_diff)
    _, _, ref_cov = _reference(config, _EXP_FLUCT)
    se_x, se_y = _cov_entry_se(cov_x, used), _cov_entry_se(cov_y, used)

    stats: dict[str, Stat] = {}
    for i in range(spec.d):
        for j in range(i, spec.d):
            ij = f"{i + 1}_{j + 1}"
            stats[f"cov_singular_{ij}"] = Stat(float(cov_x[i, j]), float(se_x[i, j]), used)
            stats[f"cov_stability_{ij}"] = Stat(float(cov_y[i, j]), float(se_y[i, j]), used)
            stats[f"cov_diff_se_{ij}"] = Stat(float(diff_se[i, j]))
            stats[f"ref_cov_{ij}"] = Stat(float(ref_cov[i, j]))
    stats["skipped"] = Stat(float(config.replications - used))
    return [_record("fluctuations", spec, n, used, stats)]


def run_real_probability(config: ExperimentConfig) -> list[ResultRecord]:
    """Probability that every eigenvalue of the running product is real.

    Every replication alive at a grid point is classified there, whatever
    its spread, by its count of complex pairs (_reality_pairs, pair_rows):
    at n = 1 from the factor itself when it is well conditioned, else from
    the similarity carrying the product's spectrum.
    At each n, the replications whose trajectory failed by n, or whose
    eigenvalue iteration at n does not converge, are excluded and counted.
    One "realprob" record per grid point: p_hat with its Wilson interval.
    """
    spec = config.spec
    if spec.field != "real":
        raise ValueError("realprob requires field=real")
    grid = config.n_grid
    real, classified = np.sum(_observe_chunks(config, _EXP_REALPROB, grid, _observe_reality), axis=0)

    records = []
    for gi, n in enumerate(grid):
        trials = int(classified[gi])
        hits = int(real[gi])
        if trials == 0:
            raise NumericError(f"no classifiable replications at n={n}")
        p_hat = hits / trials
        lo, hi = wilson_interval(hits, trials)
        records.append(_record("realprob", spec, n, config.replications, {
            "p_hat": Stat(p_hat, (p_hat * (1 - p_hat) / trials) ** 0.5, trials),
            "all_real": Stat(float(hits)),
            "trials": Stat(float(trials)),
            "wilson_low": Stat(lo),
            "wilson_high": Stat(hi),
            # trajectory failed by n (singular step, overflow, SVD) or unconverged classification at n
            "excluded": Stat(float(config.replications - trials)),
        }))
    return records


def _check(spec: EnsembleSpec, check: str, d: int, index: int, estimate: float, reference: float, se: float,
           samples: int) -> ResultRecord:
    """One verify check row, estimate against reference: its z (0 where SE = 0)
    and its own 3-SE verdict; index is the corner size i, diagonal slot j or
    Haar dimension m, written as the record's n."""
    return _record(f"verify:{check}:field={spec.field}:d={d}", spec, index, samples, {
        "estimate": Stat(estimate, se, samples),
        "reference": Stat(reference),
        "z": Stat((estimate - reference) / se if se > 0 else 0.0),
        "passed": Stat(float(abs(estimate - reference) <= 3.0 * se + _CHECK_FLOOR)),
    }, d=d)


def verify_passed(records: Sequence[ResultRecord]) -> bool:
    """Verdict `matprod run` exits on. The check rows (the records
    with a z) are one family at the family-wise level _FAMILY_LEVEL: Holm's
    step-down over the rows with SE > 0, each a two-sided z test of its
    distance to the reference beyond the floor for rounding noise that a
    row's own passed allows too. It rejects some row exactly when its first
    step does, when the smallest p-value is at most the level over the count
    of such rows. A row with SE = 0 passes within the floor; a NaN fails.
    Every other record with a passed stat stands alone; the rest carry no
    verdict.
    """
    checks = [rec.stats for rec in records if "passed" in rec.stats]
    family = [(s["estimate"].value - s["reference"].value, s["estimate"].se) for s in checks if "z" in s]
    z = [(abs(gap) - _CHECK_FLOOR) / se for gap, se in family if se > 0]
    return (all(math.erfc(max(v, 0.0) / math.sqrt(2)) > _FAMILY_LEVEL / len(z) for v in z)
            and all(abs(gap) <= _CHECK_FLOOR for gap, se in family if not se > 0)
            and all(s["passed"].value for s in checks if "z" not in s))


def _moment_rows(spec: EnsembleSpec, check: str, d: int, index: int, x: np.ndarray, mean_ref: float,
                 var_ref: Optional[float] = None) -> list[ResultRecord]:
    """Check rows of sample x: its mean against mean_ref and, given var_ref (check then has a {} for mean/var),
    its variance against var_ref, with the large-sample SE from the fourth central moment."""
    n, mean = x.shape[0], x.mean()
    rows = [_check(spec, check.format("mean"), d, index, float(mean), mean_ref, float(_mean_se(x)), n)]
    if var_ref is not None:
        c2 = (x - mean) ** 2
        var_se = math.sqrt(max(float((c2**2).mean() - c2.mean() ** 2), 0.0) / n)
        rows.append(_check(spec, check.format("var"), d, index, float(x.var(ddof=1)), var_ref, var_se, n))
    return rows


def run_factorization_checks(config: ExperimentConfig) -> list[ResultRecord]:
    """Triangular-factorization checks tying Gaussian and Haar samples together.

    (a) Monte Carlo mean of log |det(corner of a Haar matrix)| against the
        chi-square telescoping value, for every corner size i <= d <= spec.d.
    (b) Row-orthogonalization of Gaussian matrices: squared diagonal entries
        against their chi-square mean/variance, off-diagonals against the
        standard normal, for square and one-row-short shapes.
    (c) Scaling: corner entries of an (m = 4d) Haar matrix times sqrt(m) have
        unit second moment.
    (d) Phase: mean of Re u_11 over the draws of (a), against 0. Only this
        row sees a sampler that skips the positive-diagonal normalization:
        (a) and (c) read moduli, blind to the column phases it fixes.
    One record a check row (_check), in the order (a), (b), (c), (d).
    """
    spec, field, mc, base = config.spec, config.spec.field, config.mc_samples, config.stream()
    rows: list[ResultRecord] = []
    phase_rows = []  # last, so every other row keeps its place in the records

    for d in range(1, spec.d + 1):
        gen = base.derive(_EXP_FACTOR, 1, d).generator()

        def corner(b: int) -> np.ndarray:  # columns: Re u_11, then log |det| of each corner
            u = sample_haar_unitary(d, field, gen, size=b)
            return np.stack([u[:, 0, 0].real, *(np.log(np.abs(np.linalg.det(u[:, :i, :i]))) for i in range(1, d + 1))],
                            axis=1)

        x = _samples(mc, corner)
        for i in range(1, d + 1):
            rows += _moment_rows(spec, "corner-logdet", d, i, x[:, i], analytic_truncated_logdet(i, d, field))
        phase_rows += _moment_rows(spec, "haar-phase", d, 1, x[:, 0], 0.0)

    for d in range(1, spec.d + 1):
        for nrows in [d] if d == 1 else [d, d - 1]:
            gen = base.derive(_EXP_FACTOR, 2, d, nrows).generator()
            li, lj = np.tril_indices(nrows, k=-1)

            def lq(b: int) -> np.ndarray:  # columns: squared diagonal, then the off-diagonals' parts
                t = lq_positive(sample_ginibre(nrows, d, field, gen, size=b)).t
                tril = t[:, li, lj]
                parts = [tril.real, tril.imag] if field == "complex" else [tril]
                return np.concatenate([np.diagonal(t, axis1=-2, axis2=-1).real ** 2, *parts], axis=1)

            x = _samples(mc, lq)
            for j in range(1, nrows + 1):
                k = (2 if field == "complex" else 1) * (d - j + 1)
                rows += _moment_rows(spec, f"lq-diag-{{}}:rows={nrows}", d, j, x[:, j - 1], float(k), float(2 * k))
            if nrows > 1:
                off = x[:, nrows:].reshape(-1)  # every part of every off-diagonal entry is one sample
                rows += _moment_rows(spec, f"lq-offdiag-{{}}:rows={nrows}", d, nrows, off, 0.0, 1.0)

    for d in range(1, spec.d + 1):
        m = 4 * d
        gen = base.derive(_EXP_FACTOR, 3, d).generator()

        def scaling(b: int) -> np.ndarray:
            u = sample_haar_unitary(m, field, gen, size=b)
            return (m * np.abs(u[:, :d, :d]) ** 2).reshape(b, -1).mean(axis=1)

        rows += _moment_rows(spec, "corner-scaling", d, m, _samples(min(mc, 20_000), scaling), 1.0)

    return rows + phase_rows


def _char_poly(roots: np.ndarray) -> np.ndarray:
    """np.poly(roots[b]) as complex, row by row: c_k - z c_(k-1) for each root
    z in turn, its terms rounded in the order np.poly's convolution takes them."""
    c = np.zeros((len(roots), roots.shape[1] + 1), dtype=np.complex128)
    c[:, 0] = 1.0
    for k, z in enumerate(roots.T[:, :, None]):
        prev, cur = c[:, :k + 1], c[:, 1:k + 2]
        c[:, 1:k + 2] = ((cur.real - z.real * prev.real) + z.imag * prev.imag
                         + 1j * ((cur.imag - z.real * prev.imag) - z.imag * prev.real))
    return c


def _worst_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Largest num / den over the entries with den > 0; 0 if there are none."""
    return float(np.divide(num, den, out=np.zeros(den.shape), where=den > 0).max())


def run_minor_identity(config: ExperimentConfig) -> ResultRecord:
    """Exact identities on random unitary-times-diagonal matrices.

    For each trial, checks (i) that order-i principal-minor sums equal the
    corresponding elementary symmetric functions of the eigenvalues, (ii)
    the minor factorization across the diagonal factor, and (iii) that
    eigenvalue-modulus partial products never exceed singular-value partial
    products beyond rounding. A chunk reads its trials off its stream one
    after the other, then checks them together: one eigvals and one SVD
    call, and one det call per index subset. One record of the worst
    relative residual of each, passed when none is over _MINOR_TOL.
    """
    spec, d = config.spec, config.spec.d
    if d > 6:
        raise ValueError("minor identity checks are limited to d <= 6")

    def worker(key: np.ndarray, count: int):
        gen = philox_generator(key)
        draws = [(sample_singular_values(spec, gen), sample_haar_unitary(d, spec.field, gen)) for _ in range(count)]
        s, w = (np.stack(part) for part in zip(*draws))
        a = w * s[:, None, :]
        eig = np.linalg.eigvals(a).astype(np.complex128)
        order = np.lexsort((-eig.imag, -eig.real, -np.abs(eig)), axis=-1)  # descending modulus
        eig = np.take_along_axis(eig, order, axis=-1)
        coeffs = _char_poly(eig)
        coeffs = coeffs if spec.field == "complex" else coeffs.real  # np.poly's result for conjugate pairs
        wc, wf = [], []  # worst residual of each order's minor sum, of each subset's factorization
        for i in range(1, d + 1):
            total, magnitude = 0j, 0.0  # magnitude: scale of the rounding in total, also where total is 0
            for subset in itertools.combinations(range(d), i):
                rows = (slice(None), *np.ix_(subset, subset))
                minor_a = np.linalg.det(a[rows])
                total, magnitude = total + minor_a, magnitude + np.abs(minor_a)
                ref = np.linalg.det(w[rows]) * np.prod(s[:, subset], axis=1)
                wf.append(_worst_ratio(np.abs(minor_a - ref), np.maximum(np.abs(minor_a), np.abs(ref))))
            wc.append(_worst_ratio(np.abs(total - (-1) ** i * coeffs[:, i]), magnitude))
        excess = np.cumsum(np.log(np.abs(eig)), axis=1) - np.cumsum(np.log(np.linalg.svd(a)[1]), axis=1)
        return max(wc), max(wf), float(np.exp(excess.max()) - 1.0)

    parts = _map_chunks(_chunk_jobs(config.replications, config.stream().derive(_EXP_MINOR, 1)), worker,
                        config.threads)
    worst = [max(0.0, *column) for column in zip(*parts)]
    return _record("verify:minor-identity", spec, spec.d, config.replications, {
        # minor sums vs char-poly coefficients, over the sum of |minors|
        "max_coefficient_residual": Stat(worst[0]),
        "max_factorization_residual": Stat(worst[1]),  # [w s]_J vs [w]_J [s]_J
        "max_partial_product_excess": Stat(worst[2]),  # eigenvalue over singular partial products
        "tol": Stat(_MINOR_TOL),
        "passed": Stat(float(all(w <= _MINOR_TOL for w in worst))),
    })


def run_verify(config: ExperimentConfig) -> list[ResultRecord]:
    """Records of both verification runs: the minor identities, then one
    record a factorization check row; a check that failed has passed = 0,
    and verify_passed gives the run's verdict."""
    return [run_minor_identity(config), *run_factorization_checks(config)]
