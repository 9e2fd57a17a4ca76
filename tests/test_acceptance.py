"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Monte Carlo criteria are
statistical statements checked at their stated tolerances; the master seed is
pinned so the suite is deterministic. Wall-time limits are asserted as stated.
"""
import math
import time

import numpy as np

from matprod import (
    EnsembleSpec,
    Ginibre,
    TruncatedHaar,
    analytic_spectrum,
    init_state,
    advance,
    lyapunov_qr_stream,
    sample_isotropic,
    single_step_estimate,
)
from matprod.cli import main
from matprod.experiments import (
    ExperimentConfig,
    run_equality,
    run_fluctuations,
    run_factorization_checks,
    run_minor_identity,
    run_real_probability,
)
from matprod.recordio import read_jsonl
from matprod.rng import RngStream

from conftest import stat_array

SEED = 1

# Brute-force Monte Carlo value for P(both eigenvalues of one 2x2 real
# Gaussian matrix are real), pre-registered from an independent 1e7-draw
# run (direct eigenvalue reality of raw samples, no product machinery);
# consistent with the exact 1/sqrt(2).
BRUTE_FORCE_P1 = 0.707124
BRUTE_FORCE_P1_SE = 0.000144

GINIBRE_R2 = EnsembleSpec("real", 2, Ginibre())
GINIBRE_R3 = EnsembleSpec("real", 3, Ginibre())


def verdict(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_single_step_real_ginibre_anchor():
    start = time.perf_counter()
    est = single_step_estimate(GINIBRE_R3, 100_000, RngStream(SEED).derive(101))
    lam = analytic_spectrum(GINIBRE_R3).lyapunov
    elapsed = time.perf_counter() - start
    z = np.abs(est.mean - lam) / est.se
    verdict(
        1,
        "single-step anchor, real Ginibre d=3",
        bool(np.all(z < 3) and elapsed < 30),
        f"max|z|={z.max():.2f} (limit 3), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_single_step_truncated_unitary_anchor():
    start = time.perf_counter()
    spec = EnsembleSpec("complex", 2, TruncatedHaar(4))
    est = single_step_estimate(spec, 100_000, RngStream(SEED).derive(102))
    target = np.array([-5 / 12, -3 / 4])
    elapsed = time.perf_counter() - start
    z = np.abs(est.mean - target) / est.se
    verdict(
        2,
        "single-step anchor, truncated unitary m=4 d=2",
        bool(np.all(z < 3) and elapsed < 60),
        f"mean=({est.mean[0]:.5f},{est.mean[1]:.5f}) vs (-5/12,-3/4), "
        f"max|z|={z.max():.2f}, {elapsed:.1f}s (limit 60s)",
    )


# The 5e-3 bound is tight for this test's sample size. At 100k steps of real
# Ginibre d=3 the standard errors of lambda are 1.53e-3, 2.03e-3 and 3.51e-3,
# so the bound is 3.3, 2.5 and 1.4 SE, and about 1 SE for lambda_3 in the
# stream-minus-single-step difference. On 200 fresh draws equal in law (i.i.d.
# QR diagonals of Ginibre factors) both checks passed 112 and 118 times in two
# runs. This seed passes; a correct change to the stream's draws fails the
# test about 4 times in 10 (ROADMAP item 4).
def test_criterion_3_qr_stream_consistency():
    stream_est = lyapunov_qr_stream(GINIBRE_R3, 100_000, RngStream(SEED).derive(103))
    lam = analytic_spectrum(GINIBRE_R3).lyapunov
    anchor_est = single_step_estimate(GINIBRE_R3, 100_000, RngStream(SEED).derive(101))
    dev = np.abs(stream_est.mean - lam)
    dev_est = np.abs(stream_est.mean - anchor_est.mean)
    verdict(
        3,
        "QR-stream consistency with criterion-1 values",
        bool(np.all(dev < 5e-3) and np.all(dev_est < 5e-3)),
        f"max deviation from analytic={dev.max():.2e}, from criterion-1 "
        f"estimate={dev_est.max():.2e} (limit 5e-3), skipped={stream_est.skipped}",
    )


def test_criterion_4_equality_of_exponents():
    start = time.perf_counter()
    cfg = ExperimentConfig(seed=SEED, spec=GINIBRE_R3, n_grid=(10, 100), replications=200)
    n10, n100 = run_equality(cfg)
    elapsed = time.perf_counter() - start
    combined = np.sqrt(stat_array(n100, "mean_singular", "se")**2 + stat_array(n100, "mean_stability", "se")**2)
    reference = stat_array(n100, "ref_lambda")
    z_sig = np.abs(stat_array(n100, "mean_singular") - reference) / combined
    z_stab = np.abs(stat_array(n100, "mean_stability") - reference) / combined
    maxgap10, maxgap100 = n10.stats["maxgap"].value, n100.stats["maxgap"].value
    decreasing = maxgap100 < maxgap10
    ok = bool(
        decreasing
        and np.all(z_sig < 3)
        and np.all(z_stab < 3)
        and elapsed < 300
    )
    verdict(
        4,
        "equality of exponent limits, real Ginibre d=3",
        ok,
        f"maxgap {maxgap10:.4f}@n=10 -> {maxgap100:.4f}@n=100, "
        f"max z_singular={z_sig.max():.2f}, max z_stability={z_stab.max():.2f} "
        f"(combined-SE limit 3), {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_5_fluctuation_covariances():
    start = time.perf_counter()
    cfg = ExperimentConfig(seed=SEED, spec=GINIBRE_R2, n_grid=(100,), replications=2000)
    (rec,) = run_fluctuations(cfg)
    elapsed = time.perf_counter() - start
    target = np.array([math.pi**2 / 24, math.pi**2 / 8])
    cov_singular = stat_array(rec, "cov_singular")
    diag = np.diag(cov_singular)
    rel = np.abs(diag - target) / target
    off_z = abs(cov_singular[0, 1]) / stat_array(rec, "cov_singular", "se")[0, 1]
    pair_z = np.abs(cov_singular - stat_array(rec, "cov_stability")) / stat_array(rec, "cov_diff_se")
    ok = bool(
        np.all(rel < 0.15) and off_z < 3 and np.all(pair_z < 3) and elapsed < 600
    )
    verdict(
        5,
        "Gaussian fluctuation covariances, real Ginibre d=2 n=100",
        ok,
        f"diag rel err={rel.max():.3f} (limit 0.15), offdiag |z|={off_z:.2f}, "
        f"eig-vs-singular max paired |z|={pair_z.max():.2f}, {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_6_all_real_probability():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        seed=SEED, spec=GINIBRE_R2, n_grid=(1,), replications=1_000_000, threads=2
    )
    p1 = run_real_probability(cfg)[0].stats
    p_hat, trials = p1["p_hat"].value, p1["trials"].value
    se_exp = math.sqrt(p_hat * (1 - p_hat) / trials)
    joint_se = math.sqrt(se_exp**2 + BRUTE_FORCE_P1_SE**2)
    z = abs(p_hat - BRUTE_FORCE_P1) / joint_se

    cfg_trend = ExperimentConfig(
        seed=SEED, spec=GINIBRE_R2, n_grid=(1, 25), replications=10_000, threads=2
    )
    t1, t25 = (rec.stats for rec in run_real_probability(cfg_trend))
    elapsed = time.perf_counter() - start
    ok = bool(
        z < 3
        and t25["p_hat"].value > t1["p_hat"].value
        and t25["wilson_low"].value > t1["wilson_high"].value
        and elapsed < 600
    )
    verdict(
        6,
        "all-real-eigenvalue probability, real Ginibre d=2",
        ok,
        f"p(1)={p_hat:.6f} vs pre-registered {BRUTE_FORCE_P1} (joint |z|={z:.2f}), "
        f"p(25)={t25['p_hat'].value:.4f} > p(1)={t1['p_hat'].value:.4f} with disjoint Wilson intervals, "
        f"{elapsed:.0f}s (limit 600s)",
    )


def test_criterion_7_factorization_suite():
    start = time.perf_counter()
    worst = 0.0
    failures = []
    for field in ("real", "complex"):
        cfg = ExperimentConfig(
            seed=SEED,
            spec=EnsembleSpec(field, 4, Ginibre()),
            n_grid=(1,),
            replications=2,
            mc_samples=100_000,
        )
        for row in run_factorization_checks(cfg):
            if row.stats["estimate"].se > 1e-9:
                worst = max(worst, abs(row.stats["z"].value))
            if not row.stats["passed"].value:
                failures.append(row)
    elapsed = time.perf_counter() - start
    ok = bool(not failures and elapsed < 300)
    verdict(
        7,
        "triangular-factorization suite, d<=4 both fields",
        ok,
        f"all corner/LQ/scaling rows within 3 SE (worst |z|={worst:.2f}), "
        f"{len(failures)} failures, {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_8_exact_identities():
    start = time.perf_counter()
    worst_coeff = worst_factor = worst_bound = 0.0
    for d in range(1, 7):
        field = "real" if d % 2 else "complex"
        spec = EnsembleSpec(field, d, Ginibre())
        cfg = ExperimentConfig(seed=SEED, spec=spec, n_grid=(1,), replications=170)
        stats = run_minor_identity(cfg).stats
        worst_coeff = max(worst_coeff, stats["max_coefficient_residual"].value)
        worst_factor = max(worst_factor, stats["max_factorization_residual"].value)
        worst_bound = max(worst_bound, stats["max_partial_product_excess"].value)

    worst_recursion = 0.0
    for d in (2, 3, 4):
        spec = EnsembleSpec("real" if d != 3 else "complex", d, Ginibre())
        gen = RngStream(SEED).derive(108, d).generator()
        factors = sample_isotropic(spec, gen, size=8)
        state = init_state(factors[0])
        explicit = np.array(factors[0])
        for k in range(1, 8):
            state = advance(state, factors[k])
            explicit = explicit @ factors[k]
            sv = np.linalg.svd(explicit, compute_uv=False)
            err = np.max(np.abs(state.log_sigma - np.log(sv))) / max(
                1.0, np.max(np.abs(np.log(sv)))
            )
            worst_recursion = max(worst_recursion, float(err))
    elapsed = time.perf_counter() - start
    ok = bool(
        worst_coeff < 1e-8
        and worst_factor < 1e-8
        and worst_bound < 1e-8
        and worst_recursion < 1e-8
        and elapsed < 60
    )
    verdict(
        8,
        "exact identities (minor sums, factorization, partial-product bound, recursion)",
        ok,
        f"residuals: coeff={worst_coeff:.2e}, factor={worst_factor:.2e}, "
        f"bound excess={worst_bound:.2e}, recursion={worst_recursion:.2e} "
        f"(limit 1e-8 each), {elapsed:.0f}s (limit 60s)",
    )


def test_criterion_9_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
    out = str(tmp_path / "repro.jsonl")
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(
        f'seed={SEED} field=real d=2 ensemble=ginibre n_grid=3,6 replications=400 '
        f'mc_samples=2000 out="{out}"\n'
    )
    byte_identical = True
    for experiment in ("lyapunov", "stability", "fluctuations", "realprob", "verify"):
        assert main(["run", experiment, "--config", str(cfg_path)]) == 0
        first = open(out, "rb").read()
        assert main(["run", experiment, "--config", str(cfg_path)]) == 0
        byte_identical &= open(out, "rb").read() == first

    assert main(["run", "realprob", "--config", str(cfg_path), "--threads", "1"]) == 0
    single = read_jsonl(out)[1]
    assert main(["run", "realprob", "--config", str(cfg_path), "--threads", "4"]) == 0
    threaded = read_jsonl(out)[1]
    stats_equal = all(
        a["stats"] == b["stats"] and a["n"] == b["n"] for a, b in zip(single, threaded)
    )
    verdict(
        9,
        "byte-identical reruns and thread-count invariance",
        bool(byte_identical and stats_equal),
        f"5 experiments rerun byte-identical={byte_identical}, "
        f"aggregated statistics identical across --threads={stats_equal}",
    )
