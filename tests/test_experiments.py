import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from matprod.ensembles import (
    CustomSingular,
    EnsembleSpec,
    Ginibre,
    HaarScaled,
    ScalarLaw,
)
from matprod import experiments, exponents
from matprod.experiments import (
    ExperimentConfig,
    run_equality,
    run_fluctuations,
    run_factorization_checks,
    run_minor_identity,
    run_real_probability,
    verify_passed,
    wilson_interval,
)
from matprod.ensembles import (
    parse_ensemble,
    sample_ginibre,
    sample_haar_unitary,
    sample_isotropic_chunk,
    sample_singular_values,
)
from matprod.exponents import single_step_estimate
from matprod.linalg import RANK_RTOL, NumericError, SingularInputError, count_complex_pairs, qr_positive
from matprod.recordio import ResultRecord, Stat
from matprod.rng import RngStream, philox_generator

from conftest import stat_array

GINIBRE_R2 = EnsembleSpec("real", 2, Ginibre())
GINIBRE_R3 = EnsembleSpec("real", 3, Ginibre())
FLAT = EnsembleSpec("real", 2, HaarScaled(ScalarLaw("const", (1.0,))))
# about 5% of its factors are numerically singular
LOGNORMAL_R2 = EnsembleSpec("real", 2, CustomSingular(iid=ScalarLaw("lognormal", (0.0, 10.0))))


def cfg(spec, **kw):
    base = dict(seed=314, n_grid=(5,), replications=64)
    base.update(kw)
    return ExperimentConfig(spec=spec, **base)


# --- config validation -------------------------------------------------------


def test_config_rejects_bad_grid():
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, n_grid=(5, 5))
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, n_grid=(10, 2))
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, n_grid=())
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, n_grid=(0,))


def test_config_rejects_bad_counts():
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, replications=0)
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, mc_samples=1)
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, threads=0)
    with pytest.raises(ValueError):
        cfg(GINIBRE_R2, format="xml")


# --- wilson ------------------------------------------------------------------


def test_wilson_contains_point_estimate():
    # the clamp in wilson_interval is all that keeps a realprob record's p_hat
    # inside its interval: every k for small n, the ends for n up to 10^7
    cases = [(k, n) for n in (1, 2, 3, 10, 997) for k in range(n + 1)]
    wide = sorted({10**e for e in range(8)} | {2**e for e in range(24)} | {3, 7, 997, 3072, 999_983})
    cases += [(k, n) for n in wide for k in {0, 1, n - 1, n}]
    for k, n in cases:
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0, (k, n)


def test_wilson_tightens_with_n():
    lo1, hi1 = wilson_interval(70, 100)
    lo2, hi2 = wilson_interval(7000, 10_000)
    assert hi2 - lo2 < hi1 - lo1


def test_wilson_known_value():
    # z = 1.959964, p = 0.5, n = 100: center 0.5, half = z/(1+z^2/n)*sqrt(...)
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=5e-5)
    assert hi == pytest.approx(0.59617, abs=5e-5)


def test_wilson_rejects_bad_input():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


# --- equality experiment -------------------------------------------------


def test_equality_flat_ensemble_all_gaps_zero():
    for rec in run_equality(cfg(FLAT, n_grid=(3, 6), replications=32)):
        assert rec.stats["maxgap_worst"].value < 1e-12
        assert np.all(stat_array(rec, "gap_singular_stability") < 1e-12)
        assert rec.replications == 32


def test_equality_scalar_dimension_gap_zero():
    spec = EnsembleSpec("real", 1, Ginibre())
    for rec in run_equality(cfg(spec, n_grid=(4, 9), replications=32)):
        assert rec.stats["maxgap_worst"].value < 1e-12


def test_equality_gap_decreases_with_n():
    n10, n50 = run_equality(cfg(GINIBRE_R2, seed=7, n_grid=(10, 50), replications=100))
    assert n50.stats["maxgap"].value < n10.stats["maxgap"].value


def test_equality_reference_sources():
    # the closed form's SEs are 0, the single-step estimate's are not
    analytic = run_equality(cfg(GINIBRE_R2, replications=16))[0]
    assert np.all(stat_array(analytic, "ref_lambda", "se") == 0.0)
    custom = run_equality(
        cfg(
            EnsembleSpec("real", 2, CustomSingular(values=(2.0, 1.0))),
            replications=16,
            mc_samples=4000,
        )
    )[0]
    assert np.all(stat_array(custom, "ref_lambda", "se") > 0)


def test_equality_statistics_carry_counts():
    rec = run_equality(cfg(GINIBRE_R2, replications=24))[0]
    assert rec.replications == 24 and rec.stats["maxgap"].count == 24
    assert np.all(stat_array(rec, "mean_singular", "se") > 0)
    assert np.all(stat_array(rec, "gap_singular_ref", "se") >= 0)


@pytest.mark.parametrize(
    "runner, spec, grid, replications, budget, threads",
    [(run_equality, GINIBRE_R3, (5, 12), 300, 1, 3), (run_fluctuations, GINIBRE_R3, (5, 12), 300, 1, 3),
     (run_real_probability, GINIBRE_R3, (5, 12), 300, 1, 3), (run_real_probability, LOGNORMAL_R2, (5, 12), 300, 1, 3),
     (run_minor_identity, GINIBRE_R3, (5, 12), 300, 1, 3),
     (run_real_probability, GINIBRE_R2, (1,), 19 * 256 + 100, 4 * 256 * 4, 2)],
    ids=["equality", "fluctuations", "realprob", "realprob-failing-rows", "minor-identity", "realprob-n1-stacks"],
)
def test_thread_count_invariant(runner, spec, grid, replications, budget, threads, monkeypatch):
    # 300 replications: one full chunk and a 44-row tail chunk, one stack each
    # (the minor identities map the chunks themselves) so that threads=3 runs
    # them on the pool; on LOGNORMAL_R2 rows drop at singular factors between
    # and before the grid points. realprob-n1-stacks is criterion 6 in small:
    # n = 1, 20 chunks in 5 stacks of 4 chunks, on a pool of 2
    monkeypatch.setattr(experiments, "_STACK_ENTRIES", budget)
    results = [
        runner(ExperimentConfig(seed=99, spec=spec, n_grid=grid, replications=replications, threads=t))
        for t in (1, threads)
    ]
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "runner, spec, grid",
    [(run_equality, GINIBRE_R3, (5, 12)), (run_equality, EnsembleSpec("complex", 3, Ginibre()), (5, 12)),
     (run_fluctuations, GINIBRE_R2, (12,)), (run_real_probability, GINIBRE_R2, (1,)),
     (run_real_probability, GINIBRE_R2, (5, 12)), (run_real_probability, LOGNORMAL_R2, (1, 5, 12))],
    ids=["equality-real", "equality-complex", "fluctuations", "realprob-n1", "realprob", "realprob-failing-rows"],
)
def test_results_do_not_depend_on_stack_bounds(runner, spec, grid, monkeypatch):
    # 600 replications: two full chunks and an 88-row tail, as three stacks and as one
    results = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(experiments, "_STACK_ENTRIES", budget)
        results.append(runner(ExperimentConfig(seed=98, spec=spec, n_grid=grid, replications=600)))
    assert results[0] == results[1]


@pytest.mark.parametrize("spec, budget, stacks", [
    pytest.param(spec, budget, stacks, id=f"{name}{budget}-{stacks}")
    for name, spec in [("", GINIBRE_R2), ("complex-", EnsembleSpec("complex", 2, Ginibre())),
                       ("truncated-haar-", EnsembleSpec("real", 2, parse_ensemble("truncated-haar:m=5"))),
                       ("custom-laws-", EnsembleSpec("real", 2, parse_ensemble("custom:laws(uniform(1,2),chisq(3))")))]
    for budget, stacks in [(1, 5), (2 * 256 * 3 * 4, 3), (1 << 40, 1)]])
def test_each_observer_call_takes_whole_consecutive_chunks(spec, budget, stacks, monkeypatch):
    monkeypatch.setattr(experiments, "_STACK_ENTRIES", budget)
    config = cfg(spec, seed=7, n_grid=(3,), replications=1100)
    calls = []
    experiments._observe_chunks(config, 3, config.n_grid, lambda factors, grid: calls.append(factors))
    # chunk ci is drawn from numpy's own SeedSequence(seed, spawn_key=(3, 1, ci))
    chunks = [sample_isotropic_chunk(spec, np.random.Generator(np.random.Philox(
        np.random.SeedSequence(7, spawn_key=(3, 1, ci)))), count, 3) for ci, count in enumerate([256] * 4 + [76])]
    assert len(calls) == stacks
    start = 0
    for factors in calls:
        sizes = np.cumsum([len(c) for c in chunks[start:]])
        k = int(np.searchsorted(sizes, len(factors))) + 1
        assert sizes[k - 1] == len(factors)
        np.testing.assert_array_equal(factors, np.concatenate(chunks[start:start + k]))
        assert k == 1 or factors.size <= budget
        start += k
    assert start == len(chunks)


@pytest.mark.parametrize("budget, pooled", [(1 << 40, False), (1, True)])
def test_threads_take_a_pool_only_for_more_than_one_stack(budget, pooled, monkeypatch):
    # 600 replications: one stack, or three with one chunk a stack
    monkeypatch.setattr(experiments, "_STACK_ENTRIES", budget)
    built = []
    pool = experiments.ThreadPoolExecutor

    def spy(*args, **kwargs):
        if not pooled:
            raise AssertionError("a one-stack run built a thread pool")
        built.append(kwargs)
        return pool(*args, **kwargs)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", spy)
    stats = run_real_probability(cfg(GINIBRE_R2, n_grid=(1,), replications=600, threads=2))[0].stats
    assert stats["trials"].value + stats["excluded"].value == 600
    assert built == ([{"max_workers": 2}] if pooled else [])


# --- fluctuations --------------------------------------------------------


def test_fluctuations_flat_ensemble_zero_covariance():
    (rec,) = run_fluctuations(cfg(FLAT, n_grid=(6,), replications=128))
    assert np.max(np.abs(stat_array(rec, "cov_singular"))) < 1e-18
    assert np.max(np.abs(stat_array(rec, "cov_stability"))) < 1e-18


def test_fluctuations_requires_replications():
    with pytest.raises(ValueError):
        run_fluctuations(cfg(GINIBRE_R2, replications=50))


def test_fluctuations_reference_and_shapes():
    (rec,) = run_fluctuations(cfg(GINIBRE_R2, seed=21, n_grid=(20,), replications=300))
    assert rec.n == 20
    assert stat_array(rec, "cov_singular").shape == (2, 2)
    # the closed form's covariance is diagonal
    assert np.allclose(np.diag(stat_array(rec, "ref_cov")), [math.pi**2 / 24, math.pi**2 / 8])
    assert rec.stats["ref_cov_1_2"].value == 0.0
    assert np.all(stat_array(rec, "cov_diff_se") >= 0)


def test_fluctuations_single_step_reference():
    spec = EnsembleSpec("real", 2, HaarScaled(ScalarLaw("lognormal", (0.0, 1.0))))
    (rec,) = run_fluctuations(cfg(spec, seed=8, n_grid=(4,), replications=100, mc_samples=3000))
    expected = single_step_estimate(spec, 3000, RngStream(8).derive(2, 0, 0)).cov
    np.testing.assert_array_equal(stat_array(rec, "ref_cov"), expected)


# --- reality probability ------------------------------------------------


def test_realprob_d1_always_real():
    spec = EnsembleSpec("real", 1, Ginibre())
    for rec in run_real_probability(cfg(spec, n_grid=(1, 5), replications=200)):
        assert rec.stats["p_hat"].value == 1.0
        assert rec.stats["wilson_low"].value <= 1.0 <= rec.stats["wilson_high"].value


def test_realprob_rejects_complex_field():
    spec = EnsembleSpec("complex", 2, Ginibre())
    with pytest.raises(ValueError, match="realprob requires field=real"):
        run_real_probability(cfg(spec))


def test_realprob_trend_toward_one():
    p1, p15 = (rec.stats for rec in run_real_probability(cfg(GINIBRE_R2, seed=17, n_grid=(1, 15), replications=2000)))
    assert p15["p_hat"].value > p1["p_hat"].value
    assert p15["wilson_low"].value > p1["wilson_high"].value
    # n = 1 matches the known constant within a generous window
    assert abs(p1["p_hat"].value - 1 / math.sqrt(2)) < 4 * math.sqrt(0.207 / 2000)


def test_realprob_n1_matches_edelman_at_every_d():
    # Edelman (J. Multivariate Anal. 60, 1997): every eigenvalue of a real
    # Ginibre d x d matrix is real with probability 2^(-d(d-1)/4). The four d
    # are one family, at verify_passed's family-wise level; seed fixed up front
    rows = []
    for d in range(2, 6):
        spec = EnsembleSpec("real", d, Ginibre())
        p = run_real_probability(cfg(spec, seed=14, n_grid=(1,), replications=100_000))[0].stats["p_hat"]
        rows.append(experiments._check(spec, "edelman", d, 1, p.value, 2.0 ** (-d * (d - 1) / 4), p.se, p.count))
    assert verify_passed(rows), [row.stats["z"].value for row in rows]


def _reduction_samples(draw, samples: int, grid) -> list[np.ndarray]:
    """Per-sample P(all real | R_n ... R_1) of a real 2x2 isotropic product at
    each n of grid, by the reduction P_n = Q R_n ... R_1 (Q Haar on O(2), the
    R_i i.i.d. copies of one factor's positive-diagonal R, all independent).
    With R_n ... R_1 = [[a, c], [0, b]], a reflection Q makes det P < 0 and a
    rotation by a uniform angle gives 1/2 + arccos(x) / pi, so the
    probability is 1 - arcsin(x) / pi, x = 2 sqrt(ab) / sqrt((a + b)^2 + c^2)
    = 1 / sqrt(cosh(r)^2 + s^2 / 4) in r = (log a - log b) / 2 and
    s = c / sqrt(ab). draw(samples) gives one factor's log a, log b and c; a
    new factor [[a', c'], [0, b']] on the left takes c to a'c + c'b, so
    s to s e^(r') + c' / sqrt(a'b') e^(-r)."""
    r, s, out = np.zeros(samples), np.zeros(samples), []
    for steps in np.diff((0, *grid)):
        for _ in range(steps):
            log_a, log_b, c = draw(samples)
            half = 0.5 * (log_a - log_b)
            r, s = r + half, s * np.exp(half) + c * np.exp(-0.5 * (log_a + log_b) - r)
        out.append(1.0 - np.arcsin(1.0 / np.sqrt(np.cosh(r) ** 2 + s ** 2 / 4)) / math.pi)
    return out


def test_realprob_d2_matches_the_triangular_reduction_at_every_n():
    # the engine's p_hat at every grid point of a real d = 2 run against
    # _reduction_samples, which takes no QR step, fold, SVD or eigenvalue
    # routine. Ginibre: a ~ chi_2, b ~ chi_1 and c ~ N(0, 1), independent (at
    # n = 1 and 2 the reduction reads 1/sqrt(2) and pi/4); lognormal(0,1)
    # singular values: R from the positive QR of diag(D) v, v Haar. Every
    # (ensemble, n) is one family, at verify_passed's family-wise level, z in
    # combined SE; seeds fixed up front
    grid, rows = (1, 2, 3, 5, 10), []
    gen = RngStream(30, (0,)).generator()
    lognormal_spec = EnsembleSpec("real", 2, parse_ensemble("custom:iid(lognormal(0,1))"))

    def ginibre(k):
        return 0.5 * np.log(gen.chisquare(2, k)), 0.5 * np.log(gen.chisquare(1, k)), gen.standard_normal(k)

    def lognormal(k):
        r = qr_positive(sample_singular_values(lognormal_spec, gen, size=k)[:, :, None]
                        * sample_haar_unitary(2, "real", gen, size=k)).r
        return np.log(r[:, 0, 0]), np.log(r[:, 1, 1]), r[:, 0, 1]

    for spec, draw, reps, samples in ((GINIBRE_R2, ginibre, 100_000, 400_000),
                                      (lognormal_spec, lognormal, 10_000, 100_000)):
        records = run_real_probability(cfg(spec, seed=30, n_grid=grid, replications=reps, threads=2))
        for rec, oracle in zip(records, _reduction_samples(draw, samples, grid)):
            p = rec.stats["p_hat"]
            assert p.count == reps
            se = math.hypot(p.se, float(experiments._mean_se(oracle)))
            rows.append(experiments._check(spec, "reduction", 2, rec.n, p.value, float(oracle.mean()), se, reps))
    assert verify_passed(rows), [round(row.stats["z"].value, 2) for row in rows]


def test_complex_ginibre_eigenvalue_moduli_match_kostlan_at_every_n(monkeypatch):
    # Kostlan (Linear Algebra Appl. 162-164, 1992), extended to products
    # (Akemann-Burda 2012; Adhikari-Reddy-Reddy-Saha 2016): the squared
    # eigenvalue moduli of an n-fold complex Ginibre product, entries with
    # E|z|^2 = 2, have the law of {prod_j 2 Gamma(k, 1)} for k = 1..d, every
    # Gamma independent. The mean of each sorted log-modulus against 4x as many
    # independent draws of that law, which takes no matrix at all; by n = 50
    # spreads pass 25, so _split and the graded routine run. Every (d, n, k) is
    # one family, at verify_passed's family-wise level; seed fixed up front
    split_rows = []
    split = exponents._split
    monkeypatch.setattr(exponents, "_split", lambda q, *args: split_rows.append(len(q)) or split(q, *args))
    rows, grid = [], (1, 5, 20, 50)
    for d, reps in ((3, 2048), (5, 1024)):
        spec = EnsembleSpec("complex", d, Ginibre())
        factors = sample_isotropic_chunk(spec, RngStream(28, (d, 0)).generator(), reps, grid[-1])
        oracle_gen = RngStream(28, (d, 1)).generator()
        for s in exponents.evolve_stack(factors, grid):
            logs, failure = exponents.stability_rows(s.log_sigma, s.u_frame, s.v_frame)
            assert s.ok.all() and all(f is None for f in failure)
            gammas = oracle_gen.gamma(np.arange(1, d + 1)[:, None], size=(4 * reps, d, s.n))
            oracle = -np.sort(-0.5 * np.log(2 * gammas).sum(axis=2), axis=1)
            se = np.hypot(experiments._mean_se(logs), experiments._mean_se(oracle))
            for k in range(d):
                rows.append(experiments._check(spec, "kostlan", d, s.n, float(logs[:, k].mean()),
                                               float(oracle[:, k].mean()), float(se[k]), reps))
    assert sum(split_rows) > 0
    assert verify_passed(rows), [round(row.stats["z"].value, 2) for row in rows]


def test_realprob_two_factor_closed_form():
    # P(all eigenvalues real) of a product of two real 2x2 Ginibre matrices
    # is pi/4 (Lakshminarayan 2013); the seed was fixed before the first run
    rec = run_real_probability(cfg(GINIBRE_R2, seed=2016, n_grid=(1, 2), replications=200_000, threads=2))[1]
    p2, trials = rec.stats["p_hat"].value, rec.stats["trials"].value
    assert rec.n == 2 and trials == 200_000
    z = (p2 - math.pi / 4) / math.sqrt(math.pi / 4 * (1 - math.pi / 4) / trials)
    print(f"two-factor anchor: p(2)={p2:.5f} vs pi/4={math.pi / 4:.5f}, z={z:.2f}")
    assert abs(z) < 3


def test_realprob_classifies_every_trajectory_to_large_n():
    # products this long are far wider than LAPACK alone can classify; the
    # seed was fixed before the first run
    for d, grid in ((2, (1, 50, 100, 200)), (3, (1, 50, 100)), (4, (1, 50, 100))):
        res = run_real_probability(cfg(EnsembleSpec("real", d, Ginibre()), seed=1404, n_grid=grid, replications=300))
        assert [(rec.stats["trials"].value, rec.stats["excluded"].value) for rec in res] == [(300, 0)] * len(grid)
        first, last = res[0].stats, res[-1].stats
        assert last["p_hat"].value > first["p_hat"].value and last["wilson_low"].value > first["wilson_high"].value


def _svd_rejects(s):
    """Which rows of singular values, in numpy's descending order, the
    singularity test rejects."""
    return s[:, -1] <= RANK_RTOL * s[:, 0]


def _svd_route_pairs(m):
    """n = 1 complex pairs by the SVD route, a path the program does not take:
    numpy's own SVD m = u diag(s) vh, its singularity test (-1 for a row it
    rejects), then the graded routine on vh @ u with log s."""
    u, s, vh = np.linalg.svd(m)
    ok = ~_svd_rejects(s)
    pairs = np.full(len(m), -1)
    pairs[ok] = exponents._log_eig_moduli_graded(vh[ok] @ u[ok], np.log(s[ok]))[1]
    return pairs


@pytest.mark.parametrize("spec", [EnsembleSpec("real", d, Ginibre()) for d in (2, 3, 4)]
                         + [EnsembleSpec("real", 3, CustomSingular(iid=ScalarLaw("lognormal", (0.0, 6.0))))],
                         ids=["ginibre-d2", "ginibre-d3", "ginibre-d4", "lognormal6-d3"])
def test_reality_n1_pairs_match_schur_oracle_and_svd_route(spec):
    factors = sample_isotropic_chunk(spec, RngStream(1616, (spec.d,)).generator(), 10_000, 1)
    m = factors[:, 0]
    got = experiments._reality_pairs(factors, (1,))[0][:, 0]
    np.testing.assert_array_equal(got, _svd_route_pairs(m))
    kept = np.flatnonzero(got >= 0)
    assert np.array_equal(got[kept], [count_complex_pairs(m[b]) for b in kept])
    assert 0 < np.count_nonzero(got == 0) < len(got)
    if not isinstance(spec.kind, Ginibre):
        # the wide law sends rows to the SVD route, and some of those are singular
        assert (~exponents._bound_clears(m)).sum() > (got < 0).sum() > 0


def _conditioned_batch(d, ratios, traces, seed):
    """Real d x d factors Q (A (+) I) Q^T with A = [[t, 1], [-r, -t]] for each
    r in ratios and t in traces: sigma_min / sigma_max about |r - t^2| for
    small r and t, and a complex pair exactly when t^2 < r."""
    a = np.zeros((len(ratios), d, d))
    a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1] = traces, 1.0, -ratios, -traces
    a[:, range(2, d), range(2, d)] = 1.0
    q = sample_haar_unitary(d, "real", RngStream(seed).generator(), size=len(ratios))
    return q @ a @ q.swapaxes(1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_reality_n1_rows_between_the_bound_and_the_svd_test_take_the_svd_route(d):
    # sigma_min / sigma_max between 1e-12 and 1e-10: the determinant bound does
    # not clear these rows, the singular-value test of their first step passes
    # them, and they are classified on the n = 1 step form (the "svd route" of
    # the name), where below e^-25 their spread sends them through the graded
    # routine's split or mpmath branch
    ratios = np.geomspace(3e-12, 1e-11, 40)
    traces = np.sqrt(ratios) * np.tile([0.0, 0.5, 2.0, 3.0], 10)
    m = _conditioned_batch(d, ratios, traces, seed=1617 + d)
    sv = np.linalg.svd(m, compute_uv=False)
    assert not _svd_rejects(sv).any() and np.all(sv[:, -1] < 1e-10 * sv[:, 0])
    assert not exponents._bound_clears(m).any()
    assert np.any(np.log(sv[:, 0] / sv[:, -1]) > exponents._EIG_DOUBLE_SPREAD)
    got = experiments._reality_pairs(m[:, None], (1,))[0][:, 0]
    oracle = [exponents._log_eig_moduli_extended(b, np.zeros(d))[1] for b in m]
    np.testing.assert_array_equal(got, oracle)
    np.testing.assert_array_equal(got, (traces**2 < ratios).astype(int))


def _near_boundary_2x2(seed):
    """Real 2x2 factors whose discriminant's sign sits at or near the rounding
    level: _conditioned_batch with t^2 = r (1 +- delta), dlahqr's deflation
    cases [[1, 1], [z, 1]] with |z| from 1e-17 to 1e-9 and rotated copies,
    all of these scaled by 2^530 and 2^-530 as well, exactly singular factors
    and zero factors."""
    r = np.repeat(np.geomspace(1e-12, 1.0, 13), 22)
    delta = np.tile(np.geomspace(1e-16, 1e-6, 11), 26) * np.tile(np.repeat([1.0, -1.0], 11), 13)
    near = _conditioned_batch(2, r, np.sqrt(r * (1 + delta)), seed)
    z = np.concatenate([-np.geomspace(1e-17, 1e-9, 17), np.geomspace(1e-17, 1e-9, 17)])
    deflated = np.ones((len(z), 2, 2))
    deflated[:, 1, 0] = z
    q = sample_haar_unitary(2, "real", RngStream(seed + 1).generator(), size=10 * len(z))
    base = np.concatenate([near, deflated, q @ np.tile(deflated, (10, 1, 1)) @ q.swapaxes(1, 2)])
    singular = RngStream(seed + 2).generator().standard_normal((16, 2, 2))
    singular[:, :, 1] = 2 * singular[:, :, 0]
    return np.concatenate([base, base * 2.0**530, base * 2.0**-530, singular, np.zeros((4, 2, 2))])


def _eigvals_route_pairs(m):
    """n = 1 complex pairs as one eigvals call on every factor gives them: its
    count where the determinant bound clears the row, else the SVD route."""
    w = np.linalg.eigvals(m)
    return np.where(exponents._bound_clears(m), np.count_nonzero(w.imag > 0, axis=1), _svd_route_pairs(m))


def test_reality_n1_d2_pairs_from_the_discriminant_match_eigvals_and_schur():
    m = _near_boundary_2x2(1626)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        first = exponents._pairs_2x2(m)
        got = experiments._reality_pairs(m[:, None], (1,))[0][:, 0]
    decided = np.flatnonzero(first >= 0)
    assert 0 < decided.size < len(m) and set(first[decided]) == {0, 1}
    # 76 rows differ, all copies scaled by 2^530 whose ||M||_F^2 overflows, of
    # factors whose discriminant sits inside the margin even unscaled: the step
    # form and the SVD route classify different roundings of one similarity,
    # and either count is valid there; every other row matches
    with np.errstate(over="ignore"):
        scaled = np.flatnonzero(~np.isfinite(np.einsum("bij,bij->b", m, m)))
    assert np.array_equal(scaled, np.arange(len(scaled)) + len(scaled))  # the 2^530 copies, after the originals
    either = np.zeros(len(m), dtype=bool)
    either[scaled] = exponents._pairs_2x2(m[scaled] * 2.0**-530) < 0
    ref = _eigvals_route_pairs(m)
    differ = np.flatnonzero(got != ref)
    assert differ.size == 76 and either[differ].all()
    assert set(got[differ]) <= {0, 1} and set(ref[differ]) <= {0, 1}
    assert np.array_equal(first[decided], [count_complex_pairs(b) for b in m[decided]])


def test_reality_n1_eigvals_takes_only_the_rows_the_discriminant_leaves(monkeypatch):
    seen = []
    graded = exponents._log_eig_moduli_graded

    def spy(q, log_scale):
        if not log_scale.any():  # the factors' own call at n = 1, not the SVD route's
            seen.append(q.copy())
        return graded(q, log_scale)

    def taken(m):
        seen.clear()
        experiments._reality_pairs(m[:, None], (1,))[0]
        return np.concatenate(seen) if seen else np.empty((0,) + m.shape[1:])

    monkeypatch.setattr(exponents, "_log_eig_moduli_graded", spy)
    ginibre = sample_isotropic_chunk(GINIBRE_R2, RngStream(1627).generator(), 10_000, 1)[:, 0]
    assert (exponents._pairs_2x2(ginibre) >= 0).all() and taken(ginibre).size == 0
    m = _near_boundary_2x2(1626)
    np.testing.assert_array_equal(taken(m), m[exponents._pairs_2x2(m) < 0])
    m3 = sample_isotropic_chunk(GINIBRE_R3, RngStream(1628).generator(), 1000, 1)[:, 0]
    np.testing.assert_array_equal(taken(m3), m3)


def test_reality_n1_excludes_exactly_the_rows_the_svd_test_rejects():
    gen = RngStream(1618).generator()
    m = gen.standard_normal((64, 3, 3))
    m[::4, :, 2] = m[::4, :, 0]                                                    # exactly singular
    m[1::8] = _conditioned_batch(3, np.full(8, 1e-13), np.zeros(8), seed=1619)     # fails the SVD test
    m[3::8] = _conditioned_batch(3, np.full(8, 1e-11), np.zeros(8), seed=1620)     # passes it, not the bound
    rejected = int(_svd_rejects(np.linalg.svd(m, compute_uv=False)).sum())
    assert rejected == 24
    real, classified, _ = experiments._observe_reality(m[:, None], (1,))
    assert classified[0] == 64 - rejected and real[0] <= classified[0]


def test_reality_n1_factor_whose_eigvals_does_not_converge_takes_the_svd_route(monkeypatch):
    # the factor is classified on the n = 1 step form; numpy's SVD route is the
    # independent oracle its count is held to
    m = sample_isotropic_chunk(GINIBRE_R3, RngStream(1631).generator(), 200, 1)[:, 0]
    bad = 7
    assert exponents._bound_clears(m)[bad]
    clean, svd_route = experiments._reality_pairs(m[:, None], (1,))[0][:, 0], _svd_route_pairs(m)
    eigvals = np.linalg.eigvals

    def flaky(a):
        # every stacked call fails, and so does factor bad taken alone
        if a.ndim == 3 or np.array_equal(a, m[bad]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    got = experiments._reality_pairs(m[:, None], (1,))[0][:, 0]
    assert got[bad] == svd_route[bad] >= 0
    np.testing.assert_array_equal(np.delete(got, bad), np.delete(clean, bad))


def test_realprob_n1_excluded_counts_the_svd_rejections():
    spec = EnsembleSpec("real", 2, CustomSingular(iid=ScalarLaw("lognormal", (0.0, 10.0))))
    (rec,) = run_real_probability(cfg(spec, seed=1621, n_grid=(1,), replications=600))
    first = np.concatenate([sample_isotropic_chunk(spec, RngStream(1621).derive(3, 1, ci).generator(), count, 1)[:, 0]
                            for ci, count in enumerate((256, 256, 88))])
    rejected = int(_svd_rejects(np.linalg.svd(first, compute_uv=False)).sum())
    assert rec.stats["excluded"].value == rejected > 0


def test_realprob_excludes_the_rows_whose_singular_value_test_does_not_converge(monkeypatch):
    spec = EnsembleSpec("real", 2, CustomSingular(iid=ScalarLaw("lognormal", (0.0, 10.0))))
    config = cfg(spec, seed=1624, n_grid=(1, 5), replications=300)
    clean = run_real_probability(config)
    svd = np.linalg.svd

    def failing(a, *args, **kwargs):
        # the singular-value test a step takes on a factor past the determinant bound
        if not kwargs.get("compute_uv", True):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    res = run_real_probability(config)
    # at n = 1 the rows past the bound take the test in their first step: all
    # of them are excluded, not only those the clean run finds singular; a
    # trajectory dropped at a later step is excluded from then on
    first = np.concatenate([sample_isotropic_chunk(spec, RngStream(1624).derive(3, 1, ci).generator(), count, 5)[:, 0]
                            for ci, count in enumerate((256, 44))])
    past_bound = int((~exponents._bound_clears(first)).sum())
    excluded = [[rec.stats["excluded"].value for rec in run] for run in (clean, res)]
    assert excluded[1][0] == past_bound > excluded[0][0]
    assert excluded[1][1] > excluded[0][1]
    for rec in res:
        assert rec.stats["trials"].value + rec.stats["excluded"].value == 300


def test_reality_n1_rule_is_the_same_whatever_the_grid():
    # the same factors classified at n = 1 with the grid (1,), which evolves only
    # the rows the bound does not clear, and with a longer grid, which evolves all;
    # a row whose second factor is singular still counts at n = 1, not at n = 2
    gen = RngStream(1622).generator()
    factors = gen.standard_normal((300, 2, 2, 2))
    factors[::10, 0] = _conditioned_batch(2, np.geomspace(3e-13, 3e-11, 30), np.zeros(30), seed=1623)
    factors[1::10, 1, :, 1] = factors[1::10, 1, :, 0]   # exactly singular second factor
    factors[5::20, 1] = 0.0
    alone = experiments._reality_pairs(factors[:, :1], (1,))[0][:, 0]
    pairs = experiments._reality_pairs(factors, (1, 2))[0]
    np.testing.assert_array_equal(pairs[:, 0], alone)
    assert (alone == -1).sum() > 0 and (alone == 1).sum() > 0 and (alone == 0).sum() > 0
    assert np.all(alone[1::10] >= 0) and np.all(alone[5::20] >= 0)
    assert np.all(pairs[1::10, 1] == -1) and np.all(pairs[5::20, 1] == -1)
    assert np.all(pairs[2::10, 1] >= 0)


def _graded_route_pairs(factors, grid):
    """Complex pairs at each grid point as the graded routine alone gives them,
    on the similarity v @ u with log sigma of every row alive there, else -1."""
    pairs = np.full((len(factors), len(grid)), -1)
    for gi, s in enumerate(exponents.evolve_stack(factors, grid)):
        rows = np.flatnonzero(s.ok)
        pairs[rows, gi] = exponents._log_eig_moduli_graded(s.v_frame[rows] @ s.u_frame[rows], s.log_sigma[rows])[1]
    return pairs


@pytest.mark.parametrize("spec", [GINIBRE_R2, LOGNORMAL_R2], ids=["ginibre", "lognormal10"])
def test_reality_d2_grid_point_pairs_match_the_graded_routine_and_mpmath(spec):
    grid = (1, 5, 20, 60, 200)
    factors = sample_isotropic_chunk(spec, RngStream(1629).generator(), 400, grid[-1])
    got = experiments._reality_pairs(factors, grid)[0]
    np.testing.assert_array_equal(got, _graded_route_pairs(factors, grid))
    assert 0 < np.count_nonzero(got == 0) and 0 < np.count_nonzero(got == 1)
    # a subsample of the rows past spread 100, against the extended-precision spectrum
    stacks = exponents.evolve_stack(factors, grid)
    wide = [(s, gi, b) for gi, s in enumerate(stacks) for b in np.flatnonzero(s.ok & (s.spread > 100))]
    assert len(wide) > 100
    for s, gi, b in wide[:: len(wide) // 12]:
        ls = s.log_sigma[b]
        assert got[b, gi] == exponents._log_eig_moduli_extended(s.v_frame[b] @ s.u_frame[b], ls - ls[0])[1]


@pytest.mark.parametrize("spec, grid, rows", [
    (GINIBRE_R2, (1, 5, 20, 60, 200), 1000),
    (GINIBRE_R3, (1, 5, 20, 60, 120), 300),
    (EnsembleSpec("real", 4, Ginibre()), (1, 5, 20, 60, 100), 200),
    (LOGNORMAL_R2, (1, 3, 10, 20), 1000),
    (EnsembleSpec("real", 3, parse_ensemble("truncated-haar:m=6")), (1, 5, 20, 50, 100), 200),
], ids=["ginibre-d2", "ginibre-d3", "ginibre-d4", "lognormal10-d2", "truncated-haar-d3"])
def test_reality_step_form_pairs_match_the_svd_form_and_mpmath(spec, grid, rows):
    # realprob classifies each row past n = 1 on its step form O G diag(e^t):
    # the same counts, row by row, as pair_rows on the SVD read v u diag(sigma)
    # of the same stacks; seeds fixed before the first run
    factors = sample_isotropic_chunk(spec, RngStream(31, (spec.d,)).generator(), rows, grid[-1])
    got = experiments._reality_pairs(factors, grid)[0]
    step_form = exponents.evolve_stack(factors, grid)
    for gi, s in enumerate(step_form):
        svd = exponents._to_svd(s)
        np.testing.assert_array_equal(s.ok, svd.ok)
        assert np.all(np.diff(s.log_sigma, axis=1) <= 0)
        live = np.flatnonzero(svd.ok)
        np.testing.assert_array_equal(got[live, gi], exponents.pair_rows(svd.v_frame[live] @ svd.u_frame[live],
                                                                         svd.log_sigma[live]))
        assert np.all(got[~svd.ok, gi] == -1)
    assert 0 < np.count_nonzero(got == 0) and 0 < np.count_nonzero(got > 0)
    # a subsample of the rows past spread 25, against the extended-precision
    # spectrum of the step form's own similarity
    wide = [(s, gi, b) for gi, s in enumerate(step_form) for b in np.flatnonzero(s.ok & (s.spread > 25))]
    assert max(float(s.spread[s.ok].max()) for s in step_form) > 100 and len(wide) > 100
    for s, gi, b in wide[:: len(wide) // 8]:
        ls = s.log_sigma[b]
        assert got[b, gi] == exponents._log_eig_moduli_extended(s.v_frame[b] @ s.u_frame[b], ls - ls[0])[1]


def _disc_states(spreads):
    """Stacks of similarities v @ diag(1, e^-S) (identity u, log sigma (S/2,
    -S/2)) with v a rotation [[c, -s], [s, c]] or the swap, and which of them
    have disc inside the margin. A rotation has disc = c^2 (1 + e^-S)^2 / 4 -
    e^-S and ||a||_F^2 = 1 + e^-2S; c is set for disc at +-10 and +-1/4 of the
    margin and at e^-S / 2, -e^-S / 2 and -e^-S where such a c exists. The
    swap has trace 0 and disc = e^-S."""
    margin = exponents._DISC_MARGIN
    frames, log_sigma, inside = [], [], []
    for spread in spreads:
        e = math.exp(-spread)
        for disc in (10 * margin, margin / 4, -margin / 4, -10 * margin, e / 2, -e / 2, -e):
            if disc + e >= 0:
                c = 2 * math.sqrt(disc + e) / (1 + e)
                frames.append([[c, -math.sqrt(1 - c * c)], [math.sqrt(1 - c * c), c]])
                inside.append(abs(disc) < margin)
        frames.append([[0.0, 1.0], [1.0, 0.0]])
        inside.append(e < margin)
        log_sigma += [[spread / 2, -spread / 2]] * (len(frames) - len(log_sigma))
    v = np.array(frames)
    stack = exponents.ProductStack(2, np.array(log_sigma), np.tile(np.eye(2), (len(v), 1, 1)), v,
                                   np.full(len(v), None, dtype=object))
    return stack, np.array(inside)


def test_reality_d2_sends_exactly_the_undecided_rows_to_the_graded_routine(monkeypatch):
    # at spread 27 a complex pair can still sit outside the margin (e^-27 > 2^10
    # eps), where the graded routine would fail to split it and take mpmath
    stack, inside = _disc_states((10.0, 27.0, 40.0, 688.0))
    monkeypatch.setattr(experiments, "evolve_stack", lambda factors, grid: [stack])
    seen = []
    graded = exponents._log_eig_moduli_graded

    def spy(q, log_scale):
        if q.shape[1:] == (2, 2):  # not the 1x1 parts of a split, which recurse through the spy
            seen.append(q.copy())
        return graded(q, log_scale)

    monkeypatch.setattr(exponents, "_log_eig_moduli_graded", spy)
    got = experiments._reality_pairs(np.zeros((len(inside), 2, 2, 2)), (2,))[0][:, 0]
    np.testing.assert_array_equal(np.concatenate(seen), stack.v_frame[inside])
    assert 0 < inside.sum() < len(inside)
    oracle = [exponents._log_eig_moduli_extended(v, ls - ls[0])[1] for v, ls in zip(stack.v_frame, stack.log_sigma)]
    np.testing.assert_array_equal(got, oracle)
    assert set(got[inside]) == set(got[~inside]) == {0, 1}
    # the swap (disc = e^-S) is decided at spreads 10 and 27 and falls back once e^-S < 2^10 eps
    swaps = np.flatnonzero((stack.v_frame == [[0.0, 1.0], [1.0, 0.0]]).all(axis=(1, 2)))
    assert inside[swaps].tolist() == [False, False, True, True]


def test_realprob_deep_ginibre_takes_no_split_and_no_mpmath(monkeypatch):
    calls = []
    for name in ("_split", "_log_eig_moduli_extended"):
        original = getattr(exponents, name)
        monkeypatch.setattr(exponents, name, lambda *a, name=name, original=original: calls.append(name) or original(*a))
    res = run_real_probability(cfg(GINIBRE_R2, seed=1630, n_grid=(1, 10, 25, 40, 60), replications=960))
    assert calls == []
    assert [rec.stats["trials"].value for rec in res] == [960] * 5


def _step_form_pairs(factors, grid):
    """Complex pairs at each grid point by the step-form route alone,
    evolve_stack on every row, then pair_rows on each row alive there; and
    at each grid point the failure of each -1 row, None where its eigenvalue
    iteration did not converge."""
    pairs, lost = np.full((len(factors), len(grid)), -1), []
    for gi, s in enumerate(exponents.evolve_stack(factors, grid)):
        rows = np.flatnonzero(s.ok)
        pairs[rows, gi] = exponents.pair_rows(s.v_frame[rows] @ s.u_frame[rows], s.log_sigma[rows])
        lost.append(list(s.failure[pairs[:, gi] < 0]))
    return pairs, lost


def _log_conditioning(factors):
    """log(||m||_F^2 / |det m|) of each real 2x2 factor, inf where det m = 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det = np.abs(factors[..., 0, 0] * factors[..., 1, 1] - factors[..., 0, 1] * factors[..., 1, 0])
        return np.log(np.einsum("...ij,...ij->...", factors, factors)) - np.log(det)


def _eligible(factors):
    """The tree route's eligibility rule from its statement: every factor
    clears _bound_clears with |det m| and ||m||_F^2 normal, and the sum of
    _log_conditioning stays within SPREAD_HARD_CAP - 1."""
    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore"):
        frob = np.einsum("...ij,...ij->...", factors, factors)
    det = np.abs(factors[..., 0, 0] * factors[..., 1, 1] - factors[..., 0, 1] * factors[..., 1, 0])
    fine = exponents._bound_clears(factors) & (det >= tiny) & (frob >= tiny) & (frob < np.inf)
    return fine.all(axis=1) & (_log_conditioning(factors).sum(axis=1) <= exponents.SPREAD_HARD_CAP - 1)


def _undecided_rows(rows):
    """rows real 2x2 sequences of 200 factors whose products have disc = 0 at
    grid points: the identity, a shear (its powers [[1, n], [0, 1]]) and a
    rotation by pi/2 (its even powers +-I), each eligible."""
    shear, quarter = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0, -1.0], [1.0, 0.0]])
    kinds = np.stack([np.eye(2), shear, quarter])
    return np.broadcast_to(kinds[np.arange(rows) % 3, None], (rows, 200, 2, 2)).copy()


TREE_LAWS = ("ginibre", "custom:iid(lognormal(0,1))", "custom:iid(lognormal(0,3))", "truncated-haar:m=3",
             "truncated-haar:m=6", "haar-scaled:lognormal(0,1)")


def test_reality_d2_tree_route_matches_the_step_form_row_by_row(monkeypatch):
    # past n = 1 every real d = 2 row gets the count of the step-form route it
    # bypasses (evolve_stack, then pair_rows, called directly), and exactly
    # the rows that are not eligible, or whose sign is not certain at some
    # grid point, or whose n = 1 factor takes its step, are handed to the
    # step form. The six laws to n = 200, 400 rows each; lognormal(0,3) rows
    # pass the spread rule by n = 200, and the Ginibre batch carries
    # _undecided_rows. Seeds fixed before the first run
    handed = []
    evolve = experiments.evolve_stack
    monkeypatch.setattr(experiments, "evolve_stack", lambda factors, grid: handed.append(factors) or evolve(factors, grid))
    grid, routes = (1, 2, 10, 50, 200), Counter()
    for i, law in enumerate(TREE_LAWS):
        spec = EnsembleSpec("real", 2, parse_ensemble(law))
        factors = sample_isotropic_chunk(spec, RngStream(3404, (i,)).generator(), 400, grid[-1])
        if i == 0:
            factors = np.concatenate([factors, _undecided_rows(12)])
        handed.clear()
        got = experiments._reality_pairs(factors, grid)[0]
        ref = _step_form_pairs(factors, grid)[0]
        np.testing.assert_array_equal(got[:, 1:], ref[:, 1:])
        m = factors[:, 0]
        first = ~exponents._bound_clears(m) | (exponents.pair_rows(m, np.zeros((len(m), 2))) < 0)
        eligible = _eligible(factors)
        tree = exponents._tree_pairs_2x2(factors, grid[1:])
        assert np.all(tree[~eligible] == -1)
        undecided = eligible & (tree < 0).any(axis=1)
        expected = np.flatnonzero(~eligible | undecided | first)
        assert len(handed) <= 1
        np.testing.assert_array_equal(np.concatenate(handed) if handed else factors[:0], factors[expected])
        routes.update(tree=int((eligible & ~undecided).sum()), ineligible=int((~eligible).sum()),
                      undecided=int(undecided.sum()))
    assert routes["tree"] > 2000 and routes["ineligible"] > 0 and routes["undecided"] >= 12


def test_reality_eligibility_bounds_the_step_form_range():
    # what eligibility rests on: max t - min t of the step form never passes
    # the running sum of _log_conditioning, after every step (a grid of every
    # n, no folds) and at the grid points of a folded run; seeds fixed before
    # the first run
    for i, law in enumerate(("ginibre", "custom:iid(lognormal(0,1))", "custom:iid(lognormal(0,3))",
                             "custom:iid(lognormal(0,10))")):
        spec = EnsembleSpec("real", 2, parse_ensemble(law))
        factors = sample_isotropic_chunk(spec, RngStream(3406, (i,)).generator(), 200, 60)
        running = np.cumsum(_log_conditioning(factors), axis=1)
        for grid in (tuple(range(1, 61)), (3, 17, 40, 60)):
            stacks = exponents.evolve_stack(factors, grid)
            assert any(s.ok.any() for s in stacks)
            for s in stacks:
                assert np.all(s.spread[s.ok] <= running[s.ok, s.n - 1] + 1e-9), (law, s.n)


def test_reality_exclusions_and_exit_messages_match_the_step_form_route():
    # rows with exactly singular or zero factors, factors past the
    # determinant bound (failing the SVD test or not), fixed(1e5,1e-5) rows
    # that pass the hard cap, and lognormal(0,10) rows: the tree route
    # excludes exactly the rows that evolving every row excludes, with the
    # same failures, and counts the same elsewhere
    gen = RngStream(3407).generator()
    grid = (1, 5, 20, 40)
    factors = gen.standard_normal((120, 40, 2, 2))
    factors[0:10, 3, :, 1] = factors[0:10, 3, :, 0]                                      # singular at step 4
    factors[10:20, 12] = 0.0
    factors[20:30, 0] = _conditioned_batch(2, np.full(10, 1e-13), np.zeros(10), seed=3408)   # fails the SVD test
    factors[30:40, 7] = _conditioned_batch(2, np.full(10, 1e-11), np.zeros(10), seed=3409)   # passes it, not the bound
    fixed = EnsembleSpec("real", 2, parse_ensemble("custom:fixed(1e5,1e-5)"))
    factors[40:60] = sample_isotropic_chunk(fixed, gen, 20, 40)
    factors[60:80] = sample_isotropic_chunk(LOGNORMAL_R2, gen, 20, 40)
    got, lost = experiments._reality_pairs(factors, grid)
    ref, ref_lost = _step_form_pairs(factors, grid)
    np.testing.assert_array_equal(got < 0, ref < 0)
    np.testing.assert_array_equal(got[:, 1:], ref[:, 1:])
    for gi in range(len(grid)):
        assert [(type(f), str(f)) for f in lost[gi]] == [(type(f), str(f)) for f in ref_lost[gi]]
    kinds = {type(f).__name__ for part in lost for f in part}
    assert kinds == {"SingularInputError", "SpreadOverflowError"} and (got[80:] >= 0).all()

    # whole runs, as evolving every row gives them: the exit message of a run
    # whose every row passes the hard cap by n = 40, and excluded counts
    def run(text, grid):
        spec = EnsembleSpec("real", 2, parse_ensemble(text))
        config = experiments.ExperimentConfig(seed=3410, spec=spec, n_grid=grid, replications=300)
        parts = experiments._observe_chunks(config, experiments._EXP_REALPROB, grid, _step_form_pairs)
        return config, np.concatenate([p for p, _ in parts]), [f for _, part in parts for f in part[-1]]

    config, ref, lost = run("custom:fixed(1e5,1e-5)", (10, 40))
    assert (ref[:, 0] >= 0).all() and (ref[:, 1] < 0).all()
    with pytest.raises(NumericError) as err:
        run_real_probability(config)
    assert str(err.value) == f"no classifiable replications at n=40{experiments._commonest_failure(lost)}"
    assert "300 of 300 rows dropped by SpreadOverflowError" in str(err.value)
    config, ref, _ = run("custom:iid(lognormal(0,10))", (1, 5, 20))
    excluded = (ref < 0).sum(axis=0).tolist()
    assert [rec.stats["excluded"].value for rec in run_real_probability(config)] == excluded
    assert 0 < excluded[0] < excluded[-1] < 300


def _ginibre_reduction_draw(gen):
    """draw(k) of _reduction_samples for real Ginibre factors: log a, log b
    and c of R = [[a, c], [0, b]], a ~ chi_2, b ~ chi_1, c ~ N(0, 1)."""
    return lambda k: (0.5 * np.log(gen.chisquare(2, k)), 0.5 * np.log(gen.chisquare(1, k)), gen.standard_normal(k))


def test_realprob_d2_matches_the_triangular_reduction_as_p_nears_one(monkeypatch):
    # real Ginibre at n = 10, 20 and 30, where p is 0.965 to 0.9995 and the
    # certified tree product decides nearly every row: p_hat against
    # _reduction_samples, which takes no product at all. The three grid points
    # are one family, at verify_passed's family-wise level, z in combined SE;
    # seeds fixed before the first run
    handed = []
    evolve = experiments.evolve_stack
    monkeypatch.setattr(experiments, "evolve_stack", lambda factors, grid: handed.append(len(factors)) or evolve(factors, grid))
    grid, reps = (10, 20, 30), 50_000
    records = run_real_probability(cfg(GINIBRE_R2, seed=3411, n_grid=grid, replications=reps, threads=2))
    assert sum(handed) <= reps // 1000
    oracle = _reduction_samples(_ginibre_reduction_draw(RngStream(3411, (0,)).generator()), 400_000, grid)
    rows = []
    for rec, sample in zip(records, oracle):
        p = rec.stats["p_hat"]
        assert p.count == reps
        se = math.hypot(p.se, float(experiments._mean_se(sample)))
        rows.append(experiments._check(GINIBRE_R2, "reduction", 2, rec.n, p.value, float(sample.mean()), se, reps))
    assert rows[-1].stats["reference"].value > 0.999
    assert verify_passed(rows), [round(row.stats["z"].value, 2) for row in rows]


def test_exponent_rows_count_at_the_grid_points_before_their_singular_factor():
    # rows meet an exactly singular factor between the grid points 4 and 9: at
    # n = 4 they count, bit for bit as with the grid (4,); at n = 9 they do not
    gen = RngStream(1625).generator()
    factors = gen.standard_normal((40, 9, 3, 3))
    factors[::4, 6, :, 2] = factors[::4, 6, :, 0]
    factors[1::8, 4] = 0.0
    dropped = np.zeros(40, dtype=bool)
    dropped[::4] = dropped[1::8] = True
    sig, stab, failure = experiments._observe_exponents(factors, (4, 9))
    sig4, stab4, failure4 = experiments._observe_exponents(factors[:, :4], (4,))
    ok, ok4 = np.equal(failure, None), np.equal(failure4, None)
    assert ok.shape == (40, 2) and ok4.all()
    np.testing.assert_array_equal(ok[:, 0], True)
    np.testing.assert_array_equal(ok[:, 1], ~dropped)
    np.testing.assert_array_equal(sig[:, 0], sig4[:, 0])
    np.testing.assert_array_equal(stab[:, 0], stab4[:, 0])
    assert np.all(np.isfinite(stab[:, 0])) and np.all(np.isnan(stab[dropped, 1]))
    assert all(isinstance(f, SingularInputError) for f in failure[dropped, 1])


def test_a_failed_svd_read_rules_its_row_out_at_its_grid_point_alone(monkeypatch):
    # the grid-point SVD is a read the engine never steps on: when row 5's
    # read at n = 10 does not converge, the stability samples leave the row
    # out there and count it again, with the same bits, at n = 20
    config = cfg(GINIBRE_R3, seed=1632, n_grid=(1, 10, 20), replications=40)
    clean = experiments._exponent_samples(config, experiments._EXP_EQUALITY, config.n_grid)
    svd, stacked, seen = np.linalg.svd, [], []

    def flaky(a, *args, **kwargs):
        # full SVDs of a stack: the reads at n = 1, 10 and 20
        if kwargs.get("compute_uv", True) and a.ndim == 3:
            stacked.append(a[5].copy())
            if len(stacked) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
        elif len(stacked) == 2 and np.array_equal(a, stacked[1]):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    observe = experiments._observe_exponents
    monkeypatch.setattr(experiments, "_observe_exponents", lambda *a: seen.append(observe(*a)) or seen[-1])
    monkeypatch.setattr(np.linalg, "svd", flaky)
    samples = experiments._exponent_samples(config, experiments._EXP_EQUALITY, config.n_grid)
    monkeypatch.undo()
    assert len(stacked) == 3
    (_, _, failure), = seen
    assert np.flatnonzero(np.not_equal(failure, None).any(axis=1)).tolist() == [5]
    assert failure[5, 0] is None and failure[5, 2] is None
    assert isinstance(failure[5, 1], NumericError) and "SVD did not converge" in str(failure[5, 1])
    assert [len(sig) for sig, _ in samples] == [40, 39, 40]
    for gi, ((sig, stab), (sig0, stab0)) in enumerate(zip(samples, clean)):
        rows = np.arange(40) != 5 if gi == 1 else slice(None)
        np.testing.assert_array_equal(sig, sig0[rows])
        np.testing.assert_array_equal(stab, stab0[rows])


def test_realprob_falls_with_dimension():
    # p_hat(d=3) lies below p_hat(d=2) by more than 3 combined SE
    p = {}
    for d in (2, 3):
        spec = EnsembleSpec("real", d, Ginibre())
        p[d] = run_real_probability(cfg(spec, seed=23, n_grid=(4,), replications=1500))[0].stats["p_hat"]
    assert p[2].value - p[3].value > 3 * math.hypot(p[2].se, p[3].se), (p[2], p[3])


# --- factorization checks -------------------------------------------------


def check_name(rec):
    """A verify record's check, e.g. corner-logdet or lq-diag-mean:rows=3."""
    return rec.experiment.split(":field=")[0].removeprefix("verify:")


def failed(records):
    return [rec for rec in records if not rec.stats["passed"].value]


def test_factorization_checks_small_run_passes():
    spec = EnsembleSpec("real", 2, Ginibre())
    rows = run_factorization_checks(cfg(spec, seed=5, mc_samples=30_000))
    assert verify_passed(rows), failed(rows)
    checks = {check_name(r) for r in rows}
    assert "corner-logdet" in checks
    assert any(c.startswith("lq-diag-mean") for c in checks)
    assert any(c.startswith("corner-scaling") for c in checks)


def test_factorization_checks_complex_field():
    spec = EnsembleSpec("complex", 2, Ginibre())
    rows = run_factorization_checks(cfg(spec, seed=6, mc_samples=30_000))
    assert verify_passed(rows), failed(rows)


def test_factorization_checks_exact_corner_row():
    spec = EnsembleSpec("real", 2, Ginibre())
    rows = run_factorization_checks(cfg(spec, seed=7, mc_samples=5000))
    full = [r.stats for r in rows if check_name(r) == "corner-logdet" and r.n == r.d]
    assert full and all(abs(s["estimate"].value) < 1e-12 and s["reference"].value == 0.0 for s in full)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_factorization_checks_see_a_haar_sampler_without_its_phase_correction(field, monkeypatch):
    config = cfg(EnsembleSpec(field, 2, Ginibre()), seed=8, mc_samples=20_000)
    assert verify_passed(run_factorization_checks(config))
    monkeypatch.setattr(experiments, "sample_haar_unitary",
                        lambda d, field, rng, size=None: np.linalg.qr(sample_ginibre(d, d, field, rng, size=size))[0])
    rows = run_factorization_checks(config)
    assert not verify_passed(rows)
    assert {check_name(r) for r in failed(rows)} == {"haar-phase"}


def test_moment_rows_on_hand_values():
    mean, var = experiments._moment_rows(GINIBRE_R2, "lq-diag-{}:rows=2", 2, 1, np.array([0.0, 0.0, 2.0, 2.0]), 1.0,
                                         4 / 3)
    assert [check_name(mean), check_name(var)] == ["lq-diag-mean:rows=2", "lq-diag-var:rows=2"]
    assert mean.stats["estimate"] == Stat(1.0, math.sqrt(4 / 3) / 2, 4)
    # central moments m2 = m4 = 1: the variance's large-sample SE is exactly 0
    assert var.stats["estimate"] == Stat(4 / 3, 0.0, 4)
    assert verify_passed([mean, var])
    (only,) = experiments._moment_rows(GINIBRE_R2, "corner-logdet", 2, 1, np.array([1.0, 3.0]), 0.0)
    assert check_name(only) == "corner-logdet" and only.stats["estimate"] == Stat(2.0, 1.0, 2)


def test_moment_rows_of_a_constant_sample_have_zero_se_and_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = experiments._moment_rows(GINIBRE_R2, "lq-diag-{}:rows=2", 2, 1, np.full(6, 2.5), 2.5, 0.0)
        inexact = experiments._moment_rows(GINIBRE_R2, "lq-diag-{}:rows=2", 2, 1, np.full(7, 0.1), 0.1, 0.0)
    assert [row.stats["estimate"].se for row in rows] == [0.0, 0.0]
    assert [row.stats["z"].value for row in rows] == [0.0, 0.0] and verify_passed(rows)
    assert all(0.0 <= row.stats["estimate"].se < 1e-15 for row in inexact)


def _synthetic_report(z_values, se=1.0):
    return [experiments._check(GINIBRE_R3, "lq-diag-var:rows=3", 3, 2, z * se, 0.0, se, 1000) for z in z_values]


def test_factorization_verdict_controls_the_family_wise_error():
    # 33 rows, as real d=3 has: one at z = 3.14 fails its own 3-SE test, not the family
    zs = [0.0] * 32
    report = _synthetic_report(zs + [3.14])
    assert report[-1].stats["passed"].value == 0 and report[-1].stats["z"].value == pytest.approx(3.14)
    assert verify_passed(report)
    assert not verify_passed(_synthetic_report(zs + [6.0]))
    assert not verify_passed(_synthetic_report(zs + [-6.0]))
    assert not verify_passed(_synthetic_report(zs + [math.nan]))
    assert not verify_passed(_synthetic_report(zs + [3.14], se=math.nan))
    # rows with SE = 0 keep the 1e-12 floor and stay out of the family's count
    assert verify_passed(report + [experiments._check(GINIBRE_R2, "corner-logdet", 2, 2, 1e-13, 0.0, 0.0, 1000)])
    assert not verify_passed(report + [experiments._check(GINIBRE_R2, "corner-logdet", 2, 2, 1e-11, 0.0, 0.0, 1000)])
    # a record without a z stands alone on its own passed
    alone = [ResultRecord("verify:minor-identity", 3, "real", "ginibre", 3, 10, 0, {"passed": Stat(float(v))})
             for v in (True, False)]
    assert verify_passed([alone[0], *report])
    assert not verify_passed([alone[1], *report])


# --- minor identity ------------------------------------------------------


def _minor_residuals_one_by_one(config):
    """run_minor_identity's three worst residuals with every trial drawn and
    checked alone: the per-trial loop it replaced, kept as its reference."""
    spec, d = config.spec, config.spec.d
    wc = wf = wh = 0.0
    for key, count in experiments._chunk_jobs(config.replications, config.stream().derive(experiments._EXP_MINOR, 1)):
        gen = philox_generator(key)
        for _ in range(count):
            s = sample_singular_values(spec, gen)
            w = sample_haar_unitary(d, spec.field, gen)
            a = w * s[None, :]
            eig = np.linalg.eigvals(a).astype(np.complex128)
            eig = eig[np.lexsort((-eig.imag, -eig.real, -np.abs(eig)))]  # descending modulus
            coeffs = np.poly(eig)
            sigma = np.linalg.svd(a)[1]
            for i in range(1, d + 1):
                total = 0.0 + 0.0j
                magnitude = 0.0
                for subset in itertools.combinations(range(d), i):
                    rows = np.ix_(subset, subset)
                    minor_a = np.linalg.det(a[rows])
                    total += minor_a
                    magnitude += abs(minor_a)
                    ref = np.linalg.det(w[rows]) * np.prod(s[list(subset)])
                    scale = max(abs(minor_a), abs(ref))
                    if scale > 0:
                        wf = max(wf, abs(minor_a - ref) / scale)
                elem = (-1) ** i * coeffs[i]
                if magnitude > 0:
                    wc = max(wc, abs(total - elem) / magnitude)
            excess = np.cumsum(np.log(np.abs(eig))) - np.cumsum(np.log(sigma))
            wh = max(wh, float(np.exp(excess.max()) - 1.0))
    return wc, wf, wh


@pytest.mark.parametrize("d", range(1, 7))
def test_minor_identity_residuals_match_the_trial_by_trial_reference(d):
    # 300 replications: a full chunk and a partial one
    for ensemble, field in itertools.product(("ginibre", "truncated-haar:m=8"), ("real", "complex")):
        config = cfg(EnsembleSpec(field, d, parse_ensemble(ensemble)), seed=28, replications=300)
        stats = run_minor_identity(config).stats
        got = [stats[name].value for name in
               ("max_coefficient_residual", "max_factorization_residual", "max_partial_product_excess")]
        want = _minor_residuals_one_by_one(config)
        if field == "real":
            assert got == list(want), (ensemble, field)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"{ensemble} {field}")


def test_char_poly_rows_equal_np_poly():
    gen = np.random.default_rng(28)
    for field in ("real", "complex"):
        for d in range(1, 7):
            m = gen.standard_normal((200, d, d)) + (1j * gen.standard_normal((200, d, d)) if field == "complex" else 0)
            roots = np.linalg.eigvals(m).astype(np.complex128)
            want = np.array([np.poly(row).astype(np.complex128) for row in roots])
            got = experiments._char_poly(roots)
            np.testing.assert_array_equal(got.real if field == "real" else got, want.real if field == "real" else want)


def test_minor_identity_passes_and_reports():
    for spec in (GINIBRE_R3, EnsembleSpec("complex", 4, Ginibre())):
        stats = run_minor_identity(cfg(spec, seed=9, replications=150)).stats
        assert stats["passed"].value == 1
        assert stats["max_coefficient_residual"].value < 1e-8
        assert stats["max_factorization_residual"].value < 1e-8
        assert stats["max_partial_product_excess"].value < 1e-8


def test_minor_identity_d1_exact():
    spec = EnsembleSpec("real", 1, Ginibre())
    rec = run_minor_identity(cfg(spec, seed=10, replications=50))
    assert rec.stats["max_coefficient_residual"].value < 1e-12


def test_minor_identity_rejects_large_d():
    spec = EnsembleSpec("real", 7, Ginibre())
    with pytest.raises(ValueError):
        run_minor_identity(cfg(spec))
