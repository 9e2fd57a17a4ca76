import math
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.linalg import block_diag

from matprod.ensembles import (
    CustomSingular,
    EnsembleSpec,
    Ginibre,
    HaarScaled,
    ScalarLaw,
    TruncatedHaar,
    parse_ensemble,
    sample_haar_unitary,
    sample_isotropic,
    sample_isotropic_chunk,
)
from matprod.exponents import (
    SPREAD_HARD_CAP,
    ProductState,
    SpreadOverflowError,
    advance,
    analytic_spectrum,
    analytic_truncated_logdet,
    elog_chisq,
    evolve_stack,
    init_state,
    lyapunov_qr_stream,
    single_step_estimate,
    stability_from_state,
    stability_rows,
    supports_analytic_spectrum,
)
from matprod import exponents
from matprod.linalg import RANK_RTOL, NumericError, SingularInputError, count_complex_pairs, qr_positive
from matprod.rng import RngStream

from conftest import rel_err, stat_array


# --- special functions --------------------------------------------------


def test_elog_chisq_values():
    assert elog_chisq(2) == pytest.approx(0.11593151565841242, abs=1e-12)
    assert elog_chisq(1) == pytest.approx(-1.2703628454614782, abs=1e-7)
    assert elog_chisq(4) == pytest.approx(1.1159315156584124, abs=1e-7)
    with pytest.raises(ValueError):
        elog_chisq(0)
    with pytest.raises(ValueError):
        elog_chisq(2.5)


def test_elog_chisq_monte_carlo_oracle():
    gen = RngStream(2026).generator()
    draws = gen.chisquare(2, 1_000_000)
    logs = np.log(draws)
    se = logs.std(ddof=1) / math.sqrt(logs.size)
    assert abs(logs.mean() - elog_chisq(2)) < 3 * se


def test_truncated_logdet_values():
    assert analytic_truncated_logdet(2, 2, "real") == pytest.approx(0.0, abs=1e-14)
    assert analytic_truncated_logdet(3, 3, "complex") == pytest.approx(0.0, abs=1e-14)
    assert analytic_truncated_logdet(1, 2, "real") == pytest.approx(-math.log(2), abs=1e-12)
    assert analytic_truncated_logdet(1, 2, "complex") == pytest.approx(-0.5, abs=1e-12)
    assert analytic_truncated_logdet(1, 3, "real") == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        analytic_truncated_logdet(3, 2, "real")
    with pytest.raises(ValueError):
        analytic_truncated_logdet(0, 2, "real")


# --- analytic spectra ---------------------------------------------------


def test_analytic_real_ginibre_d2():
    spec = analytic_spectrum(EnsembleSpec("real", 2, Ginibre()))
    assert spec.lyapunov == pytest.approx([0.0579657578292062, -0.6351814227307391], abs=1e-10)
    assert spec.variance == pytest.approx([math.pi**2 / 24, math.pi**2 / 8], abs=1e-10)


def test_analytic_complex_ginibre_d2():
    spec = analytic_spectrum(EnsembleSpec("complex", 2, Ginibre()))
    assert spec.lyapunov == pytest.approx([0.5579657578292062, 0.0579657578292062], abs=1e-10)


def test_analytic_truncated_unitary_m4_d2():
    spec = analytic_spectrum(EnsembleSpec("complex", 2, TruncatedHaar(4)))
    assert spec.lyapunov == pytest.approx([-5 / 12, -3 / 4], abs=1e-12)
    assert spec.variance == pytest.approx([13 / 144, 5 / 16], abs=1e-12)


def test_analytic_truncated_orthogonal_halves_dof():
    spec = analytic_spectrum(EnsembleSpec("real", 2, TruncatedHaar(4)))
    expected = [
        0.5 * (scipy.special.psi(1.0) - scipy.special.psi(2.0)),
        0.5 * (scipy.special.psi(0.5) - scipy.special.psi(1.5)),
    ]
    assert spec.lyapunov == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", [Ginibre(), TruncatedHaar(9)])
def test_analytic_spectrum_strictly_descending(field, kind):
    for d in (2, 3, 5, 8):
        spec = analytic_spectrum(EnsembleSpec(field, d, kind))
        assert np.all(np.diff(spec.lyapunov) < 0)


def test_analytic_spectrum_unsupported_kind():
    spec = EnsembleSpec("real", 2, HaarScaled(ScalarLaw("const", (1.0,))))
    assert not supports_analytic_spectrum(spec)
    with pytest.raises(ValueError, match="ginibre"):
        analytic_spectrum(spec)


# --- product state ---------------------------------------------------------


def test_init_state_identity():
    st_ = init_state(np.eye(3))
    assert st_.n == 1
    assert np.allclose(st_.log_sigma, 0.0)
    assert np.allclose(st_.u_frame @ st_.v_frame, np.eye(3))


def test_init_state_diagonal():
    st_ = init_state(np.diag([4.0, 1.0]))
    assert np.allclose(st_.log_sigma, [math.log(4), 0.0])


def test_init_state_antidiagonal():
    st_ = init_state([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(st_.log_sigma, [math.log(2), 0.0])


def test_init_state_rejects_singular():
    with pytest.raises(SingularInputError):
        init_state([[1.0, 1.0], [1.0, 1.0]])


def test_advance_unitary_leaves_spectrum(stream):
    m0 = sample_isotropic(EnsembleSpec("real", 3, Ginibre()), stream.derive(1))
    st_ = init_state(m0)
    u = sample_haar_unitary(3, "real", stream.derive(2))
    st2 = advance(st_, u)
    assert np.max(np.abs(st2.log_sigma - st_.log_sigma)) < 1e-10
    assert st2.n == 2


def test_advance_scalar_case(stream):
    st_ = init_state([[2.0]])
    st2 = advance(st_, [[-3.0]])
    assert st2.log_sigma[0] == pytest.approx(math.log(6), abs=1e-12)


def test_advance_determinant_multiplicative(stream):
    gen = stream.derive(3).generator()
    v = sample_haar_unitary(2, "real", gen)
    m = np.diag([2.0, 1.0]) @ v
    st_ = init_state(m)
    total = st_.log_sigma.sum()
    for _ in range(2):
        st_ = advance(st_, m)
        new_total = st_.log_sigma.sum()
        assert new_total - total == pytest.approx(math.log(2), abs=1e-10)
        total = new_total


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_recursion_matches_explicit_product(field, d):
    # the log singular values are held to the product at 50 digits: at real
    # d = 2, draw 26 reaches sigma_min / sigma_max ~ 2e-11 by k = 7, where the
    # double-precision product's own rounding moves log sigma_min by ~1e-5
    spec = EnsembleSpec(field, d, Ginibre())
    gen = RngStream(515, (d, {"real": 26, "complex": 0}[field])).generator()
    factors = sample_isotropic(spec, gen, size=8)
    exact = _explicit_log_sigma(factors, range(2, 9), 50)
    st_ = init_state(factors[0])
    prod = np.array(factors[0])
    for k in range(1, 8):
        st_ = advance(st_, factors[k])
        prod = prod @ factors[k]
        assert rel_err(st_.log_sigma, exact[k - 1]) < 1e-8
    recon = st_.u_frame @ (np.exp(st_.log_sigma)[:, None] * st_.v_frame)
    assert rel_err(recon, prod) < 1e-8


def test_advance_overflow(stream):
    base = init_state(np.diag([2.0, 1.0]))
    hot = ProductState(
        n=9,
        log_sigma=np.array([400.0, -400.0]),
        u_frame=base.u_frame,
        v_frame=base.v_frame,
    )
    with pytest.raises(SpreadOverflowError):
        advance(hot, np.eye(2))
    with pytest.raises(SpreadOverflowError):
        stability_from_state(hot)


def test_advance_rejects_singular_factor(stream):
    st_ = init_state(np.diag([2.0, 1.0]))
    with pytest.raises(SingularInputError):
        advance(st_, [[1.0, 1.0], [1.0, 1.0]])


def test_state_reconstruction_small_n(stream):
    spec = EnsembleSpec("complex", 3, Ginibre())
    gen = stream.derive(4).generator()
    factors = sample_isotropic(spec, gen, size=5)
    st_ = init_state(factors[0])
    prod = np.array(factors[0])
    for k in range(1, 5):
        st_ = advance(st_, factors[k])
        prod = prod @ factors[k]
    assert st_.spread < 30.0  # five factors keep the product well conditioned, the case this test covers
    recon = st_.u_frame @ (np.exp(st_.log_sigma)[:, None] * st_.v_frame)
    assert rel_err(recon, prod) < 1e-8


# --- stacked engine -------------------------------------------------------

ENGINE_GRID = (1, 3, 6)


def _evolve(factors, grid=ENGINE_GRID):
    stacks = evolve_stack(factors, grid)
    return stacks, stacks[-1]


def _engine_factors(field, d, ensemble, rows=5, n=6):
    kind = {
        "ginibre": Ginibre(),
        "haar-scaled:const(1)": HaarScaled(ScalarLaw("const", (1.0,))),
        "truncated-haar": TruncatedHaar(d + 2),
    }[ensemble]
    gen = RngStream(616, (d, rows)).generator()
    spec = EnsembleSpec(field, d, kind)
    return np.stack([sample_isotropic(spec, gen, size=n) for _ in range(rows)])


@pytest.mark.parametrize("ensemble", ["ginibre", "haar-scaled:const(1)", "truncated-haar"])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_stack_matches_explicit_products(field, d, ensemble):
    factors = _engine_factors(field, d, ensemble)
    seen, final = _evolve(factors)
    assert final.ok.all() and all(f is None for f in final.failure)
    for n, stack in zip(ENGINE_GRID, seen):
        assert stack.n == n
        for b in range(factors.shape[0]):
            prod = np.linalg.multi_dot([np.eye(d), *factors[b, :n]])
            sv = np.linalg.svd(prod, compute_uv=False)
            assert np.max(np.abs(stack.log_sigma[b] - np.log(sv))) < 1e-8
            st_ = stack.row(b)
            recon = st_.u_frame @ (np.exp(st_.log_sigma)[:, None] * st_.v_frame)
            assert rel_err(recon, prod) < 1e-8


def _assert_rows_equal(stacks, keep, clean):
    for stack, ref in zip(stacks, clean):
        for name in ("log_sigma", "u_frame", "v_frame", "ok"):
            assert np.array_equal(getattr(stack, name)[keep], getattr(ref, name)), name


def _assert_reset(stack, b):
    d = stack.log_sigma.shape[1]
    assert np.array_equal(stack.log_sigma[b], np.zeros(d))
    assert np.array_equal(stack.u_frame[b], np.eye(d))
    assert np.array_equal(stack.v_frame[b], np.eye(d))


def test_stack_singular_factor_drops_only_its_row():
    factors = _engine_factors("real", 3, "ginibre")
    bad = factors.copy()
    bad[2, 4] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    seen, final = _evolve(bad)
    keep = np.arange(5) != 2
    clean, _ = _evolve(factors[keep])
    _assert_rows_equal(seen, keep, clean)
    assert final.ok.tolist() == [True, True, False, True, True]
    assert isinstance(final.failure[2], SingularInputError)
    assert "factor is numerically singular" in str(final.failure[2])
    assert seen[1].ok[2]  # still alive at n=3, dropped at step 5
    _assert_reset(final, 2)


def test_stack_singular_first_factor_drops_only_its_row():
    factors = _engine_factors("complex", 2, "ginibre")
    factors[0, 0] = 0.0
    seen, final = _evolve(factors)
    clean, _ = _evolve(factors[1:])
    _assert_rows_equal(seen, slice(1, None), clean)
    assert isinstance(final.failure[0], SingularInputError)
    assert not seen[0].ok[0]
    _assert_reset(final, 0)


def test_stack_row_over_hard_cap_drops_only_its_row():
    # factors graded by 1e-11 (spread 25.3 a step, still regular) carry one
    # row past the hard cap; a full grid brings that row over it before a step
    factors = _engine_factors("real", 2, "ginibre", rows=4, n=40)
    graded = factors.copy()
    graded[1] = np.diag([1.0, 1e-11])
    grid = (1, 20, 40)
    seen, final = _evolve(graded, grid)
    keep = np.arange(4) != 1
    clean, _ = _evolve(factors[keep], grid)
    _assert_rows_equal(seen, keep, clean)
    assert seen[1].ok[1]
    assert final.ok.tolist() == [True, False, True, True]
    assert isinstance(final.failure[1], SpreadOverflowError)
    spread_28 = 28 * 11 * math.log(10)  # the first spread over the cap
    assert spread_28 - 11 * math.log(10) <= SPREAD_HARD_CAP < spread_28
    assert str(final.failure[1]) == f"log-singular-value spread {spread_28:.1f} exceeds hard cap {SPREAD_HARD_CAP}"
    _assert_reset(final, 1)


def test_stack_svd_fallback_drops_only_unconverged_rows(monkeypatch):
    factors = _engine_factors("real", 2, "ginibre")
    _, clean = _evolve(factors)
    svd = np.linalg.svd
    calls = []

    def flaky(a, *args, **kwargs):
        # the first stacked SVD fails, and so does row 3 when taken alone
        if kwargs.get("compute_uv", True) and len(calls) < 6:
            calls.append(a.shape)
            if a.ndim == 3 or len(calls) == 5:
                raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    _, final = _evolve(factors)
    assert final.ok.tolist() == [True, True, True, False, True]
    assert isinstance(final.failure[3], NumericError)
    keep = np.arange(5) != 3
    assert np.array_equal(final.log_sigma[keep], clean.log_sigma[keep])
    _assert_reset(final, 3)


def test_stack_regular_svd_fallback_drops_only_unconverged_rows(monkeypatch):
    # each row's step-4 factor has condition number 1e11: regular, but past the
    # determinant bound, so the step takes the singular-value test on it
    factors = _engine_factors("real", 2, "ginibre")
    gen = RngStream(1607).generator()
    u, v = (sample_haar_unitary(2, "real", gen, size=5) for _ in range(2))
    factors[:, 3] = u @ (np.array([1.0, 1e-11])[:, None] * v)
    keep = np.arange(5) != 3
    clean, _ = _evolve(factors[keep])
    svd, calls = np.linalg.svd, []

    def flaky(a, *args, **kwargs):
        # every stacked singular-value call fails, and so does row 3's factor alone
        if not kwargs.get("compute_uv", True):
            calls.append(a.shape)
            if a.ndim == 3 or np.array_equal(a, factors[3, 3]):
                raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    seen, final = _evolve(factors)
    assert calls == [(5, 2, 2)] + [(2, 2)] * 5
    assert final.ok.tolist() == [True, True, True, False, True]
    assert isinstance(final.failure[3], NumericError)
    assert str(final.failure[3]) == "SVD did not converge on input of shape (2, 2)"
    _assert_rows_equal(seen, keep, clean)
    _assert_reset(final, 3)


@pytest.mark.filterwarnings("error")
def test_stack_failures_stay_in_their_rows(monkeypatch):
    # one stack, five ways to drop a row; nothing non-finite may reach the others
    factors = _engine_factors("real", 2, "ginibre", rows=8, n=40)
    grid = (1, 20, 40)
    bad = factors.copy()
    bad[1, 1] = 0.0                                    # zero factor at step 2
    bad[2, 10] = 0.0                                   # zero factor mid-trajectory
    bad[3, 30] = np.outer([1.0, -2.0], [0.5, 3.0])     # rank-one factor
    bad[4] = np.diag([1.0, 1e-11])                     # over the hard cap at step 29
    svd, calls = np.linalg.svd, []

    def flaky(a, *args, **kwargs):
        # the stacked SVD at the grid point n = 20 fails, and so does row 5 alone
        if kwargs.get("compute_uv", True) and a.ndim == 3:
            calls.append(a[5].copy())
            if len(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
        elif len(calls) >= 2 and np.array_equal(a, calls[1]):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    seen, final = _evolve(bad, grid)
    monkeypatch.undo()
    keep = np.arange(8) > 5
    clean, _ = _evolve(factors[keep], grid)
    _assert_rows_equal(seen, keep, clean)
    assert final.ok.tolist() == [True] + [False] * 5 + [True, True]
    assert seen[0].ok.all() and seen[1].ok.tolist() == [True, False, False, True, True, False, True, True]
    for b in (1, 2, 3):
        assert isinstance(final.failure[b], SingularInputError)
        assert str(final.failure[b]) == "factor is numerically singular"
    assert isinstance(final.failure[4], SpreadOverflowError) and "exceeds hard cap" in str(final.failure[4])
    assert isinstance(final.failure[5], NumericError) and "SVD did not converge" in str(final.failure[5])
    for b in range(1, 6):
        _assert_reset(final, b)
    _assert_reset(seen[1], 5)
    assert all(np.isfinite(getattr(s, a)).all() for s in seen for a in ("log_sigma", "u_frame", "v_frame"))


def _explicit_log_sigma(factors, grid, dps):
    """Descending log singular values of the explicit products at the grid points, by mpmath."""
    import mpmath as mp

    out = []
    with mp.workdps(dps):
        prod, k = mp.eye(factors.shape[-1]), 0
        for n in grid:
            while k < n:
                prod, k = prod * mp.matrix(factors[k].tolist()), k + 1
            out.append(sorted((float(mp.log(s)) for s in mp.svd(prod, compute_uv=False)), reverse=True))
    return np.array(out)


@pytest.mark.parametrize("field, d, ensemble, grid", [
    ("real", 2, "ginibre", (1, 10, 50, 100, 300)),
    ("complex", 5, "ginibre", (10, 50)),
    ("real", 4, "ginibre", (25, 100)),
    ("real", 3, "custom:fixed(1,0.99,0.98)", (2, 100, 200)),
    ("real", 3, "haar-scaled:lognormal(0,1)", (10, 60)),
    ("complex", 2, "ginibre", (1, 10, 100, 300)),
])
def test_stack_matches_extended_precision_products(field, d, ensemble, grid):
    spec = EnsembleSpec(field, d, parse_ensemble(ensemble))
    factors = sample_isotropic_chunk(spec, RngStream(1610, (d,)).generator(), 3, grid[-1])
    stacks = evolve_stack(factors, grid)
    assert stacks[-1].ok.all()
    for b in range(3):
        ref = _explicit_log_sigma(factors[b], grid, 40 + d * grid[-1])
        got = np.array([s.log_sigma[b] for s in stacks])
        assert np.max(np.abs(got - ref)) <= 1e-9, (b, np.max(np.abs(got - ref)))


@pytest.mark.parametrize("grid", [(10, 35), (10, 20, 35)])
def test_stack_follows_a_reversal_of_the_growth_order(grid):
    # the product grows along e1 for 10 factors, then along e2: the steps meet
    # their log scales out of order near n = 19, and so does a grid point at 20
    c, s = 0.6, 0.8
    factors = np.stack([np.array([[c, -s], [s, c]]) @ np.diag([1.0, 1e-10])] + [np.diag([1.0, 1e-10])] * 9
                       + [np.diag([1e-11, 1.0])] * 25)[None]
    stacks = evolve_stack(factors, grid)
    got = np.array([st_.log_sigma[0] for st_ in stacks])
    assert np.max(np.abs(got - _explicit_log_sigma(factors[0], grid, 400))) <= 1e-9


def _fold_g(blocks):
    """The fold guard of each block of factors (..., k, d, d), in numpy:
    log|det B| - sum log ||m_i||_F - (d - 1) log ||B||_F, B = m_1 ... m_k."""
    b = blocks[..., 0, :, :]
    for i in range(1, blocks.shape[-3]):
        b = b @ blocks[..., i, :, :]
    norm = np.linalg.norm
    return (np.linalg.slogdet(b)[1] - np.log(norm(blocks, axis=(-2, -1))).sum(axis=-1)
            - (b.shape[-1] - 1) * np.log(norm(b, axis=(-2, -1))))


def _blocks_at_the_fold_bound(field, d, k, gen, rel):
    """One block of k factors per entry of rel whose guard g is
    log(exponents._FOLD_BOUND * (1 + rel)), while at k = 4 each of its pairs
    clears the bound by a factor e: Ginibre factors (drawn again until that
    leaves room), and a last one with singular values (1, ..., 1, x), x
    fitted to the target."""
    from scipy.optimize import brentq

    spec = EnsembleSpec(field, d, Ginibre())
    log_bound = math.log(exponents._FOLD_BOUND)
    blocks = np.empty((len(rel), k, d, d), dtype=spec.dtype)
    for g, target in zip(blocks, log_bound + np.log1p(rel)):
        while True:
            g[:-1] = sample_isotropic(spec, gen, size=k - 1)
            u, v = sample_haar_unitary(d, field, gen, size=2)

            def last(x):
                g[-1] = u @ (np.r_[np.ones(d - 1), x][:, None] * v)
                return _fold_g(g) - target

            if last(1.0) > 0.0:
                last(brentq(last, 1e-300, 1.0, xtol=1e-300))
                if k == 2 or all(_fold_g(g[i:i + 2]) > log_bound + 1.0 for i in range(0, k, 2)):
                    break
        assert abs(_fold_g(g) - target) < 1e-9
    return blocks


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_fold_guard_holds_at_its_bound(field, d):
    # blocks whose guard lies within 0.1% of the bound, on either side: pairs at
    # d = 5, pairs of pairs below, whose pairs fold if the block does not
    k = 2 if d == 5 else 4
    rel = np.linspace(-1e-3, 1e-3, 40)
    blocks = _blocks_at_the_fold_bound(field, d, k, RngStream(1611, (d, len(field))).generator(), rel)
    steps, live, _ = exponents._fold_schedule(blocks)
    folded = ~live[:, 1:].any(axis=1)
    assert np.array_equal(folded, rel > 0)
    assert np.array_equal(live.sum(axis=1), np.where(folded, 1, 2))
    assert exponents._FOLD_BOUND > 100 * RANK_RTOL
    for g, block in zip(blocks[folded], steps[folded, 0]):
        sv = np.linalg.svd(g, compute_uv=False)
        assert _svd_regular(g).all() and (sv[:, -1] > exponents._FOLD_BOUND * sv[:, 0]).all()
        assert rel_err(block, np.linalg.multi_dot(list(g))) < 1e-14
        sv = np.linalg.svd(block, compute_uv=False)
        assert math.log(sv[0] / sv[-1]) < -math.log(exponents._FOLD_BOUND)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 5])
def test_fold_never_takes_odd_blocks(field, d):
    # eight unitary factors fold into one block; each row but the first holds
    # an odd pair at factors 2 and 3, which must step alone at every level
    seg = np.stack([sample_haar_unitary(d, field, RngStream(1612, (d,)).generator(), size=8)] * 7)
    graded = np.r_[np.ones(d - 1), 1e-13]
    seg[1, 2], seg[1, 3] = np.diag(graded), np.diag(1 / graded)  # compensating: their product is I
    seg[2, 2:4] *= 1e160                                         # the pair's product overflows
    seg[3, 2:4] *= 1e-160                                        # ... or underflows
    seg[4, 3] = 0.0
    seg[5, 3] = np.outer(np.arange(1.0, d + 1), np.ones(d))     # rank one
    seg[6, 2:4] *= np.array([1e-165, 1e150])[:, None, None]      # ||m_2||_F^2 underflows to 0
    steps, live, _ = exponents._fold_schedule(seg)
    assert live.sum(axis=1).tolist() == [1] + [4] * 6
    for b in range(1, 7):
        assert np.array_equal(steps[b, 1:3], seg[b, 2:4])


@pytest.mark.filterwarnings("error")
def test_fold_needs_both_halves():
    # B = P Q = e^-8 I passes the guard, but its half P = diag(1, e^-8, e^-8)
    # does not: P's factors step alone, Q as one block; a row of unitaries
    # folds all four
    p, q = np.diag(np.exp([0.0, -4.0, -4.0])), np.diag(np.exp([-4.0, 0.0, 0.0]))
    seg = np.stack([[p, p, q, q], sample_haar_unitary(3, "real", RngStream(1614).generator(), size=4)])
    assert _fold_g(seg[0, :2]) < math.log(exponents._FOLD_BOUND) < min(_fold_g(seg[0, 2:]), _fold_g(seg[0]))
    steps, live, _ = exponents._fold_schedule(seg)
    assert live.sum(axis=1).tolist() == [3, 1]
    assert np.array_equal(steps[0, :3], [p, p, q @ q])


@pytest.mark.filterwarnings("error")
def test_fold_steps_complex_d5_in_blocks():
    # complex 5x5 factors fold in pairs and more: fewer steps than factors,
    # and every row as it is alone
    factors = sample_isotropic_chunk(EnsembleSpec("complex", 5, Ginibre()), RngStream(1613).generator(), 10, 50)
    grid = (10, 50)
    for lo, hi in ((1, 10), (10, 50)):
        assert exponents._fold_schedule(factors[:, lo:hi])[0].shape[1] < hi - lo
    seen, final = _evolve(factors, grid)
    assert final.ok.all()
    for b in range(10):
        alone, _ = _evolve(factors[b:b + 1], grid)
        _assert_rows_equal(seen, slice(b, b + 1), alone)


@pytest.mark.filterwarnings("error")
def test_verdicts_only_for_single_factors_of_live_rows(monkeypatch):
    # the complex d = 5 stack above, and one at d = 2, with row 3 dropped by a
    # rank-one factor in the first segment and given a graded one, which folds
    # with nothing, in the second: _regular tests only single factors of the
    # rows alive at a segment's start, never a folded block or a padded identity
    grid = (10, 50)
    regular, bound_clears = exponents._regular, exponents._bound_clears
    for d in (2, 5):
        factors = sample_isotropic_chunk(EnsembleSpec("complex", d, Ginibre()), RngStream(1613).generator(), 10, 50)
        factors[3, 4] = np.outer(np.arange(1.0, d + 1.0), np.ones(d))
        factors[3, 30] = np.diag(np.r_[np.ones(d - 1), 1e-7])
        calls, bounded = [], []
        monkeypatch.setattr(exponents, "_regular", lambda m, test: calls.append((m, test)) or regular(m, test))
        monkeypatch.setattr(exponents, "_bound_clears", lambda m: bounded.append(len(m)) or bound_clears(m))
        stacks = evolve_stack(factors, grid)
        assert [s.ok.tolist() for s in stacks] == [[b != 3 for b in range(10)]] * 2
        assert bounded == [int(test.sum()) for _, test in calls]
        for (m, test), lo, hi in zip(calls, (1, 10), grid):
            _, live, single = exponents._fold_schedule(factors[:, lo:hi])
            assert single[3].any() and (live & ~single).any()
            assert np.array_equal(test, single & (np.arange(10) != 3)[:, None] if lo > 1 else single)
            for b in range(10):
                row = list(factors[b, lo:hi])
                for step, tested, blocked in zip(m[b], test[b], live[b] & ~single[b]):
                    # a tested step is one of the row's factors; a folded block is none of them
                    if tested or blocked:
                        assert any(np.array_equal(step, f) for f in row) == bool(tested)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["real", "complex"])
def test_stack_pads_rows_that_fold(field):
    # row 1 holds a regular but graded factor every 5 steps, so some of its
    # groups cannot fold; the other rows fold, run out of steps and are padded
    grid = (1, 10, 25, 42)
    factors = _engine_factors(field, 2, "ginibre", rows=4, n=grid[-1])
    factors[1, ::5] = np.diag([1.0, 1e-7])
    seen, final = _evolve(factors, grid)
    assert final.ok.all()
    assert [s.n for s in seen] == list(grid)
    steps, live, _ = exponents._fold_schedule(factors[:, 1:10])
    assert live[1].all() and not live[[0, 2, 3]].all()
    for b in range(4):
        alone, _ = _evolve(factors[b:b + 1], grid)
        _assert_rows_equal(seen, slice(b, b + 1), alone)
    ref = _explicit_log_sigma(factors[1], grid, 40 + 2 * grid[-1])
    assert np.max(np.abs(np.array([s.log_sigma[1] for s in seen]) - ref)) <= 1e-9


@pytest.mark.filterwarnings("error")
def test_padded_steps_check_nothing():
    # row 0 folds its factors in 53 blocks of four and crosses the hard cap
    # with its last factor, a step of its own; row 1's graded factors fold
    # nowhere, so row 0 then takes padded steps, which must not drop it for
    # the spread it reached
    grid = (1, 214)
    over = np.stack([np.diag([1.0, 0.04])] * 213 + [np.diag([1.0, 1e-4])])
    factors = np.concatenate([over[None], _engine_factors("real", 2, "ginibre", rows=1, n=214)])
    factors[1, 1::2], factors[1, 2::2] = np.diag([1.0, 1e-7]), np.diag([1e-7, 1.0])
    steps, live, _ = exponents._fold_schedule(factors[:, 1:])
    assert live.sum(axis=1).tolist() == [54, 213] and not live[0, 54:].any()
    seen, final = _evolve(factors, grid)
    alone, _ = _evolve(factors[:1], grid)
    _assert_rows_equal(seen, slice(0, 1), alone)
    assert final.ok.all() and final.spread[0] > SPREAD_HARD_CAP


@pytest.mark.filterwarnings("error")
def test_stack_zero_pivot_drops_only_its_row(monkeypatch):
    # no LQ gives a zero pivot on a regular factor; make one step's give one
    # in row 2: the third, from LAPACK's QR at d = 3; the first, from the
    # closed form at d = 2, where row 2 takes no third step
    for d, call in ((3, 3), (2, 1)):
        factors = _engine_factors("real", d, "ginibre", rows=5, n=30)
        grid = (1, 10, 30)
        keep = np.arange(5) != 2
        clean, _ = _evolve(factors[keep], grid)
        assert exponents._fold_schedule(factors[:, 1:10])[1][2, call - 1]
        calls = []
        with monkeypatch.context() as patch:
            if d == 2:
                lq = exponents._lq_2x2

                def zero_pivot(y):
                    size, ratio, o = lq(y)
                    calls.append(1)
                    if len(calls) == call:
                        size = size.copy()
                        size[2, 1] = 0.0
                    return size, ratio, o

                patch.setattr(exponents, "_lq_2x2", zero_pivot)
            else:
                qr = exponents.qr_rows

                def zero_pivot(a):
                    q, r = qr(a)
                    calls.append(1)
                    if len(calls) == call:
                        r[2, 1, 1] = 0.0
                    return q, r

                patch.setattr(exponents, "qr_rows", zero_pivot)
            seen, final = _evolve(factors, grid)
        assert final.ok.tolist() == [True, True, False, True, True]
        assert isinstance(final.failure[2], SingularInputError)
        assert str(final.failure[2]) == "factor drove the product to numerical singularity"
        for stack in seen[1:]:
            _assert_reset(stack, 2)
        _assert_rows_equal(seen, keep, clean)


@pytest.mark.filterwarnings("error")
def test_stack_singular_factors_drop_at_their_own_steps():
    # singular factors where the segment's verdicts must place them: alone
    # between folded blocks (row 1), last in a segment (row 2), and in a row
    # that takes padded steps, at a step that others take padded (row 3);
    # row 4's graded factors fold nowhere; at d = 2 and 3
    grid = (1, 10, 25, 42)
    for d in (2, 3):
        factors = _engine_factors("real", d, "ginibre", rows=5, n=grid[-1])
        graded = np.r_[np.ones(d - 1), 1e-7]
        factors[4, 1::2], factors[4, 2::2] = np.diag(graded), np.diag(graded[::-1])
        clean, _ = _evolve(factors[[0, 4]], grid)
        rank_one = np.outer([1.0, -2.0, 0.25][:d], [0.5, 3.0, -1.0][:d])
        bad = factors.copy()
        bad[1, 13] = bad[2, 9] = bad[3, 36] = rank_one
        steps, live, _ = exponents._fold_schedule(bad[:, 10:25])
        assert np.array_equal(steps[1, 2], rank_one) and np.array_equal(steps[1, 1], bad[1, 12])
        assert rel_err(steps[1, 0], bad[1, 10] @ bad[1, 11]) < 1e-15
        assert rel_err(steps[1, 3], np.linalg.multi_dot(list(bad[1, 14:18]))) < 1e-15
        steps, live, _ = exponents._fold_schedule(bad[:, 1:10])
        assert np.array_equal(steps[2, live[2].sum() - 1], rank_one)
        steps, live, single = exponents._fold_schedule(bad[:, 25:42])
        at = [np.array_equal(step, rank_one) for step in steps[3]].index(True)
        assert single[3, at] and not live[:, at].all() and not live[3].all()
        assert live[4].all()
        seen, final = _evolve(bad, grid)
        _assert_rows_equal(seen, [0, 4], clean)
        for b, dropped_at in ((1, 2), (2, 1), (3, 3)):
            assert [s.ok[b] for s in seen] == [k < dropped_at for k in range(len(grid))]
            assert isinstance(final.failure[b], SingularInputError)
            assert str(final.failure[b]) == "factor is numerically singular"
            _assert_reset(seen[dropped_at], b)


def test_evolve_stack_rejects_bad_factors():
    factors = _engine_factors("real", 2, "ginibre")
    with pytest.raises(ValueError, match="non-finite"):
        bad = factors.copy()
        bad[1, 2, 0, 0] = np.nan
        evolve_stack(bad, ENGINE_GRID)
    with pytest.raises(ValueError, match="must be"):
        evolve_stack(factors, (1, 7))


def _svd_regular(m):
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[..., -1] > RANK_RTOL * sv[..., 0]


def _regular_quietly(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        regular, converged = exponents._regular(m, np.ones(m.shape[:-2], dtype=bool))
    assert converged.all()
    return regular


@pytest.mark.parametrize("field", ["real", "complex"])
def test_regular_matches_svd_test(field):
    gen = RngStream(1605, (len(field),)).generator()
    for d in (2, 3, 5):
        # sigma = (1, ..., 1, ratio), ratio within 0.1% of the SVD test's
        # threshold and of the ratio at which |det| / ||m||_F^d meets 100 RANK_RTOL
        ratios = np.outer([RANK_RTOL, 100 * RANK_RTOL * d ** (d / 2)], 1 + np.linspace(-1e-3, 1e-3, 200))
        sigma = np.ones(ratios.shape + (d,))
        sigma[..., -1] = ratios
        u, v = (sample_haar_unitary(d, field, gen, size=ratios.size).reshape(ratios.shape + (d, d)) for _ in range(2))
        m = u @ (sigma[..., None] * v)
        got = _regular_quietly(m)
        assert got.shape == ratios.shape and np.array_equal(got, _svd_regular(m))
        assert 0 < got[0].sum() < ratios.shape[1] and got[1].all()
    # exactly singular, zero, d = 1 with extreme scales, d = 64 where ||m||_F^d is out of range
    dtype = np.complex128 if field == "complex" else np.float64
    rank_one = np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5j if field == "complex" else 0.5])
    odd = [np.stack([rank_one, np.zeros((3, 3), dtype), np.eye(3, dtype=dtype)]),
           np.array([0.0, 1e-300, -3.0, 1e300]).astype(dtype).reshape(4, 1, 1)]
    big = sample_isotropic(EnsembleSpec(field, 64, Ginibre()), gen, size=3) * np.array([1e-10, 1.0, 1e10])[:, None, None]
    dup = big[1].copy()
    dup[:, 5] = dup[:, 7]
    odd.append(np.concatenate([big, dup[None], np.zeros((1, 64, 64), dtype)]))
    for m in odd:
        assert np.array_equal(_regular_quietly(m), _svd_regular(m))
    assert [_regular_quietly(m).tolist() for m in odd] == [[False, False, True], [False, True, True, True],
                                                          [True, True, True, False, False]]


def test_regular_takes_no_svd_for_well_conditioned_factors(monkeypatch):
    factors = sample_isotropic(EnsembleSpec("real", 2, Ginibre()), RngStream(1606).generator(), size=1000)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(k.get("compute_uv", True)) or svd(*a, **k))
    m = factors.reshape(50, 20, 2, 2)
    regular, converged = exponents._regular(m, np.ones(m.shape[:2], dtype=bool))
    assert regular.all() and converged.all()
    assert not calls
    # a whole trajectory: its single factors, folded blocks and padded steps take no singular-value test
    stacks = evolve_stack(m, (1, 7, 20))
    assert stacks[-1].ok.all()
    assert False not in calls and len(calls) == 3


# --- stability exponents -----------------------------------------------


def test_stability_identity_frames():
    st_ = ProductState(
        n=3,
        log_sigma=np.array([1.0, 0.0, -1.0]),
        u_frame=np.eye(3),
        v_frame=np.eye(3),
    )
    assert np.allclose(stability_from_state(st_), st_.log_sigma, atol=1e-12)


def test_stability_single_factor_matches_eig(stream):
    a = sample_isotropic(EnsembleSpec("real", 4, Ginibre()), stream.derive(5))
    st_ = init_state(a)
    expected = np.sort(np.log(np.abs(np.linalg.eigvals(a))))[::-1]
    assert np.max(np.abs(stability_from_state(st_) - expected)) < 1e-9


def test_stability_scalar():
    st_ = init_state([[5.0]])
    assert np.allclose(stability_from_state(st_), [math.log(5)])


def test_stability_extended_precision_branch_consistent(stream):
    # drive the spread just past the plain LAPACK branch and compare
    # against the same spectrum computed by LAPACK on the whole similarity
    gen = stream.derive(6).generator()
    q = sample_haar_unitary(3, "real", gen)
    u = sample_haar_unitary(3, "real", gen)
    for spread in (20.0, 26.0):
        ls = np.array([0.0, -0.4 * spread, -spread])
        st_ = ProductState(n=7, log_sigma=ls, u_frame=u, v_frame=q)
        got = stability_from_state(st_)
        w = (q @ u) * np.exp(ls)[None, :]
        expected = np.sort(np.log(np.abs(np.linalg.eigvals(w))))[::-1]
        assert np.max(np.abs(got - expected)) < 1e-7
    # determinant identity survives a spread far beyond double range
    ls = np.array([50.0, 0.0, -80.0])
    st_ = ProductState(n=9, log_sigma=ls, u_frame=u, v_frame=q)
    got = stability_from_state(st_)
    assert got.sum() == pytest.approx(ls.sum(), abs=1e-8)
    assert np.all(np.diff(got) <= 0)


def test_stability_extended_precision_complex_field(stream):
    gen = stream.derive(96).generator()
    q = sample_haar_unitary(3, "complex", gen)
    u = sample_haar_unitary(3, "complex", gen)
    # moderate spread: both branches must agree
    ls = np.array([0.0, -9.0, -22.0])
    st_ = ProductState(n=5, log_sigma=ls, u_frame=u, v_frame=q)
    got = stability_from_state(st_)
    w = (q @ u) * np.exp(ls)[None, :]
    expected = np.sort(np.log(np.abs(np.linalg.eigvals(w))))[::-1]
    assert np.max(np.abs(got - expected)) < 1e-7
    # wide spread: graded deflation; the log-modulus sum is pinned by the
    # determinant of the similarity
    ls = np.array([30.0, 0.0, -60.0])
    st_ = ProductState(n=5, log_sigma=ls, u_frame=u, v_frame=q)
    got = stability_from_state(st_)
    assert got.sum() == pytest.approx(ls.sum(), abs=1e-8)


def test_stability_partial_product_bound(stream):
    spec = EnsembleSpec("real", 3, Ginibre())
    gen = stream.derive(7).generator()
    factors = sample_isotropic(spec, gen, size=12)
    st_ = init_state(factors[0])
    for k in range(1, 12):
        st_ = advance(st_, factors[k])
    stab = stability_from_state(st_)
    for k in range(1, 4):
        assert stab[:k].sum() <= st_.log_sigma[:k].sum() + 1e-8


# --- wide spreads: graded block deflation against the mpmath oracle ------


_EXTENDED = exponents._log_eig_moduli_extended  # the oracle, saved before the fallbacks fixture wraps it


def _oracle(state):
    c = float(state.log_sigma[0])
    return _EXTENDED(state.v_frame @ state.u_frame, state.log_sigma - c)[0] + c


@pytest.fixture
def fallbacks(monkeypatch):
    """Blocks stability_rows (and so stability_from_state) hands to the extended-precision path."""
    seen = []

    def counted(q, log_scale):
        seen.append(q.shape[0])
        return _EXTENDED(q, log_scale)

    monkeypatch.setattr(exponents, "_log_eig_moduli_extended", counted)
    return seen


# (ensemble, field, d, spreads): each state is the first of its trajectory past the spread
ORACLE_SPECS = [
    (Ginibre(), "real", 2, (25, 120, 400)),
    (Ginibre(), "complex", 2, (25, 300)),
    (Ginibre(), "real", 3, (25, 90, 250)),
    (Ginibre(), "complex", 3, (30, 500)),
    (Ginibre(), "real", 4, (25, 150)),
    (Ginibre(), "complex", 4, (25, 60, 350)),
    (Ginibre(), "real", 5, (25, 200)),
    (Ginibre(), "complex", 5, (25, 52, 120)),
    (Ginibre(), "real", 6, (25, 80)),
    (Ginibre(), "complex", 6, (25, 300)),
    (TruncatedHaar(5), "real", 3, (25, 200)),
    (TruncatedHaar(6), "complex", 4, (25, 100)),
    (TruncatedHaar(8), "complex", 6, (40,)),
    (CustomSingular(values=(3.0, 1.0, 0.5, 0.1)), "real", 4, (25, 300)),
    (CustomSingular(values=(2.0, 1.5, 1.0, 0.4, 0.1)), "complex", 5, (25, 150)),
    # spread at most 1.61 a step, so the first state past 688 is within 2 of the hard cap
    (CustomSingular(values=(1.0, 0.2)), "real", 2, (688,)),
]


def _oracle_corpus():
    states = []
    for i, (kind, field, d, spreads) in enumerate(ORACLE_SPECS):
        spec = EnsembleSpec(field, d, kind)
        gen = RngStream(1601, (i,)).generator()
        state = init_state(sample_isotropic(spec, gen))
        for spread in spreads:
            while state.spread <= spread:
                state = advance(state, sample_isotropic(spec, gen))
            states.append((spec.tag(), state))
    return states


def test_wide_spectrum_matches_oracle_without_fallback(fallbacks):
    states = _oracle_corpus()
    spreads = [state.spread for _, state in states]
    assert min(spreads) > 25 and SPREAD_HARD_CAP - 2 <= max(spreads) <= SPREAD_HARD_CAP
    alone = {}
    for tag, state in states:
        got = alone[id(state)] = stability_from_state(state)
        assert not fallbacks, (tag, state.n)
        assert np.max(np.abs(got - _oracle(state))) <= 1e-10, (tag, state.n, state.spread)
    # the corpus as stacks, one for each dimension and field: the same results bit for bit
    groups = {}
    for _, state in states:
        groups.setdefault((state.d, state.u_frame.dtype), []).append(state)
    for group in groups.values():
        logs, failure = stability_rows(*(np.stack([getattr(s, a) for s in group])
                                         for a in ("log_sigma", "u_frame", "v_frame")))
        assert not fallbacks and np.equal(failure, None).all()
        assert all(np.array_equal(got, alone[id(s)]) for s, got in zip(group, logs))


def _frames_state(q, log_sigma):
    """State whose similarity is q @ diag(exp(log_sigma)): identity left frame."""
    q = np.asarray(q)
    return ProductState(n=1, log_sigma=np.asarray(log_sigma, dtype=np.float64),
                        u_frame=np.eye(q.shape[0], dtype=q.dtype), v_frame=q)


def _rotation(c):
    s = math.sqrt(1.0 - c * c)
    return np.array([[c, -s], [s, c]])


def test_wide_spectrum_permutation_frames_fall_back(fallbacks):
    # Q11 = 0 at the split: the leading block has no inverse
    swap = _frames_state([[0.0, 1.0], [1.0, 0.0]], [10.0, -30.0])
    got = stability_from_state(swap)
    assert fallbacks == [2]
    assert np.max(np.abs(got - _oracle(swap))) <= 1e-10
    assert np.allclose(got, [-10.0, -10.0], atol=1e-12)  # eigenvalues +-exp(-10)
    cycle = _frames_state(np.roll(np.eye(3), 1, axis=0), [20.0, 0.0, -40.0])
    got = stability_from_state(cycle)
    assert fallbacks == [2, 3]
    assert np.max(np.abs(got - _oracle(cycle))) <= 1e-10
    assert np.allclose(got, -20.0 / 3, atol=1e-12)  # cube roots of exp(-20)


def test_wide_spectrum_straddling_conjugate_pair_falls_back(fallbacks):
    # a rotation by nearly 90 degrees across the gap of 18 has a complex
    # pair of modulus exp(-21), one eigenvalue on each side of the split: no
    # real invariant subspace separates them, so the Riccati iteration
    # diverges (Q11 itself is conditioned well enough to be tried)
    state = _frames_state(block_diag(np.eye(1), _rotation(3e-5)), [0.0, -12.0, -30.0])
    assert not exponents._split(state.v_frame[None], state.log_sigma[None], 2)[2][0]
    got = stability_from_state(state)
    assert fallbacks == [3]
    assert np.max(np.abs(got - _oracle(state))) <= 1e-10
    assert np.allclose(got, [0.0, -21.0, -21.0], atol=1e-9)


def _nearly_singular_leading_block(field, gen):
    """4x4 unitary whose leading 2x2 block has a singular value of 1e-7."""
    left = block_diag(sample_haar_unitary(2, field, gen), sample_haar_unitary(2, field, gen))
    right = block_diag(sample_haar_unitary(2, field, gen), sample_haar_unitary(2, field, gen))
    return left @ block_diag(np.eye(1), _rotation(1e-7), np.eye(1)) @ right


@pytest.mark.parametrize("field", ["real", "complex"])
def test_wide_spectrum_nearly_singular_leading_block_falls_back(field, fallbacks, stream):
    # the 2x2 leading block has a singular value of 1e-7: split blocks would
    # carry errors of ~1e-9, so the block goes to the extended-precision path
    q = _nearly_singular_leading_block(field, stream.derive(99).generator())
    state = _frames_state(q, [0.0, -2.0, -42.0, -45.0])
    assert np.linalg.svd(q[:2, :2], compute_uv=False)[-1] == pytest.approx(1e-7, rel=1e-6)
    got = stability_from_state(state)
    assert fallbacks == [4]
    assert np.max(np.abs(got - _oracle(state))) <= 1e-10


def test_stacked_spectrum_rows_match_rows_alone(fallbacks, stream):
    # one stack mixing every path; each row must come out as it does alone
    gen = stream.derive(101).generator()
    rows = [(sample_haar_unitary(4, "real", gen), ls) for ls in (
        [0.0, -3.0, -9.0, -20.0],      # narrow
        [1.0, 0.5, -4.0, -24.0],       # narrow
        [0.0, -30.0, -35.0, -40.0],    # wide, split after index 1
        [0.0, -2.0, -40.0, -42.0],     # wide, after 2
        [0.0, -1.0, -3.0, -50.0],      # wide, after 3
        [0.0, -30.0, -60.0, -90.0],    # wide, each lower block split again
    )] + [
        (block_diag(np.eye(2), _rotation(3e-5)), [0.0, -3.0, -12.0, -30.0]),  # straddling pair: diverges
        (np.roll(np.eye(4), 1, axis=0), [20.0, 0.0, -10.0, -40.0]),          # singular Q11
        (_nearly_singular_leading_block("real", gen), [0.0, -2.0, -42.0, -45.0]),
        (sample_haar_unitary(4, "real", gen), [400.0, 0.0, -100.0, -300.0]),  # over the hard cap
        (np.diag([1.0, 1.0, 1.0, 0.0]), [0.0, -1.0, -2.0, -3.0]),          # an eigenvalue 0
    ]
    log_sigma = np.array([ls for _, ls in rows])
    v = np.array([q for q, _ in rows])
    u = np.broadcast_to(np.eye(4), v.shape)
    logs, failure = stability_rows(log_sigma, u, v)
    assert fallbacks == [4, 4, 4]
    assert [type(f).__name__ for f in failure] == ["NoneType"] * 9 + ["SpreadOverflowError", "NumericError"]
    assert "underflowed" in str(failure[-1])
    for b in range(len(rows)):
        alone, fail = stability_rows(log_sigma[b:b + 1], u[b:b + 1], v[b:b + 1])
        assert np.array_equal(logs[b], alone[0], equal_nan=True), b
        assert repr(fail[0]) == repr(failure[b])
        if b < 9:
            state = _frames_state(v[b], log_sigma[b])
            assert np.max(np.abs(logs[b] - _oracle(state))) <= 1e-10, b
    assert fallbacks == [4, 4, 4] * 2


def test_stacked_spectrum_eigvals_fallback_drops_only_unconverged(monkeypatch, fallbacks, stream):
    gen = stream.derive(102).generator()
    log_sigma = np.array([[0.0, -1.0, -5.0], [0.0, -2.0, -4.0], [1.0, -3.0, -9.0], [0.0, -30.0, -32.0]])
    v = sample_haar_unitary(3, "real", gen, size=4)
    u = sample_haar_unitary(3, "real", gen, size=4)
    clean, _ = stability_rows(log_sigma, u, v)
    q = v[2] @ u[2]
    bad = q * np.exp(log_sigma[2] - log_sigma[2, 0])[None, :]  # what LAPACK sees of row 2
    eigvals = np.linalg.eigvals

    def flaky(a):
        # every stacked call fails, and so does row 2 taken alone
        if a.ndim == 3 or np.array_equal(a, bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    logs, failure = stability_rows(log_sigma, u, v)
    assert isinstance(failure[2], NumericError) and "did not converge (shape (3, 3))" in str(failure[2])
    assert np.isnan(logs[2]).all() and not fallbacks
    keep = [0, 1, 3]  # row 3 is wide: its lower block took the per-matrix call
    assert np.equal(failure[keep], None).all() and np.array_equal(logs[keep], clean[keep])
    with pytest.raises(NumericError, match="did not converge"):
        stability_from_state(ProductState(1, log_sigma[2], u[2], v[2]))


# --- complex pair counts of wide real states against mpmath ----------------


# (ensemble, d, grid) of real trajectories whose states reach spreads of 30 to
# the hard cap; two close leading singular values keep complex pairs to wide
# spreads, and at n <= 8 with d <= 3 the explicit product is classified too
PAIR_SPECS = [
    (CustomSingular(values=(1.0, 1e-3)), 2, (5, 8, 30, 90)),
    (Ginibre(), 2, (45, 150, 400, 950)),
    (CustomSingular(values=(1.0, 0.9, 1e-3)), 3, (5, 8, 30, 90)),
    (Ginibre(), 3, (30, 100, 300)),
    (CustomSingular(values=(1.0, 0.9, 1e-2, 0.9e-2)), 4, (8, 30, 90)),
    (Ginibre(), 4, (30, 100, 250)),
    (CustomSingular(values=(1.0, 0.9, 0.1, 1e-2, 0.9e-2)), 5, (8, 30, 90)),
    (Ginibre(), 5, (25, 80, 200)),
]


def _mp_pairs(b):
    """Number of eigenvalues of the mpmath matrix b with imaginary part > 0,
    at the working precision, each eigenvalue real or not by a wide margin."""
    import mpmath as mp

    ev = mp.eig(b, left=False, right=False)
    rel = [abs(mp.im(e)) / abs(e) for e in ev]
    assert all(r < 1e-30 or r > 1e-6 for r in rel), [float(r) for r in rel]
    return sum(1 for e, r in zip(ev, rel) if r > 1e-6 and mp.im(e) > 0)


def _similarity_pairs(q, log_sigma):
    """Complex pairs of q @ diag(exp(log_sigma)) by mpmath, at about twice the
    digits the extended-precision path takes."""
    import mpmath as mp

    d, top = q.shape[0], float(log_sigma[0])
    with mp.workdps(60 + math.ceil(0.87 * d * (top - float(log_sigma[-1])))):
        scale = mp.diag([mp.exp(mp.mpf(float(x)) - top) for x in log_sigma])
        return _mp_pairs(mp.matrix(q.tolist()) * scale)


def _product_pairs(factors, spread):
    """Complex pairs of the explicit product of factors by mpmath."""
    import mpmath as mp

    d = factors.shape[-1]
    with mp.workdps(60 + math.ceil(0.87 * d * spread)):
        prod = mp.eye(d)
        for m in factors:
            prod = prod * mp.matrix(m.tolist())
        return _mp_pairs(prod)


def _pair_corpus():
    """(name, q, log_sigma, factors or None) of real states with spreads from
    30 to the hard cap, d = 2-5: trajectory states, with their factors where
    the explicit product is classified, the real states of the wide-spectrum
    corpus, and frames whose split fails."""
    states = []
    for i, (kind, d, grid) in enumerate(PAIR_SPECS):
        spec = EnsembleSpec("real", d, kind)
        factors = sample_isotropic_chunk(spec, RngStream(1603, (i,)).generator(), 6, grid[-1])
        for n, stack in zip(grid, evolve_stack(factors, grid)):
            for b in np.flatnonzero(stack.ok & (stack.spread >= 30)):
                states.append((f"{spec.tag()} n={n} row {b}", stack.v_frame[b] @ stack.u_frame[b],
                               stack.log_sigma[b], factors[b, :n] if n <= 8 and d <= 3 else None))
    for tag, state in _oracle_corpus():
        if np.isrealobj(state.u_frame) and state.d <= 5 and state.spread >= 30:
            states.append((f"{tag} n={state.n}", state.v_frame @ state.u_frame, state.log_sigma, None))
    gen = RngStream(1603).generator()
    for name, q, log_sigma in [
        ("straddling rotation", block_diag(np.eye(1), _rotation(3e-5)), [0.0, -12.0, -30.0]),
        ("nearly singular Q11", _nearly_singular_leading_block("real", gen), [0.0, -2.0, -42.0, -45.0]),
        ("swap", np.array([[0.0, 1.0], [1.0, 0.0]]), [10.0, -30.0]),
        ("3-cycle", np.roll(np.eye(3), 1, axis=0), [20.0, 0.0, -40.0]),
    ]:
        states.append((name, q, np.array(log_sigma), None))
    return states


def test_wide_real_pair_counts_match_mpmath(fallbacks):
    states = _pair_corpus()
    spreads = [ls[0] - ls[-1] for _, _, ls, _ in states]
    assert min(spreads) >= 30 and max(spreads) > SPREAD_HARD_CAP - 2
    alone, took = {}, []
    for name, q, log_sigma, factors in states:
        seen = len(fallbacks)
        count = alone[name] = int(exponents._log_eig_moduli_graded(q[None], log_sigma[None])[1][0])
        if len(fallbacks) > seen:
            took.append(name)
        assert count == _similarity_pairs(q, log_sigma), name
        if factors is not None:
            assert count == _product_pairs(factors, log_sigma[0] - log_sigma[-1]), name
    assert took == ["straddling rotation", "nearly singular Q11", "swap", "3-cycle"]
    assert [alone[name] for name in ("straddling rotation", "swap", "3-cycle")] == [1, 0, 1]
    # not only all-real states: complex pairs among the explicit products too
    assert any(alone[name] for name, *_, factors in states if factors is not None)
    # stacked by dimension: the same counts
    for d in {q.shape[0] for _, q, _, _ in states}:
        group = [(name, q, ls) for name, q, ls, _ in states if q.shape[0] == d]
        got = exponents._log_eig_moduli_graded(np.stack([q for _, q, _ in group]), np.stack([ls for *_, ls in group]))[1]
        assert got.tolist() == [alone[name] for name, _, _ in group]


def test_extended_precision_pair_count_matches_schur():
    # mp.eig returns a real eigenvalue with an imaginary part at the rounding
    # level, which the count must not take for half a complex pair
    gen = RngStream(1604).generator()
    for d in (2, 3, 4, 5):
        for a in gen.standard_normal((20, d, d)):
            assert exponents._log_eig_moduli_extended(a, np.zeros(d))[1] == count_complex_pairs(a)


@pytest.mark.parametrize("log_sigma", [
    [10.0, 10.0, -20.0, -20.0],   # equal scales on each side of the split
    [0.0, -30.0, -30.0, -30.0],   # a single leading scale over three equal ones
    [0.0, -30.0, -60.0],          # two equal largest gaps
    [5.0, 5.0, 5.0, 5.0, -40.0],  # four equal scales over one
])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_wide_spectrum_equal_scales(field, log_sigma, fallbacks, stream):
    gen = stream.derive(100, len(log_sigma)).generator()
    d = len(log_sigma)
    state = ProductState(n=3, log_sigma=np.array(log_sigma), u_frame=sample_haar_unitary(d, field, gen),
                         v_frame=sample_haar_unitary(d, field, gen))
    got = stability_from_state(state)
    assert not fallbacks
    assert np.max(np.abs(got - _oracle(state))) <= 1e-10


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_narrow_spectrum_is_plain_lapack(field, d):
    # at spread <= 25 the output is bit for bit that of LAPACK on the shifted similarity
    spec = EnsembleSpec(field, d, Ginibre())
    gen = RngStream(1602, (d,)).generator()
    state = init_state(sample_isotropic(spec, gen))
    seen = 0
    while True:
        q = state.v_frame @ state.u_frame
        c = float(state.log_sigma[0])
        w = np.linalg.eigvals(q * np.exp(state.log_sigma - c)[None, :]).astype(np.complex128)
        lapack = np.log(np.abs(w[np.lexsort((-w.imag, -w.real, -np.abs(w)))])) + c
        assert np.array_equal(stability_from_state(state), lapack)
        seen += 1
        nxt = advance(state, sample_isotropic(spec, gen))
        if nxt.spread > 25.0 or seen == 40:
            break
        state = nxt
    assert d == 1 or state.spread > 12.0


# --- scaled-Haar degenerate ensemble ------------------------------------


def test_haar_scaled_degenerate_exponents(stream):
    spec = EnsembleSpec("real", 3, HaarScaled(ScalarLaw("lognormal", (0.0, 0.5))))
    gen = stream.derive(8).generator()
    factors = sample_isotropic(spec, gen, size=10)
    st_ = init_state(factors[0])
    for k in range(1, 10):
        st_ = advance(st_, factors[k])
        assert st_.log_sigma.max() - st_.log_sigma.min() < 1e-10
        assert np.max(np.abs(stability_from_state(st_) - st_.log_sigma)) < 1e-10


# --- QR stream --------------------------------------------------------------


def test_qr_stream_constant_scaling(stream):
    spec = EnsembleSpec("real", 2, HaarScaled(ScalarLaw("const", (2.5,))))
    res = lyapunov_qr_stream(spec, 40, stream.derive(9))
    assert np.allclose(res.increments, math.log(2.5), atol=1e-10)
    spec1 = EnsembleSpec("real", 2, HaarScaled(ScalarLaw("const", (1.0,))))
    res1 = lyapunov_qr_stream(spec1, 40, stream.derive(10))
    assert np.max(np.abs(res1.increments)) < 1e-10


def test_qr_stream_scalar_case(stream):
    spec = EnsembleSpec("real", 1, Ginibre())
    res = lyapunov_qr_stream(spec, 200, stream.derive(11))
    direct = np.abs(sample_isotropic(spec, stream.derive(11), size=200)).ravel()
    assert np.allclose(res.increments.ravel(), np.log(direct), atol=1e-12)


def test_qr_stream_shape(stream):
    spec = EnsembleSpec("complex", 2, Ginibre())
    res = lyapunov_qr_stream(spec, 50, stream.derive(12))
    assert res.increments.shape == (50, 2)
    assert res.skipped == 0


def _counting_qr(monkeypatch, fails):
    """Patch the stream's QR so that call i (from 0) raises SingularInputError when fails(i)."""
    calls = []

    def qr(a):
        calls.append(1)
        if fails(len(calls) - 1):
            raise SingularInputError("forced")
        return qr_positive(a)

    monkeypatch.setattr(exponents, "qr_positive", qr)
    return calls


def test_qr_stream_counts_every_skip_but_stops_only_on_a_run(monkeypatch, stream):
    # 2500 singular samples in all, never two in a row: no run reaches 1000
    calls = _counting_qr(monkeypatch, lambda i: i % 2 == 0)
    res = lyapunov_qr_stream(EnsembleSpec("real", 2, Ginibre()), 2500, stream.derive(14))
    assert res.skipped == 2500 and len(calls) == 5000
    assert res.increments.shape == (2500, 2) and np.isfinite(res.increments).all()


def test_qr_stream_raises_after_1000_singular_samples_in_a_row(monkeypatch, stream):
    calls = _counting_qr(monkeypatch, lambda i: True)
    with pytest.raises(NumericError, match="more than 1000 singular samples in a row"):
        lyapunov_qr_stream(EnsembleSpec("real", 2, Ginibre()), 10, stream.derive(15))
    assert len(calls) == 1001


# --- single-step estimator -----------------------------------------------


def test_single_step_trivial_scalar(stream):
    spec = EnsembleSpec("real", 1, CustomSingular(values=(2.0,)))
    est = single_step_estimate(spec, 100, stream.derive(13))
    assert est.mean == pytest.approx([math.log(2)], abs=1e-12)
    assert est.cov == pytest.approx(np.zeros((1, 1)), abs=1e-20)
    assert est.count == 100


def test_single_step_real_ginibre_d2(stream):
    spec = EnsembleSpec("real", 2, Ginibre())
    est = single_step_estimate(spec, 100_000, stream.derive(14))
    target = np.array([0.0579657578292062, -0.6351814227307391])
    assert np.all(np.abs(est.mean - target) < 3 * est.se)


def test_single_step_truncated_unitary_m4_d2(stream):
    spec = EnsembleSpec("complex", 2, TruncatedHaar(4))
    est = single_step_estimate(spec, 100_000, stream.derive(15))
    target = np.array([-5 / 12, -3 / 4])
    assert np.all(np.abs(est.mean - target) < 3 * est.se)


def test_single_step_covariance_shape_and_se(stream):
    spec = EnsembleSpec("real", 3, Ginibre())
    est = single_step_estimate(spec, 5000, stream.derive(16))
    assert est.cov.shape == (3, 3)
    assert np.allclose(est.cov, est.cov.T)
    assert np.allclose(est.se, np.sqrt(np.diag(est.cov) / est.count))


def test_single_step_rejects_tiny_sample(stream):
    spec = EnsembleSpec("real", 2, Ginibre())
    with pytest.raises(ValueError):
        single_step_estimate(spec, 1, stream)


# --- estimator cross-agreement -------------------------------------------


def test_single_step_matches_qr_stream(stream):
    spec = EnsembleSpec("real", 3, Ginibre())
    ss = single_step_estimate(spec, 100_000, stream.derive(17))
    qs = lyapunov_qr_stream(spec, 100_000, stream.derive(18))
    z = np.abs(ss.mean - qs.mean) / np.sqrt(ss.se**2 + qs.se**2)
    assert np.all(z < 3)
    lam = analytic_spectrum(spec).lyapunov
    assert np.all(np.abs(ss.mean - lam) < 3 * ss.se)
    assert np.all(np.abs(qs.mean - lam) < 3 * qs.se)


@pytest.mark.xfail(
    strict=True,
    reason="finite-n bias of the advance-based mean is ~ +-1/n, which at "
    "n=20 with 1e4 replications is ~25 standard errors; the three-way "
    "3-SE agreement is unattainable at this scope (see decisions ledger)",
)
def test_estimator_agreement_spec_scope():
    from matprod.experiments import ExperimentConfig, run_equality

    spec = EnsembleSpec("real", 3, Ginibre())
    stream = RngStream(42)
    ss = single_step_estimate(spec, 100_000, stream.derive(0))
    cfg = ExperimentConfig(seed=42, spec=spec, n_grid=(20,), replications=10_000)
    rec = run_equality(cfg)[0]
    mean, se = stat_array(rec, "mean_singular"), stat_array(rec, "mean_singular", "se")
    z = np.abs(ss.mean - mean) / np.sqrt(ss.se**2 + se**2)
    assert np.all(z < 3)


def test_advance_based_bias_shrinks_with_n():
    from matprod.experiments import ExperimentConfig, run_equality

    spec = EnsembleSpec("real", 3, Ginibre())
    lam = analytic_spectrum(spec).lyapunov
    cfg = ExperimentConfig(seed=42, spec=spec, n_grid=(20, 80), replications=2000)
    n20, n80 = run_equality(cfg)
    dev20 = np.abs(stat_array(n20, "mean_singular") - lam)
    dev80 = np.abs(stat_array(n80, "mean_singular") - lam)
    assert np.all(dev80 < dev20)


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec("real", 3, Ginibre()),
        EnsembleSpec("complex", 3, Ginibre()),
        EnsembleSpec("real", 2, TruncatedHaar(5)),
        EnsembleSpec("complex", 2, TruncatedHaar(5)),
    ],
    ids=lambda s: s.tag(),
)
def test_estimated_components_distinct(spec, stream):
    # successive exponent estimates separated by more than 3 combined SEs
    est = single_step_estimate(spec, 40_000, stream.derive(97))
    gaps = -np.diff(est.mean)
    gap_se = np.sqrt(est.se[:-1] ** 2 + est.se[1:] ** 2)
    assert np.all(gaps > 3 * gap_se)
    assert np.all(np.diff(analytic_spectrum(spec).lyapunov) < 0)


def test_right_isotropic_estimates_match_single_step(stream):
    # the one-step diagonal law ignores the left frame entirely
    spec = EnsembleSpec("real", 2, Ginibre())
    est = single_step_estimate(spec, 50_000, stream.derive(19))

    from matprod.ensembles import sample_right_isotropic

    for tag, u_fixed in (
        (20, np.eye(2)),
        (21, sample_haar_unitary(2, "real", stream.derive(98))),
    ):
        gen = stream.derive(tag).generator()
        n = 50_000
        m = sample_right_isotropic(spec, u_fixed, gen, size=n)
        logs = np.log(np.diagonal(qr_positive(m).r, axis1=-2, axis2=-1).real)
        se = np.sqrt(logs.var(axis=0, ddof=1) / n + est.se**2)
        assert np.all(np.abs(logs.mean(axis=0) - est.mean) < 3 * se)


def test_haar_minor_log_mean_matches_truncated_logdet(stream):
    # E log |principal minor| of a Haar matrix depends only on the order,
    # and equals the corner value from the chi-square telescoping formula
    d, n = 4, 60_000
    for field, tag in (("real", 22), ("complex", 23)):
        w = sample_haar_unitary(d, field, stream.derive(tag), size=n)
        for subset in ((0,), (2,), (0, 3), (1, 2, 3)):
            i = len(subset)
            idx = np.ix_(subset, subset)
            sub = w[(slice(None),) + idx]
            logs = np.log(np.abs(np.linalg.det(sub)))
            se = logs.std(ddof=1) / math.sqrt(n)
            ref = analytic_truncated_logdet(i, d, field)
            assert abs(logs.mean() - ref) < 3 * se, (field, subset)
