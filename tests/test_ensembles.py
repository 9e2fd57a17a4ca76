import math

import numpy as np
import pytest

from matprod.ensembles import (
    CustomSingular,
    EnsembleSpec,
    Ginibre,
    HaarScaled,
    ScalarLaw,
    TruncatedHaar,
    format_ensemble,
    parse_ensemble,
    sample_ginibre,
    sample_haar_unitary,
    sample_isotropic,
    sample_isotropic_chunk,
    sample_singular_values,
    sample_truncated_haar,
)
from matprod.linalg import lq_positive
from matprod.rng import RngStream

from conftest import unitary_defect


# --- spec and grammar ----------------------------------------------------


def test_ensemble_grammar_round_trip():
    cases = [
        "ginibre",
        "truncated-haar:m=8",
        "haar-scaled:const(1)",
        "haar-scaled:lognormal(0,1)",
        "haar-scaled:uniform(0.5,2)",
        "haar-scaled:chisq(3)",
        "custom:fixed(2,1)",
        "custom:iid(lognormal(0,0.5))",
        "custom:laws(const(2),uniform(0.5,1.5))",
    ]
    for text in cases:
        kind = parse_ensemble(text)
        assert format_ensemble(kind) == text
        assert parse_ensemble(format_ensemble(kind)) == kind


@pytest.mark.parametrize(
    "bad",
    [
        "gaussy",
        "truncated-haar:m=x",
        "truncated-haar:",
        "haar-scaled:banana(1)",
        "haar-scaled:const(-1)",
        "haar-scaled:uniform(2,1)",
        "custom:fixed(2,-1)",
        "custom:stuff(1)",
        "custom:laws(const(2)",
    ],
)
def test_ensemble_grammar_rejects(bad):
    with pytest.raises(ValueError):
        parse_ensemble(bad)


def test_spec_validation():
    with pytest.raises(ValueError, match="m must exceed d"):
        EnsembleSpec("real", 3, TruncatedHaar(2))
    with pytest.raises(ValueError):
        EnsembleSpec("quaternion", 2, Ginibre())
    with pytest.raises(ValueError):
        EnsembleSpec("real", 0, Ginibre())
    with pytest.raises(ValueError):
        EnsembleSpec("real", 3, CustomSingular(values=(1.0, 2.0)))
    with pytest.raises(ValueError):
        CustomSingular(values=(1.0,), iid=ScalarLaw("const", (1.0,)))


def test_scalar_law_validation():
    with pytest.raises(ValueError):
        ScalarLaw("const", (0.0,))
    with pytest.raises(ValueError):
        ScalarLaw("uniform", (0.0, 1.0))
    with pytest.raises(ValueError):
        ScalarLaw("lognormal", (0.0,))
    with pytest.raises(ValueError):
        ScalarLaw("chisq", (0.5,))


# --- reproducibility -------------------------------------------------------


def test_samplers_reproducible(stream):
    spec = EnsembleSpec("complex", 3, Ginibre())
    a = sample_isotropic(spec, stream.derive(1), size=5)
    b = sample_isotropic(spec, stream.derive(1), size=5)
    assert np.array_equal(a, b)
    c = sample_isotropic(spec, stream.derive(2), size=5)
    assert not np.array_equal(a, c)


# --- Gaussian entry moments -----------------------------------------------


def test_ginibre_real_entry_moments(stream):
    n = 1_000_000
    x = sample_ginibre(1, 1, "real", stream.derive(10), size=n).ravel()
    assert abs(x.mean()) < 4 / math.sqrt(n)
    assert abs((x**2).mean() - 1.0) < 0.01


def test_ginibre_complex_entry_moments(stream):
    n = 1_000_000
    z = sample_ginibre(1, 1, "complex", stream.derive(11), size=n).ravel()
    assert abs(z.mean().real) < 4 / math.sqrt(n)
    assert abs(z.mean().imag) < 4 / math.sqrt(n)
    assert abs((np.abs(z) ** 2).mean() - 2.0) < 0.02


def test_ginibre_argument_errors(stream):
    with pytest.raises(ValueError):
        sample_ginibre(0, 2, "real", stream)
    with pytest.raises(ValueError):
        sample_ginibre(2, 2, "rational", stream)


# --- Haar sampling ----------------------------------------------------------


def test_haar_unitary_every_draw(stream):
    for field in ("real", "complex"):
        u = sample_haar_unitary(4, field, stream.derive(20), size=50)
        assert unitary_defect(u) < 1e-10


def test_haar_d1_real_sign_balance(stream):
    n = 100_000
    u = sample_haar_unitary(1, "real", stream.derive(21), size=n).ravel()
    assert set(np.unique(np.round(u, 12))) == {-1.0, 1.0}
    p = (u > 0).mean()
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / n)


def test_haar_entry_second_moment(stream):
    d, n = 3, 50_000
    u = sample_haar_unitary(d, "complex", stream.derive(22), size=n)
    vals = np.abs(u[:, 0, 0]) ** 2
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 1 / d) < 3 * se


def test_haar_left_invariance_trace_moments(stream):
    # fixed rotation w: tr(w u) and tr(u) match in first/second absolute moments
    d, n = 4, 100_000
    w = sample_haar_unitary(d, "real", stream.derive(23))
    u = sample_haar_unitary(d, "real", stream.derive(24), size=n)
    t1 = np.abs(np.trace(w @ u, axis1=-2, axis2=-1))
    t2 = np.abs(np.trace(u, axis1=-2, axis2=-1))
    for p in (1, 2):
        a, b = t1**p, t2**p
        se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) < 3 * se


# --- truncated Haar ----------------------------------------------------------


def test_truncated_haar_contraction(stream):
    x = sample_truncated_haar(5, 3, "complex", stream.derive(30), size=40)
    sv = np.linalg.svd(x, compute_uv=False)
    assert np.all(sv <= 1 + 1e-10)


def test_truncated_haar_entry_moment(stream):
    m, d, n = 6, 2, 50_000
    x = sample_truncated_haar(m, d, "real", stream.derive(31), size=n)
    vals = x[:, 0, 0] ** 2
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 1 / m) < 3 * se


def test_truncated_haar_log_entry_m2(stream):
    # 1x1 corner of a 2x2 rotation: E log|cos theta| = -log 2
    n = 1_000_000
    x = sample_truncated_haar(2, 1, "real", stream.derive(32), size=n).ravel()
    logs = np.log(np.abs(x))
    se = logs.std(ddof=1) / math.sqrt(n)
    assert abs(logs.mean() + math.log(2)) < 3 * se


def test_truncated_haar_arguments(stream):
    with pytest.raises(ValueError):
        sample_truncated_haar(2, 2, "real", stream)


# --- singular-value sampling -------------------------------------------------


def test_singular_values_fixed(stream):
    spec = EnsembleSpec("real", 2, CustomSingular(values=(2.0, 1.0)))
    assert np.array_equal(sample_singular_values(spec, stream), [2.0, 1.0])
    spec = EnsembleSpec("real", 2, CustomSingular(values=(1.0, 2.0)))
    assert np.array_equal(sample_singular_values(spec, stream), [2.0, 1.0])


def test_singular_values_haar_scaled_constant(stream):
    spec = EnsembleSpec("complex", 3, HaarScaled(ScalarLaw("const", (1.0,))))
    assert np.array_equal(sample_singular_values(spec, stream), np.ones(3))


def test_singular_values_ginibre_trace(stream):
    spec = EnsembleSpec("real", 2, Ginibre())
    n = 100_000
    sv = sample_singular_values(spec, stream.derive(40), size=n)
    total = (sv**2).sum(axis=1)
    assert abs(total.mean() - 4.0) < 0.04


def test_singular_values_descending(stream):
    spec = EnsembleSpec("complex", 4, CustomSingular(iid=ScalarLaw("lognormal", (0.0, 1.0))))
    sv = sample_singular_values(spec, stream.derive(41), size=100)
    assert np.all(np.diff(sv, axis=1) <= 0)
    assert np.all(sv > 0)


# --- isotropic assembly --------------------------------------------------


def test_isotropic_haar_scaled_is_unitary(stream):
    spec = EnsembleSpec("real", 3, HaarScaled(ScalarLaw("const", (1.0,))))
    m = sample_isotropic(spec, stream.derive(50))
    assert unitary_defect(m) < 1e-10


def test_isotropic_singular_values_equal_sampled_diag(stream):
    spec = EnsembleSpec("complex", 3, CustomSingular(values=(3.0, 2.0, 0.5)))
    m = sample_isotropic(spec, stream.derive(51), size=20)
    sv = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(sv - np.array([3.0, 2.0, 0.5]))) < 1e-10


def _state(gen):
    """The generator's full state as text (Philox keeps arrays in it)."""
    return repr(gen.bit_generator.state)


def _per_replication(spec, gen, count, n):
    return [sample_isotropic(spec, gen, size=n) if n > 1 else sample_isotropic(spec, gen) for _ in range(count)]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 100])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_isotropic_chunk_is_the_per_replication_draws(field, n, d):
    # one draw for the chunk reads the stream exactly as one draw a replication
    spec = EnsembleSpec(field, d, Ginibre())
    chunk_gen, loop_gen = (RngStream(1603, (d, n)).generator() for _ in range(2))
    chunk = sample_isotropic_chunk(spec, chunk_gen, 7, n)
    loop = np.reshape(_per_replication(spec, loop_gen, 7, n), (7, n, d, d))
    assert chunk.shape == (7, n, d, d) and chunk.dtype == spec.dtype
    assert chunk.tobytes() == loop.tobytes()
    assert _state(chunk_gen) == _state(loop_gen)


@pytest.mark.parametrize("spec", [
    EnsembleSpec("real", 3, TruncatedHaar(5)),
    EnsembleSpec("complex", 2, HaarScaled(ScalarLaw("lognormal", (0.0, 1.0)))),
])
def test_isotropic_chunk_other_kinds_draw_one_replication_at_a_time(spec):
    chunk_gen, loop_gen, flat_gen = (RngStream(1604).generator() for _ in range(3))
    chunk = sample_isotropic_chunk(spec, chunk_gen, 5, 4)
    loop = np.reshape(_per_replication(spec, loop_gen, 5, 4), (5, 4, spec.d, spec.d))
    assert chunk.tobytes() == loop.tobytes()
    assert _state(chunk_gen) == _state(loop_gen)
    # the u/D/v laws interleave within a replication, so one flat batch reads the stream otherwise
    assert not np.array_equal(chunk.reshape(20, spec.d, spec.d), sample_isotropic(spec, flat_gen, size=20))


def test_ginibre_two_construction_routes_agree(stream):
    # direct Gaussian sample vs u diag(D) v with D following the same law
    d, n = 2, 100_000
    direct = sample_ginibre(d, d, "real", stream.derive(52), size=n)
    log_s1_direct = np.log(np.linalg.svd(direct, compute_uv=False)[:, 0])

    gen = stream.derive(53).generator()
    spec = EnsembleSpec("real", d, Ginibre())
    dvals = sample_singular_values(spec, gen, size=n)
    u = sample_haar_unitary(d, "real", gen, size=n)
    v = sample_haar_unitary(d, "real", gen, size=n)
    assembled = u @ (dvals[:, :, None] * v)
    log_s1_udv = np.log(np.linalg.svd(assembled, compute_uv=False)[:, 0])

    se = math.sqrt(
        log_s1_direct.var(ddof=1) / n + log_s1_udv.var(ddof=1) / n
    )
    assert abs(log_s1_direct.mean() - log_s1_udv.mean()) < 3 * se


# --- triangular-factor laws of Gaussian matrices ----------------------------


def test_lq_of_ginibre_diag_chi_square_moments(stream):
    rows, d, n = 3, 5, 200_000
    g = sample_ginibre(rows, d, "real", stream.derive(60), size=n)
    t = lq_positive(g).t
    diag_sq = np.diagonal(t, axis1=-2, axis2=-1) ** 2
    for j in range(rows):
        k = d - j  # chi-square degrees of freedom for slot j (0-based)
        vals = diag_sq[:, j]
        se_mean = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - k) < 3 * se_mean
        v = vals.var(ddof=1)
        centered = vals - vals.mean()
        se_var = math.sqrt(max((centered**4).mean() - v**2, 0) / n)
        assert abs(v - 2 * k) < 3 * se_var


def test_lq_of_ginibre_offdiag_standard_normal(stream):
    rows, d, n = 3, 5, 200_000
    g = sample_ginibre(rows, d, "real", stream.derive(61), size=n)
    t = lq_positive(g).t
    li, lj = np.tril_indices(rows, k=-1)
    off = t[:, li, lj].ravel()
    se = off.std(ddof=1) / math.sqrt(off.size)
    assert abs(off.mean()) < 3 * se
    v = off.var(ddof=1)
    centered = off - off.mean()
    se_var = math.sqrt(max((centered**4).mean() - v**2, 0) / off.size)
    assert abs(v - 1.0) < 3 * se_var


def test_lq_factor_independence(stream):
    # log det(t) uncorrelated with log |det(square block of o)|
    rows, d, n = 2, 4, 100_000
    g = sample_ginibre(rows, d, "real", stream.derive(62), size=n)
    pair = lq_positive(g)
    log_det_t = np.log(np.diagonal(pair.t, axis1=-2, axis2=-1)).sum(axis=1)
    o1 = pair.o[:, :, :rows]
    log_det_o1 = np.log(np.abs(np.linalg.det(o1)))
    corr = np.corrcoef(log_det_t, log_det_o1)[0, 1]
    assert abs(corr) < 3 / math.sqrt(n)
