import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matprod.exponents import _log_eig_moduli_graded
from matprod.linalg import (
    LqPair,
    QrPair,
    SingularInputError,
    count_complex_pairs,
    lapack_rows,
    lq_positive,
    qr_positive,
    qr_rows,
)

from conftest import rel_err, unitary_defect


def _random_matrix(seed: int, d: int, complex_field: bool) -> np.ndarray:
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((d, d))
    if complex_field:
        a = a + 1j * gen.standard_normal((d, d))
    return a


# --- qr_positive -------------------------------------------------------------


def test_qr_identity():
    pair = qr_positive(np.eye(3))
    assert np.allclose(pair.q, np.eye(3))
    assert np.allclose(pair.r, np.eye(3))


def test_qr_diagonal_already_triangular():
    pair = qr_positive(np.diag([3.0, 2.0]))
    assert np.allclose(pair.q, np.eye(2))
    assert np.allclose(pair.r, np.diag([3.0, 2.0]))


def test_qr_hand_gram_schmidt():
    # columns (0,1) and (2,0): e1 = (0,1), r11 = 1, r12 = 0, e2 = (1,0), r22 = 2
    pair = qr_positive([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(pair.q, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(pair.r, [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 8), st.booleans())
def test_qr_round_trip_and_uniqueness(seed, d, complex_field):
    a = _random_matrix(seed, d, complex_field)
    pair = qr_positive(a)
    assert rel_err(pair.q @ pair.r, a) < 1e-10
    assert unitary_defect(pair.q) < 1e-10
    diag = np.diagonal(pair.r)
    assert np.all(diag.real > 0)
    assert np.all(np.abs(diag.imag) == 0 if np.iscomplexobj(diag) else np.ones_like(diag, bool))
    assert np.allclose(np.tril(pair.r, -1), 0)


def test_qr_rejects_singular():
    with pytest.raises(SingularInputError):
        qr_positive([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularInputError):
        qr_positive(np.zeros((3, 3)))


def test_qr_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        qr_positive(np.ones((2, 3)))
    with pytest.raises(ValueError):
        qr_positive([[np.nan, 0.0], [0.0, 1.0]])


def test_qr_batched():
    gen = np.random.default_rng(5)
    a = gen.standard_normal((7, 4, 4))
    pair = qr_positive(a)
    assert pair.q.shape == a.shape
    assert rel_err(pair.q @ pair.r, a) < 1e-10


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_qr_rows_is_numpy_qr_bit_for_bit(d, complex_field):
    # stacks with an identity, a rank-deficient and a NaN row; transposed as
    # the trajectory step passes them, and tall and wide as lq_positive can
    gen = np.random.default_rng(40 + d)
    a = np.stack([_random_matrix(int(seed), d, complex_field) for seed in gen.integers(0, 10_000, size=6)])
    a[1] = np.eye(d)
    a[2] = np.outer(np.arange(1.0, d + 1), a[2, 0])
    a[3, 1, 2] = np.nan
    for x in (a, a.conj().swapaxes(-1, -2), a[:, :, : d - 1], a[:, : d - 2]):
        q, r = qr_rows(x)
        want_q, want_r = np.linalg.qr(x)
        assert q.dtype == want_q.dtype and r.dtype == want_r.dtype
        assert q.shape == want_q.shape and r.shape == want_r.shape
        assert q.tobytes() == want_q.tobytes() and r.tobytes() == want_r.tobytes()


# --- lq_positive -------------------------------------------------------------


def test_lq_identity():
    pair = lq_positive(np.eye(2))
    assert np.allclose(pair.t, np.eye(2))
    assert np.allclose(pair.o, np.eye(2))


def test_lq_orthogonal_rows():
    pair = lq_positive([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    assert np.allclose(pair.t, np.diag([2.0, 3.0]))
    assert np.allclose(pair.o, np.eye(3)[:2])


def test_lq_row_norm():
    pair = lq_positive([[3.0, 4.0]])
    assert np.allclose(pair.t, [[5.0]])
    assert np.allclose(pair.o, [[0.6, 0.8]])


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 3), st.booleans())
def test_lq_round_trip(seed, rows, extra, complex_field):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((rows, rows + extra))
    if complex_field:
        a = a + 1j * gen.standard_normal(a.shape)
    pair = lq_positive(a)
    assert rel_err(pair.t @ pair.o, a) < 1e-10
    assert np.max(np.abs(pair.o @ np.conj(pair.o.T) - np.eye(rows))) < 1e-10
    assert np.all(np.diagonal(pair.t).real > 0)
    assert np.allclose(np.triu(pair.t, 1), 0)


def test_lq_rejects_dependent_rows():
    with pytest.raises(SingularInputError):
        lq_positive([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])


def test_lq_rejects_wide_rows():
    with pytest.raises(ValueError):
        lq_positive(np.ones((3, 2)))


# --- count_complex_pairs -----------------------------------------------------


def test_pairs_identity():
    assert count_complex_pairs(np.eye(4)) == 0


def test_pairs_rotation():
    assert count_complex_pairs([[0.0, -1.0], [1.0, 0.0]]) == 1


def test_pairs_block_diag():
    c, s = np.cos(1.0), np.sin(1.0)
    a = np.zeros((3, 3))
    a[:2, :2] = [[c, -s], [s, c]]
    a[2, 2] = 2.0
    assert count_complex_pairs(a) == 1


def test_pairs_rejects_complex_input():
    with pytest.raises(ValueError):
        count_complex_pairs(np.eye(2, dtype=complex))


def test_pairs_vs_eigenvalue_reality():
    # cross-check on random real matrices, skipping near-degenerate spectra
    gen = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        d = int(gen.integers(2, 7))
        a = gen.standard_normal((d, d))
        w = np.linalg.eigvals(a)
        if np.min(np.abs(np.diff(np.sort(np.abs(w))[::-1]))) < 1e-8:
            continue
        nonreal = int(np.sum(w.imag != 0.0))
        assert nonreal % 2 == 0
        assert count_complex_pairs(a) == nonreal // 2
        checked += 1


def _classification_corpus(d: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian matrices, and orthogonal-times-graded-diagonal ones with log
    spreads up to 30, the shape the reality experiment classifies: stacks q,
    log_scale of the matrices q @ diag(exp(log_scale)), a Gaussian one with
    log_scale 0."""
    gen = np.random.default_rng(1000 + d)
    plain = gen.standard_normal((count, d, d))
    q, _ = np.linalg.qr(gen.standard_normal((count, d, d)))
    spread = gen.uniform(0.0, 30.0, size=(count, 1))
    logs = -np.sort(gen.uniform(0.0, 1.0, size=(count, d)), axis=1) * spread
    return np.concatenate([plain, q]), np.concatenate([np.zeros((count, d)), logs])


def _matrices(q, log_scale):
    return q * np.exp(log_scale)[:, None, :]


def _pair_counts(q, log_scale=None):
    """Complex pairs of each q[b] @ diag(exp(log_scale[b])), zero log scales by
    default, as the graded spectrum routine counts them."""
    return _log_eig_moduli_graded(q, np.zeros(q.shape[:2]) if log_scale is None else log_scale)[1]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_pair_counts_match_schur_oracle(d):
    corpus = _classification_corpus(d, 1500)
    counts = _pair_counts(*corpus)
    assert counts.shape == (corpus[0].shape[0],)
    assert [int(c) for c in counts] == [count_complex_pairs(a) for a in _matrices(*corpus)]


def test_batched_pair_counts_borderline_cases():
    def rotation(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    # expected None: below double resolution, where only agreement with the
    # oracle is asserted (LAPACK deflates a rotation by 1e-150 to the identity)
    cases = [
        (np.eye(3), 0),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), 0),  # Jordan block
        (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]), 0),
        (np.array([[1.0, 1.0], [-1e-20, 1.0]]), 1),  # perturbed Jordan block: 1 +- 1e-10 i
        (np.diag([2.0, 2.0, -1.0, -1.0]), 0),  # repeated entries
        (np.array([[0.0, -1.0], [1.0, 0.0]]), 1),
        (np.array([[-0.5]]), 0),  # d = 1
        (rotation(1e-8), 1),
        (rotation(1e-30), 1),
        (rotation(1e-150), None),
    ]
    for a, expected in cases:
        oracle = count_complex_pairs(a)
        assert _pair_counts(a[None]).tolist() == [oracle]
        assert expected is None or oracle == expected
    stacked = np.stack([np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]), rotation(1e-8)])
    assert _pair_counts(stacked).tolist() == [0, 1, 1]


def test_batched_pair_counts_fallback_marks_only_unconverged(monkeypatch):
    corpus = _classification_corpus(3, 4)
    expected = [count_complex_pairs(a) for a in _matrices(*corpus)]
    eigvals = np.linalg.eigvals

    def flaky(a):
        # the stacked call fails, and so does the third matrix taken alone
        if a.ndim == 3 or np.array_equal(a, corpus[0][2]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    assert _pair_counts(*corpus).tolist() == expected[:2] + [-1] + expected[3:]


def test_lapack_rows_retries_one_matrix_at_a_time_only_after_a_stacked_failure():
    a = np.random.default_rng(1608).standard_normal((4, 3, 3))
    calls = []

    def flaky(fn):
        def call(m):
            # the stacked call fails, and so does the third matrix taken alone
            calls.append(m.shape)
            if m.ndim == 3 or np.array_equal(m, a[2]):
                raise np.linalg.LinAlgError("did not converge")
            return fn(m)
        return call

    nan_row, eye = np.full(3, np.nan, dtype=np.complex128), np.eye(3)
    w, ok = lapack_rows(lambda m: calls.append(m.shape) or np.linalg.eigvals(m), a, nan_row)
    assert calls == [(4, 3, 3)] and ok.all() and np.array_equal(w, np.linalg.eigvals(a))
    calls.clear()
    w, ok = lapack_rows(flaky(np.linalg.eigvals), a, nan_row)
    assert calls == [(4, 3, 3)] + [(3, 3)] * 4 and ok.tolist() == [True, True, False, True]
    assert w.dtype == np.complex128 and np.isnan(w[2]).all()
    assert all(np.array_equal(w[b], np.linalg.eigvals(a[b])) for b in (0, 1, 3))
    (left, sigma, right), ok = lapack_rows(flaky(np.linalg.svd), a, (eye, np.ones(3), eye))
    assert ok.tolist() == [True, True, False, True]
    assert np.array_equal(left[2], eye) and np.array_equal(sigma[2], np.ones(3)) and np.array_equal(right[2], eye)
    for b in (0, 1, 3):
        assert all(np.array_equal(x, y) for x, y in zip((left[b], sigma[b], right[b]), np.linalg.svd(a[b])))


# --- cross-operation properties ---------------------------------------------


@settings(deadline=None, max_examples=25, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
def test_minor_coefficient_identity(seed, d, complex_field):
    """Order-i principal minor sums equal elementary symmetric functions of
    the spectrum, and minors factor across a diagonal right factor."""
    gen = np.random.default_rng(seed)
    w = qr_positive(_random_matrix(seed + 1, d, complex_field)).q
    s = np.sort(gen.uniform(0.2, 3.0, d))[::-1]
    a = w * s[None, :]
    coeffs = np.poly(np.linalg.eigvals(a))
    for i in range(1, d + 1):
        total = sum(np.linalg.det(a[np.ix_(sub, sub)]) for sub in itertools.combinations(range(d), i))
        elem = (-1) ** i * coeffs[i]
        assert abs(total - elem) <= 1e-8 * max(abs(total), abs(elem), 1e-12)
        for sub in itertools.combinations(range(d), i):
            lhs = np.linalg.det(a[np.ix_(sub, sub)])
            rhs = np.linalg.det(w[np.ix_(sub, sub)]) * np.prod(s[list(sub)])
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-12)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
def test_partial_product_bound(seed, d, complex_field):
    a = _random_matrix(seed, d, complex_field)
    sig = np.linalg.svd(a, compute_uv=False)
    mods = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    for k in range(1, d + 1):
        assert np.prod(mods[:k]) <= np.prod(sig[:k]) * (1 + 1e-8)


def test_structured_return_types():
    assert isinstance(qr_positive(np.eye(2)), QrPair)
    assert isinstance(lq_positive(np.eye(2)), LqPair)
