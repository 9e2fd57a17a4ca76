"""Field-generic dense matrix primitives.

Real and complex matrices are plain ndarrays (float64 / complex128); the
factorization helpers normalize triangular factors to a real nonnegative
diagonal, which makes QR/LQ unique on full-rank input. Where noted, routines
accept stacked input: leading axes broadcast and the last two are the matrix.
qr_positive and lq_positive raise SingularInputError on rank-deficient
input, and count_complex_pairs raises NumericError when the Schur iteration
does not converge; stacked calls go through lapack_rows, which marks only the
rows that do not. qr_rows is np.linalg.qr without its Python wrapper.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from numpy.linalg import _umath_linalg

__all__ = [
    "SingularInputError",
    "NumericError",
    "QrPair",
    "LqPair",
    "qr_positive",
    "lq_positive",
    "qr_rows",
    "count_complex_pairs",
    "lapack_rows",
    "RANK_RTOL",
]

# Smallest acceptable ratio of the smallest to largest column residual /
# singular value before input is treated as rank deficient.
RANK_RTOL = 1e-12


class SingularInputError(ValueError):
    """Input is numerically rank deficient where full rank is required."""


class NumericError(RuntimeError):
    """An underlying iterative factorization failed to converge."""


@dataclass(frozen=True)
class QrPair:
    """Factorization a = q @ r, q unitary, r upper triangular, diag(r) >= 0."""

    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class LqPair:
    """Factorization a = t @ o, t lower triangular with diag(t) >= 0,
    o with orthonormal rows."""

    t: np.ndarray
    o: np.ndarray


def _as_matrix(a, name: str = "a") -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim < 2:
        raise ValueError(f"{name} must be a matrix (ndim >= 2), got ndim={arr.ndim}")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_square(a: np.ndarray, name: str = "a") -> None:
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


@lru_cache(maxsize=None)
def _upper(rows: int, cols: int) -> np.ndarray:
    mask = np.triu(np.ones((rows, cols), dtype=bool))
    mask.flags.writeable = False  # shared by every call
    return mask


def _qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def qr_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.qr(a) bit for bit, reduced q and r, for a stack of float64
    or complex128 matrices: the same copy and the same two gufuncs of
    numpy's private _umath_linalg (?geqrf, then ?orgqr or ?ungqr) without the
    wrapper's checks, and r cut from the factored copy by a cached upper mask
    instead of np.triu. On small stacks the wrapper costs about as much as
    LAPACK."""
    t = "D" if np.iscomplexobj(a) else "d"
    a = a.astype(t, copy=True)  # ?geqrf factors the copy in place
    with np.errstate(call=_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature=f"{t}->{t}")
        q = _umath_linalg.qr_reduced(a, tau, signature=f"{t}{t}->{t}")
    k = min(a.shape[-2:])
    return q, np.where(_upper(k, a.shape[-1]), a[..., :k, :], 0)


def _positive_qr(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the diagonal of r made exactly real nonnegative.

    Raises SingularInputError when any column residual |r_jj| falls below
    RANK_RTOL relative to the largest one.
    """
    q, r = qr_rows(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    if np.any(mag <= RANK_RTOL * np.max(mag, axis=-1, keepdims=True)):
        raise SingularInputError(
            f"{name} is numerically rank deficient (column residual below "
            f"{RANK_RTOL} of the largest)"
        )
    phase = diag / mag
    q = q * phase[..., None, :]
    r = r * np.conj(phase)[..., :, None]
    k = r.shape[-2]
    idx = np.arange(k)
    r[..., idx, idx] = mag  # exact, kills rounding residue in the phase product
    return q, r


def qr_positive(a) -> QrPair:
    """Unique QR factorization of a square full-rank matrix.

    q is unitary, r upper triangular with strictly positive real diagonal.
    Accepts stacks; a single rank-deficient member fails the whole call.
    """
    arr = _as_matrix(a)
    _require_square(arr)
    q, r = _positive_qr(arr, "qr_positive input")
    return QrPair(q, r)


def lq_positive(a) -> LqPair:
    """Row-wise orthogonalization a = t @ o of a full-row-rank i x d matrix.

    t is i x i lower triangular with strictly positive diagonal and o has
    orthonormal rows (o @ o* = identity). Accepts stacks.
    """
    arr = _as_matrix(a)
    rows, cols = arr.shape[-2], arr.shape[-1]
    if rows > cols:
        raise ValueError(f"lq_positive needs rows <= cols, got shape {arr.shape}")
    ah = np.conj(arr.swapaxes(-1, -2))
    try:
        q, r = _positive_qr(ah, "lq_positive input")
    except SingularInputError:
        raise SingularInputError(
            "lq_positive input has numerically dependent rows"
        ) from None
    return LqPair(np.conj(r.swapaxes(-1, -2)), np.conj(q.swapaxes(-1, -2)))


def count_complex_pairs(a) -> int:
    """Number of complex-conjugate eigenvalue pairs of a real square matrix.

    Counted as the 2x2 blocks of the real Schur form (nonzero entries on the
    first subdiagonal of the quasi-triangular factor), never by thresholding
    imaginary parts. Zero exactly when every eigenvalue is real.
    """
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        raise ValueError("count_complex_pairs requires a real matrix")
    arr = _as_matrix(arr)
    _require_square(arr)
    if arr.ndim != 2:
        raise ValueError("count_complex_pairs takes a single matrix, not a stack")
    if arr.shape[0] == 1:
        return 0
    try:
        t, _ = scipy.linalg.schur(arr, output="real")
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"Schur iteration did not converge (shape {arr.shape})") from exc
    return int(np.count_nonzero(np.diagonal(t, -1)))


def lapack_rows(fn, a: np.ndarray, fill) -> tuple:
    """fn, a LAPACK gufunc, on each matrix of a (B, d, d) stack, and which rows
    converged: one call, or one a matrix only if that call raises LinAlgError.
    A row that does not converge gets fill, fn's output for one matrix."""
    try:
        return fn(a), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    outs, ok = [], np.ones(len(a), dtype=bool)
    for b, m in enumerate(a):
        try:
            outs.append(fn(m))
        except np.linalg.LinAlgError:
            outs.append(fill)
            ok[b] = False
    return (tuple(map(np.stack, zip(*outs))) if isinstance(fill, tuple) else np.stack(outs)), ok
