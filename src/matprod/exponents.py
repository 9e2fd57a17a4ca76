"""Product-state recursion, exponent estimators, and closed-form spectra.

The running product P_n is never formed explicitly: a ProductState keeps its
singular values on log scale together with the left/right unitary frames, so
products of hundreds of factors stay representable; evolve_stack steps them
by the discrete QR method, one step per factor or per folded block of
well-conditioned factors, and takes the SVD at the grid points only. A
step's LQ is in closed form at d = 2 and one batched QR (linalg.qr_rows)
otherwise; the singularity verdicts of a segment's single-factor steps are
taken together before it.
Its stacked LAPACK calls go through linalg.lapack_rows, so a matrix that
does not converge fails only its own row. Estimators and analytic reference
spectra for the supported ensembles live alongside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .ensembles import (
    EnsembleSpec,
    Ginibre,
    TruncatedHaar,
    sample_haar_unitary,
    sample_isotropic,
    sample_singular_values,
)
from .linalg import (
    RANK_RTOL,
    NumericError,
    SingularInputError,
    lapack_rows,
    qr_positive,
    qr_rows,
    _as_matrix,
)
from .rng import as_generator

__all__ = [
    "SPREAD_HARD_CAP",
    "SpreadOverflowError",
    "ProductState",
    "ProductStack",
    "evolve_stack",
    "init_state",
    "advance",
    "stability_rows",
    "pair_rows",
    "stability_from_state",
    "QrStreamResult",
    "lyapunov_qr_stream",
    "ExponentEstimate",
    "single_step_estimate",
    "AnalyticSpectrum",
    "analytic_spectrum",
    "supports_analytic_spectrum",
    "elog_chisq",
    "analytic_truncated_logdet",
]

# Log-scale spread cap: beyond it exp() of a difference of log scales leaves
# double range. Below it no spread is too wide to be taken: spectra of wide
# products come from the graded deflation (_log_eig_moduli_graded).
SPREAD_HARD_CAP = 690.0

_BATCH = 8192  # samples a draw in _samples, which the single-step estimate and verify's law checks take
_LOG2 = math.log(2.0)
_LOG_REGULAR_BOUND = math.log(100 * RANK_RTOL)
# Between grid points an aligned block of 2, 4, 8, ... consecutive factors
# takes one QR step as their product when its sigma_min provably exceeds
# _FOLD_BOUND (> 100 * RANK_RTOL) times the product of their norms: see
# _fold_schedule.
_FOLD_BOUND = 1e-6
_EPS = float(np.finfo(np.float64).eps)
# A real 2x2 factor's or scaled similarity's complex pairs are read off the
# sign of its discriminant where |disc| exceeds this many ||M||_F^2, far past
# what rounding, ours or LAPACK's, can move it by: see _pairs_2x2.
_DISC_MARGIN = 2.0**10 * _EPS


class SpreadOverflowError(OverflowError):
    """Log-singular-value spread exceeds what double precision can carry."""


@dataclass(frozen=True)
class ProductState:
    """Running product in factored form: u @ diag(exp(log_sigma)) @ v,
    log_sigma descending; a step fails once the spread passes SPREAD_HARD_CAP."""

    n: int
    log_sigma: np.ndarray
    u_frame: np.ndarray
    v_frame: np.ndarray

    @property
    def d(self) -> int:
        return self.log_sigma.shape[0]

    @property
    def spread(self) -> float:
        return float(self.log_sigma[0] - self.log_sigma[-1])


@dataclass(frozen=True)
class ProductStack:
    """B running products stepped together; row b is one ProductState.

    A row that fails a check keeps the exception in failure[b] and is reset
    to the identity (zero log sigma, identity frames), so no NaN or inf
    enters the stacked arithmetic of the other rows.
    """

    n: int
    log_sigma: np.ndarray         # (B, d)
    u_frame: np.ndarray           # (B, d, d)
    v_frame: np.ndarray           # (B, d, d)
    failure: np.ndarray           # (B,) object: None, or the exception that dropped the row

    @property
    def ok(self) -> np.ndarray:
        return np.equal(self.failure, None)

    @property
    def spread(self) -> np.ndarray:
        return self.log_sigma[:, 0] - self.log_sigma[:, -1]

    def row(self, b: int) -> ProductState:
        return ProductState(self.n, self.log_sigma[b], self.u_frame[b], self.v_frame[b])


def _fail(failure: np.ndarray, mask: np.ndarray, error: Callable) -> np.ndarray:
    """failure with each row of mask that is still ok set to error(row)."""
    if mask.any():
        failure = failure.copy()
        for b in np.flatnonzero(np.equal(failure, None) & mask):
            failure[b] = error(b)
    return failure


def _cap_spread(failure: np.ndarray, spread: np.ndarray, on: np.ndarray | bool = True) -> np.ndarray:
    """failure with each row of on whose spread passes SPREAD_HARD_CAP failed."""
    return _fail(failure, on & (spread > SPREAD_HARD_CAP), lambda b: SpreadOverflowError(
        f"log-singular-value spread {spread[b]:.1f} exceeds hard cap {SPREAD_HARD_CAP}"))


def _fail_unconverged(failure: np.ndarray, converged: np.ndarray, shape: tuple) -> np.ndarray:
    """failure with each row whose SVD did not converge failed with NumericError."""
    return _fail(failure, ~converged, lambda b: NumericError(f"SVD did not converge on input of shape {shape}"))


def _identity_rows(ok: np.ndarray, vec: np.ndarray, fill: float, *frames: np.ndarray) -> tuple:
    """vec (B, d) and frame stacks with each row not ok reset: vec to fill, frames to I."""
    if ok.all():
        return (vec, *frames)
    eye = np.eye(vec.shape[-1])
    return (np.where(ok[:, None], vec, fill), *(np.where(ok[:, None, None], f, eye) for f in frames))


def _log_abs_det(m: np.ndarray) -> np.ndarray:
    """log|det m| of each matrix of a stack: log|ad - bc| at d = 2, slogdet's
    backward-stable LU otherwise; -inf for a zero determinant (call under
    np.errstate). |ad - bc| is off by at most eps ||m||_F^2 / 2 + eps/2 |det m|:
    a relative 1.2e-6 where _bound_clears clears it (|det m| > 1e-10 ||m||_F^2),
    far inside its factor-100 margin."""
    if m.shape[-1] == 2:
        return np.log(np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]))
    return np.linalg.slogdet(m)[1]


def _bound_clears(m: np.ndarray) -> np.ndarray:
    """Which factors pass the SVD singularity test without it: those whose
    sigma_min / sigma_max >= |det m| / ||m||_F^d, in logs, clears 100 *
    RANK_RTOL, |det m| from _log_abs_det. A NaN or 0 does not clear, nor does
    a determinant or norm out of double range."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frob_sq = np.einsum("...ij,...ij->...", m, m.conj()).real
        return _log_abs_det(m) - 0.5 * m.shape[-1] * np.log(frob_sq) > _LOG_REGULAR_BOUND


def _pairs_2x2(m: np.ndarray) -> np.ndarray:
    """Complex pairs of each real 2x2 matrix M = [[a, b], [c, d]] of a stack,
    the scaled similarity q @ diag(exp(ls - ls[0])) of pair_rows (a factor
    itself at ls = 0), from the sign of disc = p^2 + bc, p = (a - d)/2 (a
    pair exactly when disc < 0), or -1 where that sign is not certain.

    The sign is certain where |disc| > _DISC_MARGIN ||M||_F^2 (2^10 eps) and
    ||M||_F^2 is finite (so is every other quantity) and |disc|, |det M| are
    normal. There it is LAPACK's too. Our rounding moves disc by at most about
    2 eps (p^2 + |bc|) <= eps ||M||_F^2, as p^2 <= (a^2 + d^2)/2 and
    |bc| <= (b^2 + c^2)/2. eigvals' count is exact for some M + E with
    ||E||_F = O(eps ||M||_F) (dgebal's power-of-2 scaling is exact), which
    moves disc = tr^2/4 - det by at most 2 ||M||_F ||E||_F; dlahqr deflates a
    subdiagonal only where that moves bc by O(eps ||M||_F^2), so a row like
    [[1, 1], [-1e-17, 1]] is left to LAPACK.

    On the scaled similarity M a certain sign is also the graded routine's
    count. At spread <= _EIG_DOUBLE_SPREAD that routine runs eigvals on this
    same M. Past it, a split that succeeds is a real similarity to triangular
    form (no pair), and a certain disc < 0 leaves no real split; a row that
    does not split goes to mpmath, which reads q and exp(ls) exactly. M is
    rounded entrywise, which moves disc by about 2 eps ||M||_F^2, well inside
    the margin, so mpmath's disc has the same sign, and a pair it sees has
    Im lambda >= sqrt(2^10 eps) ||M||_F, far above its 1e-15 |lambda| test.
    Below the hard cap det M = +-e^(ls2 - ls1) >= e^-690 is normal.
    """
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore", invalid="ignore"):
        disc = ((a - d) / 2) ** 2 + b * c
        det = np.abs(a * d - b * c)
        frob_sq = np.einsum("...ij,...ij->...", m, m)
        certain = (np.abs(disc) > _DISC_MARGIN * frob_sq) & (frob_sq < np.inf) & (np.abs(disc) >= tiny) & (det >= tiny)
    return np.where(certain, (disc < 0).astype(int), -1)


def _regular(m: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix test that a stack (..., d, d) of factors is not numerically
    singular, sigma_min > RANK_RTOL * sigma_max, and which converged; a matrix
    where test is False counts as regular and takes neither test. The tested
    matrices are gathered for the determinant bound (_bound_clears, |det|
    from m), and only those that fail it take the SVD test (lapack_rows), so
    every verdict is the SVD's."""
    regular = ~test
    regular[test] = _bound_clears(m[test])
    converged = np.ones_like(regular)
    rest = ~regular
    if rest.any():
        sv, converged[rest] = lapack_rows(lambda a: np.linalg.svd(a, compute_uv=False), m[rest], np.ones(m.shape[-1]))
        regular[rest] = sv[:, -1] > RANK_RTOL * sv[:, 0]
    return regular, converged


def _svd_rows(a: np.ndarray, failure: np.ndarray) -> tuple:
    """Full SVD of each matrix of a stack by lapack_rows; a row that does not
    converge fails with NumericError and has identity frames and sigma 1."""
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    (left, sigma, right), converged = lapack_rows(np.linalg.svd, a, (eye, np.ones(a.shape[-1]), eye))
    return left, sigma, right, _fail_unconverged(failure, converged, a.shape[1:])


def _init_rows(m1: np.ndarray) -> ProductStack:
    left, sigma, right, failure = _svd_rows(m1, np.full(m1.shape[0], None, dtype=object))
    singular = sigma[:, -1] <= RANK_RTOL * sigma[:, 0]
    failure = _fail(failure, singular, lambda b: SingularInputError("initial factor is numerically singular"))
    sigma, left, right = _identity_rows(np.equal(failure, None), sigma, 1.0, left, right)
    return ProductStack(1, np.log(sigma), left, right, failure)


def _lq_2x2(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y = L O' for each 2x2 matrix Y of a stack, rows y1 and y2, in closed
    form: L lower triangular with a positive diagonal, O' unitary with rows
    q1 and q2. Returns diag L (B, 2), L_21 / L_11 (B,) and O'.

    l11 = ||y1||, q1 = y1 / l11 and l21 = <y2, q1>; then det Y = l11 c with
    c = q11 y22 - q12 y21, so l22 = |c| = |det Y| / l11 and
    q2 = (c / |c|) (-conj q12, conj q11). Scaled so that nothing squares an
    entry of Y, it keeps LAPACK's range. Where l11 or det Y is 0 the diagonal
    holds 0 or NaN and the rest is not meaningful (call under np.errstate).
    """
    y11, y12, y21, y22 = y[:, 0, 0], y[:, 0, 1], y[:, 1, 0], y[:, 1, 1]
    l11 = np.hypot(np.abs(y11), np.abs(y12)) if np.iscomplexobj(y) else np.hypot(y11, y12)
    q11, q12 = y11 / l11, y12 / l11
    c = q11 * y22 - q12 * y21
    l22 = np.abs(c)
    ph = c / l22
    o = np.empty_like(y)
    o[:, 0, 0], o[:, 0, 1], o[:, 1, 0], o[:, 1, 1] = q11, q12, -ph * q12.conj(), ph * q11.conj()
    return np.array([l11, l22]).T, (y21 * q11.conj() + y22 * q12.conj()) / l11, o


def _step(stack: ProductStack, m: np.ndarray, verdict: tuple | None, live: np.ndarray | None = None) -> ProductStack:
    """Stack of P_n @ m from the stack of P_n = G diag(exp(t)) O; input and
    result in that form (u_frame G, log_sigma t, v_frame O, O unitary). The
    SVD form is the case G unitary. verdict is _regular's (regular,
    converged) for m, taken before the step (None: every row passes). A row
    where live is False takes no step: it comes back bit-unchanged, its m
    must be the identity, and neither the spread check nor the re-sort
    looks at it.

    With X = O m = L Q^H, L lower triangular, P_n @ m = G' diag(exp(t')) O'
    for t' = t + log|diag L|, O' = diag(ph) Q^H, ph = diag L / |diag L| and
    G' = G M, M_ij = (L_ij / L_jj) exp(t_i - t_j): exponentials of differences
    of t only, within the hard cap, so nothing leaves double range. At d = 2
    the LQ is taken in closed form (_lq_2x2) and M has one entry off the
    diagonal; otherwise from one batched QR of X^H.
    """
    t, g, o = stack.log_sigma, stack.u_frame, stack.v_frame
    on = True if live is None else live
    # the per-row range only when the whole stack's passes the cap: a row reduction is ~5% of a step
    wide = t.max() - t.min() > SPREAD_HARD_CAP
    failure = _cap_spread(stack.failure, np.ptp(t, axis=1), on) if wide else stack.failure
    if verdict is not None:
        regular, converged = verdict
        failure = _fail(_fail_unconverged(failure, converged, m.shape[1:]), ~regular,
                        lambda b: SingularInputError("factor is numerically singular"))
    # a row whose t has fallen out of order by more than a factor e is re-sorted:
    # else G takes entries up to exp(t_i - t_j), i > j, and loses the small scales
    out = t[:, 1:] - t[:, :-1] > 1.0
    if out.any():
        t, g, o = _descending(t, g, o, out.any(axis=1) & on)
    x = o @ m
    # rows that fail here or failed before are reset below, and padded ones put
    # back, whatever this gives them (a padded row's spread may pass exp's range)
    with np.errstate(all="ignore"):
        if m.shape[-1] == 2:
            size, ratio, o = _lq_2x2(x)
            g = g.copy()
            g[:, :, 0] += g[:, :, 1] * (ratio * np.exp(t[:, 1] - t[:, 0]))[:, None]
        else:
            q, r = qr_rows(x.conj().swapaxes(-1, -2))
            low = r.conj().swapaxes(-1, -2)
            pivot = np.diagonal(low, axis1=1, axis2=2)
            size = np.abs(pivot)
            g = g @ (low / pivot[:, None, :] * np.exp(t[:, :, None] - t[:, None, :]))
            o = (pivot / size)[:, :, None] * q.conj().swapaxes(-1, -2)
        t = t + np.log(size)
    fine = size > 0
    if not fine.all():
        failure = _fail(failure, ~fine.all(axis=1) & on, lambda b: SingularInputError(
            "factor drove the product to numerical singularity"))
    t, g, o = _identity_rows(np.equal(failure, None), t, 0.0, g, o)
    if live is not None:
        t = np.where(live[:, None], t, stack.log_sigma)
        g, o = (np.where(live[:, None, None], new, old) for new, old in ((g, stack.u_frame), (o, stack.v_frame)))
    return ProductStack(stack.n + 1, t, g, o, failure)


def _descending(t: np.ndarray, g: np.ndarray, o: np.ndarray, which: np.ndarray | bool = True) -> tuple:
    """The same products G diag(exp(t)) O with t sorted descending in the rows
    which selects, G's columns and O's rows permuted alike."""
    order = np.where(np.reshape(which, (-1, 1)), np.argsort(-t, axis=1, kind="stable"), np.arange(t.shape[1]))
    rows = np.arange(len(t))[:, None]
    return t[rows, order], g[rows, :, order].swapaxes(1, 2), o[rows, order]


def _to_svd(stack: ProductStack) -> ProductStack:
    """The stack in SVD form, from G diag(exp(t)) O: one SVD call for the stack
    of diag(exp(t - max t)) G^H, t descending. LAPACK takes rows graded from the
    first to full relative accuracy, and loses small singular values otherwise."""
    t, g, o = _descending(stack.log_sigma, stack.u_frame, stack.v_frame)
    right, sigma, left, failure = _svd_rows(np.exp(t - t[:, :1])[:, :, None] * g.conj().swapaxes(1, 2), stack.failure)
    failure = _fail(failure, sigma[:, -1] <= 0.0, lambda b: SingularInputError(
        "factor drove the product to numerical singularity"))
    sigma, left, right, o = _identity_rows(np.equal(failure, None), sigma, 1.0, left, right, o)
    log_sigma = np.log(sigma) + np.where(np.equal(failure, None)[:, None], t[:, :1], 0.0)
    return ProductStack(stack.n, log_sigma, left.conj().swapaxes(-1, -2), right.conj().swapaxes(-1, -2) @ o, failure)


def _fold_schedule(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps (B, S, d, d) that carry each row of seg (B, L, d, d) through its
    L factors, which of them each row takes (B, S) bool, and which are single
    factors (B, S) bool, the steps that need a singularity verdict.

    Each row steps once per block B = m_1 ... m_k, the product of an aligned
    pair, pair of pairs and so on, of its factors, at the largest block that
    folds, and once per factor outside any. A block folds when its halves do
    (a pair's halves are factors) and g = log|det B| - sum log ||m_i||_F -
    (d - 1) log ||B||_F > log _FOLD_BOUND; the levels double while some block
    folds. As |det B| <= sigma_min(B) ||B||_F^(d - 1), the guard is exact:
    sigma_min(B) > _FOLD_BOUND prod ||m_i||_F. Then each factor has
    cond(m_i) < 1 / _FOLD_BOUND, far inside _regular's SVD test, so
    singularity is still decided by factor, and cond(B) < 1 / _FOLD_BOUND
    adds under 14 to the spread, inside the margin from the hard cap to exp
    overflow. It also puts B past _regular's determinant bound, with a margin
    of 1e4, so a folded block is regular and takes no test. A zero,
    non-finite, overflowed or underflowed block does not fold. Only the pairs'
    log|det| is computed (_log_abs_det: ad - bc at d = 2, slogdet otherwise):
    a larger block sums its halves' log|det| and log-norms. A row with fewer
    steps than S, the most any row has, does not take the last ones: its
    padded steps are the identity, from a slot after the pool's blocks, and
    regular too. Each row's steps do not depend on the others.
    """
    rows, count, d = seg.shape[:3]
    every = np.ones((rows, count), dtype=bool)
    plain = seg, every, every
    pool, level, block, fold = [seg], 0, seg, every
    top = np.zeros((rows, count), dtype=int)  # level of the block each factor steps in
    with np.errstate(all="ignore"):
        log_norm = 0.5 * np.log(np.einsum("...ij,...ij->...", seg, seg.conj()).real)
        while block.shape[1] > 1:
            half = block.shape[1] // 2
            even, odd = np.s_[:, 0:2 * half:2], np.s_[:, 1:2 * half:2]
            block = block[even] @ block[odd]
            log_det = _log_abs_det(block) if level == 0 else log_det[even] + log_det[odd]
            log_norm = log_norm[even] + log_norm[odd]
            g = log_det - log_norm - 0.5 * (d - 1) * np.log(np.einsum("...ij,...ij->...", block, block.conj()).real)
            # a non-finite g marks a zero, non-finite, overflowed or underflowed block or norm
            fold = fold[even] & fold[odd] & np.isfinite(g) & (g > math.log(_FOLD_BOUND))
            if not fold.any():
                break
            level += 1
            top[:, :half << level][np.repeat(fold, 1 << level, axis=1)] = level
            pool.append(block)
    if not level:
        return plain
    # factor k steps in slot offset[top] + (k >> top) of the pool, or in none if it is not the block's first
    k = np.arange(count)
    offset = np.cumsum([0] + [p.shape[1] for p in pool])
    slots = np.where((k & ((1 << top) - 1)) == 0, offset[top] + (k >> top), -1)
    taken = slots >= 0
    steps = taken.sum(axis=1).max()
    order = np.argsort(~taken, axis=1, kind="stable")[:, :steps]
    live = np.take_along_axis(taken, order, axis=1)
    # padded steps read the identity slot at the end of the pool
    index = np.where(live, np.take_along_axis(slots, order, axis=1), offset[-1])
    pool.append(np.broadcast_to(np.eye(d, dtype=seg.dtype), (rows, 1, d, d)))
    return np.concatenate(pool, axis=1)[np.arange(rows)[:, None], index], live, index < count


def evolve_stack(factors, n_grid) -> list[ProductStack]:
    """Stacks at each grid point of B products, in SVD form; factors is (B, n, d, d).

    Row b is the product factors[b, 0] @ factors[b, 1] @ ... Each stack
    tells which rows are alive at its grid point: a row dropped at a step is
    ok in every stack before it and in none after. Between grid points the
    products are stepped by the discrete QR method (_step), each row on its
    own schedule: an aligned block of 2, 4, 8, ... factors that passes the
    conditioning guard takes one step as their product (_fold_schedule). One
    _regular call gives the singularity verdicts of a segment's single-factor
    steps in the rows alive at its start, and each step applies its own; a
    folded block or a padded identity is regular, and a dropped row stays
    dropped. Each grid point takes one SVD call.
    """
    arr = _as_matrix(factors, "factors")
    if arr.ndim != 4 or arr.shape[-1] != arr.shape[-2] or arr.shape[1] < n_grid[-1]:
        raise ValueError(f"factors must be (B, n >= {n_grid[-1]}, d, d), got shape {arr.shape}")
    stack = _init_rows(arr[:, 0])
    stacks = []
    for n in n_grid:
        steps, live, single = _fold_schedule(arr[:, stack.n:n])
        regular, converged = _regular(steps, single & stack.ok[:, None])
        passed, full = (regular & converged).all(axis=0).tolist(), live.all(axis=0).tolist()
        for s in range(steps.shape[1]):
            verdict = None if passed[s] else (regular[:, s], converged[:, s])
            stack = _step(stack, steps[:, s], verdict, None if full[s] else live[:, s])
        stack = _to_svd(replace(stack, n=n)) if n > 1 else stack
        stacks.append(stack)
    return stacks


def _only_row(stack: ProductStack) -> ProductState:
    if stack.failure[0] is not None:
        raise stack.failure[0]
    return stack.row(0)


def init_state(m1) -> ProductState:
    """State of the one-factor product: straight SVD of the first factor."""
    arr = _as_matrix(m1, "m1")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"m1 must be a single square matrix, got shape {arr.shape}")
    return _only_row(_init_rows(arr[None]))


def advance(state: ProductState, m) -> ProductState:
    """State of P_n @ m from the state of P_n: one QR step and one SVD, the
    one-row case of the stack; a long run belongs in evolve_stack."""
    arr = _as_matrix(m, "m")
    if arr.shape != state.u_frame.shape:
        raise ValueError(f"factor shape {arr.shape} does not match state dimension {state.d}")
    stack = ProductStack(state.n, state.log_sigma[None], state.u_frame[None], state.v_frame[None],
                         np.full(1, None, dtype=object))
    return _only_row(_to_svd(_step(stack, arr[None], _regular(arr[None], np.ones(1, dtype=bool)))))


# Above this spread the ratio of extreme eigenvalue moduli of the similarity
# approaches 1/eps and double-precision QR iteration starts to lose (or zero
# out) the small ones, so a wider block is split at its largest gap first.
_EIG_DOUBLE_SPREAD = 25.0
# Largest ||Q11^-1|| * ||Q|| (entrywise max norms) at which a block is split:
# the split blocks' log moduli carry errors of a few eps times this ratio.
_SPLIT_COND = 1e5
_SPLIT_MAXITER = 100


def _log_eig_moduli_extended(q: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, int]:
    """Descending log-moduli of eig(q @ diag(exp(log_scale))), extended
    precision, and how many eigenvalues have an imaginary part > 0.

    Working precision grows with the total log range so that even the
    smallest eigenvalue keeps plenty of significant digits; an eigenvalue
    counts as real unless its imaginary part exceeds the square root of the
    relative accuracy those digits give, as mp.eig returns a real eigenvalue
    with an imaginary part at the rounding level.
    """
    import mpmath as mp  # ~45 ms, ~4 MB that only this fallback needs

    d = q.shape[0]
    kept = 30  # significant digits of the smallest eigenvalue
    digits = kept + int(math.ceil(0.4343 * d * float(log_scale[0] - log_scale[-1])))
    is_complex = np.iscomplexobj(q)
    with mp.workdps(digits):
        b = mp.matrix(d, d)
        for j in range(d):
            col = mp.exp(mp.mpf(float(log_scale[j])))
            for i in range(d):
                if is_complex:
                    b[i, j] = mp.mpc(q[i, j].real, q[i, j].imag) * col
                else:
                    b[i, j] = mp.mpf(float(q[i, j])) * col
        ev = mp.eig(b, left=False, right=False)
        logs = sorted((float(mp.log(abs(e))) for e in ev), reverse=True)
        pairs = sum(1 for e in ev if mp.im(e) > mp.mpf(10) ** (-kept // 2) * abs(e))
    return np.array(logs), pairs


def _split(q: np.ndarray, log_scale: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block stacks a1, a2 with eig(q D) = eig(a1 D1) and eig(a2 D2), row by
    row, and which rows split.

    D = diag(exp(log_scale)) is split after index k. The similarity by
    [[I, 0], [X, I]] zeroes the lower left block when X solves the block
    Riccati equation X Q11 = Q21 + (Q22 - X Q12) (X o R), R_ij =
    exp(ls2_i - ls1_j) <= exp(-gap), which leaves a1 = Q11 + Q12 (X o R) and
    a2 = Q22 - X Q12: only O(1) quantities, whatever the spread. The fixed
    point iteration from X = Q21 Q11^-1 contracts by about
    exp(-gap) ||Q11^-1||^2 a step. A row does not split when Q11 is too
    ill-conditioned, its iteration stalls or diverges (a real conjugate pair
    straddling the split leaves no real solution), or anything is
    non-finite. Rows are iterated together; each one leaves the iteration
    when it converges or fails, so it sees the iterates it would alone.
    """
    a1, a2 = np.empty_like(q[:, :k, :k]), np.empty_like(q[:, k:, k:])
    inv, ok = lapack_rows(np.linalg.inv, q[:, :k, :k], np.zeros((k, k), q.dtype))
    ok &= np.abs(inv).max(axis=(1, 2)) * np.abs(q).max(axis=(1, 2)) <= _SPLIT_COND
    rows = np.flatnonzero(ok)
    ok[:] = False
    q, inv = q[rows], inv[rows]
    r = np.exp(log_scale[rows, k:, None] - log_scale[rows, None, :k])
    x, step = q[:, k:, :k] @ inv, np.full(rows.size, math.inf)
    for _ in range(_SPLIT_MAXITER):
        if not rows.size:
            break
        q12, q21, q22 = q[:, :k, k:], q[:, k:, :k], q[:, k:, k:]
        new = (q21 + (q22 - x @ q12) @ (x * r)) @ inv
        last, step, x = step, np.abs(new - x).max(axis=(1, 2)), new
        done = step <= 4 * _EPS * np.abs(x).max(axis=(1, 2))
        if done.any():
            # blocks as views of whole rows, with the strides each row has alone:
            # BLAS may sum in another order for another stride
            qd, xd = q[done], x[done]
            b1 = qd[:, :k, :k] + qd[:, :k, k:] @ (xd * r[done])
            b2 = qd[:, k:, k:] - xd @ qd[:, :k, k:]
            a1[rows[done]], a2[rows[done]] = b1, b2
            ok[rows[done]] = np.isfinite(b1).all(axis=(1, 2)) & np.isfinite(b2).all(axis=(1, 2))
        going = ~done & (step < last)
        if not going.all():
            rows, q, inv, r, x, step = (v[going] for v in (rows, q, inv, r, x, step))
    return a1, a2, ok


def _log_eig_moduli_lapack(q: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending log-moduli of eig(q[b] @ diag(exp(log_scale[b]))) for each
    row b by LAPACK on the shifted similarity (one eigvals call, lapack_rows),
    and how many eigenvalues have an imaginary part exactly > 0, read off the
    real Schur form's 2x2 blocks for a real q: -inf for a modulus of 0, NaN
    and -1 in a row whose iteration does not converge."""
    c = log_scale[:, :1]
    w, converged = lapack_rows(np.linalg.eigvals, q * np.exp(log_scale - c)[:, None, :],
                               np.full(q.shape[-1], np.nan + 0j))
    with np.errstate(divide="ignore"):
        logs = np.log(np.sort(np.abs(w), axis=1))[:, ::-1] + c
    return logs, np.where(converged, np.count_nonzero(w.imag > 0, axis=1), -1)


def _log_eig_moduli_graded(q: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending log-moduli of eig(q[b] @ diag(exp(log_scale[b]))) for each
    row b of a stack, each log_scale[b] descending, and how many eigenvalues
    of each row have an imaginary part > 0: for a real q, its number of
    complex conjugate pairs.

    Graded block deflation: 1x1 blocks are read off (no pair), blocks of
    spread up to _EIG_DOUBLE_SPREAD go to LAPACK together (NaN and -1 in a
    row whose iteration does not converge), and wider ones, grouped by the
    index of their largest gap, are split there (_split) and each part
    recursed on. A split row counts its parts' pairs: a real conjugate pair
    straddling the split leaves the iteration no real solution, so such a row
    never splits. A block whose split fails, or whose parts give a non-finite
    result, alone goes to the extended-precision path.
    """
    d = log_scale.shape[1]
    if d == 1:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(q[:, 0])) + log_scale, np.zeros(len(q), dtype=int)
    wide = ~(log_scale[:, 0] - log_scale[:, -1] <= _EIG_DOUBLE_SPREAD)
    if not wide.any():
        return _log_eig_moduli_lapack(q, log_scale)
    out, pairs = np.empty(log_scale.shape), np.empty(len(q), dtype=int)
    narrow = np.flatnonzero(~wide)
    if narrow.size:
        out[narrow], pairs[narrow] = _log_eig_moduli_lapack(q[narrow], log_scale[narrow])
    split_at = np.argmax(log_scale[:, :-1] - log_scale[:, 1:], axis=1) + 1
    for k in np.unique(split_at[wide]).tolist():
        rows = np.flatnonzero(wide & (split_at == k))
        a1, a2, ok = _split(q[rows], log_scale[rows], k)
        logs, count = np.full((rows.size, d), np.nan), np.zeros(rows.size, dtype=int)
        if ok.any():
            parts = rows[ok]
            (logs1, count1), (logs2, count2) = (_log_eig_moduli_graded(a1[ok], log_scale[parts, :k]),
                                                _log_eig_moduli_graded(a2[ok], log_scale[parts, k:]))
            logs[ok], count[ok] = np.concatenate([logs1, logs2], axis=1), count1 + count2
        fine = np.isfinite(logs).all(axis=1)
        out[rows[fine]], pairs[rows[fine]] = np.sort(logs[fine], axis=1)[:, ::-1], count[fine]
        for b in rows[~fine]:
            c = float(log_scale[b, 0])
            logs_b, pairs[b] = _log_eig_moduli_extended(q[b], log_scale[b] - c)
            out[b] = logs_b + c
    return out, pairs


def stability_rows(log_sigma: np.ndarray, u_frame: np.ndarray, v_frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending log-moduli of the eigenvalues of each of a stack of running
    products, (B, d), and per row None or the exception that rules it out.

    Uses the similarity v @ u @ diag(exp(log_sigma)), which shares the
    product's spectrum, so no explicit (and overflowing) product is ever
    formed. Mild spreads go through LAPACK, wide ones through the graded
    block deflation, in double precision either way; the extended-precision
    path takes only the blocks that cannot be split.
    """
    failure = _cap_spread(np.full(len(log_sigma), None, dtype=object), log_sigma[:, 0] - log_sigma[:, -1])
    logs = np.full(log_sigma.shape, np.nan)
    rows = np.flatnonzero(np.equal(failure, None))
    if rows.size:
        logs[rows] = _log_eig_moduli_graded(v_frame[rows] @ u_frame[rows], log_sigma[rows])[0]
    shape = u_frame.shape[1:]
    failure = _fail(failure, np.isnan(logs).any(axis=1), lambda b: NumericError(
        f"eigenvalue iteration did not converge (shape {shape})"))
    failure = _fail(failure, (logs == -np.inf).any(axis=1), lambda b: NumericError(
        "eigenvalue modulus underflowed to zero"))
    return logs, failure


def pair_rows(q: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """Complex conjugate pairs of each real q[b] @ diag(exp(log_scale[b])) of
    a stack, each log_scale[b] descending, or -1 in a row whose eigenvalue
    iteration does not converge. At d = 2 they are read off the
    discriminant's sign of the scaled similarity, its second column times
    exp(ls1 - ls0) (_pairs_2x2), where that sign is certain; the other rows,
    and every row at d != 2, take the graded routine."""
    pairs = np.full(len(q), -1)
    if q.shape[-1] == 2:
        a = q.copy()
        a[:, :, 1] *= np.exp(log_scale[:, 1] - log_scale[:, 0])[:, None]
        pairs = _pairs_2x2(a)
    rest = np.flatnonzero(pairs < 0)
    if rest.size:
        pairs[rest] = _log_eig_moduli_graded(q[rest], log_scale[rest])[1]
    return pairs


def stability_from_state(state: ProductState) -> np.ndarray:
    """Descending log-moduli of the eigenvalues of the running product: the
    one-row case of stability_rows, raising what rules the row out."""
    logs, failure = stability_rows(state.log_sigma[None], state.u_frame[None], state.v_frame[None])
    if failure[0] is not None:
        raise failure[0]
    return logs[0]


@dataclass(frozen=True)
class QrStreamResult:
    """Per-step log-diagonal increments of the streaming QR recursion."""

    increments: np.ndarray  # (n_steps, d)
    skipped: int = 0

    @property
    def mean(self) -> np.ndarray:
        return self.increments.mean(axis=0)

    @property
    def se(self) -> np.ndarray:
        n = self.increments.shape[0]
        return self.increments.std(axis=0, ddof=1) / math.sqrt(n)


def lyapunov_qr_stream(spec: EnsembleSpec, n_steps: int, rng) -> QrStreamResult:
    """Streaming QR estimate of the Lyapunov exponent vector.

    Maintains an orthonormal frame q; each step factors (sample @ q) with the
    positive-diagonal QR and records log diag(r). Running means of the rows
    estimate the exponents. The underlying product multiplies new factors on
    the left, so per-step values are not comparable realization-by-realization
    with the advance() recursion - only in distribution.

    Singular samples (probability zero) are skipped and counted.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    gen = as_generator(rng)
    d = spec.d
    q = np.eye(d, dtype=spec.dtype)
    rows = np.empty((n_steps, d), dtype=np.float64)
    skipped = in_a_row = 0
    k = 0
    while k < n_steps:
        m = sample_isotropic(spec, gen)
        try:
            pair = qr_positive(m @ q)
        except SingularInputError:
            skipped += 1
            in_a_row += 1
            if in_a_row > 1000:
                raise NumericError(
                    "more than 1000 singular samples in a row; ensemble is degenerate"
                ) from None
            continue
        in_a_row = 0
        rows[k] = np.log(np.diagonal(pair.r).real)
        q = pair.q
        k += 1
    return QrStreamResult(rows, skipped)


@dataclass(frozen=True)
class ExponentEstimate:
    """Monte Carlo mean/covariance of an exponent vector."""

    mean: np.ndarray
    cov: np.ndarray
    count: int

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov) / self.count)


def _samples(total: int, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """draw(b) over consecutive batches of at most _BATCH samples covering total, concatenated in order."""
    return np.concatenate([draw(min(_BATCH, total - start)) for start in range(0, total, _BATCH)])


def single_step_estimate(spec: EnsembleSpec, n_samples: int, rng) -> ExponentEstimate:
    """Exponent estimate from single factors.

    Each sample draws singular values D and a Haar matrix v, factors
    diag(D) @ v with the positive-diagonal QR, and takes log diag(r); the
    left singular frame of the factor never enters, so the estimate only
    depends on the singular-value law. Means converge to the Lyapunov
    exponents and the sample covariance estimates the fluctuation covariance.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    gen = as_generator(rng)

    def draw(b: int) -> np.ndarray:
        dvals = sample_singular_values(spec, gen, size=b)
        v = sample_haar_unitary(spec.d, spec.field, gen, size=b)
        return np.log(np.diagonal(qr_positive(dvals[:, :, None] * v).r, axis1=-2, axis2=-1).real)

    logs = _samples(n_samples, draw)
    return ExponentEstimate(logs.mean(axis=0), np.atleast_2d(np.cov(logs, rowvar=False, ddof=1)), n_samples)


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form Lyapunov exponents and per-component fluctuation variances."""

    lyapunov: np.ndarray
    variance: np.ndarray


def supports_analytic_spectrum(spec: EnsembleSpec) -> bool:
    return isinstance(spec.kind, (Ginibre, TruncatedHaar))


def analytic_spectrum(spec: EnsembleSpec) -> AnalyticSpectrum:
    """Closed-form spectrum for Ginibre and truncated-Haar ensembles.

    Ginibre: the i-th squared QR diagonal is chi-square with d-i+1 (real) or
    2(d-i+1) (complex) degrees of freedom. Truncated Haar (corner of an
    m x m Haar matrix): the squared diagonal is Beta(d-i+1, m-d) in the
    complex case and Beta((d-i+1)/2, (m-d)/2) in the real case. Components
    are independent in all four cases, so the fluctuation covariance is
    diagonal.
    """
    import scipy.special  # here and in elog_chisq: ~50 ms, ~4 MB that only closed forms need

    d = spec.d
    k = np.arange(d, 0, -1, dtype=np.float64)  # d-i+1 for i = 1..d
    if isinstance(spec.kind, Ginibre):
        a = k / 2 if spec.field == "real" else k
        lam = 0.5 * (_LOG2 + scipy.special.psi(a))
        var = 0.25 * scipy.special.polygamma(1, a)
    elif isinstance(spec.kind, TruncatedHaar):
        m = spec.kind.m
        km = np.arange(m, m - d, -1, dtype=np.float64)  # m-i+1 for i = 1..d
        if spec.field == "real":
            k, km = k / 2, km / 2
        lam = 0.5 * (scipy.special.psi(k) - scipy.special.psi(km))
        var = 0.25 * (scipy.special.polygamma(1, k) - scipy.special.polygamma(1, km))
    else:
        raise ValueError(
            f"no closed-form spectrum for ensemble {spec.ensemble_text!r}; "
            "supported: ginibre, truncated-haar"
        )
    return AnalyticSpectrum(lyapunov=lam, variance=var)


# --- special functions -------------------------------------------------------


def elog_chisq(k: int) -> float:
    """Expected log of a chi-square variable with k degrees of freedom."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"elog_chisq requires an integer k >= 1, got {k!r}")
    import scipy.special

    return _LOG2 + float(scipy.special.psi(k / 2.0))


def analytic_truncated_logdet(i: int, d: int, field: str) -> float:
    """Expected log absolute determinant of the i x i corner of a d x d
    Haar unitary (orthogonal) matrix.

    Telescopes out of the triangular-times-corner factorization of a
    Gaussian matrix: the corner's log-determinant is the difference of two
    chi-square log sums (degrees of freedom doubled in the complex case).
    """
    if not (isinstance(i, (int, np.integer)) and isinstance(d, (int, np.integer))):
        raise ValueError("i and d must be integers")
    if not 1 <= i <= d:
        raise ValueError(f"need 1 <= i <= d, got i={i}, d={d}")
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    mult = 2 if field == "complex" else 1
    return 0.5 * sum(
        elog_chisq(mult * (i - j + 1)) - elog_chisq(mult * (d - j + 1))
        for j in range(1, i + 1)
    )
