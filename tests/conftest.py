import numpy as np
import pytest

from matprod.rng import RngStream


@pytest.fixture
def stream():
    return RngStream(20260808)


def unitary_defect(u: np.ndarray) -> float:
    """Max-entry deviation of u*u from the identity."""
    d = u.shape[-1]
    return float(np.max(np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(d))))


def rel_err(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def stat_array(rec, prefix: str, attr: str = "value") -> np.ndarray:
    """A record's vector statistic prefix_1 .. prefix_d, or its symmetric
    matrix statistic prefix_i_j (i <= j), as an array of each Stat's attr
    (value, se or count)."""
    d, stats = rec.d, rec.stats
    if f"{prefix}_1_1" not in stats:
        return np.array([getattr(stats[f"{prefix}_{i}"], attr) for i in range(1, d + 1)])
    out = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            out[i, j] = out[j, i] = getattr(stats[f"{prefix}_{i + 1}_{j + 1}"], attr)
    return out
