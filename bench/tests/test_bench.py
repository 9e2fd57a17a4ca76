"""Self-test of the benchmark at a tiny size of every workload.

Run from the repository root::

    python3 -m pytest bench/tests
"""
import functools
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402

# stability at complex d=3, n=40 passes spread 25, so both spectrum paths run
TINY = {
    "realprob-n1": replace(run.WORKLOADS["realprob-n1"], replications=300),
    "fluct-d2": replace(run.WORKLOADS["fluct-d2"], n_grid=(20,), replications=100),
    "stability-c5": replace(run.WORKLOADS["stability-c5"], d=3, n_grid=(2, 40), replications=3),
    "realprob-deep": replace(run.WORKLOADS["realprob-deep"], replications=20),
}

SEED = 11


ROUNDS = 2


@functools.cache
def children(name):
    """One untraced and two traced children of the same seed, two rounds each."""
    w = TINY[name]
    return tuple(run.run_child(w, SEED, trace=t, rounds=ROUNDS) for t in (False, True, True))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_write_identical_records(name):
    plain, traced, _ = children(name)
    assert len(plain["rounds"]) == len(traced["rounds"]) == ROUNDS
    assert [r["bytes"] for r in traced["rounds"]] == [r["bytes"] for r in plain["rounds"]]
    # rounds of one child run distinct seeds
    assert plain["rounds"][0]["bytes"] != plain["rounds"][1]["bytes"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_call_counts_repeat_exactly(name):
    w = TINY[name]
    plain, first, second = children(name)
    a = run.per_layer(w, [first], [plain], [first])
    b = run.per_layer(w, [second], [plain], [second])
    counts = [k for k in a if k.endswith(("_per_rep", "_calls")) or ".skipped_" in k]
    assert any(a[k][0] > 0 for k in counts)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_patch_skips_missing_names_and_restores_originals():
    def square(x):
        return x * x

    owner = types.SimpleNamespace(square=square)
    tracer = child.Tracer()
    tracer.patch(owner, "square", lambda args: "t.square")
    tracer.patch(owner, "absent", lambda args: "t.absent")
    assert not hasattr(owner, "absent")
    assert tracer.run_root(lambda: owner.square(3) + owner.square(4)) == 25
    tracer.restore()
    assert owner.square is square
    summary = tracer.summary()
    assert summary["names"] == {"t.square": {"calls": 2, "ns": summary["names"]["t.square"]["ns"]}}
    assert "t.absent" not in summary["names"]
