"""matprod benchmark: ``matprod run`` workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts fresh child processes (``bench/child.py``) one after another
until ``--seconds`` have passed, at least ``MIN_CHILDREN`` of them. Each child
times its set-up, runs one untimed warm-up round and then timed rounds until
the run's time is up or it has run ``MAX_ROUNDS``. A round is one call of
``matprod.cli.main`` on a generated config whose seed is derived from
``--seed``, the child and the round, in a temporary directory under
``.bench_work/``. The program sees only that config. Between rounds the child
times a fixed reference work; each round's times are scaled by the reference
times around it to a nominal host speed (see ``scaled``). The records of
every round are pooled and checked against the closed form of the matching
acceptance criterion.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, medians over rounds or children. With ``--trace 1`` the
run then repeats the first ``TRACED_ROUNDS`` rounds of the first
``TRACED_CHILDREN`` children with the layer calls wrapped in spans, checks
that the traced rounds write the same records as their untraced twins, and
reports the per-layer metrics. The exit code is 0 when a result is printed,
also when a check fails (``"correct": false``), and non-zero without a result
when no matprod source tree is found or a child fails.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH_DIR / "child.py"

MIN_CHILDREN = 3
MAX_ROUNDS = 10
TRACED_CHILDREN = 2
TRACED_ROUNDS = 3
# A run that has not finished this long after its start is cut, and ends
# without a result, so that it exits within 180 s whatever the program does.
DEADLINE_S = 170.0

# Wall seconds of the children's reference work (``child.reference``) at the
# nominal host speed: about its median on the 2-core Xeon box the benchmark
# was defined on. Times are reported as they would read at that speed.
REF_NOMINAL_S = 0.045

# The children pin BLAS to one thread, so realprob-n1's two pool threads are
# all the threads a run uses; the manifest timestamp is pinned so traced and
# untraced twins write byte-identical files.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "946684800",
}

SQRT_HALF = math.sqrt(0.5)
Z_LIMIT = 3.0
COV_REL_LIMIT = 0.15
Z95 = 1.959963984540054


@dataclass(frozen=True)
class Workload:
    """One ``matprod run`` shape; replications set one round's size (~0.3 s)."""

    experiment: str
    field: str
    d: int
    n_grid: tuple[int, ...]
    replications: int
    threads: int


# fluctuations runs need at least 100 replications; realprob-n1's 3072 are
# twelve of the runner's 256-replication chunks, six for each pool thread.
WORKLOADS = {
    "realprob-n1": Workload("realprob", "real", 2, (1,), 3072, 2),
    "fluct-d2": Workload("fluctuations", "real", 2, (100,), 100, 1),
    "stability-c5": Workload("stability", "complex", 5, (10, 50), 10, 1),
    "realprob-deep": Workload("realprob", "real", 2, (1, 10, 25, 40, 60), 96, 1),
}


def child_seed(seed: int, k: int) -> int:
    """Config seed of round 0 of child k; round j adds j.

    Distinct rounds of one run never share a seed, since a child runs at most
    ``MAX_ROUNDS`` rounds.
    """
    return (seed * 1000 + k) * 100


def config_template(w: Workload) -> str:
    grid = ",".join(str(n) for n in w.n_grid)
    return (
        f"seed={{seed}} field={w.field} d={w.d} ensemble=ginibre n_grid={grid}\n"
        f'replications={w.replications} threads={w.threads} out="out.jsonl"\n'
    )


class ChildFailed(RuntimeError):
    """A child process or its ``matprod run`` exited non-zero."""


def run_child(
    w: Workload,
    seed: int,
    trace: bool,
    until: float = 0.0,
    rounds: int | None = None,
    timeout: float = DEADLINE_S,
) -> dict:
    """Run one child; return its report with set-up time and parsed rounds.

    The child runs exactly ``rounds`` timed rounds if given, else rounds
    until the monotonic clock passes ``until`` (at least one, at most
    ``MAX_ROUNDS``).
    """
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        template = config_template(w)
        # relative to the child's working directory, so that the config echo
        # in the manifest is the same for every child of a given seed
        cfg, result = tmp / "run.cfg", tmp / "result.json"
        cfg.write_text(template.format(seed=seed), encoding="utf-8")
        spec = tmp / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "src": str(SRC),
                    "argv": ["run", w.experiment, "--config", cfg.name],
                    "config": str(cfg),
                    "out": str(tmp / "out.jsonl"),
                    "config_template": template,
                    "seed0": seed,
                    "until": until,
                    "max_rounds": MAX_ROUNDS,
                    "rounds": rounds,
                    "trace": trace,
                    "result": str(result),
                }
            ),
            encoding="utf-8",
        )
        env = {k: v for k, v in os.environ.items() if k not in ("MATPROD_THREADS", "PYTHONPATH")}
        env.update(CHILD_ENV)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec)],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 0.0),
        )
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(result.read_text(encoding="utf-8"))
        for r in report["rounds"]:
            if r["rc"] != 0:
                raise ChildFailed(f"matprod run exited {r['rc']}:\n{proc.stderr[-2000:]}")
        report["setup_s"] = report["t_ready"] - start
        refs_wall, refs_cpu = report["ref_wall_s"], report["ref_cpu_s"]
        for j, r in enumerate(report["rounds"]):
            r["bytes"] = r.pop("text").encode("utf-8")
            r["records"] = [json.loads(line) for line in r["bytes"].decode("utf-8").splitlines()[1:]]
            r["attempted"] = w.replications
            r["completed"] = w.replications - lost(w, r["records"])
            r["ref_wall_s"] = (refs_wall[j] + refs_wall[j + 1]) / 2
            r["ref_cpu_s"] = (refs_cpu[j] + refs_cpu[j + 1]) / 2
        return report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def scaled(seconds: float, ref_seconds: float) -> float:
    """``seconds`` as it would read at the nominal host speed.

    The host's speed drifts by tens of percent within seconds, and program
    and reference slow down together; the ratio of the two stays put.
    """
    return seconds * REF_NOMINAL_S / ref_seconds


def all_rounds(reports: list[dict]) -> list[dict]:
    return [r for rep in reports for r in rep["rounds"]]


def stat(rec: dict, name: str) -> dict:
    return rec["stats"][name]


def lost(w: Workload, records: list[dict]) -> int:
    """Replications whose trajectory raised and so gave no result.

    Runners report them as ``skipped``. realprob folds them into ``excluded``
    at every grid point; its workloads' grids start at n=1, where nothing
    else excludes a trial, since a factor too wide to classify fails the
    singularity check first.
    """
    if w.experiment == "realprob":
        return int(stat(records[0], "excluded")["value"])
    return int(stat(records[0], "skipped")["value"])


def unclassified(w: Workload, rep: dict) -> int:
    """realprob grid-point trials of completed replications left unclassified.

    Only realprob excludes trials (spread over the accuracy cap); the other
    experiments read 0.
    """
    if w.experiment != "realprob":
        return 0
    return len(w.n_grid) * rep["completed"] - int(sum(stat(r, "trials")["value"] for r in rep["records"]))


# --- correctness gates, pooled over the rounds of a run -------------------


def wilson(hits: float, trials: float) -> tuple[float, float]:
    p = hits / trials
    denom = 1.0 + Z95 * Z95 / trials
    center = (p + Z95 * Z95 / (2 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1 - p) / trials + Z95 * Z95 / (4 * trials * trials))
    return center - half, center + half


def pooled_realprob(rounds: list[dict]) -> dict[int, tuple[float, float]]:
    """(all_real, trials) summed over rounds, per grid point."""
    pooled: dict[int, list[float]] = {}
    for rep in rounds:
        for r in rep["records"]:
            acc = pooled.setdefault(r["n"], [0.0, 0.0])
            acc[0] += stat(r, "all_real")["value"]
            acc[1] += stat(r, "trials")["value"]
    return {n: (a, t) for n, (a, t) in pooled.items()}


def gate_realprob_n1(w: Workload, rounds: list[dict]) -> tuple[bool, str]:
    """Criterion 6: p(1) of a real 2x2 Ginibre matrix is 1/sqrt(2), |z| < 3."""
    hits, trials = pooled_realprob(rounds)[1]
    p = hits / trials
    se = math.sqrt(p * (1 - p) / trials)
    z = abs(p - SQRT_HALF) / se if se else math.inf
    return z < Z_LIMIT, f"p(1)={p:.5f} vs 1/sqrt(2)={SQRT_HALF:.5f} over {trials:.0f} trials, |z|={z:.2f} (limit {Z_LIMIT})"


def gate_realprob_deep(w: Workload, rounds: list[dict]) -> tuple[bool, str]:
    """Criterion 6 trend: p(25) > p(1) with disjoint Wilson intervals."""
    pooled = pooled_realprob(rounds)
    (h1, t1), (h25, t25) = pooled[1], pooled[25]
    lo25, _ = wilson(h25, t25)
    _, hi1 = wilson(h1, t1)
    curve = ", ".join(f"p({n})={a / t:.4f}" for n, (a, t) in sorted(pooled.items()) if t)
    ok = h25 / t25 > h1 / t1 and lo25 > hi1
    return ok, f"{curve}; Wilson low p(25)={lo25:.4f} > high p(1)={hi1:.4f}"


def gate_fluct(w: Workload, rounds: list[dict]) -> tuple[bool, str]:
    """Criterion 5: covariance diagonal vs pi^2/24 and pi^2/8, relative error < 0.15."""
    targets = (math.pi**2 / 24, math.pi**2 / 8)
    rel = []
    for i, target in enumerate(targets, start=1):
        num = den = 0.0
        for rep in rounds:
            s = stat(rep["records"][0], f"cov_singular_{i}_{i}")
            num += (s["count"] - 1) * s["value"]
            den += s["count"] - 1
        rel.append(abs(num / den - target) / target)
    return max(rel) < COV_REL_LIMIT, f"covariance diagonal relative errors {rel[0]:.4f}, {rel[1]:.4f} (limit {COV_REL_LIMIT})"


def pooled_mean(rounds: list[dict], n: int, name: str) -> tuple[float, float]:
    """Count-weighted mean and its SE over the rounds' records at n."""
    total = weighted = var = 0.0
    for rep in rounds:
        s = stat(next(r for r in rep["records"] if r["n"] == n), name)
        total += s["count"]
        weighted += s["count"] * s["value"]
        var += (s["count"] * s["se"]) ** 2
    return weighted / total, math.sqrt(var) / total


def gate_stability(w: Workload, rounds: list[dict]) -> tuple[bool, str]:
    """Criterion 4: maxgap shrinks from n=10 to n=50 and stability |z| < 3.

    z uses the combined SE of the singular and stability means, as the
    criterion does. The singular z is printed, not gated: the finite-n bias
    of log(sigma)/n (a strict xfail in the test suite) puts it at 6-13 here.
    """
    n_lo, n_hi = w.n_grid[0], w.n_grid[-1]
    gap_lo, _ = pooled_mean(rounds, n_lo, "maxgap")
    gap_hi, _ = pooled_mean(rounds, n_hi, "maxgap")
    ref = [stat(rounds[0]["records"][-1], f"ref_lambda_{i}")["value"] for i in range(1, w.d + 1)]
    z_sig, z_stab = [], []
    for i in range(1, w.d + 1):
        m_sig, se_sig = pooled_mean(rounds, n_hi, f"mean_singular_{i}")
        m_stab, se_stab = pooled_mean(rounds, n_hi, f"mean_stability_{i}")
        combined = math.hypot(se_sig, se_stab)
        z_sig.append(abs(m_sig - ref[i - 1]) / combined)
        z_stab.append(abs(m_stab - ref[i - 1]) / combined)
    ok = gap_hi < gap_lo and max(z_stab) < Z_LIMIT
    return ok, (
        f"maxgap {gap_lo:.4f}@n={n_lo} -> {gap_hi:.4f}@n={n_hi}, max stability |z|={max(z_stab):.2f} "
        f"(limit {Z_LIMIT}); max singular |z|={max(z_sig):.2f} (not gated: finite-n bias)"
    )


GATES = {
    "realprob-n1": gate_realprob_n1,
    "fluct-d2": gate_fluct,
    "stability-c5": gate_stability,
    "realprob-deep": gate_realprob_deep,
}


# --- metrics -----------------------------------------------------------------


def end_to_end(w: Workload, reports: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over the run's rounds (throughput, CPU) or children (set-up, RSS).

    Every time is scaled to the nominal host speed by the reference work
    timed around it: a round's by the mean of the references before and
    after it, a child's set-up by the reference right after set-up.
    """
    rounds = all_rounds(reports)
    attempted = sum(r["attempted"] for r in rounds)
    completed = sum(r["completed"] for r in rounds)
    return {
        "reps_per_s": (
            statistics.median(r["completed"] / scaled(r["main_wall_s"], r["ref_wall_s"]) for r in rounds),
            "1/s",
        ),
        "cpu_per_rep_us": (
            statistics.median(1e6 * scaled(r["main_cpu_s"], r["ref_cpu_s"]) / r["attempted"] for r in rounds),
            "us",
        ),
        "setup_s": (statistics.median(scaled(r["setup_s"], r["setup_ref_wall_s"]) for r in reports), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        "completed_frac": (completed / attempted, "fraction"),
        "classified_frac": (
            1.0 - sum(unclassified(w, r) for r in rounds) / (len(w.n_grid) * completed),
            "fraction",
        ),
    }


def per_layer(w: Workload, traced: list[dict], twins: list[dict], everyone: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics pooled over the traced children.

    ``*_us`` is mean inclusive CPU time per call; ``*_share`` is inclusive
    CPU time over the process CPU time of ``main``; ``*_per_rep`` counts calls
    per attempted replication. Times are as measured, not scaled.
    """
    reps = sum(r["attempted"] for r in all_rounds(traced))
    busy = sum(r["trace"]["root_ns"] for r in traced)

    def calls(*names: str) -> int:
        return sum(r["trace"]["names"].get(n, {}).get("calls", 0) for r in traced for n in names)

    def ns(*names: str) -> int:
        return sum(r["trace"]["names"].get(n, {}).get("ns", 0) for r in traced for n in names)

    def per_call_us(*names: str) -> float:
        c = calls(*names)
        return ns(*names) / c / 1e3 if c else 0.0

    def share(*names: str) -> float:
        return ns(*names) / busy

    def errors(kind: str) -> int:
        return sum(r["trace"]["errors"][kind] for r in traced)

    def main_s(rounds: list[dict]) -> float:
        return sum(scaled(r["main_wall_s"], r["ref_wall_s"]) for r in rounds)

    sample = sorted({n for r in traced for n in r["trace"]["names"] if n.startswith("ensembles.")})
    stab = ("exponents.stability_narrow", "exponents.stability_wide")
    pairs = [(t, u) for tc, uc in zip(traced, twins) for t, u in zip(tc["rounds"], uc["rounds"])]
    overhead = main_s([t for t, _ in pairs]) / main_s([u for _, u in pairs]) - 1.0
    host = [r["ref_wall_s"] for r in all_rounds(everyone)]
    return {
        "exponents.advance_us": (per_call_us("exponents.advance"), "us"),
        "exponents.advance_calls": (calls("exponents.advance"), "count"),
        "exponents.advance_share": (share("exponents.advance"), "fraction"),
        "exponents.init_state_us": (per_call_us("exponents.init_state"), "us"),
        "exponents.init_state_share": (share("exponents.init_state"), "fraction"),
        "exponents.stability_narrow_us": (per_call_us(stab[0]), "us"),
        "exponents.stability_wide_us": (per_call_us(stab[1]), "us"),
        "exponents.stability_wide_calls": (calls(stab[1]), "count"),
        "exponents.stability_share": (share(*stab), "fraction"),
        "linalg.classify_us": (per_call_us("linalg.count_complex_pairs"), "us"),
        "linalg.classify_calls": (calls("linalg.count_complex_pairs"), "count"),
        "linalg.classify_share": (share("linalg.count_complex_pairs"), "fraction"),
        "ensembles.sample_us": (per_call_us(*sample), "us"),
        "ensembles.sample_share": (share(*sample), "fraction"),
        "lapack.svd_per_rep": (calls("lapack.svd") / reps, "calls/rep"),
        "lapack.eigvals_per_rep": (calls("lapack.eigvals") / reps, "calls/rep"),
        "lapack.schur_per_rep": (calls("lapack.schur") / reps, "calls/rep"),
        "mpmath.eig_per_rep": (calls("mpmath.eig") / reps, "calls/rep"),
        "experiments.self_share": (sum(r["trace"]["self_ns"] for r in traced) / busy, "fraction"),
        "experiments.skipped_singular": (errors("SingularInputError"), "count"),
        "experiments.skipped_overflow": (errors("SpreadOverflowError"), "count"),
        "experiments.skipped_numeric": (errors("NumericError"), "count"),
        "experiments.excluded_spread": (sum(unclassified(w, r) for r in all_rounds(traced)), "count"),
        "recordio.write_ms": (per_call_us("recordio.write_records") / 1e3, "ms"),
        "recordio.bytes": (statistics.mean(len(r["bytes"]) for r in all_rounds(traced)), "B"),
        "configtext.parse_ms": (per_call_us("configtext.parse_config") / 1e3, "ms"),
        "setup.import_s": (statistics.median(r["import_s"] for r in everyone), "s"),
        "host.ref_s": (statistics.median(host), "s"),
        "tracing.overhead_frac": (overhead, "fraction"),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matprod" / "cli.py").is_file():
        print(f"error: no matprod source tree at {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        start = time.monotonic()
        deadline = start + args.seconds

        def left() -> float:
            return start + DEADLINE_S - time.monotonic()

        reports = []
        while len(reports) < MIN_CHILDREN or time.monotonic() < deadline:
            reports.append(run_child(w, child_seed(args.seed, len(reports)), False, deadline, None, left()))
        traced = []
        if args.trace:
            for k, twin in enumerate(reports[:TRACED_CHILDREN]):
                n = min(TRACED_ROUNDS, len(twin["rounds"]))
                traced.append(run_child(w, child_seed(args.seed, k), True, 0.0, n, left()))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()

    rounds = all_rounds(reports)
    print("machine " + json.dumps(reports[0]["machine"], sort_keys=True))
    print(f"workload {args.workload}: {w}, seed {args.seed}, {len(reports)} children, {len(rounds)} rounds")
    raw = statistics.median(r["completed"] / r["main_wall_s"] for r in rounds)
    host = statistics.median(r["ref_wall_s"] for r in rounds)
    print(f"unscaled median reps_per_s {raw:.6g}; reference work {host:.4g} s (nominal {REF_NOMINAL_S} s)")
    ok, detail = GATES[args.workload](w, rounds)
    print(f"gate {'PASS' if ok else 'FAIL'}: {detail}")
    if args.trace:
        same = all(
            t["bytes"] == u["bytes"] for tc, uc in zip(traced, reports) for t, u in zip(tc["rounds"], uc["rounds"])
        )
        print(f"gate {'PASS' if same else 'FAIL'}: traced rounds wrote the same records as untraced")
        ok = ok and same
        metrics = per_layer(w, traced, reports[:TRACED_CHILDREN], reports + traced)
    else:
        metrics = end_to_end(w, reports)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    attempted = sum(r["attempted"] for r in rounds)
    print(
        json.dumps(
            {
                "correct": bool(ok),
                "attempted": attempted,
                "failed": attempted - sum(r["completed"] for r in rounds),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
