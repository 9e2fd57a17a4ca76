import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import matprod
from matprod import cli, experiments
from matprod.cli import main
from matprod.configtext import config_to_text, parse_config
from matprod.exponents import SpreadOverflowError, evolve_stack
from matprod.recordio import read_jsonl


@pytest.fixture(autouse=True)
def pinned_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
    monkeypatch.delenv("MATPROD_THREADS", raising=False)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    return str(path)


def test_analytic_real_ginibre_golden(capsys):
    assert main(["analytic", "--field", "real", "--d", "2", "--ensemble", "ginibre"]) == 0
    out = capsys.readouterr().out
    assert "0.05796575783" in out
    assert "0.4112335167" in out
    assert "-0.6351814227" in out
    assert "1.23370055" in out


def test_analytic_truncated_unitary_golden(capsys):
    rc = main(["analytic", "--field", "complex", "--d", "2", "--ensemble", "truncated-haar:m=4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-0.4166666667" in out
    assert "-0.75" in out


def test_analytic_d1_golden(capsys):
    assert main(["analytic", "--field", "real", "--d", "1", "--ensemble", "ginibre"]) == 0
    assert "-0.6351814227" in capsys.readouterr().out


def test_analytic_unsupported_kind_exit_2(capsys):
    rc = main(["analytic", "--field", "real", "--d", "2", "--ensemble", "haar-scaled:const(1)"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ginibre" in err and "truncated-haar" in err


def test_run_realprob_complex_field_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed=1 field=complex d=2 ensemble=ginibre n_grid=5 replications=50")
    assert main(["run", "realprob", "--config", cfg]) == 2
    assert "realprob requires field=real" in capsys.readouterr().err


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed=1 field=real d=3 ensemble=truncated-haar:m=2 n_grid=5 replications=10")
    assert main(["run", "lyapunov", "--config", cfg]) == 2
    assert "m must exceed d" in capsys.readouterr().err


def test_run_missing_config_exit_2(tmp_path, capsys):
    assert main(["run", "lyapunov", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_run_lyapunov_rerun_byte_identical(tmp_path, capsys):
    out = str(tmp_path / "r.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=2 field=real d=2 ensemble=ginibre n_grid=10 replications=40 mc_samples=1500 out="{out}"',
    )
    assert main(["run", "lyapunov", "--config", cfg]) == 0
    first = open(out, "rb").read()
    assert main(["run", "lyapunov", "--config", cfg]) == 0
    assert open(out, "rb").read() == first
    manifest, rows = read_jsonl(out)
    assert manifest["started_utc"] == "2000-01-01T00:00:00Z"
    assert [r["seq"] for r in rows] == [1, 2]
    # --format overrides the config's format: the same records as CSV, the manifest in a sidecar
    out_csv = str(tmp_path / "r.csv")
    assert main(["run", "lyapunov", "--config", cfg, "--format", "csv", "--out", out_csv]) == 0
    with open(out_csv, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [(r["experiment"], int(r["n"]), int(r["seq"])) for r in table] == [
        (r["experiment"], r["n"], r["seq"]) for r in rows]
    with open(out_csv + ".manifest.json") as fh:
        sidecar = json.load(fh)
    assert parse_config(sidecar["config"]) == dataclasses.replace(parse_config(manifest["config"]),
                                                                  format="csv", out=out_csv)


def test_run_stability_emit_plotdata(tmp_path, capsys):
    out = str(tmp_path / "s.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=3 field=real d=2 ensemble=ginibre n_grid=4,8 replications=40 mc_samples=1500 out="{out}"',
    )
    assert main(["run", "stability", "--config", cfg, "--emit-plotdata"]) == 0
    lines = open(out + ".gapcurve.txt").read().splitlines()
    assert len(lines) == 2
    ns = [int(line.split()[0]) for line in lines]
    assert ns == [4, 8]
    # an experiment with no curve writes none with --emit-plotdata
    lyap = str(tmp_path / "l.jsonl")
    assert main(["run", "lyapunov", "--config", cfg, "--out", lyap, "--emit-plotdata"]) == 0
    assert sorted(p.name for p in tmp_path.glob("l.jsonl*")) == ["l.jsonl"]


def test_run_realprob_emit_plotdata(tmp_path):
    out = str(tmp_path / "p.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=4 field=real d=2 ensemble=ginibre n_grid=2,5 replications=60 out="{out}"',
    )
    assert main(["run", "realprob", "--config", cfg, "--emit-plotdata"]) == 0
    lines = open(out + ".phat.txt").read().splitlines()
    assert len(lines) == 2
    for line in lines:
        n, p = line.split()
        assert 0.0 <= float(p) <= 1.0


def test_emit_plotdata_requires_out(tmp_path, monkeypatch, capsys):
    # the missing path is a config error found before the run, not after it
    def never(config):
        raise AssertionError("the experiment ran before the config error")

    monkeypatch.setitem(cli._EXPERIMENTS, "realprob", (never, cli._EXPERIMENTS["realprob"][1]))
    cfg = write_cfg(tmp_path, "seed=4 field=real d=2 ensemble=ginibre n_grid=2 replications=30")
    assert main(["run", "realprob", "--config", cfg, "--emit-plotdata"]) == 2


def test_run_verify_small_exit_0(tmp_path, capsys):
    out = str(tmp_path / "v.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=5 field=real d=2 ensemble=ginibre n_grid=2 replications=100 mc_samples=20000 out="{out}"',
    )
    assert main(["run", "verify", "--config", cfg]) == 0
    manifest, rows = read_jsonl(out)
    experiments = {r["experiment"] for r in rows}
    assert "verify:minor-identity" in experiments
    assert any(e.startswith("verify:corner-logdet") for e in experiments)


def test_run_verify_failure_exit_3(tmp_path, monkeypatch, capsys):
    # no residual is at most a negative tolerance, so the minor identities fail
    monkeypatch.setattr(experiments, "_MINOR_TOL", -1.0)
    out = str(tmp_path / "v.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=5 field=real d=2 ensemble=ginibre n_grid=2 replications=20 mc_samples=2000 out="{out}"',
    )
    assert main(["run", "verify", "--config", cfg]) == 3
    assert "verification FAILED" in capsys.readouterr().err
    rows = read_jsonl(out)[1]
    assert rows[0]["experiment"] == "verify:minor-identity"
    assert rows[0]["stats"]["passed"]["value"] == 0


@pytest.mark.parametrize("z, code", [(3.14, 0), (6.0, 3)])
def test_run_verify_exit_code_takes_the_family_verdict(z, code, tmp_path, monkeypatch, capsys):
    # 33 check rows, as real d=3 has: one at z = 3.14 is outside its own 3 SE
    # (its record says passed = 0) but not outside the family's level
    monkeypatch.setattr(experiments, "run_factorization_checks", lambda config: [
        experiments._check(config.spec, "lq-diag-var:rows=3", 3, 2, v, 0.0, 1.0, 1000) for v in [0.0] * 32 + [z]])
    out = str(tmp_path / "v.jsonl")
    cfg = write_cfg(tmp_path, f'seed=5 field=real d=2 ensemble=ginibre n_grid=1 replications=20 out="{out}"')
    assert main(["run", "verify", "--config", cfg]) == code
    assert [r["stats"]["passed"]["value"] for r in read_jsonl(out)[1]] == [1] + [1] * 32 + [0]


def test_run_verify_trace_zero_minor_sum_exit_0(tmp_path, capsys):
    # a real 2x2 Haar reflection has trace 0, so the order-1 minor sum and
    # its eigenvalue twin are both rounding noise; their residual is scaled
    # by the summed minors' magnitudes, not by the noise itself
    out = str(tmp_path / "v.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=14 field=real d=2 ensemble="haar-scaled:lognormal(0,1)" n_grid=1 replications=150 out="{out}"',
    )
    assert main(["run", "verify", "--config", cfg]) == 0
    minor = read_jsonl(out)[1][0]
    assert minor["experiment"] == "verify:minor-identity"
    assert minor["stats"]["max_coefficient_residual"]["value"] <= 1e-8
    assert minor["stats"]["passed"]["value"] == 1


def test_run_realprob_nothing_classified_exit_3(tmp_path, capsys):
    # every factor of fixed(1,1e-13) fails the singularity test, so no trajectory survives
    cfg = write_cfg(tmp_path, 'seed=15 field=real d=2 ensemble="custom:fixed(1,1e-13)" n_grid=200 replications=4')
    assert main(["run", "realprob", "--config", cfg]) == 3
    assert "no classifiable replications" in capsys.readouterr().err


def test_run_realprob_deep_round_classifies_every_trajectory(tmp_path):
    # a benchmark realprob-deep round whose products at n=60 are all wider than
    # LAPACK alone can classify: every trajectory is classified at every n
    out = str(tmp_path / "deep.jsonl")
    cfg = write_cfg(tmp_path, "seed=803100 field=real d=2 ensemble=ginibre n_grid=1,10,25,40,60 "
                              f'replications=96 threads=1 out="{out}"')
    assert main(["run", "realprob", "--config", cfg]) == 0
    assert [r["stats"]["trials"]["value"] for r in read_jsonl(out)[1]] == [96] * 5


@pytest.mark.parametrize("experiment", ["lyapunov", "stability", "fluctuations"])
def test_run_singular_factor_batch_exit_3(experiment, tmp_path, capsys):
    # lognormal(0,10) singular values make some single-step draw numerically
    # singular, and the single-step estimate raises for its whole batch
    cfg = write_cfg(tmp_path, 'seed=1 field=real d=2 ensemble="custom:iid(lognormal(0,10))" n_grid=5 '
                              "replications=200 mc_samples=20000")
    assert main(["run", experiment, "--config", cfg]) == 3
    assert "numeric failure: qr_positive input is numerically rank deficient" in capsys.readouterr().err


def test_run_spread_capped_rows_exit_3(tmp_path, capsys):
    # fixed(1e5,1e-5) factors are regular but widen every product past the
    # hard cap between n = 10 and 40: the engine keeps each row's
    # SpreadOverflowError in its stack, and the runner, left with no row at
    # n = 40, raises NumericError
    text = 'seed=3 field=real d=2 ensemble="custom:fixed(1e5,1e-5)" n_grid=10,40 replications=50 mc_samples=2000'
    assert main(["run", "stability", "--config", write_cfg(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: fewer than 2 replications survived at n=40" in err
    assert "50 of 50 rows dropped by SpreadOverflowError, e.g. log-scale range" in err
    config = parse_config(text)
    (early, late), = experiments._observe_chunks(config, experiments._EXP_EQUALITY, config.n_grid, evolve_stack)
    assert early.ok.all() and not late.ok.any()
    assert all(isinstance(f, SpreadOverflowError) and "exceeds hard cap" in str(f) for f in late.failure)


def test_realprob_spread_capped_rows_exit_3(tmp_path, capsys):
    # every row passes the hard cap between n = 10 and 40, so realprob has
    # nothing to classify at n = 40, and says why
    text = 'seed=3 field=real d=2 ensemble="custom:fixed(1e5,1e-5)" n_grid=10,40 replications=50'
    assert main(["run", "realprob", "--config", write_cfg(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: no classifiable replications at n=40" in err
    assert "50 of 50 rows dropped by SpreadOverflowError, e.g. log-scale range" in err


def test_run_unconverged_svd_exit_3(tmp_path, monkeypatch, capsys):
    # the single-step estimate draws singular values by an SVD outside the engine
    svd = np.linalg.svd

    def failing(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    cfg = write_cfg(tmp_path, "seed=1 field=real d=2 ensemble=ginibre n_grid=5 replications=20 mc_samples=2000")
    assert main(["run", "lyapunov", "--config", cfg]) == 3
    assert "numeric failure: SVD did not converge" in capsys.readouterr().err


def test_out_with_double_quote_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed=1 field=real d=2 ensemble=ginibre n_grid=2 replications=10")
    assert main(["run", "realprob", "--config", cfg, "--out", str(tmp_path / 'a"b.jsonl')]) == 2
    assert "double quote" in capsys.readouterr().err


_CHECK_ROW = "estimate+se+count reference z passed"
_STABILITY_ROW = (
    "mean_singular_1+se+count mean_singular_2+se+count mean_stability_1+se+count mean_stability_2+se+count "
    "gap_singular_stability_1+se gap_singular_stability_2+se gap_singular_ref_1+se gap_singular_ref_2+se "
    "gap_stability_ref_1+se gap_stability_ref_2+se maxgap+se+count maxgap_worst ref_lambda_1+se ref_lambda_2+se skipped"
)
_REALPROB_ROW = "p_hat+se+count all_real trials wilson_low wilson_high excluded"

RECORD_SCHEMAS = {
    "lyapunov": [
        ("lyapunov:single-step", 1, "lambda_1+se+count lambda_2+se+count ref_lambda_1 ref_lambda_2"),
        ("lyapunov:qr-stream", 2000, "lambda_1+se+count lambda_2+se+count ref_lambda_1 ref_lambda_2 skipped"),
    ],
    "stability": [("stability", 2, _STABILITY_ROW), ("stability", 4, _STABILITY_ROW)],
    "fluctuations": [
        (
            "fluctuations",
            4,
            "cov_singular_1_1+se+count cov_stability_1_1+se+count cov_diff_se_1_1 ref_cov_1_1 "
            "cov_singular_1_2+se+count cov_stability_1_2+se+count cov_diff_se_1_2 ref_cov_1_2 "
            "cov_singular_2_2+se+count cov_stability_2_2+se+count cov_diff_se_2_2 ref_cov_2_2 skipped",
        ),
    ],
    "realprob": [("realprob", 2, _REALPROB_ROW), ("realprob", 4, _REALPROB_ROW)],
    "verify": [
        (
            "verify:minor-identity",
            2,
            "max_coefficient_residual max_factorization_residual max_partial_product_excess tol passed",
        ),
        ("verify:corner-logdet:field=real:d=1", 1, _CHECK_ROW),
        ("verify:corner-logdet:field=real:d=2", 1, _CHECK_ROW),
        ("verify:corner-logdet:field=real:d=2", 2, _CHECK_ROW),
        ("verify:lq-diag-mean:rows=1:field=real:d=1", 1, _CHECK_ROW),
        ("verify:lq-diag-var:rows=1:field=real:d=1", 1, _CHECK_ROW),
        ("verify:lq-diag-mean:rows=2:field=real:d=2", 1, _CHECK_ROW),
        ("verify:lq-diag-var:rows=2:field=real:d=2", 1, _CHECK_ROW),
        ("verify:lq-diag-mean:rows=2:field=real:d=2", 2, _CHECK_ROW),
        ("verify:lq-diag-var:rows=2:field=real:d=2", 2, _CHECK_ROW),
        ("verify:lq-offdiag-mean:rows=2:field=real:d=2", 2, _CHECK_ROW),
        ("verify:lq-offdiag-var:rows=2:field=real:d=2", 2, _CHECK_ROW),
        ("verify:lq-diag-mean:rows=1:field=real:d=2", 1, _CHECK_ROW),
        ("verify:lq-diag-var:rows=1:field=real:d=2", 1, _CHECK_ROW),
        ("verify:corner-scaling:field=real:d=1", 4, _CHECK_ROW),
        ("verify:corner-scaling:field=real:d=2", 8, _CHECK_ROW),
        ("verify:haar-phase:field=real:d=1", 1, _CHECK_ROW),
        ("verify:haar-phase:field=real:d=2", 1, _CHECK_ROW),
    ],
}


@pytest.mark.parametrize("experiment", sorted(RECORD_SCHEMAS))
def test_record_schema(experiment, tmp_path, monkeypatch, capsys):
    """Tag, n and the stat names in printed order, each marked with the se/count it carries."""
    written = []
    monkeypatch.setattr(cli, "write_records", lambda records, fmt, path, manifest: written.extend(records))
    cfg = write_cfg(tmp_path, "seed=3 field=real d=2 ensemble=ginibre n_grid=2,4 replications=100 mc_samples=2000")
    assert main(["run", experiment, "--config", cfg, "--out", str(tmp_path / "r.jsonl")]) == 0
    schema = [
        (
            rec.experiment,
            rec.n,
            " ".join(
                name + ("+se" if stat.se is not None else "") + ("+count" if stat.count is not None else "")
                for name, stat in rec.stats.items()
            ),
        )
        for rec in written
    ]
    assert schema == RECORD_SCHEMAS[experiment]


@pytest.mark.parametrize("experiment", sorted(RECORD_SCHEMAS))
def test_run_writes_the_runner_records_numbered(experiment, tmp_path, monkeypatch, capsys):
    """matprod run adds nothing to a runner's records but their numbering."""
    written = []
    monkeypatch.setattr(cli, "write_records", lambda records, fmt, path, manifest: written.extend(records))
    text = "seed=3 field=real d=2 ensemble=ginibre n_grid=2,4 replications=100 mc_samples=2000"
    assert main(["run", experiment, "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "r.jsonl")]) == 0
    runner = {"lyapunov": experiments.run_lyapunov, "stability": experiments.run_equality,
              "fluctuations": experiments.run_fluctuations, "realprob": experiments.run_real_probability,
              "verify": experiments.run_verify}[experiment]
    records = runner(parse_config(text))
    assert all(rec.seq == 0 for rec in records)
    assert written == [dataclasses.replace(rec, seq=i) for i, rec in enumerate(records, start=1)]


def test_run_fluctuations_records(tmp_path):
    out = str(tmp_path / "f.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=6 field=real d=2 ensemble=ginibre n_grid=10 replications=150 out="{out}"',
    )
    assert main(["run", "fluctuations", "--config", cfg]) == 0
    manifest, rows = read_jsonl(out)
    stats = rows[0]["stats"]
    assert "cov_singular_1_1" in stats
    assert "cov_stability_1_2" in stats
    assert "ref_cov_2_2" in stats
    # config echo in the manifest reparses to the identical config
    echoed = parse_config(manifest["config"])
    assert echoed.seed == 6
    assert echoed.out == out
    assert config_to_text(echoed) == manifest["config"]


def test_threads_env_and_flag(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "t.jsonl")
    cfg = write_cfg(
        tmp_path,
        f'seed=7 field=real d=2 ensemble=ginibre n_grid=5 replications=600 out="{out}"',
    )
    assert main(["run", "realprob", "--config", cfg]) == 0
    single = read_jsonl(out)[1]
    monkeypatch.setenv("MATPROD_THREADS", "3")
    assert main(["run", "realprob", "--config", cfg]) == 0
    enved = read_jsonl(out)[1]
    assert main(["run", "realprob", "--config", cfg, "--threads", "2"]) == 0
    flagged = read_jsonl(out)[1]
    for rows in (enved, flagged):
        assert [r["stats"]["p_hat"]["value"] for r in rows] == [
            r["stats"]["p_hat"]["value"] for r in single
        ]
    monkeypatch.setenv("MATPROD_THREADS", "two")
    assert main(["run", "realprob", "--config", cfg]) == 2
    assert "MATPROD_THREADS must be an integer, got 'two'" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _python(*args):
    """A fresh interpreter run with args; the child imports the same matprod, installed or not."""
    path = [str(pathlib.Path(matprod.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


def test_cli_module_entry_point():
    proc = _python("-m", "matprod.cli", "analytic", "--field", "real", "--d", "1", "--ensemble", "ginibre")
    assert proc.returncode == 0
    assert "-0.6351814227" in proc.stdout


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is about 0.3 s of start-up, and only linalg.count_complex_pairs needs it
    proc = _python("-c", "import sys, matprod.cli; print('scipy.linalg' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.split() == ["False"], proc.stderr
