import pytest

from matprod.configtext import ConfigError, config_to_text, parse_config
from matprod.ensembles import EnsembleSpec, Ginibre, TruncatedHaar
from matprod.experiments import ExperimentConfig

MINIMAL = "seed=1 field=real d=2 ensemble=ginibre n_grid=10 replications=100"


def test_minimal_config_with_defaults():
    assert parse_config(MINIMAL) == ExperimentConfig(1, EnsembleSpec("real", 2, Ginibre()), (10,), 100)


def test_truncated_haar_m_constraint_message():
    with pytest.raises(ConfigError, match="m must exceed d"):
        parse_config("seed=1 field=real d=3 ensemble=truncated-haar:m=2 n_grid=5 replications=10")


def test_duplicate_key_named():
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config(MINIMAL + "\nseed=2")


def test_unknown_key_named_with_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'sneed'"):
        parse_config(MINIMAL + "\nsneed=2")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'replications'"):
        parse_config("seed=1 field=real d=2 ensemble=ginibre n_grid=10")


def test_type_errors_name_key_and_line():
    with pytest.raises(ConfigError, match="'seed' needs an integer"):
        parse_config(MINIMAL.replace("seed=1", "seed=pi"))
    with pytest.raises(ConfigError, match="n_grid"):
        parse_config(MINIMAL.replace("n_grid=10", "n_grid=10,x"))
    with pytest.raises(ConfigError, match="field"):
        parse_config(MINIMAL.replace("field=real", "field=octonion"))
    with pytest.raises(ConfigError, match="format"):
        parse_config(MINIMAL + " format=yaml")


def test_quoted_hash_kept_and_unterminated_quote_rejected():
    assert parse_config(MINIMAL + ' out="run#1.jsonl"  # comment').out == "run#1.jsonl"
    with pytest.raises(ConfigError, match="line 2: unterminated quote in the value of 'out'"):
        parse_config(MINIMAL + '\nout="abc')


def test_garbage_line_reports_position():
    with pytest.raises(ConfigError, match="line 2: cannot parse"):
        parse_config(MINIMAL + "\n=== broken ===")


def test_spaced_and_quoted_assignments():
    text = 'seed = 3\nfield = "complex"\nd = 2\nensemble = "truncated-haar:m=8"\nn_grid = 5,10\nreplications = 20\n# comment\nout = "results dir/out.jsonl"\n'
    config = parse_config(text)
    assert config.spec.kind == TruncatedHaar(8)
    assert config.n_grid == (5, 10)
    assert config.out == "results dir/out.jsonl"


def test_constraint_violations_reported():
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(MINIMAL.replace("n_grid=10", "n_grid=10,5"))
    with pytest.raises(ConfigError, match="replications"):
        parse_config(MINIMAL.replace("replications=100", "replications=0"))
    for bad, where in (
        (MINIMAL.replace("d=2", "d=0"), "line 1: d"),
        (MINIMAL + "\nthreads=0", "line 2: threads"),
        (MINIMAL + "\nmc_samples=1", "line 2: mc_samples"),
        (MINIMAL + '\nout=a"b', "line 2: out"),
    ):
        with pytest.raises(ConfigError, match=f"^{where} must"):
            parse_config(bad)


def test_round_trip_identity():
    for text in (
        MINIMAL,
        MINIMAL + " mc_samples=5000 threads=4 format=csv out=o.csv",
        MINIMAL + ' out="run#1.jsonl"',
        "seed=7 field=complex d=3 ensemble=custom:laws(const(2),uniform(0.5,1.5),lognormal(0,1)) n_grid=2,4,8 replications=12",
    ):
        config = parse_config(text)
        echo = config_to_text(config)
        assert parse_config(echo) == config
        assert parse_config(config_to_text(parse_config(echo))) == config


def test_default_threads_override():
    assert parse_config(MINIMAL, default_threads=8).threads == 8
    assert parse_config(MINIMAL + " threads=2", default_threads=8).threads == 2
