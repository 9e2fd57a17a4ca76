"""The README's examples run and say what they show: the "Library in one
minute" block executes as written, and the config-format block parses to
the values it documents."""
import re
from pathlib import Path

from matprod.configtext import parse_config
from matprod.ensembles import EnsembleSpec, Ginibre
from matprod.experiments import ExperimentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the line heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_in_one_minute_runs(capsys):
    namespace = {}
    exec(compile(_block("## Library in one minute", "python"), "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert namespace["state"].n == 100


def test_config_format_block_parses_to_its_values():
    assert parse_config(_block("### Config format", "ini")) == ExperimentConfig(
        seed=7,
        spec=EnsembleSpec("real", 3, Ginibre()),
        n_grid=(10, 50, 100),
        replications=2000,
        mc_samples=100_000,
        threads=2,
        out="results.jsonl",
        format="jsonl",
    )
