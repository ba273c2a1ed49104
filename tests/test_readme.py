"""The README's examples run as written, so drift between it and the code fails."""

import re
import shlex
from pathlib import Path

from graphcov import Subsampler, minimal_sparse_ruler
from graphcov.cli import main
from graphcov.experiment import CSV_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """Body of the first ``lang`` code block after a ``## heading`` (or ``###``) line."""
    text = README.read_text()
    start = re.compile(rf"^#+ {re.escape(heading)}$", re.M).search(text).start()
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(readme_block("Library example", "python"), str(README), "exec"), namespace)
    p_hat = namespace["p_hat"]
    assert p_hat.shape == (30,)
    assert namespace["model"].full_column_rank


def test_cli_ruler_line_runs(tmp_path, monkeypatch):
    lines = [
        line for line in readme_block("CLI", "sh").splitlines()
        if line.startswith("graphcov sampler ruler")
    ]
    assert len(lines) == 1
    argv = shlex.split(lines[0])
    assert argv[0] == "graphcov"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    out = Path(argv[argv.index("--out") + 1])
    n = int(argv[argv.index("--n") + 1])
    assert Subsampler.from_json(out.read_text()) == Subsampler(n, minimal_sparse_ruler(n))


def cli_commands() -> list[str]:
    """The README's CLI block as commands: comments dropped, continuation lines joined."""
    block = readme_block("CLI", "sh").replace("\\\n", " ")
    return [line for line in block.splitlines() if line.strip() and not line.startswith("#")]


def test_cli_block_runs_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("experiment.json").write_text(readme_block("Experiment config", "json"))
    ran = set()
    for command in cli_commands():
        argv = shlex.split(command)
        assert argv[0] == "graphcov"
        assert main(argv[1:]) == 0, command
        ran.add(argv[1])
    assert ran == {"graph", "sampler", "signal", "estimate", "experiment"}
    assert Path("results.csv").read_text().startswith(CSV_HEADER + "\n")


def test_csv_columns_in_prose_match_the_header():
    text = " ".join(README.read_text().split())
    match = re.search(r"The CSV has columns `([^`]*)`", text)
    assert match is not None, "README names no CSV columns"
    assert match.group(1) == CSV_HEADER
