"""The README's examples run as written, so drift between it and the code fails."""

import re
import shlex
from pathlib import Path

from graphcov import Subsampler, minimal_sparse_ruler
from graphcov.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """Body of the first ``lang`` code block after a ``## heading`` line."""
    text = README.read_text()
    start = text.index(f"\n## {heading}\n")
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
