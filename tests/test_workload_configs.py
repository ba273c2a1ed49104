"""Every config the benchmark and the README run passes ``ExperimentConfig``'s checks.

``bench/workloads.py`` is loaded read-only, as ``tests/test_tracer_targets.py``
loads the tracer. A key a stricter check refuses there would fail every
benchmark run, so it fails here first.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from graphcov.experiment import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    spec = importlib.util.spec_from_file_location("graphcov_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_pass_the_checks(name):
    workload = WORKLOADS[name]
    for config in (workload.study_config(0), workload.setup_config(), workload.shrunk().study_config(0)):
        ExperimentConfig(**config)


def test_readme_config_passes_the_checks():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^### Experiment config$.*?```json\n(.*?)```", text, re.S | re.M).group(1)
    ExperimentConfig(**json.loads(block))
