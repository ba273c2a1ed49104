"""The benchmark's workloads: Monte-Carlo study configs for ``run_experiment``.

Each workload is one ``ExperimentConfig`` without its seed. The benchmark
runs it three ways:

- ``setup_config``: exact covariances and one trial, so the run is the
  fixed per-study cost (graph, basis, model, design, validation,
  compression, CRB and one noiseless estimate per cell);
- ``study_config(seed)``: the Monte-Carlo study at the run's ``--seed``;
- ``study_config(ACCURACY_SEED)``: the same study at a fixed seed, whose
  NMSE is the ``nmse`` metric, so that figure does not wander with the
  run's seed.

``small`` holds field overrides that shrink a workload to a run of a few
seconds for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

ACCURACY_SEED = 0

README_FILTER = [1.0, 0.5, 0.2]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    small: dict = field(default_factory=dict)

    def shrunk(self) -> "Workload":
        return Workload(self.name, self.why, {**self.config, **self.small})

    def study_config(self, seed: int) -> dict:
        return {**self.config, "seed": int(seed)}

    def setup_config(self) -> dict:
        return {**self.config, "n_trials": 1, "exact_covariance": True, "seed": ACCURACY_SEED}

    def config_hash(self) -> str:
        text = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def spectral(self) -> bool:
        return self.config["model"]["kind"] == "spectral"

    @property
    def methods(self) -> list:
        return list(self.config["methods"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-sensor30",
            why="README study: per-trial estimation and the worker pool dominate, set-up is tens of ms",
            config={
                "graph": {"kind": "sensor", "n": 30, "seed": 7},
                "shift": "laplacian",
                "signal": {"kind": "ma", "h": README_FILTER},
                "model": {"kind": "spectral"},
                "samplers": [
                    {"name": "full", "kind": "full"},
                    {"name": "greedy15", "kind": "greedy", "k": 15},
                ],
                "methods": ["ls", "nnls", "wls"],
                "n_snapshots": [100, 1000],
                "n_trials": 10,
            },
            small={"n_trials": 2},
        ),
        Workload(
            name="design-sensor250",
            why="N=250: the dense N^2 x N model, greedy design and rank checks dominate time and memory",
            config={
                "graph": {"kind": "sensor", "n": 250, "seed": 7},
                "shift": "laplacian",
                "signal": {"kind": "ma", "h": README_FILTER},
                "model": {"kind": "spectral"},
                "samplers": [{"name": "greedy25", "kind": "greedy", "k": 25}],
                "methods": ["ls", "wls"],
                "n_snapshots": [1000],
                "n_trials": 2,
            },
            small={
                "graph": {"kind": "sensor", "n": 40, "seed": 7},
                "samplers": [{"name": "greedy10", "kind": "greedy", "k": 10}],
                "n_trials": 1,
            },
        ),
        Workload(
            name="mc-circulant36",
            why="complex DFT basis: complex model rows, real-stacked LS, pure-Python ruler search in set-up",
            config={
                "graph": {"kind": "mobius", "n": 36},
                "shift": "adjacency",
                "signal": {"kind": "ma", "h": README_FILTER},
                "model": {"kind": "spectral"},
                "samplers": [
                    {"name": "ruler", "kind": "ruler"},
                    {"name": "greedy12", "kind": "greedy", "k": 12},
                ],
                "methods": ["ls", "wls"],
                "n_snapshots": [100, 1000],
                "n_trials": 10,
            },
            small={
                "graph": {"kind": "mobius", "n": 12},
                "samplers": [
                    {"name": "ruler", "kind": "ruler"},
                    {"name": "greedy5", "kind": "greedy", "k": 5},
                ],
                "n_trials": 2,
            },
        ),
        Workload(
            name="mc-ar60",
            why="AR model rebuilt from the data in every trial: the only workload that runs the ar layer",
            config={
                "graph": {"kind": "sensor", "n": 60, "seed": 7},
                "shift": "adjacency",
                "signal": {"kind": "ar", "a": [0.1]},
                "model": {"kind": "ar", "p": 1},
                "samplers": [
                    {"name": "core1", "kind": "ar-core", "k0": 1},
                    {"name": "core4", "kind": "ar-core", "k0": 4},
                ],
                "methods": ["ls"],
                "n_snapshots": [1000, 10000],
                "n_trials": 40,
            },
            small={
                "graph": {"kind": "sensor", "n": 20, "seed": 7},
                "n_snapshots": [200, 2000],
                "n_trials": 8,
            },
        ),
    )
}
