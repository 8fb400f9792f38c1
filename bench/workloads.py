"""The three workloads. Each operation goes through wocd's public API only:
``wocd.run_pipeline`` for the pipeline workloads, ``wocd.cli.main(argv)``
in-process for ``pseudo_cli``.

A workload has ``setup(seed, work_dir)``, ``op_seeds(seed)``, the timed
``run(inputs, op_seed)`` and the untimed ``result(inputs, op_seed, raw)``
that turns what ``run`` returned into an ``OpResult`` for the checks."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import wocd
from wocd.cli import main as cli_main

from checks import read_cover
from planted import PlantedConfig, planted_partition

RHO = 0.1
HIDDEN = 128


@dataclass
class OpResult:
    cover: np.ndarray  # final N x K cover
    truth: np.ndarray
    onmi: float  # as the program reported it
    pseudo: np.ndarray  # clique-vote pseudo cover
    sampled_ids: np.ndarray
    loss_trace: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True)
class PipelineWorkload:
    """``run_pipeline`` on ``synth_graph`` instances. Instance seed and
    training seed are equal, as in the acceptance tests; operations cycle
    through ``n_instances`` consecutive seeds starting at the workload seed."""

    name: str
    synth: dict
    epochs: int
    n_instances: int = 1

    def op_seeds(self, seed: int) -> list:
        return [seed + i for i in range(self.n_instances)]

    def setup(self, seed: int, work_dir: Path) -> dict:
        return {s: wocd.synth_graph(wocd.SynthConfig(seed=s, **self.synth))
                for s in self.op_seeds(seed)}

    def run(self, inputs: dict, op_seed: int):
        graph, x, cover = inputs[op_seed]
        config = wocd.TrainConfig(epochs_initial=self.epochs, epochs_refined=self.epochs,
                                  hidden=HIDDEN, rho=RHO, seed=op_seed)
        artifacts: dict = {}
        report = wocd.run_pipeline(graph, x, cover, config, artifacts=artifacts)
        return report, artifacts

    def result(self, inputs: dict, op_seed: int, raw) -> OpResult:
        report, artifacts = raw
        cover = inputs[op_seed][2]
        return OpResult(
            cover=artifacts["c_final"].memberships,
            truth=cover.memberships,
            onmi=report.onmi,
            pseudo=artifacts["clique_cover"].memberships,
            sampled_ids=artifacts["sampled"].node_ids,
            loss_trace=np.array(report.loss_trace_initial + report.loss_trace_refined),
        )


@dataclass(frozen=True)
class PseudoCliWorkload:
    """``wocd pseudo`` then ``wocd eval`` on a planted partition written to
    ``edges.tsv`` and ``cover.txt`` during set-up. No training happens."""

    name: str
    planted: PlantedConfig

    def op_seeds(self, seed: int) -> list:
        return [seed]

    def setup(self, seed: int, work_dir: Path) -> dict:
        p = planted_partition(self.planted, seed)
        n = p.memberships.shape[0]
        # the edges are unique with u < v already, so the CSR arrays are built
        # directly instead of through Graph.from_edges' Python list of pairs
        both = np.concatenate([p.edges, p.edges[:, ::-1]])
        both = both[np.lexsort((both[:, 1], both[:, 0]))]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(both[:, 0], minlength=n))])
        graph = wocd.Graph(indptr=indptr.astype(np.int64), indices=both[:, 1].copy())
        files = {"edges": work_dir / "edges.tsv", "cover": work_dir / "cover.txt",
                 "pseudo": work_dir / "pseudo.txt"}
        wocd.write_edge_list(graph, files["edges"])
        wocd.write_cover(wocd.Cover(memberships=p.memberships), files["cover"])
        return {"files": files, "truth": p.memberships}

    def run(self, inputs: dict, op_seed: int):
        f = {k: str(v) for k, v in inputs["files"].items()}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_pseudo = cli_main(["pseudo", "--edges", f["edges"], "--cover", f["cover"],
                                  "--rho", str(RHO), "--seed", str(op_seed),
                                  "--out", f["pseudo"]])
            mark = out.tell()
            rc_eval = cli_main(["eval", "--pred", f["pseudo"], "--truth", f["cover"]])
        if rc_pseudo or rc_eval:
            raise RuntimeError(f"cli exit codes pseudo={rc_pseudo} eval={rc_eval}")
        return out.getvalue()[mark:]

    def result(self, inputs: dict, op_seed: int, raw) -> OpResult:
        truth = inputs["truth"]
        pseudo = read_cover(inputs["files"]["pseudo"])
        # cmd_pseudo samples with the --seed it is given
        sampled = wocd.sample_labels(wocd.Cover(memberships=truth), RHO, op_seed)
        return OpResult(cover=pseudo, truth=truth,
                        onmi=json.loads(raw)["onmi"],
                        pseudo=pseudo, sampled_ids=sampled.node_ids)


# Names are fixed: later changes refer to them.
WORKLOADS = {
    # the BENCH instance of tests/test_acceptance.py: training is over 90% of the
    # work and overhead-bound at n=500; 30+30 epochs keep an operation short
    # enough for many of them in one run
    "acceptance": PipelineWorkload(
        name="acceptance",
        synth=dict(n_nodes=500, n_communities=4, overlap_fraction=0.15, p_in=0.08,
                   p_out=0.002, overlap_edges=False, dims_per_community=4,
                   feature_signal=0.4, feature_noise=0.05),
        epochs=30, n_instances=5),
    # m~269k, D=64: sparse P @ Z bound, with a real clique-scan share;
    # synth_graph dominates set-up time and peak memory
    "scale": PipelineWorkload(
        name="scale",
        synth=dict(n_nodes=5000, n_communities=4, overlap_edges=False,
                   dims_per_community=16),
        epochs=12),
    # n=8k, K=100, m~78k: no training; the clique scan dominates, then
    # text I/O, the clique vote and O(K^2) ONMI
    "pseudo_cli": PseudoCliWorkload(name="pseudo_cli", planted=PlantedConfig()),
}
