"""Two-phase training pipeline: weak-clique bootstrap, then confidence refresh."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cliques import identify_weak_cliques
from .graph import Cover, Graph, SampledLabels, check_field_types, sample_labels
from .metrics import onmi
from .model import (
    AdamState,
    FusionParams,
    ModelParams,
    adam_step,
    gcn_norm,
    init_params,
    loss_and_gradients,
    predict,
)
from .pseudo import (
    PseudoConfig,
    binarize,
    construct_pseudo_labels,
    pseudo_coverage,
    refresh_pseudo_labels,
)


@dataclass(frozen=True)
class TrainConfig:
    lam1: float = 1.0
    lam2: float = 1.0
    epochs_initial: int = 150
    epochs_refined: int = 150
    lr: float = 1e-3
    hidden: int = 256
    seed: int = 0
    fusion: FusionParams = field(default_factory=FusionParams)
    pseudo: PseudoConfig = field(default_factory=PseudoConfig)
    binarize_threshold: float = 0.5
    rho: float = 0.1
    activate_final: bool = False
    refresh_union: bool = False  # union refreshed pseudo cover with the clique one

    def __post_init__(self):
        check_field_types(self)
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.epochs_initial < 0 or self.epochs_refined < 0:
            raise ValueError("epoch counts must be >= 0")
        if not (0.0 < self.binarize_threshold < 1.0):
            raise ValueError("binarize_threshold must be in (0, 1)")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError("rho must be in [0, 1]")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        for key, kind in (("fusion", FusionParams), ("pseudo", PseudoConfig)):
            if isinstance(data.get(key), dict):
                data[key] = kind(**data[key])
            elif key in data and not isinstance(data[key], kind):
                raise TypeError(f"{key} must be an object, not {type(data[key]).__name__}")
        return cls(**data)


@dataclass
class RunReport:
    onmi: float | None = None
    onmi_initial: float | None = None
    n_pseudo_initial: int = 0
    n_pseudo_refined: int = 0
    loss_trace_initial: list = field(default_factory=list)
    loss_trace_refined: list = field(default_factory=list)
    wall_time_initial: float = 0.0
    wall_time_refined: float = 0.0


def _seeds(seed: int) -> tuple[int, int]:
    s = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(s[0]), int(s[1])


def _train_epochs(params, p_mat, x, px, sampled, pseudo_cover, config, epochs, phase):
    """``epochs`` Adam steps on ``params`` in place from fresh moments; the loss trace."""
    state = AdamState.for_params(params)
    trace = []
    for epoch in range(epochs):
        value, grads = loss_and_gradients(
            params, config.fusion, p_mat, x, px, sampled, pseudo_cover,
            config.lam1, config.lam2,
        )
        if not np.isfinite(value):
            raise FloatingPointError(
                f"{phase}: non-finite loss at epoch {epoch} (diverged)"
            )
        adam_step(params, grads, state, config.lr)
        trace.append(value)
    return trace


def initial_training(p_mat, x: np.ndarray, px: np.ndarray, sampled: SampledLabels,
                     pseudo_cover: Cover, config: TrainConfig):
    """Train fresh parameters against true + weak-clique pseudo labels.

    p_mat is the graph's ``gcn_norm`` and px is ``p_mat @ x``. Returns the
    final-epoch parameters and the per-epoch loss trace.
    """
    _, init_seed = _seeds(config.seed)
    params = init_params(x.shape[1], config.hidden, pseudo_cover.n_communities,
                         init_seed, activate_final=config.activate_final)
    trace = _train_epochs(params, p_mat, x, px, sampled, pseudo_cover, config,
                          config.epochs_initial, "initial_training")
    return params, trace


def refined_training(p_mat, x: np.ndarray, px: np.ndarray, sampled: SampledLabels,
                     params: ModelParams, pseudo_cover: Cover, config: TrainConfig):
    """Continue training the warm ``params`` in place against the refreshed
    pseudo labels; returns the per-epoch loss trace."""
    return _train_epochs(params, p_mat, x, px, sampled, pseudo_cover, config,
                         config.epochs_refined, "refined_training")


def run_pipeline(graph: Graph, x: np.ndarray, true_cover: Cover,
                 config: TrainConfig, artifacts: dict | None = None) -> RunReport:
    """sample -> weak cliques -> pseudo bootstrap -> train -> refresh -> retrain."""
    if x.shape[0] != graph.n_nodes or true_cover.n_nodes != graph.n_nodes:
        raise ValueError("graph, features, and cover disagree on N")
    sample_seed, _ = _seeds(config.seed)
    sampled = sample_labels(true_cover, config.rho, sample_seed)

    cliques = identify_weak_cliques(graph)
    clique_cover = construct_pseudo_labels(
        cliques, sampled, graph.n_nodes, true_cover.n_communities,
        config.pseudo.r_c,
    )
    report = RunReport(n_pseudo_initial=pseudo_coverage(clique_cover, sampled))

    p_mat = gcn_norm(graph)
    px = p_mat @ x  # the first GCN layer's propagation, the same in every epoch
    start = time.perf_counter()
    params, report.loss_trace_initial = initial_training(
        p_mat, x, px, sampled, clique_cover, config)
    report.wall_time_initial = time.perf_counter() - start

    c_pred = predict(params, config.fusion, p_mat, x, px)
    report.onmi_initial = onmi(binarize(c_pred, config.binarize_threshold), true_cover)
    pseudo_cover = refresh_pseudo_labels(c_pred, sampled, config.pseudo.tau)
    if config.refresh_union:
        pseudo_cover = Cover(memberships=pseudo_cover.memberships | clique_cover.memberships)
    report.n_pseudo_refined = pseudo_coverage(pseudo_cover, sampled)

    start = time.perf_counter()
    report.loss_trace_refined = refined_training(
        p_mat, x, px, sampled, params, pseudo_cover, config)
    report.wall_time_refined = time.perf_counter() - start

    c_final = binarize(predict(params, config.fusion, p_mat, x, px),
                       config.binarize_threshold)
    report.onmi = onmi(c_final, true_cover)
    if artifacts is not None:
        artifacts.update(
            sampled=sampled, cliques=cliques, clique_cover=clique_cover,
            params=params, c_final=c_final,
        )
    return report
