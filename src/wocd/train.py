"""Two-phase training pipeline: weak-clique bootstrap, then confidence refresh."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

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
    construct_pseudo_labels,
    pseudo_coverage,
    refresh_pseudo_labels,
    union_covers,
)


@dataclass
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

    def to_dict(self) -> dict:
        return asdict(self)

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

    def to_dict(self) -> dict:
        return asdict(self)


def binarize(c_pred: np.ndarray, threshold: float) -> Cover:
    """Membership iff predicted probability >= threshold; empty rows allowed."""
    c_pred = np.asarray(c_pred, dtype=np.float64)
    if c_pred.size and (c_pred.min() < 0.0 or c_pred.max() > 1.0):
        raise ValueError("predictions must lie in [0, 1]")
    return Cover(memberships=(c_pred >= threshold).astype(np.uint8))


def _seeds(seed: int) -> tuple[int, int]:
    s = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(s[0]), int(s[1])


def _train_epochs(params, state, p_mat, x, px, sampled, pseudo_cover, config, epochs, phase):
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
    k = pseudo_cover.n_communities
    params = init_params(x.shape[1], config.hidden, k, init_seed,
                         activate_final=config.activate_final)
    state = AdamState.for_params(params)
    trace = _train_epochs(params, state, p_mat, x, px, sampled, pseudo_cover,
                          config, config.epochs_initial, "initial_training")
    return params, trace


def refined_training(p_mat, x: np.ndarray, px: np.ndarray, sampled: SampledLabels,
                     params: ModelParams, config: TrainConfig,
                     true_cover: Cover | None = None,
                     clique_cover: Cover | None = None):
    """Refresh pseudo-labels from the warm model and continue training it.

    p_mat is the graph's ``gcn_norm`` and px is ``p_mat @ x``. Returns
    (params, C_final, RunReport); onmi fields are filled only when
    true_cover is given.
    """
    report = RunReport()

    c_pred = predict(params, config.fusion, p_mat, x, px)
    if true_cover is not None:
        report.onmi_initial = onmi(binarize(c_pred, config.binarize_threshold), true_cover)

    pseudo_cover = refresh_pseudo_labels(c_pred, sampled, config.pseudo.tau)
    if config.refresh_union and clique_cover is not None:
        pseudo_cover = union_covers(pseudo_cover, clique_cover)
    report.n_pseudo_refined = pseudo_coverage(pseudo_cover, sampled)

    state = AdamState.for_params(params)
    start = time.perf_counter()
    report.loss_trace_refined = _train_epochs(
        params, state, p_mat, x, px, sampled, pseudo_cover, config,
        config.epochs_refined, "refined_training",
    )
    report.wall_time_refined = time.perf_counter() - start

    c_final = binarize(predict(params, config.fusion, p_mat, x, px),
                       config.binarize_threshold)
    if true_cover is not None:
        report.onmi = onmi(c_final, true_cover)
    return params, c_final, report


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

    p_mat = gcn_norm(graph)
    px = p_mat @ x  # the first GCN layer's propagation, the same in every epoch
    start = time.perf_counter()
    params, trace_initial = initial_training(p_mat, x, px, sampled, clique_cover, config)
    wall_initial = time.perf_counter() - start

    params, c_final, report = refined_training(
        p_mat, x, px, sampled, params, config,
        true_cover=true_cover, clique_cover=clique_cover,
    )
    report.n_pseudo_initial = pseudo_coverage(clique_cover, sampled)
    report.loss_trace_initial = trace_initial
    report.wall_time_initial = wall_initial

    if artifacts is not None:
        artifacts.update(
            sampled=sampled, cliques=cliques, clique_cover=clique_cover,
            params=params, c_final=c_final,
        )
    return report
