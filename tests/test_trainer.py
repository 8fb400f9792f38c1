import numpy as np
import pytest

from wocd import (
    Cover,
    FusionParams,
    PseudoConfig,
    SynthConfig,
    TrainConfig,
    binarize,
    gcn_norm,
    initial_training,
    refined_training,
    run_pipeline,
    sample_labels,
    synth_graph,
)


def small_instance(seed=0):
    cfg = SynthConfig(n_nodes=60, n_communities=3, overlap_fraction=0.1,
                      p_in=0.3, p_out=0.01, dims_per_community=6, seed=seed)
    return synth_graph(cfg)


def quick_config(**kw):
    base = dict(epochs_initial=20, epochs_refined=20, hidden=16, rho=0.2, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestBinarize:
    def test_threshold(self):
        c = binarize(np.array([[0.6, 0.4]]), 0.5)
        assert c.communities_of(0).tolist() == [0]

    def test_all_below(self):
        c = binarize(np.array([[0.1, 0.2]]), 0.5)
        assert not c.memberships.any()

    def test_threshold_zero_boundary(self):
        c = binarize(np.array([[0.0, 0.3]]), 1e-12)
        assert c.communities_of(0).tolist() == [1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binarize(np.array([[1.5]]), 0.5)


class TestInitialTraining:
    def test_deterministic_trace(self):
        graph, x, cover = small_instance()
        config = quick_config()
        sampled = sample_labels(cover, config.rho, seed=3)
        p = gcn_norm(graph)
        pseudo = Cover(memberships=cover.memberships.copy())
        _, t1 = initial_training(p, x, p @ x, sampled, pseudo, config)
        _, t2 = initial_training(p, x, p @ x, sampled, pseudo, config)
        assert t1 == t2
        assert len(t1) == config.epochs_initial

    def test_lambda2_zero_matches_empty_pseudo(self):
        graph, x, cover = small_instance()
        config = quick_config(lam2=0.0)
        sampled = sample_labels(cover, config.rho, seed=3)
        p = gcn_norm(graph)
        empty = Cover(memberships=np.zeros_like(cover.memberships))
        _, t1 = initial_training(p, x, p @ x, sampled, cover, config)
        _, t2 = initial_training(p, x, p @ x, sampled, empty, config)
        assert t1 == t2

    def test_loss_decreases(self):
        graph, x, cover = small_instance()
        config = quick_config(epochs_initial=60)
        sampled = sample_labels(cover, config.rho, seed=3)
        p = gcn_norm(graph)
        _, trace = initial_training(p, x, p @ x, sampled, cover, config)
        assert trace[-1] < trace[0]


class TestRefinedTraining:
    def test_high_tau_degenerates_to_supervised(self):
        graph, x, cover = small_instance()
        config = quick_config(pseudo=PseudoConfig(r_c=1, tau=1 - 1e-12))
        sampled = sample_labels(cover, config.rho, seed=3)
        p = gcn_norm(graph)
        params, _ = initial_training(p, x, p @ x, sampled, cover, config)
        before = params.copy()
        params, _, report = refined_training(p, x, p @ x, sampled, params, config)
        # with no surviving pseudo-labels only the supervised term remains;
        # compare against an explicit lam2=0 run from the same warm start
        config2 = quick_config(lam2=0.0, pseudo=PseudoConfig(r_c=1, tau=0.5))
        params2, _, report2 = refined_training(p, x, p @ x, sampled, before, config2)
        assert report.n_pseudo_refined == 0 or report.loss_trace_refined == report2.loss_trace_refined

    def test_epochs_zero_keeps_initial_params(self):
        graph, x, cover = small_instance()
        config = quick_config(epochs_refined=0)
        sampled = sample_labels(cover, config.rho, seed=3)
        p = gcn_norm(graph)
        params, _ = initial_training(p, x, p @ x, sampled, cover, config)
        snapshot = params.copy()
        _, c_final, report = refined_training(p, x, p @ x, sampled, params, config,
                                              true_cover=cover)
        np.testing.assert_array_equal(params.flat, snapshot.flat)
        assert report.loss_trace_refined == []
        assert report.onmi == report.onmi_initial


class TestRunPipeline:
    def test_report_shape_and_determinism(self):
        graph, x, cover = small_instance()
        config = quick_config()
        r1 = run_pipeline(graph, x, cover, config)
        r2 = run_pipeline(graph, x, cover, config)
        d1, d2 = r1.to_dict(), r2.to_dict()
        for d in (d1, d2):  # wall clock is the one legitimately varying field
            d.pop("wall_time_initial")
            d.pop("wall_time_refined")
        assert d1 == d2
        assert 0.0 <= r1.onmi <= 1.0
        assert len(r1.loss_trace_initial) == config.epochs_initial
        assert len(r1.loss_trace_refined) == config.epochs_refined
        assert r1.n_pseudo_refined >= 0

    def test_without_pseudo_arm(self):
        # lam2=0 plus no refined epochs is the ground-truth-only variant
        graph, x, cover = small_instance()
        config = quick_config(lam2=0.0, epochs_refined=0)
        report = run_pipeline(graph, x, cover, config)
        assert report.onmi == report.onmi_initial

    def test_gcn_only_arm(self):
        graph, x, cover = small_instance()
        config = quick_config(fusion=FusionParams(alpha=1.0, beta=0.0, gamma=0.5))
        report = run_pipeline(graph, x, cover, config)
        assert 0.0 <= report.onmi <= 1.0

    def test_dimension_mismatch(self):
        graph, x, cover = small_instance()
        with pytest.raises(ValueError):
            run_pipeline(graph, x[:10], cover, quick_config())

    def test_refresh_union_keeps_clique_labels(self):
        # the union with the clique cover can only add pseudo-labeled nodes
        graph, x, cover = small_instance()
        union = run_pipeline(graph, x, cover, quick_config(refresh_union=True))
        refresh_only = run_pipeline(graph, x, cover, quick_config())
        assert union.n_pseudo_refined >= union.n_pseudo_initial
        assert union.n_pseudo_refined >= refresh_only.n_pseudo_refined


class TestTrainConfig:
    def test_round_trip_dict(self):
        cfg = quick_config(lam1=2.0, fusion=FusionParams(0.3, 0.7, 0.9))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lam1=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(binarize_threshold=1.0)
        for bad in (dict(rho=1.5), dict(rho=-0.1), dict(hidden=0), dict(seed=-1)):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        with pytest.raises(TypeError):
            TrainConfig(hidden=2.5)
