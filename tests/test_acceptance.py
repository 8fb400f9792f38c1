"""Acceptance gate: one test per release criterion, printed pass/fail lines.

Criteria 7-9 run the full two-phase pipeline on a shared synthetic benchmark
(5 seeds per arm) and are marked slow; expect a few minutes of wall time for
the whole module.
"""

import time

import numpy as np
import pytest

from wocd import (
    FusionParams,
    Graph,
    SynthConfig,
    TrainConfig,
    gcn_norm,
    gt_forward,
    identify_weak_cliques,
    init_params,
    loss,
    loss_and_gradients,
    onmi,
    predict,
    run_pipeline,
    synth_graph,
)
from wocd.graph import Cover, SampledLabels
from wocd.pseudo import construct_pseudo_labels

from conftest import graph_to_adj, random_cover, random_graph, random_sampled
from oracles import (
    finite_difference_grads,
    gcn_forward_reference,
    gt_quadratic_reference,
    onmi_reference,
    pseudo_labels_reference,
    weak_cliques_reference,
)
from test_pseudo import make_cliques


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


# Desk-scale benchmark for the directional criteria. Graph parameters are
# fixed by the acceptance definition; the attribute generator is tuned so
# that 10% supervision alone does not saturate the task, otherwise neither
# pseudo-labels nor the fused encoder have headroom to show their trends.
# Secondary memberships of overlap nodes are visible only in node attributes
# (overlap_edges=False), so the raw-attribute branch carries signal that
# neighborhood averaging dilutes.
BENCH = dict(n_nodes=500, n_communities=4, overlap_fraction=0.15,
             p_in=0.08, p_out=0.002, overlap_edges=False,
             dims_per_community=4, feature_signal=0.4, feature_noise=0.05)
BENCH_SEEDS = range(5)
RHO = 0.10


def bench_config(seed, rho=RHO, fusion=None, lam2=1.0, epochs_refined=150):
    return TrainConfig(
        epochs_initial=150, epochs_refined=epochs_refined, hidden=128,
        rho=rho, seed=seed, lam2=lam2,
        fusion=fusion if fusion is not None else FusionParams(),
    )


def bench_instance(seed):
    return synth_graph(SynthConfig(seed=seed, **BENCH))


@pytest.fixture(scope="module")
def bench_runs():
    """Pipeline reports for every arm of criteria 7-9, keyed by arm name."""
    runs = {"full": [], "wo_pseudo": [], "gcn_only": [], "rho_lo": [], "rho_hi": []}
    for seed in BENCH_SEEDS:
        graph, x, cover = bench_instance(seed)
        runs["full"].append(run_pipeline(graph, x, cover, bench_config(seed)))
        runs["wo_pseudo"].append(run_pipeline(
            graph, x, cover, bench_config(seed, lam2=0.0, epochs_refined=0)))
        default = FusionParams()
        runs["gcn_only"].append(run_pipeline(
            graph, x, cover, bench_config(
                seed, fusion=FusionParams(default.alpha, 0.0, default.gamma))))
        runs["rho_lo"].append(run_pipeline(graph, x, cover, bench_config(seed, rho=0.05)))
        runs["rho_hi"].append(run_pipeline(graph, x, cover, bench_config(seed, rho=0.20)))
    return runs


def mean_onmi(reports):
    return float(np.mean([r.onmi for r in reports]))


def test_criterion_1_weak_clique_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for trial in range(200):
        n = int(rng.integers(4, 31))
        p = float(rng.choice([0.1, 0.3, 0.5]))
        g = random_graph(rng, n, p)
        got = [(r.seed_u, r.seed_v, tuple(r.members.tolist()))
               for r in identify_weak_cliques(g).cliques]
        assert got == weak_cliques_reference(graph_to_adj(g))
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"({checked} graphs, {elapsed:.2f}s)")


def test_criterion_2_clique_definition_invariant():
    rng = np.random.default_rng(101)  # same corpus as criterion 1
    checked = 0
    for trial in range(200):
        n = int(rng.integers(4, 31))
        p = float(rng.choice([0.1, 0.3, 0.5]))
        g = random_graph(rng, n, p)
        for rec in identify_weak_cliques(g).cliques:
            nu = set(g.neighbors(rec.seed_u).tolist())
            nv = set(g.neighbors(rec.seed_v).tolist())
            assert rec.members.tolist() == sorted({rec.seed_u, rec.seed_v} | (nu & nv))
            checked += 1
    report(2, f"({checked} cliques)")


def test_criterion_3_pseudo_label_oracle_equivalence():
    rng = np.random.default_rng(202)
    for trial in range(200):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(2, 6))
        rc = int(rng.choice([1, 2, 3]))
        cover = random_cover(rng, n, k)
        sampled = random_sampled(rng, cover, int(rng.integers(1, max(2, n // 3))))
        lists = [sorted(rng.choice(n, size=int(rng.integers(2, 6)),
                                   replace=False).tolist())
                 for _ in range(int(rng.integers(1, 10)))]
        got = construct_pseudo_labels(make_cliques(lists, n), sampled, n, k, rc)
        want = pseudo_labels_reference(lists, sampled.node_ids, sampled.rows, n, k, rc)
        assert got.memberships.tolist() == want
    report(3, "(200 instances)")


def _shift_biases_off_kinks(params, p, x, margin=0.02):
    """Nudge the biases of every rectified layer so no pre-activation sits
    near zero.

    Central differences are only a valid gradient oracle where the loss is
    smooth; a probe step that flips a piecewise-linear unit biases the
    estimate. Shifting each unit's bias into the widest gap of its
    pre-activation values keeps the instance random while guaranteeing the
    finite-difference step cannot cross a kink.
    """
    n_rectified = len(params.gcn_w) - (0 if params.activate_final else 1)
    for layer in range(n_rectified):
        cache = {}
        gcn_forward_reference(params, p, p @ x, cache=cache)
        pre = cache["gcn_pre"][layer]
        for j in range(pre.shape[1]):
            col = np.sort(pre[:, j])
            # candidate zero placements: midpoints of internal gaps, or fully
            # to one side of every value for tightly clustered units
            candidates = [(a + b) / 2.0 for a, b in zip(col[:-1], col[1:])]
            candidates += [col[0] - 0.1, col[-1] + 0.1]
            mid = max(candidates, key=lambda c: np.min(np.abs(col - c)))
            params.gcn_b[layer][j] -= mid
    cache = {}
    gcn_forward_reference(params, p, p @ x, cache=cache)
    worst = min(np.min(np.abs(pre)) for pre in cache["gcn_pre"][:n_rectified])
    assert worst >= margin, f"pre-activation {worst} still within kink reach"


def test_criterion_4_gradient_correctness():
    # the head folded into the linear last GCN layer, with K < h and K = h,
    # and a rectified last layer, which stays h wide
    n, d, h = 12, 7, 8
    for k, activate_final, trial in [(k, a, t) for k, a in ((3, False), (3, True), (8, False))
                                     for t in range(20)]:
        rng = np.random.default_rng(300 + trial)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = Graph.from_edges(pairs, n)
        x = rng.normal(size=(n, d))
        params = init_params(d, h, k, seed=400 + trial, activate_final=activate_final)
        cover = Cover(memberships=(rng.random((n, k)) < 0.4).astype(np.uint8))
        ids = np.sort(rng.choice(n, 4, replace=False))
        sampled = SampledLabels(node_ids=ids, rows=cover.memberships[ids].copy())
        pseudo = Cover(memberships=(rng.random((n, k)) < 0.4).astype(np.uint8))
        fusion = FusionParams(0.5, 0.5, 0.5)
        p = gcn_norm(g)
        _shift_biases_off_kinks(params, p, x)
        _, grads = loss_and_gradients(params, fusion, p, x, p @ x, sampled, pseudo, 1.0, 1.0)
        fd = finite_difference_grads(
            lambda: loss(predict(params, fusion, p, x, p @ x), sampled, pseudo, 1.0, 1.0)[0],
            params, step=1e-4,
        )
        for name in fd:
            g_a, g_f = getattr(grads, name), fd[name]
            small = np.abs(g_a) < 1e-6
            rel = np.abs(g_a - g_f) / np.maximum(np.abs(g_f), 1e-300)
            assert np.all(rel[~small] <= 1e-4), (k, activate_final, trial, name)
            assert np.all(np.abs(g_a - g_f)[small] <= 1e-8), (k, activate_final, trial, name)
    report(4, "(20 instances each folded K < h, activate_final and folded K = h, all tensors)")


def test_criterion_5_linear_attention_equivalence():
    for n in (1, 5, 64):
        for gamma in (0.0, 0.5, 1.0):
            rng = np.random.default_rng(n * 7 + int(gamma * 10))
            x = rng.normal(size=(n, 6))
            params = init_params(6, 8, 3, seed=n + 500)
            got = gt_forward(params, x, gamma)
            want = gt_quadratic_reference(x, params, gamma)
            assert np.max(np.abs(got - want)) <= 1e-8, (n, gamma)
    report(5, "(N in {1,5,64}, gamma in {0,0.5,1})")


def test_criterion_6_onmi_properties():
    rng = np.random.default_rng(606)
    c = random_cover(rng, 15, 3)
    assert abs(onmi(c, c) - 1.0) <= 1e-12
    for trial in range(100):
        n = int(rng.integers(5, 21))
        x = random_cover(rng, n, int(rng.integers(1, 5)), p=float(rng.uniform(0.2, 0.7)))
        y = random_cover(rng, n, int(rng.integers(1, 5)), p=float(rng.uniform(0.2, 0.7)))
        a, b = onmi(x, y), onmi(y, x)
        assert abs(a - b) <= 1e-12
        assert 0.0 <= a <= 1.0
        xs = [set(x.members(k).tolist()) for k in range(x.n_communities)]
        ys = [set(y.members(k).tolist()) for k in range(y.n_communities)]
        want = onmi_reference(xs, ys, n)
        assert abs(a - max(min(want, 1.0), 0.0)) <= 1e-10
    report(6, "(100 random cover pairs)")


@pytest.mark.slow
def test_criterion_7_end_to_end_directional(bench_runs):
    full = mean_onmi(bench_runs["full"])
    wo_pseudo = mean_onmi(bench_runs["wo_pseudo"])
    gcn_only = mean_onmi(bench_runs["gcn_only"])
    assert full >= 0.5, f"full WOCD mean ONMI {full:.3f} < 0.5"
    assert full >= wo_pseudo, f"full {full:.3f} < w/o-pseudo {wo_pseudo:.3f}"
    assert full >= gcn_only, f"full {full:.3f} < GCN-only {gcn_only:.3f}"
    report(7, f"(full={full:.3f}, wo_pseudo={wo_pseudo:.3f}, gcn_only={gcn_only:.3f})")


@pytest.mark.slow
def test_criterion_8_refined_training_trend(bench_runs):
    full = bench_runs["full"]
    n_initial = float(np.mean([r.n_pseudo_initial for r in full]))
    n_refined = float(np.mean([r.n_pseudo_refined for r in full]))
    onmi_initial = float(np.mean([r.onmi_initial for r in full]))
    onmi_refined = mean_onmi(full)
    assert n_refined >= n_initial
    assert onmi_refined >= onmi_initial
    report(8, f"(n_pseudo {n_initial:.0f}->{n_refined:.0f}, "
              f"onmi {onmi_initial:.3f}->{onmi_refined:.3f})")


@pytest.mark.slow
def test_criterion_9_rho_sweep_trend(bench_runs):
    lo = mean_onmi(bench_runs["rho_lo"])
    hi = mean_onmi(bench_runs["rho_hi"])
    assert hi >= lo, f"rho=0.20 mean {hi:.3f} < rho=0.05 mean {lo:.3f}"
    report(9, f"(rho 0.05: {lo:.3f} <= rho 0.20: {hi:.3f})")


def test_criterion_10_clique_construction_scaling():
    rng = np.random.default_rng(1010)
    avg_degree = 10
    times = []
    m = 10_000
    while m <= 160_000:
        n = (2 * m) // avg_degree
        u = rng.integers(0, n, size=int(m * 1.2))
        v = rng.integers(0, n, size=int(m * 1.2))
        keep = u != v
        g = Graph.from_edges(np.stack([u[keep], v[keep]], axis=1)[:m], n)
        # CPU time, the best of at least three runs and at least 0.25 s: wall
        # time also counts the slices other processes get on a busy machine,
        # and a run disturbed in other ways only ever takes longer
        runs = []
        while len(runs) < 3 or sum(runs) < 0.25:
            start = time.process_time()
            identify_weak_cliques(g)
            runs.append(time.process_time() - start)
        times.append(min(runs))
        m *= 2
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    assert all(r <= 3.0 for r in ratios), f"ratios {ratios}"
    report(10, f"(times {[f'{t:.2f}s' for t in times]}, ratios "
               f"{[f'{r:.2f}' for r in ratios]})")
