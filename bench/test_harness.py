"""Self-tests for the benchmark harness: python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wocd  # noqa: E402

import run  # noqa: E402
from checks import read_cover, reference_onmi  # noqa: E402
from planted import PlantedConfig, planted_partition  # noqa: E402
from tracing import SpmmProxy, Tracer, traced  # noqa: E402
from workloads import WORKLOADS, PipelineWorkload, PseudoCliWorkload  # noqa: E402

SMALL_PLANTED = PlantedConfig(n_nodes=1500, n_communities=12)

# same code paths as the real workloads, at a size that runs in seconds
TINY = {
    "acceptance": PipelineWorkload(
        name="acceptance",
        synth=dict(n_nodes=80, n_communities=3, overlap_edges=False, dims_per_community=3),
        epochs=2, n_instances=3),
    "scale": PipelineWorkload(
        name="scale", synth=dict(n_nodes=120, n_communities=4, dims_per_community=4),
        epochs=2),
    "pseudo_cli": PseudoCliWorkload(name="pseudo_cli", planted=SMALL_PLANTED),
}


def test_names_match_contract():
    spec = run.contract()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES) == set(TINY)
    assert {m["name"] for m in spec["end_to_end"]} >= {"run_s", "setup_s"}


def test_planted_generator_is_deterministic_in_its_seed():
    a, b = planted_partition(SMALL_PLANTED, 3), planted_partition(SMALL_PLANTED, 3)
    assert a.digest() == b.digest()
    assert planted_partition(SMALL_PLANTED, 4).digest() != a.digest()
    u, v = a.edges[:, 0], a.edges[:, 1]
    assert (u < v).all()
    assert np.unique(u * SMALL_PLANTED.n_nodes + v).size == u.size
    assert set(np.unique(a.memberships.sum(axis=1))) <= {1, 2}


def test_reference_onmi_matches_program():
    rng = np.random.default_rng(5)
    for n, k, j in ((40, 3, 4), (200, 7, 5), (60, 1, 2)):
        x = (rng.random((n, k)) < 0.3).astype(np.uint8)
        y = (rng.random((n, j)) < 0.3).astype(np.uint8)
        expected = wocd.onmi(wocd.Cover(x), wocd.Cover(y))
        assert abs(reference_onmi(x, y) - expected) <= 1e-12


def test_cover_reader_round_trips(tmp_path):
    m = (np.random.default_rng(1).random((30, 4)) < 0.3).astype(np.uint8)
    wocd.write_cover(wocd.Cover(m), tmp_path / "c.txt")
    assert np.array_equal(read_cover(tmp_path / "c.txt"), m)


def test_spmm_proxy_is_bit_identical_and_timed():
    graph, x, _ = wocd.synth_graph(wocd.SynthConfig(n_nodes=60, n_communities=3))
    p_mat = wocd.gcn_norm(graph)
    tracer = Tracer()
    proxy = SpmmProxy(p_mat, tracer)
    assert np.array_equal(proxy @ x, p_mat @ x)
    assert np.array_equal(x.T @ proxy, x.T @ p_mat)
    assert [s.name for s in tracer.spans] == ["model.spmm"]
    assert tracer.spans[0].nbytes > x.nbytes
    assert proxy.shape == p_mat.shape


def test_traced_restores_every_attribute():
    import wocd.model
    import wocd.train

    before = (wocd.train.loss_and_gradients, wocd.model.gcn_forward, wocd.synth_graph)
    with traced(Tracer()):
        assert wocd.train.loss_and_gradients is not before[0]
    assert (wocd.train.loss_and_gradients, wocd.model.gcn_forward,
            wocd.synth_graph) == before


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_leaves_outputs_bit_identical(name, tmp_path):
    workload = TINY[name]
    inputs = workload.setup(0, tmp_path)
    plain = workload.result(inputs, 0, workload.run(inputs, 0))
    tracer = Tracer()
    with traced(tracer):
        raw = workload.run(inputs, 0)
    wrapped = workload.result(inputs, 0, raw)
    assert tracer.spans
    for field in ("cover", "pseudo", "loss_trace", "sampled_ids"):
        a, b = getattr(plain, field), getattr(wrapped, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert plain.onmi == wrapped.onmi


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_emitted(name, tmp_path):
    spec = run.contract()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = run.run_workload(TINY[name], 1, 0.0, trace, tmp_path)
        assert out["failed"] == 0 and out["attempted"] >= 2
        metrics = run.select_metrics(out["values"], spec[key])
        assert [m["name"] for m in spec[key]] == list(metrics)
        for m in metrics.values():
            assert np.isfinite(m["value"])
    assert out["values"]["cliques.count"] > 0
    if name != "pseudo_cli":
        assert out["values"]["model.spmm_calls_per_epoch"] == 5


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "acceptance", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
