"""Row-blocked sparse kernels: block sizing, the per-call worker threads, and
results bit-identical to the serial SciPy products on any worker count."""

import contextlib
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import wocd.cliques
import wocd.model
import wocd.parallel
from wocd import Graph, gcn_norm, identify_weak_cliques, run_pipeline
from wocd.cliques import _clique_blocks, _slot_common
from wocd.parallel import row_blocks, run_row_blocks

from conftest import closed_adjacency, graph_to_adj, random_graph
from oracles import weak_cliques_reference
from test_trainer import PINNED_RUNS, _sha256, quick_config, small_instance


def _shrink_budgets(monkeypatch):
    """Budgets small enough that every test graph spans many row blocks."""
    monkeypatch.setattr(wocd.model, "SPMM_BLOCK_NNZ", 7)
    monkeypatch.setattr(wocd.cliques, "CLIQUE_BLOCK_WORK", 16)


@pytest.fixture
def many_blocks(monkeypatch):
    _shrink_budgets(monkeypatch)


def _graphs():
    rng = np.random.default_rng(9)
    linked = random_graph(rng, 40, 0.15)
    # isolated nodes between the linked ones and after them
    isolated = Graph.from_edges([(0, 3), (3, 7), (7, 0), (9, 12)], 25)
    return {"random": linked, "isolated": isolated, "single": Graph.from_edges([], 1)}


def _operands(n):
    z = np.random.default_rng(n).normal(size=(n, 9))
    return {
        "c_order": z,
        "one_column": z[:, :1],
        "zero_columns": z[:, :0],
        "fortran": np.asfortranarray(z),
        "column_slice": z[:, 1:8:2],
        "int64": np.arange(n * 4).reshape(n, 4) - 2 * n,
        "bool": z > 0,
        "complex128": z[:, :5] + 1j * z[:, 4:],
        "float32": z.astype(np.float32),
        "row_stride": np.random.default_rng(n + 1).normal(size=(2 * n, 9))[::2],
    }


class TestRowBlocks:
    def test_greedy_blocks_within_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            work = rng.integers(0, 12, size=int(rng.integers(0, 30)))
            budget = int(rng.integers(1, 20))
            cum = np.concatenate([[0], np.cumsum(work)])
            bounds = row_blocks(cum, budget)
            assert bounds[0] == 0 and bounds[-1] == work.size
            for r0, r1 in zip(bounds[:-1], bounds[1:]):
                assert r1 > r0
                assert work[r0:r1].sum() <= budget or r1 == r0 + 1
                # greedy: the next row would not have fit
                assert r1 == work.size or work[r0:r1 + 1].sum() > budget

    def test_one_block_within_budget(self):
        assert row_blocks(np.array([0, 5, 9, 9]), 9) == [0, 3]
        assert row_blocks(np.array([0]), 4) == [0]

    def test_star_leaves_spread_over_blocks(self, monkeypatch):
        # every row of a star costs at least n products; a budget on squared
        # degrees would call each leaf 1 and put them all in one block,
        # whose product with A + I is then n x n
        n, budget = 300, 50
        monkeypatch.setattr(wocd.cliques, "CLIQUE_BLOCK_WORK", budget)
        star = Graph.from_edges([(0, v) for v in range(1, n)], n)
        adj, closed = star.adjacency(), closed_adjacency(star)
        bounds = _clique_blocks(adj)
        assert len(bounds) - 1 == n
        for r0, r1 in zip(bounds[:-1], bounds[1:]):
            assert (adj[r0:r1] @ closed).nnz <= max(budget, n)

    @pytest.mark.parametrize("budget", [8, 16, 64])
    def test_clique_block_product_within_bound(self, monkeypatch, budget):
        # the bound holds for the product the scan takes, A_blk @ (A + I):
        # counting row u as (A @ d)[u] leaves out the identity's products
        monkeypatch.setattr(wocd.cliques, "CLIQUE_BLOCK_WORK", budget)
        rng = np.random.default_rng(101)  # the corpus of acceptance criterion 1
        for _ in range(200):
            n = int(rng.integers(4, 31))
            g = random_graph(rng, n, float(rng.choice([0.1, 0.3, 0.5])))
            adj, closed = g.adjacency(), closed_adjacency(g)
            bounds = _clique_blocks(adj)
            for r0, r1 in zip(bounds[:-1], bounds[1:]):
                assert (adj[r0:r1] @ closed).nnz <= max(budget, n)


class TestRunRowBlocks:
    def test_every_block_once(self, workers):
        calls = []
        run_row_blocks(lambda r0, r1: calls.append((r0, r1)), [0, 2, 3, 7, 8])
        assert sorted(calls) == [(0, 2), (2, 3), (3, 7), (7, 8)]

    def test_block_error_reaches_caller(self, workers):
        boom = ValueError("block 3")
        started, finished = [], []

        def fn(r0, r1):
            started.append(r0)
            if r0 == 3:
                raise boom
            if r0 > 3:
                time.sleep(0.05)
            finished.append(r0)

        with pytest.raises(ValueError) as caught:
            run_row_blocks(fn, list(range(21)))
        assert caught.value is boom
        # blocks are taken in order; only those already running when block 3
        # raised may have started after it, and all of them have returned
        assert max(started) <= 3 + workers - 1
        assert sorted(finished + [3]) == sorted(started)

        again = []
        run_row_blocks(lambda r0, r1: again.append(r0), list(range(21)))
        assert sorted(again) == list(range(20))

    def test_stress_more_workers_than_cpus(self, monkeypatch):
        # eight workers share one block queue; a block lost or taken twice
        # leaves a count other than 1
        monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 8)
        counts = np.zeros(3000, dtype=np.int64)

        def fn(r0, r1):
            counts[r0:r1] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run_row_blocks, args=(fn, list(range(3001))),
                                      daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert np.all(counts == 1)


def _product_in_child(p, z, out):
    threads = set()

    def fn(r0, r1):
        threads.add(threading.get_ident())
        time.sleep(0.01)

    run_row_blocks(fn, list(range(21)))
    out.put((p @ z, len(threads)))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_forked_child_after_pool_use(monkeypatch, many_blocks):
    # a parent that has run blocked products holds no worker thread when it
    # forks (Python 3.12 and later warn on forking a multi-threaded process;
    # the warning fails the test); the child starts its own threads for a call
    monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 2)
    p = gcn_norm(_graphs()["random"])
    z = _operands(p.shape[0])["c_order"]
    want = p @ z
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_product_in_child, args=(p, z, out))
    child.start()
    try:
        got, n_threads = out.get(timeout=60)
    except queue.Empty:
        got = n_threads = None
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert got is not None, "the forked child did not finish"
    assert got.tobytes() == want.tobytes()
    assert n_threads == 2


def test_no_thread_outlives_a_call(monkeypatch, many_blocks):
    # every thread a call starts is joined before it returns, also when a
    # block raises
    monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 2)
    before = threading.enumerate()
    for fail in (None, 15):
        ran = set()

        def fn(r0, r1):
            ran.add(threading.current_thread())
            time.sleep(0.01)
            if r0 == fail:
                raise ValueError(r0)

        with pytest.raises(ValueError) if fail else contextlib.nullcontext():
            run_row_blocks(fn, list(range(21)))
        assert len(ran) == 2
        assert threading.enumerate() == before
        assert [t for t in ran if t.is_alive()] == [threading.current_thread()]
    run_pipeline(*small_instance(), quick_config())
    assert threading.enumerate() == before


class TestBlockedProduct:
    @pytest.mark.parametrize("graph", ["random", "isolated", "single"])
    @pytest.mark.parametrize("operand", list(_operands(1)))
    def test_equals_scipy_byte_for_byte(self, workers, many_blocks, graph, operand):
        p = gcn_norm(_graphs()[graph])
        z = _operands(p.shape[0])[operand]
        plain = sp.csr_matrix(p)
        assert type(plain) is sp.csr_matrix
        got, want = p @ z, plain @ z
        assert type(got) is type(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_blocks_share_the_arrays_of_p(self, monkeypatch, many_blocks):
        # a row block's data and indices are views of P's, not copies of them
        monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 2)
        p = gcn_norm(_graphs()["random"])
        blocks, product = [], sp.csr_array.__matmul__

        def recorded(block, other):
            blocks.append(block)
            return product(block, other)

        monkeypatch.setattr(sp.csr_array, "__matmul__", recorded)
        p @ _operands(p.shape[0])["c_order"]
        assert len(blocks) > 1
        for block in blocks:
            assert np.shares_memory(block.data, p.data)
            assert np.shares_memory(block.indices, p.indices)

    @pytest.mark.parametrize("shape", [(41, 3), (39, 3), (41,), (3, 40)])
    def test_wrong_shape_raises_like_scipy(self, many_blocks, shape):
        p = gcn_norm(_graphs()["random"])
        with pytest.raises(ValueError) as got:
            p @ np.ones(shape)
        with pytest.raises(ValueError) as want:
            sp.csr_matrix(p) @ np.ones(shape)
        assert str(got.value) == str(want.value)


def test_slot_common_matches_clique_oracle(workers, many_blocks):
    rng = np.random.default_rng(101)  # the corpus of acceptance criterion 1
    for _ in range(200):
        n = int(rng.integers(4, 31))
        p = float(rng.choice([0.1, 0.3, 0.5]))
        g = random_graph(rng, n, p)
        adj = graph_to_adj(g)
        src = np.repeat(np.arange(n), g.degrees())
        want = [len(adj[u] & adj[v]) for u, v in zip(src.tolist(), g.indices.tolist())]
        assert _slot_common(g.adjacency(), closed_adjacency(g)).tolist() == want
        got = [(r.seed_u, r.seed_v, tuple(r.members.tolist()))
               for r in identify_weak_cliques(g).cliques]
        assert got == weak_cliques_reference(adj)


@pytest.mark.parametrize("pinned", PINNED_RUNS, ids=["defaults", "union_final"])
def test_pipeline_matches_pinned_run(workers, many_blocks, pinned):
    kwargs, initial, refined, c_final, onmi, onmi_initial, _, _ = pinned
    graph, x, cover = small_instance()
    artifacts: dict = {}
    report = run_pipeline(graph, x, cover, quick_config(**kwargs), artifacts=artifacts)
    assert _sha256(np.array(report.loss_trace_initial, dtype=np.float64)) == initial
    assert _sha256(np.array(report.loss_trace_refined, dtype=np.float64)) == refined
    assert _sha256(artifacts["c_final"].memberships) == c_final
    assert (report.onmi, report.onmi_initial) == (onmi, onmi_initial)


def test_one_worker_run_equals_default(monkeypatch):
    graph, x, cover = small_instance()
    runs = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 1)
            _shrink_budgets(monkeypatch)
        artifacts: dict = {}
        report = asdict(run_pipeline(graph, x, cover, quick_config(), artifacts=artifacts))
        del report["wall_time_initial"], report["wall_time_refined"]
        runs.append((report, artifacts["c_final"].memberships.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("preset, first, want", [(None, "wocd", "1"), ("2", "wocd", "2"),
                                                 (None, "numpy", "None")])
def test_import_pins_openblas_before_numpy(preset, first, want):
    # the dense row blocks each call BLAS on a CPU of their own, so importing
    # wocd before NumPy asks OpenBLAS for one thread unless the caller chose a
    # count; once NumPy has loaded BLAS, the environment is left alone
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(wocd.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, {first}, wocd; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == want
