import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import wocd.parallel
from wocd import Cover, Graph, SampledLabels


def random_graph(rng, n, p):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(pairs, n)


def graph_to_adj(graph):
    return {u: set(graph.neighbors(u).tolist()) for u in range(graph.n_nodes)}


def random_cover(rng, n, k, p=0.4):
    return Cover(memberships=(rng.random((n, k)) < p).astype(np.uint8))


def random_sampled(rng, cover, n_sampled):
    ids = np.sort(rng.choice(cover.n_nodes, size=n_sampled, replace=False))
    return SampledLabels(node_ids=ids, rows=cover.memberships[ids].copy())


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(params=[1, 2], ids=["1_worker", "2_workers"])
def workers(request, monkeypatch):
    """Run the row-blocked kernels on this many workers whatever the machine
    has: with 1 no thread starts, the caller runs the clique scan's blocks and
    ``P @ Z`` is SciPy's whole product; with 2 a second thread takes blocks of
    both."""
    monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: request.param)
    return request.param
