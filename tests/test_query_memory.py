"""The traced peak of the three output-sized query stages, each against
what it must hold: ``apsp``, ``adjacency_matmul`` and ``ibp_to_graph``;
and of the search, against the model it is handed."""

import numpy as np

from stmgraph import (LinearOrder, adjacency_matmul, apsp, dag_to_distance_model,
                      ibp_to_dag, ibp_to_graph, stm_to_ibp, zero_one_bfs)
from stmgraph.gen import random_stm_sparse
from stmgraph.paths import _BLOCK_WORDS

from conftest import traced_peak


def test_apsp_peak_memory():
    """Within 2.3 times the matrix, the block's (n, 1024) buffer and one
    bit row per model node and per vertex: each node's gains are OR-ed
    into its row, not kept once per batch that reached it."""
    n = 1024
    dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(random_stm_sparse(n, 4 * n, seed=0))))
    dist, peak = traced_peak(lambda: apsp(dm))
    bits = (dm.num_nodes + 1 + n + 1) * _BLOCK_WORDS * 8
    held = 2 * dist.nbytes + bits  # the matrix, and one block's buffer of the same size
    assert peak <= 2.3 * held, peak / held


def test_adjacency_matmul_peak_memory():
    """Within 1.6 times the product: the int64 array read in the
    partition's order is the product, written back in place."""
    n = 2048
    ibp = stm_to_ibp(random_stm_sparse(n, 4 * n, seed=0))
    rng = np.random.default_rng(0)
    order = LinearOrder.from_vertex_sequence(rng.permutation(np.arange(1, n + 1)))
    matrix = rng.integers(-2 ** 63, 2 ** 63, (n, n), dtype=np.int64)
    prod, peak = traced_peak(lambda: adjacency_matmul(None, order, matrix, ibp))
    assert peak <= 1.6 * prod.nbytes, peak / prod.nbytes


def test_ibp_to_graph_peak_memory():
    """Within 3.6 times the graph's CSR arrays: the edge ends are written
    once, into the rows the graph reads, and its keys are sorted in place."""
    ibp = stm_to_ibp(random_stm_sparse(1024, 4096, seed=0))
    g, peak = traced_peak(lambda: ibp_to_graph(ibp))
    held = g.offsets.nbytes + g.targets.nbytes
    assert peak <= 3.6 * held, peak / held


def test_search_peak_memory():
    """Within 1.3 times the model's CSR arrays: the search holds its int32
    state per node, a batch's node-sized arrays and one slice of its
    edges, with no edge-sized array of the whole batch."""
    n = 4096
    dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(random_stm_sparse(n, 4 * n, seed=0))))
    _, peak = traced_peak(lambda: zero_one_bfs(dm, 1))
    held = sum(a.nbytes for a in (*dm.zero, *dm.one))
    assert peak <= 1.3 * held, peak / held
