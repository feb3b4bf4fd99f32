"""Shortest paths straight on the compressed representation.

Runs 0-1 BFS on the distance model built from the compressed DAG and
compares against plain BFS on the decoded graph. The operation counter
shows the work is proportional to the model size, not to the number of
edges of the decoded graph.
"""

from stmgraph import (bfs_sssp_oracle, decode_bruteforce, ibp_to_dag,
                      sssp, stm_to_ibp)
from stmgraph.gen import random_stm_sparse

n = 2048
model = random_stm_sparse(n, 4 * n, seed=1)
g = decode_bruteforce(model)
dag = ibp_to_dag(stm_to_ibp(model))

counters = {}
res = sssp(dag, 1, counters=counters)
oracle = bfs_sssp_oracle(g, 1)
assert list(res.dist) == oracle

reached = sum(1 for d in res.dist if d < n)
print(f"n={n}, decoded graph has {g.m} edges")
print(f"distance model size: {counters['model_size']}")
print(f"sssp edges scanned: {counters['ops']}")
print(f"vertices reached from 1: {reached}")
print("distances agree with BFS on the decoded graph")
