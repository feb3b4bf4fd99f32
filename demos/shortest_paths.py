"""Shortest paths straight on the compressed representation.

Runs 0-1 BFS on the distance model built from the compressed DAG and
compares against plain BFS on the decoded graph. The operation counter
shows the work is proportional to the model size, not to the number of
edges of the decoded graph.
"""

from stmgraph import (bfs_sssp_oracle, dag_to_distance_model,
                      decode_bruteforce, ibp_to_dag, sssp, stm_to_ibp,
                      zero_one_bfs)
from stmgraph.gen import random_stm_sparse

n = 2048
model = random_stm_sparse(n, 4 * n, seed=1)
g = decode_bruteforce(model)
dm = dag_to_distance_model(ibp_to_dag(stm_to_ibp(model)))

res = sssp(dm, 1)
oracle = bfs_sssp_oracle(g, 1)
assert list(res.dist) == oracle

reached = sum(1 for d in res.dist if d < n)
print(f"n={n}, decoded graph has {g.m} edges")
print(f"distance model size: {dm.size}")
print(f"sssp edges scanned: {zero_one_bfs(dm, 1).ops}")
print(f"vertices reached from 1: {reached}")
print("distances agree with BFS on the decoded graph")
