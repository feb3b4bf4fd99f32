"""Structured matrix multiply and scattered vertex sets.

Multiplies the adjacency matrix of a decoded graph against a dense
integer matrix using only the biclique partition, then extracts a
maximal scattered subset with bounded-distance searches on the
compressed distance model.
"""

import random

from stmgraph import (INT64_GROUP, AdditiveGroup, LinearOrder, adjacency_matmul,
                      dag_to_distance_model, decode_bruteforce, ibp_matvec, ibp_to_dag,
                      scattered_maximal_subset, stm_to_ibp)
from stmgraph.gen import random_stm
from stmgraph.matmul import dense_matmul_oracle

rng = random.Random(2)
n = 48
model = random_stm(n, 3 * n, seed=2)
g = decode_bruteforce(model)
ibp = stm_to_ibp(model)
order = LinearOrder.identity(n)

N = [[rng.randrange(-100, 100) for _ in range(n)] for _ in range(n)]
out = adjacency_matmul(g, order, N, ibp)
assert out.tolist() == dense_matmul_oracle(g, order, N)

# INT64_GROUP's add and sub, each logging its calls: the matvec's group
# operations, counted
calls = []


def counted(op):
    def call(a, b):
        calls.append(op)
        return op(a, b)
    return call


ibp_matvec(ibp, [1] * n, AdditiveGroup(counted(INT64_GROUP.add), counted(INT64_GROUP.sub), 0))
print(f"adjacency multiply matches the dense oracle on n={n}")
print(f"one matvec used {len(calls)} group operations "
      f"(budget 8(n+|B|) = {8 * (n + len(ibp.quads))})")

dm = dag_to_distance_model(ibp_to_dag(ibp))
X = sorted(rng.sample(range(1, n + 1), 12))
S = scattered_maximal_subset(dm, X, c=4, r=2)
print(f"X = {X}")
print(f"maximal 2-scattered subset of size <= 4: {S}")
