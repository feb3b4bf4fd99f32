"""Matrix arithmetic through interval biclique partitions.

The kernel multiplies the adjacency matrix (in the partition's order) by a
vector using only group additions and subtractions: prefix sums of the input,
one range update per symmetrized biclique, and a final prefix sum of the
difference vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .convert import IntervalBicliquePartition
from .graph import Graph, InputError, LinearOrder

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def _wrap(x: int) -> int:
    x &= _MASK
    return x - (1 << 64) if x & _SIGN else x


@dataclass(frozen=True)
class AdditiveGroup:
    """Three-operation contract: add, subtract, zero.  No multiplication is
    ever needed."""

    add: Callable
    sub: Callable
    zero: object


# Wrapping 64-bit integers; overflow is defined group behavior, not an error.
INT64_GROUP = AdditiveGroup(
    add=lambda a, b: _wrap(a + b),
    sub=lambda a, b: _wrap(a - b),
    zero=0,
)


def ibp_matvec(ibp: IntervalBicliquePartition, x: Sequence,
               group: AdditiveGroup = INT64_GROUP,
               counters: Optional[dict] = None) -> list:
    """Multiply adjacency (in the partition's order) by ``x`` in O(n + |B|)
    group operations.

    Prefix sums of x; per symmetrized biclique (a1,a2,b1,b2) add
    xbar = X_<=b2 - X_<=b1-1 at D[a1] and subtract it at D[a2+1]; prefix-sum
    D.  ``counters``, if given, receives the group-op count under "ops".
    """
    n = ibp.n
    if len(x) != n:
        raise InputError(f"vector length {len(x)} does not match n={n}")
    add, sub, zero = group.add, group.sub, group.zero
    ops = 0
    prefix = [zero] * (n + 1)  # prefix[i] = sum of x[0..i-1]
    for i in range(n):
        prefix[i + 1] = add(prefix[i], x[i])
        ops += 1
    diff = [zero] * (n + 2)
    sym = []
    for a, b, c, d in ibp.bicliques:
        sym.append((a, b, c, d))
        sym.append((c, d, a, b))
    for a1, a2, b1, b2 in sym:
        xbar = sub(prefix[b2], prefix[b1 - 1])
        diff[a1] = add(diff[a1], xbar)
        ops += 2
        if a2 < n:
            diff[a2 + 1] = sub(diff[a2 + 1], xbar)
            ops += 1
    out = [zero] * n
    acc = zero
    for i in range(1, n + 1):
        acc = add(acc, diff[i])
        out[i - 1] = acc
        ops += 1
    if counters is not None:
        counters["ops"] = ops
    return out


def dense_matvec_oracle(g: Graph, order: LinearOrder, x: Sequence,
                        group: AdditiveGroup = INT64_GROUP) -> list:
    """Quadratic reference: adj in ``order`` positions times x."""
    n = g.n
    out = [group.zero] * n
    for p in range(1, n + 1):
        v = order.at(p)
        acc = group.zero
        for w in g.neighbors(v):
            acc = group.add(acc, x[order.pos(w) - 1])
        out[p - 1] = acc
    return out


def adjacency_matmul(g: Optional[Graph], order: LinearOrder, n_matrix: Sequence[Sequence],
                     ibp: IntervalBicliquePartition,
                     group: AdditiveGroup = INT64_GROUP,
                     check: bool = False) -> list[list]:
    """adj(g) in the caller's ``order`` times ``n_matrix``, column by column:
    permute into the partition's order, run the matvec kernel, permute back.

    ``check`` verifies once that the partition decodes to g.  Without it the
    product is computed from the partition alone, and g may be None, so the
    decoded edge set never has to be built.
    """
    from .convert import ibp_to_graph
    from .graph import graphs_equal

    n = ibp.n
    if (g is not None and g.n != n) or order.n != n:
        raise InputError("size mismatch between graph, order, and partition")
    if len(n_matrix) != n or any(len(row) != n for row in n_matrix):
        raise InputError(f"matrix is not {n}x{n}")
    if check and (g is None or not graphs_equal(ibp_to_graph(ibp), g)):
        raise InputError("partition does not decode to the given graph")
    # vertex at kernel position q sits at caller position order.pos(vertex)
    caller_pos = [order.pos(ibp.order.at(q)) for q in range(1, n + 1)]
    out = [[group.zero] * n for _ in range(n)]
    col = [group.zero] * n
    for j in range(n):
        for q in range(n):
            col[q] = n_matrix[caller_pos[q] - 1][j]
        res = ibp_matvec(ibp, col, group)
        for q in range(n):
            out[caller_pos[q] - 1][j] = res[q]
    return out


def dense_matmul_oracle(g: Graph, order: LinearOrder, n_matrix: Sequence[Sequence],
                        group: AdditiveGroup = INT64_GROUP) -> list[list]:
    """Cubic reference multiply for adjacency_matmul (0-1 adjacency, so only
    group additions are needed)."""
    n = g.n
    adj = [[0] * n for _ in range(n)]
    for u, v in g.edges():
        pu, pv = order.pos(u) - 1, order.pos(v) - 1
        adj[pu][pv] = 1
        adj[pv][pu] = 1
    out = [[group.zero] * n for _ in range(n)]
    for i in range(n):
        row = adj[i]
        oi = out[i]
        for k in range(n):
            if row[k]:
                nk = n_matrix[k]
                for j in range(n):
                    oi[j] = group.add(oi[j], nk[j])
    return out
