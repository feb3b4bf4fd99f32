"""Matrix arithmetic through interval biclique partitions.

The kernel multiplies the adjacency matrix (in the partition's order) by a
vector using only group additions and subtractions: prefix sums of the input,
one range update per symmetrized biclique, and a final prefix sum of the
difference vector.  For wrapping 64-bit integers it runs as a few numpy int64
array calls, on one vector or on a block of columns at once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

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

# Columns per int64 kernel call in adjacency_matmul, picked by measurement:
# over all blocks of a 1024 x 1024 matrix on random_stm_sparse(1024, 4096)
# (2-CPU Xeon, best of 5) the kernel took 0.078 s at 64 columns, against
# 0.090 s at 16, 0.083 s at 128 and 0.139 s at 1024.  Its buffers, three
# |B| x _BLOCK int64 arrays (the block's biclique sums and their two flat
# index arrays) allocated once per call, stay small beside the n x n product.
_BLOCK = 64


def _int64_array(x) -> np.ndarray:
    """``x`` (a vector or a block of rows) as int64, every entry reduced into
    the 64-bit group exactly as INT64_GROUP reduces it.

    Entries not in an integer array are read one by one through
    ``operator.index``, which refuses a non-integer with TypeError as
    ``_wrap`` does; ``np.asarray`` would first infer a dtype entry by
    entry."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "biu":
        return x.astype(np.int64, copy=False)  # from uint64 this wraps, as _wrap does
    shape = (len(x),) + np.shape(x[0]) if len(x) else (0,)
    if len(shape) == 2 and len(set(map(len, x))) != 1:
        raise InputError("rows of unequal length")
    entries = chain.from_iterable if len(shape) == 2 else iter
    try:
        return np.fromiter(map(operator.index, entries(x)), np.int64, np.prod(shape)).reshape(shape)
    except OverflowError:  # an entry beyond int64
        return np.array([_wrap(operator.index(v)) for v in entries(x)], np.int64).reshape(shape)


def _int64_kernel(ibp: IntervalBicliquePartition, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The kernel in numpy int64 arithmetic, whose wrap-around is that of
    INT64_GROUP, for (n, k) blocks of columns: a function of one block that
    returns its product.  Its buffers are allocated here, once, and every
    call writes into them, the product it returns included.

    The difference rows are one flat (n + 2) * k array, entry (row, column)
    at row * k + column, so each range update is a 1-D ``add.at`` or
    ``subtract.at``, which numpy runs far faster than the 2-D form."""
    n, (a, b, c, d) = ibp.n, ibp.quads.T
    prefix = np.zeros((n + 1, k), dtype=np.int64)  # row 0 stays 0
    diff, out = np.empty((n + 2) * k, dtype=np.int64), np.empty((n, k), dtype=np.int64)
    xbar, lo, hi = np.empty((3, len(a), k), dtype=np.int64)

    def kernel(xs: np.ndarray) -> np.ndarray:
        np.cumsum(xs, axis=0, out=prefix[1:])
        diff.fill(0)
        # the two orientations of each biclique in turn, which halves the
        # buffers against stacking them: (a,b,c,d), then (c,d,a,b); mode
        # "clip" writes straight into ``out``, and every row is in range
        for a1, a2, b1, b2 in ((a, b, c, d), (c, d, a, b)):
            np.take(prefix, b2, axis=0, out=xbar, mode="clip")
            # ``lo`` holds the rows subtracted until it takes its indices
            np.subtract(xbar, np.take(prefix, b1 - 1, axis=0, out=lo, mode="clip"), out=xbar)
            np.add.outer(a1 * k, np.arange(k), out=lo)
            np.add.outer((a2 + 1) * k, np.arange(k), out=hi)  # row n+1 (a2 = n) is never read
            np.add.at(diff, lo.ravel(), xbar.ravel())
            np.subtract.at(diff, hi.ravel(), xbar.ravel())
        return np.cumsum(diff.reshape(n + 2, k)[1:n + 1], axis=0, out=out)
    return kernel


def ibp_matvec(ibp: IntervalBicliquePartition, x: Sequence,
               group: AdditiveGroup = INT64_GROUP, *,
               _kernel: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> list:
    """Multiply adjacency (in the partition's order) by ``x`` in O(n + |B|)
    group operations.

    Prefix sums of x; per symmetrized biclique (a1,a2,b1,b2) add
    xbar = X_<=b2 - X_<=b1-1 at D[a1] and subtract it at D[a2+1];
    prefix-sum D.

    Under INT64_GROUP the steps run as numpy int64 array calls; ``x`` may
    then also be an (n, k) block of columns (``adjacency_matmul`` passes
    ``_BLOCK`` at a time, with ``_kernel``, the one kernel it made for them,
    so that every block reuses its buffers), and the result is an (n, k)
    int64 array.  Any other group runs them as a Python loop.
    """
    n = ibp.n
    if len(x) != n:
        raise InputError(f"vector length {len(x)} does not match n={n}")
    if group is INT64_GROUP:
        xs = _int64_array(x)
        k = xs.shape[1] if xs.ndim == 2 else 1
        out = (_kernel or _int64_kernel(ibp, k))(xs.reshape(n, k))
        return out if xs.ndim == 2 else out.ravel().tolist()
    add, sub, zero = group.add, group.sub, group.zero
    prefix = [zero] * (n + 1)  # prefix[i] = sum of x[0..i-1]
    for i in range(n):
        prefix[i + 1] = add(prefix[i], x[i])
    diff = [zero] * (n + 2)
    for a, b, c, d in ibp.quads.tolist():
        for a1, a2, b1, b2 in ((a, b, c, d), (c, d, a, b)):  # both orientations
            xbar = sub(prefix[b2], prefix[b1 - 1])
            diff[a1] = add(diff[a1], xbar)
            if a2 < n:
                diff[a2 + 1] = sub(diff[a2 + 1], xbar)
    out = [zero] * n
    acc = zero
    for i in range(1, n + 1):
        acc = add(acc, diff[i])
        out[i - 1] = acc
    return out


def dense_matvec_oracle(g: Graph, order: LinearOrder, x: Sequence,
                        group: AdditiveGroup = INT64_GROUP) -> list:
    """Quadratic reference: adj in ``order`` positions times x."""
    n = g.n
    out = [group.zero] * n
    adj = g.adjacency
    for p in range(1, n + 1):
        v = order.at(p)
        acc = group.zero
        for w in adj[v]:
            acc = group.add(acc, x[order.pos(w) - 1])
        out[p - 1] = acc
    return out


def adjacency_matmul(g: Optional[Graph], order: LinearOrder, n_matrix: Sequence[Sequence],
                     ibp: IntervalBicliquePartition,
                     group: AdditiveGroup = INT64_GROUP) -> np.ndarray | list[list]:
    """adj(g) in the caller's ``order`` times ``n_matrix``: permute into the
    partition's order, run the matvec kernel, permute back.

    Under INT64_GROUP, ``n_matrix`` (rows of integers or an (n, n) integer
    array) is read once, already in the partition's order, into one int64
    array, wrapped as INT64_GROUP wraps.  The kernel runs on blocks of
    ``_BLOCK`` columns, with buffers made once (and once more for a partial
    last block), and each block's product is written back in place, into
    the caller's rows of the same columns; that array, (n, n) int64, is the
    product.  Any other group goes one column at a time and returns a list
    of n lists.  A matrix of another shape, a ragged row included, raises
    InputError; an entry that is no integer, TypeError.

    The product is computed from the partition alone, which is trusted to
    decode to g; g is only checked for its size, and may be None, so the
    decoded edge set never has to be built.
    """
    n = ibp.n
    if (g is not None and g.n != n) or order.n != n:
        raise InputError("size mismatch between graph, order, and partition")
    try:  # rows: n of them, each of n entries
        bad = (n_matrix.shape != (n, n) if isinstance(n_matrix, np.ndarray)
               else len(n_matrix) != n or any(len(row) != n for row in n_matrix))
    except TypeError:  # a row with no length
        bad = True
    if bad:
        raise InputError(f"matrix is not {n}x{n}")
    # row q of the kernel's operand is the caller's row rows[q]; for an
    # array this gather is the one copy, so the caller's is never written
    rows = order.position[ibp.order.vertex_at - 1] - 1
    src = (n_matrix[rows] if isinstance(n_matrix, np.ndarray)
           else [n_matrix[p] for p in rows.tolist()])
    if group is not INT64_GROUP:
        cols = [ibp_matvec(ibp, [row[j] for row in src], group) for j in range(n)]
        return [[col[q] for col in cols] for q in np.argsort(rows).tolist()]
    try:
        prod = _int64_array(src).reshape(n, n)
    except (TypeError, ValueError):
        # raised at the first entry that is no integer; a sequence there is a
        # row of the wrong shape, wherever the row sits
        entry = next((v for row in src for v in row if not hasattr(v, "__index__")), 0)
        if np.ndim(np.asarray(entry, dtype=object)):
            raise InputError(f"matrix is not {n}x{n}") from None
        raise
    del src  # an object array, or a narrower one, is freed before the kernel runs
    full = _int64_kernel(ibp, _BLOCK) if n >= _BLOCK else None
    for j in range(0, n, _BLOCK):  # the kernel has read a block before it is overwritten
        kernel = full if n - j >= _BLOCK else None  # a partial last block gets its own
        prod[rows, j:j + _BLOCK] = ibp_matvec(ibp, prod[:, j:j + _BLOCK], _kernel=kernel)
    return prod


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
