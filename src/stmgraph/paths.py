"""Shortest paths on compressed representations.

A DAG compression induces a 0-1-weighted distance model (two copies of the
DAG joined on the graph vertices), stored as two CSR edge arrays, one per
weight.  One level-synchronous 0-1 BFS on it, a numpy array step per
frontier, yields exact graph distances, shortest-path trees and scattered
sets.  APSP runs the same loop from blocks of 1024 sources at once, each
node carrying a uint64 bitset of the sources that reached it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .convert import DagCompression, IntervalBicliquePartition, ibp_to_dag, stm_to_ibp
from .graph import ID_LIMIT, InputError, _csr, _int_rows, _runs
from .stm import SignedTreeModel

Representation = Union[SignedTreeModel, IntervalBicliquePartition, DagCompression]


class DistanceModel:
    """0-1-weighted digraph distance-equivalent to the graph on nodes 1..n.

    Node ids: 1..n are the shared graph vertices; the top copy keeps the DAG's
    internal ids; bottom-copy internals are shifted past them.

    ``zero`` and ``one`` hold the weight-0 and weight-1 edges in CSR form,
    each an (offsets, targets) pair of int64 arrays: the edges of that
    weight out of node u run to targets[offsets[u]:offsets[u + 1]], in the
    order they were given.  That is the one stored form, and ``_store``
    sets it.  ``edges`` is any iterable of (x, y, w) triples, an (m, 3)
    integer array included, read by ``_int_rows``; every row is checked
    before the CSRs are built from it.  ``dag_to_distance_model`` writes
    the two CSRs itself and stores them through ``_store`` too.
    """

    __slots__ = ("n", "num_nodes", "zero", "one")

    def __init__(self, n: int, num_nodes: int, edges: Iterable[tuple[int, int, int]]):
        if not 0 <= n <= num_nodes:
            raise InputError(f"need 0 <= n <= num_nodes, got n={n}, num_nodes={num_nodes}")
        x, y, w = _int_rows(edges, 3).T
        bad = (w < 0) | (w > 1) | (x < 1) | (x > num_nodes) | (y < 1) | (y > num_nodes)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InputError(f"edge ({x[i]},{y[i]}) of weight {w[i]} needs both ends in "
                             f"[1,{num_nodes}] and a weight in {{0,1}}")
        light = w == 0
        self._store(n, num_nodes, _csr(num_nodes, x[light], y[light]),
                    _csr(num_nodes, x[~light], y[~light]))

    def _store(self, n: int, num_nodes: int, zero: tuple[np.ndarray, np.ndarray],
               one: tuple[np.ndarray, np.ndarray]) -> DistanceModel:
        self.n, self.num_nodes, self.zero, self.one = n, num_nodes, zero, one
        return self

    @property
    def num_edges(self) -> int:
        return len(self.zero[1]) + len(self.one[1])

    @property
    def size(self) -> int:
        return self.num_nodes + self.num_edges


@dataclass(frozen=True)
class ShortestPathTree:
    """Per-vertex distance (sentinel n for unreachable) and parent (0 for
    source and unreachable vertices); arrays indexed by vertex-1."""

    source: int
    dist: tuple[int, ...]
    parent: tuple[int, ...]


def dag_to_distance_model(dc: DagCompression) -> DistanceModel:
    """Two copies of the DAG joined on the graph vertices: top edges run
    toward the sinks at weight 0, bottom edges away from them at weight 0,
    and each compressed edge {x,y} becomes bottom(x)->top(y) and
    bottom(y)->top(x) at weight 1 (both ways, the graph being undirected).

    Both CSRs are written here, with no (x, y, w) rows.  A node has only
    top or only bottom edges, so the weight-0 sources run: shared vertices
    (their bottom edges), top internals, bottom-copy internals.  Their
    offsets come from per-node counts, of y for the bottom edges and of x
    for the top ones, and the targets go into one array, each run stable
    by source over the DAG's edges.  The weight-1 CSR is built by ``_csr``
    from the rows bottom(x0)->top(y0), bottom(y0)->top(x0), ... over the
    compressed edges, stable by source.  Every node's edges keep the DAG's
    order, as ``DistanceModel`` would keep them from rows in that order.

    The one input is a ``DagCompression``, whose constructor checked every
    edge, so no row is checked again; only the targets' range is, by their
    minimum and maximum, and the parents' by their minimum."""
    n, nn = dc.n, dc.num_nodes
    shift = nn - n  # bottom(t) is t + shift for every t above n
    num_nodes = nn + shift
    x, y = dc.edge_rows.T
    m = len(x)
    if m and x.min() <= n:  # the offsets count only parents above n
        raise InputError(f"a parent is not above n={n}")
    per_x, per_y = np.bincount(x, minlength=nn + 1), np.bincount(y, minlength=nn + 1)
    offsets = np.cumsum(np.concatenate(([0], per_y[:n + 1], per_x[n + 1:], per_y[n + 1:])))
    del per_x, per_y
    k = int(offsets[n + 1])  # the bottom edges out of shared vertices
    targets = np.empty(2 * m, dtype=np.int64)
    # every bottom edge's target first, in the order of y; argsort's indices
    # are in range, and mode "clip" writes straight into ``out``, which the
    # default mode would buffer in a copy
    np.take(x, np.argsort(y, kind="stable"), out=targets[:m], mode="clip")
    targets[:m] += shift  # every parent x is above n
    targets[k + m:] = targets[k:m]  # the bottom-copy internals' run, after the top edges
    np.take(y, np.argsort(x, kind="stable"), out=targets[k:k + m], mode="clip")
    c = dc.compressed_rows
    one = _csr(num_nodes, np.where(c > n, c + shift, c).ravel(), c[:, ::-1].ravel())
    for t in (targets, one[1]):
        if t.size and not (1 <= t.min() and t.max() <= num_nodes):
            raise InputError(f"a target is outside [1,{num_nodes}]")
    return DistanceModel.__new__(DistanceModel)._store(n, num_nodes, (offsets, targets), one)


@dataclass
class ZeroOneResult:
    """The search's arrays are int32 below 2^31 model nodes, int64 above."""

    dist: np.ndarray          # over model nodes, index 0 unused; INF sentinel
    parent_vertex: np.ndarray  # projected G-parent per shared vertex, index v-1
    ops: int                  # edges scanned, a machine-independent cost proxy
    INF: int                  # the unreachable sentinel in ``dist``


def _out_edges(csr: tuple[np.ndarray, np.ndarray],
               nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, targets) of every edge out of ``nodes``, node by node, each
    node's edges in CSR order; an edge's row is its node's index in
    ``nodes``."""
    offsets, targets = csr
    starts = offsets[nodes]
    counts = offsets[nodes + 1] - starts
    return np.repeat(np.arange(len(nodes)), counts), targets[_runs(starts, counts)]


_CHUNK = 1 << 16  # the most edges of one batch that a search scans at once


def _chunks(starts: np.ndarray, counts: np.ndarray, most: int) -> Iterator[tuple]:
    """The runs starts[q], ..., starts[q] + counts[q] - 1, taken one after
    another, cut into slices of at most ``_CHUNK`` items: per slice, the
    q it meets and their (starts, counts) cut to it.  Runs that fit are
    one slice, themselves; ``most`` bounds their total, which is summed
    only when the bound does not fit."""
    total = most if most <= _CHUNK else int(counts.sum())
    if total <= _CHUNK:
        yield slice(None), starts, counts
        return
    begin = np.cumsum(counts) - counts  # where run q begins among all items
    for lo in range(0, total, _CHUNK):
        q = slice(np.searchsorted(begin, lo, side="right") - 1, np.searchsorted(begin, lo + _CHUNK))
        cut = np.maximum(begin[q], lo)
        yield q, starts[q] + (cut - begin[q]), np.minimum(begin[q] + counts[q], lo + _CHUNK) - cut


def zero_one_bfs(dm: DistanceModel, source: int, max_dist: Optional[int] = None) -> ZeroOneResult:
    """Level-synchronous 0-1 BFS (a two-bucket Dial search).

    Per level: close the frontier under the weight-0 edges, one batch of
    newly reached nodes at a time, then cross the weight-1 edges out of
    every node settled at that level that has some.  A node reached by
    several edges of one batch takes the first of them, and the next batch
    scans the new nodes in that order of first edges.  Each model node
    carries the most recent shared-layer vertex on its shortest path; a
    shared vertex's G-parent is the label carried into it.

    A batch's edges are scanned in their order, in slices of at most
    ``_CHUNK`` edges.  That keeps the first-edge rule: a target reached by
    an earlier slice is settled, so it is no longer fresh in a later one,
    and within a slice each fresh target takes its first edge; so every
    target takes its first edge in the batch, and the targets come out in
    the order of those edges, slice after slice.  The labels carried are
    those of the batch's nodes, which are settled and keep them.

    Memory: ``dist``, ``label``, ``owner`` (per model node) and ``parent``
    (per vertex), each int32 below 2^31 nodes and int64 above, plus the
    batch's node-sized arrays and one slice's edge-sized ones.

    ``max_dist`` bounds the search radius (used by scattered sets): the
    search stops after the 0-closure of that level, so nodes farther away
    keep the INF sentinel.  ``ops`` counts every edge scanned.
    """
    if not 1 <= source <= dm.n:
        raise InputError(f"source {source} is not a graph vertex in [1,{dm.n}]")
    n, INF = dm.n, dm.num_nodes + 1
    dist = np.full(dm.num_nodes + 1, INF, dtype=np.int32 if INF < ID_LIMIT else np.int64)
    label = np.zeros_like(dist)
    parent = np.zeros(n, dtype=dist.dtype)
    owner = np.zeros_like(dist)  # slice edge index per target
    dist[source] = 0
    label[source] = source
    level, ops = 0, 0

    def settle(csr: tuple[np.ndarray, np.ndarray], nodes: np.ndarray) -> np.ndarray:
        nonlocal ops
        offsets, targets = csr
        starts = offsets[nodes]
        counts = offsets[nodes + 1] - starts
        labels, found = label[nodes], []
        # a batch's nodes are distinct, so it has at most len(targets) edges
        for q, s, c in _chunks(starts, counts, len(targets)):
            tgt = targets[_runs(s, c)]
            ops += len(tgt)
            fresh = dist[tgt] == INF
            tgt, carried = tgt[fresh], np.repeat(labels[q], c)[fresh]
            k = np.arange(len(tgt), dtype=dist.dtype)
            owner[tgt[::-1]] = k[::-1]  # the last write wins: each target's first edge
            first = owner[tgt] == k
            tgt, carried = tgt[first], carried[first]
            dist[tgt] = level
            shared = tgt <= n
            parent[tgt[shared] - 1] = carried[shared]
            # a shared vertex carries itself on; written in place, as np.where's
            # int64 result cast into the int32 labels made the search slower
            np.copyto(carried, tgt, where=shared)
            label[tgt] = carried
            found.append(tgt)
        return found[0] if len(found) == 1 else np.concatenate(found)

    new = np.array([source], dtype=np.int64)
    while new.size:
        settled = [new]
        while new.size:
            new = settle(dm.zero, new)
            settled.append(new)
        if max_dist is not None and level >= max_dist:
            break
        level += 1
        settled = np.concatenate(settled)
        new = settle(dm.one, settled[dm.one[0][settled + 1] > dm.one[0][settled]])
    return ZeroOneResult(dist, parent, ops, INF)


def _as_distance_model(rep: Representation) -> DistanceModel:
    if isinstance(rep, SignedTreeModel):
        rep = stm_to_ibp(rep)
    if isinstance(rep, IntervalBicliquePartition):
        rep = ibp_to_dag(rep)
    if isinstance(rep, DagCompression):
        return dag_to_distance_model(rep)
    if isinstance(rep, DistanceModel):
        return rep
    raise InputError(f"unsupported representation {type(rep).__name__}")


def sssp(rep: Representation, source: int) -> ShortestPathTree:
    """Shortest-path tree from ``source`` on any representation in the
    pipeline.  Its search's op count is ``zero_one_bfs(dm, source).ops`` on
    the model ``dag_to_distance_model`` builds, whose size is ``dm.size``.

    An invalid signed tree model raises InvalidModelError from
    ``stm_to_ibp``; a partition, DAG or distance model is trusted as built.
    """
    dm = _as_distance_model(rep)
    res = zero_one_bfs(dm, source)
    n = dm.n
    dist = res.dist[1:n + 1]
    parent = np.where(dist < n, res.parent_vertex, 0)  # the source's is 0
    dist[dist == res.INF] = n
    return ShortestPathTree(source, tuple(dist.tolist()), tuple(parent.tolist()))


_BLOCK_WORDS = 16  # sources per block of an apsp search, in 64-bit words


def apsp(rep: Representation) -> np.ndarray:
    """n x n distance matrix: row s-1 holds the distances from s, and n is
    the sentinel for unreachable.  Its dtype is ``np.min_scalar_type(n)``.

    ``zero_one_bfs``'s level loop run from 64 * ``_BLOCK_WORDS`` sources at
    once: every model node carries the set of block sources that have
    reached it, one bit per source.  Per level, each batch of newly reached
    nodes spreads its bits along the weight-0 edges, OR-ed per target, and
    keeps the bits its targets lacked (correct on any model, zero-weight
    cycles included), so the batches only spread bits.  Every gain is also
    OR-ed into the node's ``gain`` row, so a node has one row of the
    sources it gained at the level, however many batches reached it.
    After the closure, each shared vertex records the level for the
    sources in its row.  Then the weight-1 edges are crossed once from
    each node that gained bits at that level, with its row, and the rows
    are cleared.

    Memory: the matrix, plus per block an (n, k) buffer of its k columns
    and two rows of bits per model node, ``reached`` and ``gain``, each
    ceil(k / 64) words wide.

    Like ``sssp``, rejects an invalid signed tree model with
    InvalidModelError.
    """
    dm = _as_distance_model(rep)
    n = dm.n
    dist = np.full((n, n), n, dtype=np.min_scalar_type(n))

    def spread(csr: tuple, nodes: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The targets of the edges out of ``nodes`` that gain sources, and
        the bits each gains, which are added to the block's ``reached`` and
        ``gain``; ``bits`` holds each node's new sources."""
        rows, tgt = _out_edges(csr, nodes)
        order = np.argsort(tgt, kind="stable")
        tgt, first = np.unique(tgt[order], return_index=True)  # each target's first edge
        got = np.bitwise_or.reduceat(bits[rows[order]], first) & ~reached[tgt]
        keep = got.any(axis=1)
        tgt, got = tgt[keep], got[keep]
        reached[tgt] |= got
        gain[tgt] |= got
        return tgt, got

    for lo in range(0, n, 64 * _BLOCK_WORDS):
        k = min(64 * _BLOCK_WORDS, n - lo)
        # to[v-1, j] is the distance from source lo+1+j to v: a vertex's
        # entries sit together here, and are strided in ``dist``
        to = np.full((n, k), n, dtype=dist.dtype)
        reached = np.zeros((dm.num_nodes + 1, -(-k // 64)), dtype=np.uint64)
        gain = np.zeros_like(reached)  # the sources each node gained at this level
        new, j = np.arange(lo + 1, lo + k + 1), np.arange(k)
        reached[new, j // 64] = gain[new, j // 64] = np.uint64(1) << (j % 64).astype(np.uint64)
        bits, level = reached[new], 0
        while new.size:
            gained = [new]
            while new.size:
                new, bits = spread(dm.zero, new, bits)
                gained.append(new)
            # each node once; np.unique hashes (numpy >= 2.3), which made
            # apsp 1.1-1.5 times slower
            new = np.sort(np.concatenate(gained))
            new = new[np.insert(new[1:] != new[:-1], 0, True)]
            bits = gain[new]
            gain[new] = 0
            # the shared vertices come first; bit j of a row is byte j // 8's
            # bit j % 8 when read little-endian
            v = new[:np.searchsorted(new, n, side="right")]
            hit = np.unpackbits(bits[:len(v)].astype("<u8", copy=False).view(np.uint8),
                                axis=1, count=k, bitorder="little").view(bool)
            # v's rows of ``to``; a level that does not fit the dtype raises
            # OverflowError
            tv = to[v - 1]
            tv[hit] = dist.dtype.type(level)
            to[v - 1] = tv
            del tv, hit  # freed before the next level makes its own
            level += 1
            new, bits = spread(dm.one, new, bits)
        dist[lo:lo + k] = to.T
    return dist


def scattered_maximal_subset(dm: DistanceModel, X: Iterable[int], c: int, r: int) -> list[int]:
    """Greedy maximal r-scattered subset of X of size at most c.

    Repeatedly take the smallest remaining id and remove everything within
    graph distance r of it, found by one radius-bounded BFS from it on the
    distance model.

    Precondition: distances between shared vertices are symmetric in ``dm``,
    so the search from the pick also gives the distances into it.  Every
    ``dag_to_distance_model`` output is: each compressed edge {x,y} gives
    both bottom(x)->top(y) and bottom(y)->top(x), and the two copies carry
    the DAG's edges in opposite directions.
    """
    if c < 1 or r < 1:
        raise InputError("c and r must be at least 1")
    rest = sorted(set(X))
    for v in rest:
        if not 1 <= v <= dm.n:
            raise InputError(f"X contains {v}, outside [1,{dm.n}]")
    out: list[int] = []
    rest = np.array(rest, dtype=np.int64)
    while rest.size and len(out) < c:
        x = int(rest[0])
        out.append(x)
        rest = rest[zero_one_bfs(dm, x, r).dist[rest] > r]
    return out
