"""Shortest paths on compressed representations.

A DAG compression induces a 0-1-weighted distance model (two copies of the
DAG joined on the graph vertices); deque-based BFS on it yields exact graph
distances, shortest-path trees, scattered sets, and the radius-r width
measurement for construction sequences.  APSP runs all sources at once, as a
0-1 BFS over bitsets of sources.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .convert import (ConstructionSequence, DagCompression,
                      IntervalBicliquePartition, MERGE, _cseq_complete,
                      ibp_to_dag, stm_to_ibp)
from .graph import InputError
from .stm import SignedTreeModel

Representation = Union[SignedTreeModel, IntervalBicliquePartition, DagCompression]


class DistanceModel:
    """0-1-weighted digraph distance-equivalent to the graph on nodes 1..n.

    Node ids: 1..n are the shared graph vertices; the top copy keeps the DAG's
    internal ids; bottom-copy internals are shifted past them.
    """

    __slots__ = ("n", "num_nodes", "adj", "num_edges")

    def __init__(self, n: int, num_nodes: int, edges: Iterable[tuple[int, int, int]]):
        if not 0 <= n <= num_nodes:
            raise InputError(f"need 0 <= n <= num_nodes, got n={n}, num_nodes={num_nodes}")
        self.n = n
        self.num_nodes = num_nodes
        adj: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes + 1)]
        m = 0
        for x, y, w in edges:
            if w not in (0, 1):
                raise InputError(f"edge weight {w} not in {{0,1}}")
            if not (0 < x <= num_nodes and 0 < y <= num_nodes):
                raise InputError(f"edge ({x},{y}) out of range [1,{num_nodes}]")
            adj[x].append((y, w))
            m += 1
        self.adj = adj
        self.num_edges = m

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
    bottom(y)->top(x) at weight 1 (both ways, the graph being undirected)."""
    n, nn = dc.n, dc.num_nodes

    def bottom(t: int) -> int:
        return t if t <= n else nn + (t - n)

    def edges() -> Iterator[tuple[int, int, int]]:
        for x, y in dc.edges:
            yield x, y, 0
            yield bottom(y), bottom(x), 0
        for x, y in dc.compressed:
            yield bottom(x), y, 1
            yield bottom(y), x, 1

    return DistanceModel(n, nn + (nn - n), edges())


@dataclass
class ZeroOneResult:
    dist: list[int]          # over model nodes, index 0 unused; INF sentinel
    parent_vertex: list[int]  # projected G-parent per shared vertex, index v-1
    ops: int                  # edges relaxed, a machine-independent cost proxy
    INF: int                  # the unreachable sentinel in ``dist``


def zero_one_bfs(dm: DistanceModel, source: int, max_dist: Optional[int] = None) -> ZeroOneResult:
    """Deque BFS: weight-0 relaxations go to the front, weight-1 to the back.

    Each model node carries the most recent shared-layer vertex on its
    shortest path; a shared vertex's G-parent is the label carried into it.
    ``max_dist`` bounds the search radius (used by scattered sets).
    """
    if not 1 <= source <= dm.n:
        raise InputError(f"source {source} is not a graph vertex in [1,{dm.n}]")
    return _zero_one_bfs(dm.adj, dm.n, dm.num_nodes, source, max_dist)


def _zero_one_bfs(adj, n, num_nodes, source, max_dist):
    INF = num_nodes + 1
    dist = [INF] * (num_nodes + 1)
    label = [0] * (num_nodes + 1)
    parent = [0] * n
    dist[source] = 0
    label[source] = source
    dq = deque([source])
    ops = 0
    while dq:
        u = dq.popleft()
        du = dist[u]
        if max_dist is not None and du > max_dist:
            continue
        for v, w in adj[u]:
            ops += 1
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                if v <= n:
                    parent[v - 1] = label[u]
                    label[v] = v
                else:
                    label[v] = label[u]
                if w == 0:
                    dq.appendleft(v)
                else:
                    dq.append(v)
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


def sssp(rep: Representation, source: int,
         counters: Optional[dict] = None) -> ShortestPathTree:
    """Shortest-path tree from ``source`` on any representation in the
    pipeline.  ``counters``, if given, receives the relaxation count and
    model size under keys "ops" and "model_size".

    An invalid signed tree model raises InvalidModelError from
    ``stm_to_ibp``; a partition, DAG or distance model is trusted as built.
    """
    dm = _as_distance_model(rep)
    res = zero_one_bfs(dm, source)
    if counters is not None:
        counters["ops"] = res.ops
        counters["model_size"] = dm.size
    n = dm.n
    dist = tuple(res.dist[v] if res.dist[v] < res.INF else n for v in range(1, n + 1))
    parent = tuple(0 if v == source or dist[v - 1] >= n else res.parent_vertex[v - 1]
                   for v in range(1, n + 1))
    return ShortestPathTree(source, dist, parent)


def apsp(rep: Representation) -> list[list[int]]:
    """n x n distance matrix (sentinel n for unreachable), ``[s-1][v-1]``
    the distance from s to v.

    One level-synchronous 0-1 BFS from all n sources at once: every model
    node carries the set of sources that have reached it, as a Python-int
    bitset.  Per level, the newly reached bits are closed under the weight-0
    edges by a worklist (correct on any model, zero-weight cycles included),
    each shared vertex's new bits are written into the matrix, and the
    weight-1 edges are crossed from the nodes that gained bits only.

    Like ``sssp``, rejects an invalid signed tree model with
    InvalidModelError.
    """
    dm = _as_distance_model(rep)
    n, adj = dm.n, dm.adj
    reached = [0] * (dm.num_nodes + 1)
    new = {}  # node -> sources that reached it at this level
    for s in range(1, n + 1):
        reached[s] = new[s] = 1 << (s - 1)
    # dist_to[v-1, s-1] is the distance from s to v; transposed on return
    dist_to = np.full((n, n), n, dtype=np.min_scalar_type(n))
    nbytes = (n + 7) // 8
    level = 0
    while new:
        pending = dict(new)  # node -> bits not yet pushed along its 0-edges
        # first in, first out: on the DAG-shaped 0-edges of a compression's
        # model this revisits ~14x fewer nodes than a stack does
        queue = deque(new)
        while queue:
            u = queue.popleft()
            bits = pending.pop(u)
            for v, w in adj[u]:
                if w:
                    continue
                fresh = bits & ~reached[v]
                if fresh:
                    reached[v] |= fresh
                    new[v] = new.get(v, 0) | fresh
                    if v in pending:
                        pending[v] |= fresh
                    else:
                        pending[v] = fresh
                        queue.append(v)
        for v, bits in new.items():
            if v <= n:
                hit = np.unpackbits(np.frombuffer(bits.to_bytes(nbytes, "little"), np.uint8),
                                    count=n, bitorder="little")
                dist_to[v - 1][hit.view(bool)] = level
        level += 1
        crossed: dict[int, int] = {}
        for u, bits in new.items():
            for v, w in adj[u]:
                if not w:
                    continue
                fresh = bits & ~reached[v]
                if fresh:
                    reached[v] |= fresh
                    crossed[v] = crossed.get(v, 0) | fresh
        new = crossed
    return dist_to.T.tolist()


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
    while rest and len(out) < c:
        x = rest[0]
        out.append(x)
        dist = _zero_one_bfs(dm.adj, dm.n, dm.num_nodes, x, r).dist
        rest = [v for v in rest if dist[v] > r]
    return out


def radius_r_width(seq: ConstructionSequence, r: int = 1) -> int:
    """Replay a construction sequence and report its radius-r width: the
    maximum, over steps and vertices, of the number of parts met by the
    radius-r ball of the vertex in the resolved-pairs graph.  Naive
    re-evaluation per step; measurement tool, not a hot path.

    Raises SequenceError on an invalid sequence, as ``cseq_replay`` does.
    """
    if r < 1:
        raise InputError("r must be at least 1")
    _cseq_complete(seq)  # checks every op; the replay measures seq's own ops
    n = seq.n
    part_of = list(range(n + 1))
    alive: dict[int, list[int]] = {v: [v] for v in range(1, n + 1)}
    resolved_adj: list[set[int]] = [set() for _ in range(n + 1)]

    def measure() -> int:
        best = 0
        for v in range(1, n + 1):
            ball = {v}
            frontier = [v]
            for _ in range(r):
                nxt = []
                for u in frontier:
                    for w in resolved_adj[u]:
                        if w not in ball:
                            ball.add(w)
                            nxt.append(w)
                frontier = nxt
            best = max(best, len({part_of[u] for u in ball}))
        return best

    width = measure()
    next_id = n
    for kind, i, j in seq.ops:
        if kind == MERGE:
            next_id += 1
            members = alive.pop(i) + alive.pop(j)
            alive[next_id] = members
            for u in members:
                part_of[u] = next_id
        else:
            for u in alive[i]:
                for v in alive[j]:
                    if u != v:
                        resolved_adj[u].add(v)
                        resolved_adj[v].add(u)
        width = max(width, measure())
    return width
