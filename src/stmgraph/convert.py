"""Representation conversions.

Pipeline: signed tree model -> laminar rectangles, as one (p, 4) int64
array of key rows -> interval biclique partition -> DAG compression /
positive tree model; plus the constructions from sd-degeneracy sequences
and merge/resolve construction sequences, construction-sequence
shortening and the radius-r width, each sequence kind replayed by one
walk (``_eliminate``, on the bit rows of ``_bit_rows``, and ``_steps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .graph import (ID_LIMIT, Graph, InputError, LinearOrder, Rows, _first_repeat,
                    _frozen, _int_rows, _runs)
from .rect import complement_partition
from .stm import SignedTreeModel, _checked_forest, clean_same_sign, remove_loops

INF_STEP = float("inf")


class PartitionViolation(ValueError):
    """Two bicliques of a supposed partition emit the same edge."""


class SequenceError(ValueError):
    """A sequence (sd-degeneracy or construction) is structurally invalid."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _bad_quads(quads: np.ndarray, n: int) -> np.ndarray:
    """Which rows (a, b, c, d) of ``quads`` break a <= b < c <= d in [1, n]."""
    a, b, c, d = quads.T
    return (a < 1) | (a > b) | (b >= c) | (c > d) | (d > n)


class IntervalBicliquePartition:
    """A vertex order plus edge-disjoint bicliques with interval sides.

    Bicliques are position-space quadruples (a,b,c,d), a<=b<c<=d, denoting
    the biclique between the vertices at positions [a,b] and [c,d], given
    as a sequence of tuples or as a (|B|, 4) integer array.  ``quads``
    holds them as a read-only (|B|, 4) int64 array, the one stored form;
    ``bicliques`` builds a tuple of tuples in the same order on each read.
    """

    __slots__ = ("order", "quads")

    def __init__(self, order: LinearOrder, bicliques: Rows):
        self.order = order
        n = order.n
        (self.quads,) = _frozen(np.array(_int_rows(bicliques, 4)))
        bad = _bad_quads(self.quads, n)
        if bad.any():
            a, b, c, d = self.quads[np.flatnonzero(bad)[0]].tolist()
            raise InputError(f"biclique ({a},{b},{c},{d}) violates a<=b<c<=d in [1,{n}]")

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def bicliques(self) -> tuple[tuple[int, int, int, int], ...]:
        """``quads`` as a tuple of tuples of Python ints, built on each read."""
        return tuple(map(tuple, self.quads.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalBicliquePartition)
                and self.order == other.order and np.array_equal(self.quads, other.quads))

    def __repr__(self) -> str:
        return f"IntervalBicliquePartition(n={self.n}, k={len(self.quads)})"


class DagEdgeError(InputError):
    """An edge that ``DagCompression`` rejects.  ``row`` is its index among
    the DAG edges followed by the compressed edges."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def _check_dag_size(n: int, num_nodes: int, m: int) -> None:
    """Raise InputError unless num_nodes meets ``DagCompression``'s bounds
    for n graph vertices and m edges of both kinds."""
    if num_nodes > n + 2 * m:
        raise InputError(f"num_nodes {num_nodes} exceeds n + 2(e + c) = {n + 2 * m}")
    if num_nodes >= ID_LIMIT:
        raise InputError(f"num_nodes {num_nodes} is not below 2^31")


class DagCompression:
    """A DAG whose sinks are the graph vertices, plus compressed edges.

    uv is a graph edge iff some compressed edge {x,y} has directed paths
    x -> u and y -> v.  Edges are stored parent -> child (toward sinks).

    Node ids are a topological order: every edge (x, y) has
    n < x <= num_nodes and 1 <= y < x.  So the graph vertices 1..n are
    sinks, and no cycle can close, since a cycle needs an edge up to a
    higher id.  The constructor checks this on every edge, and that each
    compressed edge joins two nodes in [1, num_nodes], and names the first
    bad one.

    The ids also bound num_nodes, since it sizes the distance model's
    arrays: num_nodes <= n + 2(e + c) for e edges and c compressed edges
    (past that, some node above n touches no edge), and num_nodes < 2^31
    (which n isolated vertices reach with no edges at all).

    Both edge lists are given as sequences of pairs or as (m, 2) integer
    arrays.  ``edge_rows`` and ``compressed_rows`` hold them as read-only
    (m, 2) int64 arrays, the one stored form; ``edges`` and ``compressed``
    build tuples of pairs in the same order on each read.
    """

    __slots__ = ("n", "num_nodes", "edge_rows", "compressed_rows")

    def __init__(self, n: int, num_nodes: int, edges: Rows, compressed: Rows):
        if not 0 <= n <= num_nodes:
            raise InputError(f"need 0 <= n <= num_nodes, got n={n}, num_nodes={num_nodes}")
        self.n = n
        self.num_nodes = num_nodes
        self.edge_rows, self.compressed_rows = _frozen(np.array(_int_rows(edges, 2)),
                                                       np.array(_int_rows(compressed, 2)))
        _check_dag_size(n, num_nodes, len(self.edge_rows) + len(self.compressed_rows))
        x, y = self.edge_rows.T
        bad = np.flatnonzero((x <= n) | (x > num_nodes) | (y < 1) | (y >= x))
        if bad.size:
            x, y = self.edge_rows[bad[0]].tolist()
            raise DagEdgeError(f"DAG edge ({x},{y}) breaks n < x <= num_nodes and "
                               f"1 <= y < x (n={n}, num_nodes={num_nodes})", int(bad[0]))
        x, y = self.compressed_rows.T
        bad = np.flatnonzero((x < 1) | (x > num_nodes) | (y < 1) | (y > num_nodes))
        if bad.size:
            x, y = self.compressed_rows[bad[0]].tolist()
            raise DagEdgeError(f"compressed edge ({x},{y}) out of range [1,{num_nodes}]",
                               len(self.edge_rows) + int(bad[0]))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """``edge_rows`` as a tuple of pairs of Python ints, built on each read."""
        return tuple(map(tuple, self.edge_rows.tolist()))

    @property
    def compressed(self) -> tuple[tuple[int, int], ...]:
        """``compressed_rows`` as a tuple of pairs of Python ints, built on
        each read."""
        return tuple(map(tuple, self.compressed_rows.tolist()))

    @property
    def size(self) -> int:
        return self.num_nodes + len(self.edge_rows) + len(self.compressed_rows)

    def __repr__(self) -> str:
        return (f"DagCompression(n={self.n}, nodes={self.num_nodes}, "
                f"edges={len(self.edge_rows)}, compressed={len(self.compressed_rows)})")


@dataclass(frozen=True)
class SdDegenSequence:
    """Elimination order as pairs (u_i, v_i); u_i is deleted, v_i remains."""

    pairs: tuple[tuple[int, int], ...]

    def check_structure(self, n: int) -> None:
        """Raise SequenceError unless this is a valid sequence for n vertices."""
        if len(self.pairs) != n - 1:
            raise SequenceError(f"expected {n - 1} pairs, got {len(self.pairs)}")
        alive = set(range(1, n + 1))
        for step, (u, v) in enumerate(self.pairs, start=1):
            if u == v:
                raise SequenceError(f"step {step}: pair ({u},{v}) has equal endpoints")
            if u not in alive or v not in alive:
                raise SequenceError(f"step {step}: pair ({u},{v}) uses a deleted vertex")
            alive.remove(u)


MERGE = "M"
RESOLVE_POS = "R+"
RESOLVE_NEG = "R-"


@dataclass(frozen=True)
class ConstructionSequence:
    """Merge/resolve operation log over parts identified by creation order.

    Singletons are parts 1..n; the k-th merge creates part n+k.  Ops are
    (kind, i, j) with kind in {"M", "R+", "R-"}; resolves may be loops (i==j).
    """

    n: int
    ops: tuple[tuple[str, int, int], ...]

    @property
    def num_resolves(self) -> int:
        return sum(1 for k, _, _ in self.ops if k != MERGE)


# ---------------------------------------------------------------------------
# STM -> rectangles -> IBP
# ---------------------------------------------------------------------------

def stm_to_ibp(stm: SignedTreeModel) -> IntervalBicliquePartition:
    """Convert a signed tree model into an interval biclique partition.

    Clean to alternating signs on the model's rectangle inclusion forest,
    and for each positive rectangle of the cleaned forest emit the
    complement partition of its negative children.  Negative roots emit
    nothing; a positive rectangle without children emits its own key row.
    At most 3|A| + |B| bicliques (post-cleaning).  The forest is built once:
    ``clean_same_sign`` hands the cleaned model its key array and spliced
    forest.  The bicliques are rows of one int64 array, in the cleaned
    model's pair order; only the positive rectangles with holes call
    ``complement_partition``.

    Raises InvalidModelError with the messages of ``validate(stm)`` on an
    invalid model; loops are violations there, so run remove_loops first.
    """
    _, sign, forest, _ = _checked_forest(clean_same_sign(stm))
    keys, up = forest.keys, forest.up
    holes = np.bincount(up[up >= 0], minlength=len(up))
    kids = np.argsort(up, kind="stable")[len(up) - int(holes.sum()):]  # grouped by parent
    end = np.cumsum(holes)
    positive = np.flatnonzero(sign > 0)
    parts, done = [], 0
    for j in np.flatnonzero(holes[positive]).tolist():
        i = positive[j]
        parts += [keys[positive[done:j]],
                  complement_partition(keys[i], keys[kids[end[i] - holes[i]:end[i]]])]
        done = j + 1
    parts.append(keys[positive[done:]])
    return IntervalBicliquePartition(LinearOrder.from_vertex_sequence(stm.leaf_order),
                                     np.concatenate(parts))


def ibp_to_graph(ibp: IntervalBicliquePartition) -> Graph:
    """Materialize the edge set.

    The bicliques emit their edges in turn, each row by row, as arrays; a
    duplicate edge raises PartitionViolation naming the first edge in that
    order that an earlier one emitted."""
    a, b, c, d = ibp.quads.T
    height = b - a + 1
    width = np.repeat(d - c + 1, height)  # per row of each biclique
    at = _positions(ibp.order)
    # each edge's row and column vertex, then its smaller and larger end
    lo, hi = at[np.repeat(_runs(a, height), width)], at[_runs(np.repeat(c, height), width)]
    ends = np.empty((len(lo), 2), dtype=np.int64)
    np.minimum(lo, hi, out=ends[:, 0])
    np.maximum(lo, hi, out=ends[:, 1])
    del lo, hi
    # a call of its own, so that its key and sort arrays are freed before
    # the Graph is built
    e = _first_repeat(ends @ np.array([ibp.n + 1, 1]))
    if e >= 0:
        raise PartitionViolation(f"edge {tuple(ends[e].tolist())} emitted by two bicliques")
    return Graph(ibp.n, ends)


# ---------------------------------------------------------------------------
# Balanced tree, cover sets, IBP -> DAG / positive model
# ---------------------------------------------------------------------------

def _node_ids(n: int, lo: np.ndarray, hi: np.ndarray, r: np.ndarray,
              at: np.ndarray) -> np.ndarray:
    """Ids of the canonical balanced tree's nodes over [lo, hi] that the
    root reaches by r right turns.

    The node over [lo, hi] splits at (lo + hi) // 2, so its left half is
    rounded up.  A leaf's id is the vertex ``at[lo]`` at its position; an
    internal node's is the post-order id n + hi - 1 - r, so internal ids
    run n+1..2n-1 and the root is 2n-1.
    """
    return np.where(lo < hi, n + hi - 1 - r, at[lo])


def _skeleton(n: int, at: np.ndarray) -> np.ndarray:
    """Children of the internal nodes n+1..2n-1, in id order, as an
    (n - 1, 2) array, found one tree level per round; leaf ids are
    ``at[position]``."""
    children = np.zeros((n - 1, 2), dtype=np.int64)
    lo, hi, r = np.array([1]), np.array([n]), np.array([0])
    while lo.size:
        inner = lo < hi
        lo, hi, r = lo[inner], hi[inner], r[inner]
        mid = (lo + hi) // 2
        children[hi - 2 - r] = np.column_stack((_node_ids(n, lo, mid, r, at),
                                                _node_ids(n, mid + 1, hi, r + 1, at)))
        lo, hi, r = (np.concatenate(pair) for pair in ((lo, mid + 1), (mid, hi), (r, r + 1)))
    return children


def _covers(n: int, intervals: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cover sets of the rows [a, b] of ``intervals``, 1 <= a <= b <= n:
    the (owner k, node id) of every cover node, grouped by the row k it
    covers and left to right within a group.  The rows of a (|B|, 4) quad
    array reshaped to (2|B|, 2) are both sides of every biclique, so
    biclique q owns rows 2q (side I) and 2q + 1 (side J).  ``at`` is read
    only at the positions of leaves in a cover set, so it may stop after
    the largest b.

    All of them come out of one level-synchronous descent from the root.
    Each round emits the nodes that lie inside their interval and splits
    the rest at (lo + hi) // 2, keeping the halves that meet it; every
    interval is met by at most two nodes that it does not contain per
    level, so this takes at most ceil(log2 n) + 1 rounds of O(len(a))
    work, and each cover set has at most 2 ceil(log2 n) nodes.  A cover
    node is kept as one int64 key k(n + 1) + lo beside its id, and one
    sort of the keys orders them.

    The descent runs on int32 when 2n and the row count are below 2^31:
    no value it holds exceeds them, since positions, right-turn counts and
    lo + hi are at most 2n - 1, an id (or n + hi on the way to one) at most
    2n, and an owner below the row count.  ``ibp_to_dag`` always runs it
    on int32: ``_check_dag_size`` passes only for 2n - 1 + 2|B| < 2^31.
    Otherwise, as ``cover_set`` may ask for any n, it runs on int64.
    """
    dtype = np.int32 if max(2 * n, len(intervals)) < ID_LIMIT else np.int64
    a, b = intervals.astype(dtype, copy=False).T
    at = at.astype(dtype, copy=False)
    k = np.arange(len(a), dtype=dtype)
    lo, hi, r = np.ones_like(k), np.full_like(k, n), np.zeros_like(k)
    found = [(np.zeros(0, np.int64), k[:0])]
    while k.size:
        inside = (a[k] <= lo) & (hi <= b[k])
        found.append((np.multiply(k[inside], n + 1, dtype=np.int64) + lo[inside],
                      _node_ids(n, lo[inside], hi[inside], r[inside], at)))
        k, lo, hi, r = k[~inside], lo[~inside], hi[~inside], r[~inside]
        mid = (lo + hi) // 2
        left, right = a[k] <= mid, mid < b[k]
        k, lo, hi, r = (np.concatenate(halves) for halves in (
            (k[left], k[right]), (lo[left], mid[right] + 1), (mid[left], hi[right]),
            (r[left], r[right] + 1)))
    key, ids = (np.concatenate(column) for column in zip(*found))
    del found
    order = np.argsort(key)  # the keys are distinct
    key = key[order]
    key //= n + 1
    return key, ids[order]


def _positions(order: LinearOrder) -> np.ndarray:
    """``at``: the vertex at each position 1..n, with at[0] unused."""
    return np.concatenate(([0], order.vertex_at))


def cover_set(n: int, a: int, b: int) -> list[int]:
    """Disjoint canonical nodes whose leaf intervals partition [a,b], left
    to right: at most 2*ceil(log2 n) of them, found in O(log n) steps."""
    if not 1 <= a <= b <= n:
        raise InputError(f"interval [{a},{b}] out of [1,{n}]")
    return _covers(n, np.array([[a, b]]), np.arange(b + 1))[1].tolist()


def ibp_to_dag(ibp: IntervalBicliquePartition) -> DagCompression:
    """DAG compression: balanced-tree skeleton (leaves are the vertices at
    their positions) plus, per biclique I x J, two new nodes over
    cover_set(I) and cover_set(J) joined by a compressed edge.  The cover
    sets of all 2|B| sides come from one ``_covers`` descent, on int32 as
    the node count's bound is checked before it.  The edge rows, the
    skeleton's and then each side's, are written into one (m, 2) array,
    which ``DagCompression`` copies once the descent's arrays are freed.
    """
    n, k = ibp.n, len(ibp.quads)
    num_nodes = 2 * n - 1 + 2 * k  # the nodes of biclique q are 2n + 2q and 2n + 2q + 1
    _check_dag_size(n, num_nodes, 2 * n - 2 + 3 * k)  # each side has a cover node
    at = _positions(ibp.order)
    owner, cover = _covers(n, ibp.quads.reshape(-1, 2), at)
    edges = np.empty((2 * n - 2 + len(cover), 2), dtype=np.int64)
    edges[:2 * n - 2, 0] = np.arange(n + 1, 2 * n).repeat(2)
    edges[:2 * n - 2, 1] = _skeleton(n, at).ravel()
    np.add(owner, 2 * n, out=edges[2 * n - 2:, 0])
    edges[2 * n - 2:, 1] = cover
    del owner, cover
    return DagCompression(n, num_nodes, edges, np.arange(2 * n, num_nodes + 1).reshape(-1, 2))


def dag_to_graph(dc: DagCompression) -> Graph:
    """Reachability brute force: decode adjacency from compressed edges.

    Every edge (x, y) has y < x, so in ascending order of x each ``reach[y]``
    is final by the time it is read.  Each compressed edge {x, y} then
    joins every sink under x to every sink under y, as arrays."""
    reach = [0] * (dc.num_nodes + 1)  # bitsets over sinks
    for v in range(1, dc.n + 1):
        reach[v] = 1 << v
    for x, y in zip(*dc.edge_rows[np.argsort(dc.edge_rows[:, 0])].T.tolist()):
        reach[x] |= reach[y]
    size = 8 * (dc.n // 64 + 1)  # bytes of a bit row over bits 0..n
    sinks = [_ids(np.frombuffer(reach[x].to_bytes(size, "little"), np.uint64))
             for x in dc.compressed_rows.ravel().tolist()]
    rows = np.concatenate([np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)
                           for a, b in zip(sinks[0::2], sinks[1::2])] + [np.zeros((0, 2), np.int64)])
    return Graph(dc.n, rows[rows[:, 0] != rows[:, 1]])


def ibp_to_positive_model(ibp: IntervalBicliquePartition) -> SignedTreeModel:
    """Positive tree model on the balanced tree: per biclique, all pairs of
    cover-set nodes become positive transversal pairs (at most
    4*ceil(log n)^2 per biclique; never crossing, by edge-disjointness)."""
    n, at = ibp.n, _positions(ibp.order)
    owner, cover = _covers(n, ibp.quads.reshape(-1, 2), at)
    runs = np.split(cover, np.cumsum(np.bincount(owner, minlength=2 * len(ibp.quads)))[:-1])
    pairs_b = {(s, t) for si, sj in zip(runs[0::2], runs[1::2])
               for s in si.tolist() for t in sj.tolist()}
    children = dict(enumerate(_skeleton(n, at).tolist(), n + 1))
    return SignedTreeModel(n, children, (), pairs_b)


# ---------------------------------------------------------------------------
# Sequences -> STM
# ---------------------------------------------------------------------------

_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, np.uint8)


def _blocks(count: int, item_bytes: int) -> Iterator[slice]:
    """Slices that cover range(count) in order, each of about 1 MB at
    ``item_bytes`` per item."""
    step = max(1, (1 << 20) // item_bytes)
    return (slice(i, i + step) for i in range(0, count, step))


def _mask(ids, words: int) -> np.ndarray:
    """A bit row of ``words`` uint64 words with the bits ``ids`` set."""
    return np.packbits(np.isin(np.arange(64 * words), ids), bitorder="little").view(np.uint64)


def _ids(row: np.ndarray) -> np.ndarray:
    """The ids of the bits set in ``row``, ascending; only its nonzero
    words are unpacked."""
    at = np.flatnonzero(row)
    word, bit = np.unpackbits(row[at].view(np.uint8), bitorder="little").reshape(-1, 64).nonzero()
    return at[word] * 64 + bit


def _bit_rows(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The state of the sd-degeneracy walks: (n + 1) rows of n // 64 + 1
    uint64 words, with bit w of row v (word w // 64, bit w % 64) set iff vw
    is an edge, and the alive mask, a row with bits 1..n set.  The rows
    take (n + 1)^2 / 8 bytes or so whatever m is, and are packed from
    dense boolean blocks of about 1 MB, a block of rows at a time.  Each
    bit is read through the uint8 view, so the byte order never shows."""
    n, words = g.n, g.n // 64 + 1
    rows = np.empty((n + 1, words), np.uint64)
    for b in _blocks(n + 1, 64 * words):
        at = g.offsets[b.start:b.stop + 1]
        dense = np.zeros((len(at) - 1, 64 * words), bool)
        dense[np.repeat(np.arange(len(at) - 1), np.diff(at)), g.targets[at[0]:at[-1]]] = True
        rows[b] = np.packbits(dense, axis=1, bitorder="little").view(np.uint64)
    return rows, _mask(np.arange(1, n + 1), words)


def _sds(rows: np.ndarray, alive: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The symmetric difference of each pair (us[i], vs[i]) of alive
    vertices in the graph induced on ``alive``:
    popcount((row u XOR row v) AND alive) - 2 [uv is an edge], the rows
    gathered a block at a time."""
    out = np.empty(len(us), np.int64)
    for b in _blocks(len(us), rows[0].nbytes):
        u, v = us[b], vs[b]
        edge = rows.view(np.uint8)[u, v >> 3] >> (v & 7) & 1  # bit v of row u
        diff = (rows[u] ^ rows[v]) & alive
        out[b] = _POPCOUNT[diff.view(np.uint8)].sum(axis=1, dtype=np.int64) - 2 * edge
    return out


def _eliminate(rows: np.ndarray, alive: np.ndarray, pairs: Iterable[tuple[int, int]]
               ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Replay the eliminations ``pairs`` on the bit rows ``rows`` and the
    alive mask ``alive`` of ``_bit_rows``.

    For each step (u, v) it yields (u, v, N(u) \\ N[v], N(v) \\ N[u]) in the
    graph induced on ``alive``, as ascending id arrays whose sizes sum to
    the step's symmetric difference, while u is still alive; u's alive bit
    clears when the next step is asked for, or when the walk ends.  The
    rows are only read.
    """
    for u, v in pairs:
        diff = (rows[u] ^ rows[v]) & alive
        only_u, only_v = _ids(diff & rows[u]), _ids(diff & rows[v])
        yield u, v, only_u[only_u != v], only_v[only_v != u]
        alive.view(np.uint8)[u >> 3] &= 255 ^ 1 << (u & 7)


def sdseq_to_stm(g: Graph, seq: SdDegenSequence) -> SignedTreeModel:
    """Build a signed tree model from an sd-degeneracy sequence.

    At step i the eliminated vertex u_i gets negative pairs to
    N(v_i) \\ N[u_i], positive pairs to N(u_i) \\ N[v_i], a pair to v_i signed
    by their adjacency, and a common parent with v_i which then represents
    v_i.  At most (d+1)(n-1) pairs for a width-d sequence.
    """
    n = g.n
    if n < 1:
        raise InputError("empty graph")
    seq.check_structure(n)
    node_of = list(range(n + 1))
    children: dict[int, tuple[int, int]] = {}
    pairs_a: list[tuple[int, int]] = []
    pairs_b: list[tuple[int, int]] = []
    for made, (u, v, only_u, only_v) in enumerate(_eliminate(*_bit_rows(g), seq.pairs), n + 1):
        x = node_of[u]
        pairs_a += [(x, node_of[a]) for a in only_v.tolist()]
        pairs_b += [(x, node_of[b]) for b in only_u.tolist()]
        (pairs_b if g.has_edge(u, v) else pairs_a).append((x, node_of[v]))
        children[made] = (x, node_of[v])
        node_of[v] = made
    return SignedTreeModel(n, children, pairs_a, pairs_b)


def _steps(n: int, ops: Iterable[tuple[str, int, int]]
           ) -> Iterator[tuple[str, int, int, int]]:
    """Walk ``ops`` over parts 1..n, yielding (kind, i, j, made) for each
    op: ``made`` is the id of the last part made so far, which for a merge
    is the part that merge makes (the k-th merge makes part n + k), and n
    before the first merge."""
    made = n
    for kind, i, j in ops:
        made += kind == MERGE
        yield kind, i, j, made


def _first_resolves(ops: Iterable[tuple[str, int, int]]) -> Iterator[tuple[str, int, int]]:
    """``ops`` in order, with each resolve but the first on an unordered part
    pair {i, j} left out: part ids are never reused, so a repeated resolve
    meets only vertex pairs the first one decided."""
    seen: set[tuple[int, int]] = set()
    for kind, i, j in ops:
        key = (min(i, j), max(i, j))
        if kind != MERGE:
            if key in seen:
                continue
            seen.add(key)
        yield kind, i, j


def _cseq_complete(seq: ConstructionSequence) -> ConstructionSequence:
    """Check each op as it is walked, then append merges (smallest live part
    ids first) until one part remains.

    Raises SequenceError on an op over a part that is not alive, a merge
    of a part with itself, or an unknown op kind, naming the step.
    """
    alive = set(range(1, seq.n + 1))
    made = seq.n
    for step, (kind, i, j, made) in enumerate(_steps(seq.n, seq.ops), start=1):
        if i not in alive or j not in alive:
            raise SequenceError(f"step {step}: part {i if i not in alive else j} is not alive")
        if kind == MERGE:
            if i == j:
                raise SequenceError(f"step {step}: cannot merge a part with itself")
            alive -= {i, j}
            alive.add(made)
        elif kind not in (RESOLVE_POS, RESOLVE_NEG):
            raise SequenceError(f"step {step}: unknown op kind {kind!r}")
    # the appended merges make parts made + 1, made + 2, ..., each topping
    # every live id, so each one's part joins the sorted live list at its end
    live = sorted(alive) + list(range(made + 1, made + len(alive)))
    return ConstructionSequence(seq.n, seq.ops + tuple((MERGE, i, j)
                                                       for i, j in zip(live[0::2], live[1::2])))


def cseq_replay(seq: ConstructionSequence) -> Graph:
    """Direct replay of the construction semantics (oracle): each resolve
    turns the vertex pairs across its two parts that no earlier resolve
    decided into edges (R+) or non-edges (R-); output is (V, E_final).  The
    resolves' pairs are arrays, and a stable sort finds each pair's first;
    a repeated resolve on the same part pair is skipped, as it decides
    nothing.

    Raises SequenceError on an op over a part that is not alive, a merge
    of a part with itself, or an unknown op kind.
    """
    _cseq_complete(seq)  # checks every op; the replay runs seq's own ops
    n = seq.n
    parts = {v: np.array([v]) for v in range(1, n + 1)}
    decided = [np.zeros((0, 3), np.int64)]  # rows (u, v, positive), in op order
    for kind, i, j, made in _steps(n, _first_resolves(seq.ops)):
        if kind == MERGE:
            parts[made] = np.concatenate((parts.pop(i), parts.pop(j)))
        else:
            u, v = (a.ravel() for a in np.meshgrid(parts[i], parts[j], indexing="ij"))
            decided.append(np.column_stack((np.minimum(u, v), np.maximum(u, v),
                                            np.full(len(u), kind == RESOLVE_POS))))
    u, v, positive = np.concatenate(decided).T
    key = u * (n + 1) + v
    order = np.argsort(key, kind="stable")
    first = order[np.diff(key[order], prepend=-1) != 0]  # each pair's first resolve
    first = first[(u[first] < v[first]) & (positive[first] == 1)]
    return Graph(n, np.column_stack((u[first], v[first])))


def cseq_to_stm(seq: ConstructionSequence) -> SignedTreeModel:
    """Merges become parents, resolves become transversal pairs of matching
    sign (self-resolves become loops, removed afterwards); later resolves on
    an already-paired node pair are no-ops.  At most n + p pairs.

    Raises SequenceError on an invalid sequence, as ``cseq_replay`` does.
    """
    seq = _cseq_complete(seq)
    children = {made: (i, j) for kind, i, j, made in _steps(seq.n, seq.ops) if kind == MERGE}
    ops = list(_first_resolves(seq.ops))
    return remove_loops(SignedTreeModel(
        seq.n, children, [(i, j) for kind, i, j in ops if kind == RESOLVE_NEG],
        [(i, j) for kind, i, j in ops if kind == RESOLVE_POS]))


def cseq_shorten(seq: ConstructionSequence) -> ConstructionSequence:
    """Postpone each resolve to just before the merge destroying one of its
    parts and drop duplicate resolves on identical part pairs; the output
    constructs the same graph with length at most (2d+1)n for radius-r
    width d, without increasing the width.

    Raises SequenceError on an invalid sequence, as ``cseq_replay`` does.
    """
    seq = _cseq_complete(seq)
    merges = [(made, i, j) for kind, i, j, made in _steps(seq.n, seq.ops) if kind == MERGE]
    destroyed = {part: made for made, i, j in merges for part in (i, j)}
    buckets: dict[float, list[tuple[str, int, int]]] = {}
    for kind, i, j in _first_resolves(seq.ops):
        if kind == MERGE:
            continue
        slot = min(destroyed.get(i, INF_STEP), destroyed.get(j, INF_STEP))
        buckets.setdefault(slot, []).append((kind, i, j))
    ops = [op for made, i, j in merges for op in buckets.get(made, []) + [(MERGE, i, j)]]
    return ConstructionSequence(seq.n, tuple(ops + buckets.get(INF_STEP, [])))


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
    for kind, i, j, made in _steps(n, seq.ops):
        if kind == MERGE:
            members = alive.pop(i) + alive.pop(j)
            alive[made] = members
            for u in members:
                part_of[u] = made
        else:
            for u in alive[i]:
                for v in alive[j]:
                    if u != v:
                        resolved_adj[u].add(v)
                        resolved_adj[v].add(u)
        width = max(width, measure())
    return width
