"""Representation conversions.

Pipeline: signed tree model -> laminar rectangles -> interval biclique
partition -> DAG compression / positive tree model; plus the constructions
from sd-degeneracy sequences and merge/resolve construction sequences, and
construction-sequence shortening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph, InputError, LinearOrder
from .rect import Rect, complement_partition
from .stm import (SignedTreeModel, _checked_forest, clean_same_sign, pair_rects,
                  remove_loops)

INF_STEP = float("inf")


class PartitionViolation(ValueError):
    """Two bicliques of a supposed partition emit the same edge."""


class SequenceError(ValueError):
    """A sequence (sd-degeneracy or construction) is structurally invalid."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class IntervalBicliquePartition:
    """A vertex order plus edge-disjoint bicliques with interval sides.

    Bicliques are position-space quadruples (a,b,c,d), a<=b<c<=d, denoting
    the biclique between the vertices at positions [a,b] and [c,d].
    """

    __slots__ = ("order", "bicliques")

    def __init__(self, order: LinearOrder, bicliques: Iterable[tuple[int, int, int, int]]):
        self.order = order
        n = order.n
        bl = []
        for a, b, c, d in bicliques:
            if not (1 <= a <= b < c <= d <= n):
                raise InputError(f"biclique ({a},{b},{c},{d}) violates a<=b<c<=d in [1,{n}]")
            bl.append((a, b, c, d))
        self.bicliques: tuple[tuple[int, int, int, int], ...] = tuple(bl)

    @property
    def n(self) -> int:
        return self.order.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalBicliquePartition)
                and self.order == other.order and self.bicliques == other.bicliques)

    def __repr__(self) -> str:
        return f"IntervalBicliquePartition(n={self.n}, k={len(self.bicliques)})"


class DagCompression:
    """A DAG whose sinks are the graph vertices, plus compressed edges.

    uv is a graph edge iff some compressed edge {x,y} has directed paths
    x -> u and y -> v.  Edges are stored parent -> child (toward sinks).
    """

    __slots__ = ("n", "num_nodes", "edges", "compressed", "_succ")

    def __init__(self, n: int, num_nodes: int,
                 edges: Iterable[tuple[int, int]],
                 compressed: Iterable[tuple[int, int]]):
        self.n = n
        self.num_nodes = num_nodes
        self.edges = tuple(edges)
        self.compressed = tuple(compressed)
        succ: list[list[int]] = [[] for _ in range(num_nodes + 1)]
        for x, y in self.edges:
            if not (1 <= x <= num_nodes and 1 <= y <= num_nodes):
                raise InputError(f"DAG edge ({x},{y}) out of range")
            succ[x].append(y)
        self._succ = succ
        for v in range(1, n + 1):
            if succ[v]:
                raise InputError(f"graph vertex {v} must be a sink")
        self._check_acyclic()

    def successors(self, x: int) -> list[int]:
        return self._succ[x]

    @property
    def size(self) -> int:
        return self.num_nodes + len(self.edges) + len(self.compressed)

    def _check_acyclic(self) -> None:
        state = [0] * (self.num_nodes + 1)  # 0 new, 1 active, 2 done
        for start in range(1, self.num_nodes + 1):
            if state[start]:
                continue
            stack = [(start, iter(self._succ[start]))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                nxt = next(it, None)
                if nxt is None:
                    state[node] = 2
                    stack.pop()
                elif state[nxt] == 1:
                    raise InputError(f"cycle through node {nxt}")
                elif state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(self._succ[nxt])))

    def __repr__(self) -> str:
        return (f"DagCompression(n={self.n}, nodes={self.num_nodes}, "
                f"edges={len(self.edges)}, compressed={len(self.compressed)})")


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

def stm_to_rects(stm: SignedTreeModel) -> tuple[list[Rect], LinearOrder]:
    """Map each pair {u,v} to the rectangle of its leaf intervals, the
    earlier-starting interval on the x side; the order is the model's
    left-to-right leaf order.  Output is laminar."""
    for x, y, _ in stm.pairs_signed():
        if x == y:
            raise InputError("model has loops; run remove_loops first")
    order = LinearOrder.from_vertex_sequence(stm.leaf_order)
    return pair_rects(stm), order


def stm_to_ibp(stm: SignedTreeModel) -> IntervalBicliquePartition:
    """Convert a signed tree model into an interval biclique partition.

    Clean to alternating signs on the model's rectangle inclusion forest,
    and for each positive rectangle of the cleaned forest emit the
    complement partition of its negative children.  Negative roots emit
    nothing; positive rectangles without children emit themselves.  At most
    3|A| + |B| bicliques (post-cleaning).  The forest is built once:
    ``clean_same_sign`` hands the cleaned model its spliced forest.

    Raises InvalidModelError with the messages of ``validate(stm)`` on an
    invalid model; loops are violations there, so run remove_loops first.
    """
    rects, forest, _ = _checked_forest(clean_same_sign(stm))
    bicliques: list[tuple[int, int, int, int]] = []
    for i, r in enumerate(rects):
        if r.payload[1] > 0:
            holes = [rects[c] for c in forest.children[i]]
            for piece in complement_partition(r, holes):
                bicliques.append((piece.x1, piece.x2, piece.y1, piece.y2))
    return IntervalBicliquePartition(LinearOrder.from_vertex_sequence(stm.leaf_order),
                                     bicliques)


def ibp_to_graph(ibp: IntervalBicliquePartition) -> Graph:
    """Materialize the edge set; raises PartitionViolation on a duplicate edge."""
    at = ibp.order.at
    seen: set[tuple[int, int]] = set()
    for a, b, c, d in ibp.bicliques:
        for i in range(a, b + 1):
            u = at(i)
            for j in range(c, d + 1):
                v = at(j)
                e = (u, v) if u < v else (v, u)
                if e in seen:
                    raise PartitionViolation(f"edge {e} emitted by two bicliques")
                seen.add(e)
    return Graph(ibp.n, seen)


# ---------------------------------------------------------------------------
# Balanced tree, cover sets, IBP -> DAG / positive model
# ---------------------------------------------------------------------------

class BalancedTree:
    """Canonical balanced binary tree over positions 1..n (left half rounded
    up), internal nodes numbered post-order n+1..2n-1 so the root is 2n-1.

    ``leaf_id(p)`` names the leaf node for position p (default: p itself).
    """

    __slots__ = ("n", "root", "children", "interval", "height")

    def __init__(self, n: int, leaf_id=None):
        if n < 1:
            raise InputError("balanced tree needs at least one leaf")
        self.n = n
        leaf_id = leaf_id or (lambda p: p)
        self.children: dict[int, tuple[int, int]] = {}
        self.interval: dict[int, tuple[int, int]] = {}
        counter = n  # next internal id - 1

        def build(a: int, b: int) -> int:
            nonlocal counter
            if a == b:
                t = leaf_id(a)
                self.interval[t] = (a, a)
                return t
            mid = a + (b - a + 2) // 2 - 1
            left = build(a, mid)
            right = build(mid + 1, b)
            counter += 1
            self.children[counter] = (left, right)
            self.interval[counter] = (a, b)
            return counter

        self.root = build(1, n)
        self.height = (n - 1).bit_length()  # ceil(log2 n)

    def cover_set(self, a: int, b: int) -> list[int]:
        """Disjoint canonical nodes whose leaf intervals partition [a,b];
        at most 2*ceil(log2 n) of them, found along the two root paths."""
        if not 1 <= a <= b <= self.n:
            raise InputError(f"interval [{a},{b}] out of [1,{self.n}]")
        out: list[int] = []

        def rec(t: int) -> None:
            lo, hi = self.interval[t]
            if a <= lo and hi <= b:
                out.append(t)
                return
            if hi < a or b < lo:
                return
            l, r = self.children[t]
            rec(l)
            rec(r)

        rec(self.root)
        return out


def cover_set(n: int, a: int, b: int) -> list[int]:
    """Cover set of [a,b] in the canonical balanced tree over 1..n."""
    return BalancedTree(n).cover_set(a, b)


def ibp_to_dag(ibp: IntervalBicliquePartition) -> DagCompression:
    """DAG compression: balanced-tree skeleton plus, per biclique I x J, two
    new nodes over cover_set(I) and cover_set(J) joined by a compressed edge.
    """
    n = ibp.n
    tree = BalancedTree(n, leaf_id=ibp.order.at)
    edges = [(t, c) for t, (l, r) in tree.children.items() for c in (l, r)]
    compressed = []
    next_id = 2 * n - 1 if n > 1 else 1
    for a, b, c, d in ibp.bicliques:
        si = tree.cover_set(a, b)
        sj = tree.cover_set(c, d)
        next_id += 1
        vi = next_id
        next_id += 1
        vj = next_id
        edges.extend((vi, t) for t in si)
        edges.extend((vj, t) for t in sj)
        compressed.append((vi, vj))
    return DagCompression(n, next_id, edges, compressed)


def dag_to_graph(dc: DagCompression) -> Graph:
    """Reachability brute force: decode adjacency from compressed edges."""
    reach: list[Optional[int]] = [None] * (dc.num_nodes + 1)  # bitsets over sinks

    def sinks(x: int) -> int:
        if reach[x] is not None:
            return reach[x]
        stack = [x]
        post: list[int] = []
        seen = {x}
        while stack:
            t = stack.pop()
            post.append(t)
            for s in dc.successors(t):
                if s not in seen and reach[s] is None:
                    seen.add(s)
                    stack.append(s)
        for t in reversed(post):
            if reach[t] is None:
                bits = 1 << t if t <= dc.n else 0
                for s in dc.successors(t):
                    bits |= sinks(s)
                reach[t] = bits
        return reach[x]

    edges = set()
    for x, y in dc.compressed:
        bx, by = sinks(x), sinks(y)
        u = bx
        while u:
            ub = u & -u
            ui = ub.bit_length() - 1
            v = by
            while v:
                vb = v & -v
                vi = vb.bit_length() - 1
                if ui != vi:
                    edges.add((min(ui, vi), max(ui, vi)))
                v ^= vb
            u ^= ub
    return Graph(dc.n, edges)


def ibp_to_positive_model(ibp: IntervalBicliquePartition) -> SignedTreeModel:
    """Positive tree model on the balanced tree: per biclique, all pairs of
    cover-set nodes become positive transversal pairs (at most
    4*ceil(log n)^2 per biclique; never crossing, by edge-disjointness)."""
    n = ibp.n
    tree = BalancedTree(n, leaf_id=ibp.order.at)
    pairs_b: set[tuple[int, int]] = set()
    for a, b, c, d in ibp.bicliques:
        si = tree.cover_set(a, b)
        sj = tree.cover_set(c, d)
        for s in si:
            for t in sj:
                pairs_b.add((s, t))
    return SignedTreeModel(n, tree.children, (), pairs_b)


# ---------------------------------------------------------------------------
# Sequences -> STM
# ---------------------------------------------------------------------------

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
    adj: list[set[int]] = [set(g.neighbors(v)) if v else set() for v in range(n + 1)]
    node_of = list(range(n + 1))
    children: dict[int, tuple[int, int]] = {}
    pairs_a: list[tuple[int, int]] = []
    pairs_b: list[tuple[int, int]] = []
    next_id = n
    for u, v in seq.pairs:
        nu, nv = adj[u], adj[v]
        for a in nv - nu - {u}:
            pairs_a.append((node_of[u], node_of[a]))
        for b in nu - nv - {v}:
            pairs_b.append((node_of[u], node_of[b]))
        (pairs_b if v in nu else pairs_a).append((node_of[u], node_of[v]))
        next_id += 1
        children[next_id] = (node_of[u], node_of[v])
        node_of[v] = next_id
        for w in nu:
            adj[w].discard(u)
        adj[u] = set()
    return SignedTreeModel(n, children, pairs_a, pairs_b)


def _cseq_complete(seq: ConstructionSequence) -> ConstructionSequence:
    """Append merges (smallest live part ids first) until one part remains."""
    alive = set(range(1, seq.n + 1))
    next_id = seq.n
    for kind, i, j in seq.ops:
        if kind == MERGE:
            next_id += 1
            alive.discard(i)
            alive.discard(j)
            alive.add(next_id)
    extra = []
    live = sorted(alive)
    while len(live) > 1:
        i, j = live[0], live[1]
        next_id += 1
        extra.append((MERGE, i, j))
        live = sorted(set(live[2:]) | {next_id})
    return ConstructionSequence(seq.n, seq.ops + tuple(extra))


def cseq_replay(seq: ConstructionSequence) -> Graph:
    """Direct replay of the construction semantics (oracle): resolves turn
    unresolved part-pairs into edges/non-edges; output is (V, E_final)."""
    n = seq.n
    parts: dict[int, list[int]] = {v: [v] for v in range(1, n + 1)}
    resolved: set[tuple[int, int]] = set()
    edges: set[tuple[int, int]] = set()
    next_id = n
    for step, (kind, i, j) in enumerate(seq.ops, start=1):
        if i not in parts or j not in parts:
            raise SequenceError(f"step {step}: part {i if i not in parts else j} is not alive")
        if kind == MERGE:
            if i == j:
                raise SequenceError(f"step {step}: cannot merge a part with itself")
            next_id += 1
            parts[next_id] = parts.pop(i) + parts.pop(j)
        elif kind in (RESOLVE_POS, RESOLVE_NEG):
            a, b = parts[i], parts[j]
            for u in a:
                for v in b:
                    if u == v:
                        continue
                    e = (u, v) if u < v else (v, u)
                    if e in resolved:
                        continue
                    resolved.add(e)
                    if kind == RESOLVE_POS:
                        edges.add(e)
        else:
            raise SequenceError(f"step {step}: unknown op kind {kind!r}")
    return Graph(n, edges)


def cseq_to_stm(seq: ConstructionSequence) -> SignedTreeModel:
    """Merges become parents, resolves become transversal pairs of matching
    sign (self-resolves become loops, removed afterwards); later resolves on
    an already-paired node pair are no-ops.  At most n + p pairs."""
    seq = _cseq_complete(seq)
    n = seq.n
    alive = set(range(1, n + 1))
    children: dict[int, tuple[int, int]] = {}
    paired: set[tuple[int, int]] = set()
    pairs_a: list[tuple[int, int]] = []
    pairs_b: list[tuple[int, int]] = []
    next_id = n
    for step, (kind, i, j) in enumerate(seq.ops, start=1):
        if i not in alive or j not in alive:
            raise SequenceError(f"step {step}: part {i if i not in alive else j} is not alive")
        if kind == MERGE:
            if i == j:
                raise SequenceError(f"step {step}: cannot merge a part with itself")
            next_id += 1
            alive -= {i, j}
            alive.add(next_id)
            children[next_id] = (i, j)
        else:
            key = (min(i, j), max(i, j))
            if key in paired:
                continue
            paired.add(key)
            (pairs_b if kind == RESOLVE_POS else pairs_a).append((i, j))
    model = SignedTreeModel(n, children, pairs_a, pairs_b)
    return remove_loops(model)


def cseq_shorten(seq: ConstructionSequence, r: int = 1) -> ConstructionSequence:
    """Postpone each resolve to just before the merge destroying one of its
    parts and drop duplicate resolves on identical part pairs; the output
    constructs the same graph with length at most (2d+1)n for radius-r
    width d, without increasing the width."""
    seq = _cseq_complete(seq)
    n = seq.n
    merges = [(i, j) for kind, i, j in seq.ops if kind == MERGE]
    destroyed: dict[int, int] = {}
    for k, (i, j) in enumerate(merges, start=1):
        destroyed[i] = k
        destroyed[j] = k
    buckets: dict[float, list[tuple[str, int, int]]] = {}
    seen_pairs: set[tuple[int, int]] = set()
    for kind, i, j in seq.ops:
        if kind == MERGE:
            continue
        key = (min(i, j), max(i, j))
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        slot = min(destroyed.get(i, INF_STEP), destroyed.get(j, INF_STEP))
        buckets.setdefault(slot, []).append((kind, i, j))
    ops: list[tuple[str, int, int]] = []
    for k, (i, j) in enumerate(merges, start=1):
        ops.extend(buckets.get(k, ()))
        ops.append((MERGE, i, j))
    ops.extend(buckets.get(INF_STEP, ()))
    return ConstructionSequence(n, tuple(ops))
