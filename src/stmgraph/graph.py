"""Plain undirected graphs, linear orders, and the brute-force oracles.

Vertices are dense 1-based ids.  Unreachable distances are reported as the
sentinel value ``n`` (the vertex count), which is strictly greater than any
achievable distance in an n-vertex graph.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import index
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


class InputError(ValueError):
    """Raised when an operation is called with arguments violating its precondition."""


Rows = Union[Sequence[tuple[int, ...]], np.ndarray]

# Vertex counts and DAG node counts stay below this, since they size arrays.
ID_LIMIT = 2 ** 31


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _int_rows(rows: Rows | Iterable[Sequence[int]], width: int) -> np.ndarray:
    """Integer rows as an (m, width) int64 array, from an (m, width) array
    of bool, int or uint dtype or from an iterable of ``width``-sequences
    of integers, an object array of Python ints included; an int64 array
    comes back as it is, not copied, and input of size 0 reads as no rows.
    An integer is what ``operator.index`` takes, so the first row of
    another width, or holding a non-integer (a float, even 1.0, a str,
    None) or an integer beyond int64, raises InputError naming the row as
    given."""
    given = rows if isinstance(rows, np.ndarray) else list(rows)
    if len(given) == 0:
        return np.zeros((0, width), np.int64)
    try:
        out = np.asarray(given)
    except ValueError:  # ragged rows
        out = np.zeros(0)
    if (out.shape[1:] == (width,) and out.dtype.kind in "biu"
            and (out.dtype.kind != "u" or out.max() < 2 ** 63)):
        return out.astype(np.int64, copy=False)
    flat = []  # otherwise each value goes through operator.index, row by row
    for row in given:
        try:
            values = list(map(index, row))
        except TypeError:  # a non-integer, or a row that is no sequence
            values = []
        if len(values) != width or not all(-2 ** 63 <= v < 2 ** 63 for v in values):
            shown = tuple(row.tolist()) if isinstance(row, np.ndarray) else row
            raise InputError(f"expected rows of {width} integers, got {shown}")
        flat += values
    return np.array(flat, np.int64).reshape(-1, width)


def _csr(num_nodes: int, src: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, targets) for edges src -> tgt between nodes 0..num_nodes:
    the edges out of node u are targets[offsets[u]:offsets[u + 1]], in
    their order in ``src``.  When ``src`` is already non-decreasing,
    ``targets`` is ``tgt`` itself, neither sorted nor copied."""
    offsets = np.zeros(num_nodes + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes + 1), out=offsets[1:])
    if (src[1:] < src[:-1]).any():
        tgt = tgt[np.argsort(src, kind="stable")]
    return offsets, tgt


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[q], starts[q] + 1, ..., starts[q] + counts[q] - 1,
    one q after another, as one array."""
    first = np.cumsum(counts) - counts  # where run q begins in the output
    return np.arange(int(counts.sum())) + np.repeat(starts - first, counts)


def _check_vertices(n: int) -> None:
    """Raise InputError unless 0 <= n < 2^31, the vertex counts ``Graph``
    takes."""
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n >= ID_LIMIT:
        raise InputError(f"vertex count {n} is not below 2^31")


def _first_repeat(key: np.ndarray) -> int:
    """The least i with key[i] == key[j] for some j < i, or -1 if the keys
    are distinct."""
    s = np.argsort(key, kind="stable")  # equal keys stay in index order
    again = s[1:][key[s[1:]] == key[s[:-1]]]
    return int(again.min()) if again.size else -1


class Graph:
    """Undirected simple graph on vertices 1..n, n < 2^31, stored only as
    read-only int64 arrays in CSR form: the neighbors of v, ascending, are
    ``targets[offsets[v]:offsets[v + 1]]`` for 0 <= v <= n (vertex 0 has
    none), so ``offsets`` has n + 2 entries and ``targets`` holds every
    edge once per direction.

    Edges are given as an iterable of pairs or an (m, 2) integer array,
    read by ``_int_rows``; repeated and reversed edges are merged.  The
    first edge in input order with an end outside [1, n], or else a
    self-loop, raises InputError.  ``neighbors`` slices the arrays on each
    call and ``adjacency`` builds every vertex's tuple on each read, so a
    loop over many vertices reads ``adjacency`` once.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("n", "offsets", "targets")

    def __init__(self, n: int, edges: Rows | Iterable[tuple[int, int]] = ()):
        _check_vertices(n)
        self.n = n
        rows = _int_rows(edges, 2)
        out = ((rows < 1) | (rows > n)).any(axis=1)
        bad = np.flatnonzero(out | (rows[:, 0] == rows[:, 1]))
        if bad.size:
            u, v = rows[bad[0]].tolist()
            raise InputError(f"edge ({u},{v}) out of range [1,{n}]" if out[bad[0]]
                             else f"self-loop at vertex {u}")
        # one key u(n + 1) + v per edge and direction, sorted, each key once
        keys = np.sort((rows @ [[n + 1, 1], [1, n + 1]]).ravel())
        fresh = np.ones(len(keys), bool)
        fresh[1:] = keys[1:] != keys[:-1]
        keys = keys[fresh]
        # the targets overwrite the keys, which the sources were taken from
        self.offsets, self.targets = _frozen(*_csr(n, keys // (n + 1),
                                                   np.remainder(keys, n + 1, out=keys)))

    @classmethod
    def _of_csr(cls, n: int, offsets: np.ndarray, targets: np.ndarray) -> "Graph":
        """The graph whose int64 CSR arrays, in ``Graph``'s form (both
        directions, each row ascending, no loop), are ``offsets`` and
        ``targets``; unchecked, and the arrays are frozen, not copied."""
        g = cls.__new__(cls)
        g.n, (g.offsets, g.targets) = n, _frozen(offsets, targets)
        return g

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples, indexed 1..n (index 0 empty),
        built on each read."""
        at, targets = self.offsets.tolist(), self.targets.tolist()
        return tuple(tuple(targets[i:j]) for i, j in zip(at, at[1:]))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.targets[self.offsets[v]:self.offsets[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.offsets[u], self.offsets[u + 1]
        i = bisect_left(self.targets, v, lo, hi)
        return bool(i < hi and self.targets[i] == v)

    @property
    def edge_rows(self) -> np.ndarray:
        """The edges (u, v), u < v, lexicographically, as an (m, 2) int64
        array built on each read."""
        ends = np.repeat(np.arange(self.n + 1), np.diff(self.offsets))
        up = ends < self.targets
        return np.column_stack((ends[up], self.targets[up]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, lexicographically."""
        return zip(*self.edge_rows.T.tolist())

    @property
    def m(self) -> int:
        return len(self.targets) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _permutation(seq: Sequence[int] | np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``seq``, a permutation of 1..n, and its inverse, as read-only int64
    arrays of their own.  ``_int_rows`` reads a 1-D ndarray as one row of
    width 1 per element, with no Python step per element, and any other
    input as 1-tuples through ``zip`` (an ndarray of another shape as its
    nested lists), so the first element that is no integer in int64 raises
    its InputError, naming the element as given.  Anything else that is not
    a permutation raises InputError("<what> sequence is not a permutation")."""
    if isinstance(seq, np.ndarray) and seq.ndim == 1:
        values = np.array(_int_rows(seq[:, None], 1)[:, 0])  # never the caller's
    else:
        values = _int_rows(zip(seq.tolist() if isinstance(seq, np.ndarray) else seq), 1)[:, 0]
    n = len(values)
    inverse = np.zeros(n, np.int64)
    if ((values < 1) | (values > n)).any():
        raise InputError(f"{what} sequence is not a permutation")
    inverse[values - 1] = np.arange(1, n + 1)
    if not inverse.all():  # a repeated value left some slot unfilled
        raise InputError(f"{what} sequence is not a permutation")
    return _frozen(values, inverse)


class LinearOrder:
    """A bijection between vertices 1..n and positions 1..n, stored only as
    two read-only int64 arrays of its own: ``position[v - 1]`` is the
    position of vertex v and ``vertex_at[p - 1]`` the vertex at position p.
    Each constructor takes an integer ndarray or an iterable of integers,
    read once by ``_permutation``."""

    __slots__ = ("position", "vertex_at")

    def __init__(self, position: Sequence[int] | np.ndarray):
        self.position, self.vertex_at = _permutation(position, "position")

    @property
    def n(self) -> int:
        return len(self.position)

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        return cls(np.arange(1, n + 1))

    @classmethod
    def from_vertex_sequence(cls, seq: Sequence[int] | np.ndarray) -> "LinearOrder":
        """Build from the vertices listed left to right."""
        order = cls.__new__(cls)
        order.vertex_at, order.position = _permutation(seq, "vertex")
        return order

    def pos(self, v: int) -> int:
        """The position of vertex v; InputError unless 1 <= v <= n."""
        if not 1 <= v <= self.n:
            raise InputError(f"vertex {v} is not in [1,{self.n}]")
        return int(self.position[v - 1])

    def at(self, p: int) -> int:
        """The vertex at position p; InputError unless 1 <= p <= n."""
        if not 1 <= p <= self.n:
            raise InputError(f"position {p} is not in [1,{self.n}]")
        return int(self.vertex_at[p - 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearOrder) and np.array_equal(self.position, other.position)

    def __hash__(self) -> int:
        return hash(self.position.tobytes())

    def __repr__(self) -> str:
        return f"LinearOrder({self.position.tolist()})"


def bfs_sssp_oracle(g: Graph, source: int) -> list[int]:
    """Textbook BFS distances from ``source``; unreachable vertices get ``g.n``.

    Reference oracle for every model-based shortest-path route.
    """
    if not 1 <= source <= g.n:
        raise InputError(f"source {source} out of range [1,{g.n}]")
    unreach = g.n
    dist = [unreach] * (g.n + 1)  # by vertex, entry 0 unused
    dist[source] = 0
    # the CSR arrays read in place: a memoryview slice copies nothing
    at, targets = g.offsets.tolist(), memoryview(g.targets)
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in targets[at[u]:at[u + 1]]:
            if dist[v] == unreach:
                dist[v] = du
                queue.append(v)
    return dist[1:]


def symmetric_difference(g: Graph, u: int, v: int) -> int:
    """|(N(u) \\ {v}) symmetric-difference (N(v) \\ {u})|."""
    if u == v:
        raise InputError("symmetric difference of a vertex with itself is undefined")
    if not (1 <= u <= g.n and 1 <= v <= g.n):
        raise InputError(f"vertex pair ({u},{v}) out of range [1,{g.n}]")
    nu = set(g.neighbors(u))
    nu.discard(v)
    nv = set(g.neighbors(v))
    nv.discard(u)
    return len(nu ^ nv)


def graphs_equal(g1: Graph, g2: Graph) -> bool:
    """True iff same vertex count and same edge sets: equal ``offsets``
    (n + 2 entries each) and ``targets``."""
    return np.array_equal(g1.offsets, g2.offsets) and np.array_equal(g1.targets, g2.targets)
