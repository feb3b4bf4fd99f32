"""Plain undirected graphs, linear orders, and the brute-force oracles.

Vertices are dense 1-based ids.  Unreachable distances are reported as the
sentinel value ``n`` (the vertex count), which is strictly greater than any
achievable distance in an n-vertex graph.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


class InputError(ValueError):
    """Raised when an operation is called with arguments violating its precondition."""


Rows = Union[Sequence[tuple[int, ...]], np.ndarray]


def _int_rows(rows: Rows, width: int) -> np.ndarray:
    """Integer rows, a sequence of equal-length tuples or an (m, width)
    integer array, as a read-only (m, width) int64 array of its own.  Rows
    of any other shape, of non-integer values (floats, strings) or of
    values beyond int64 raise ValueError; no rows at all are accepted."""
    out = np.array(rows)
    if out.shape == (0,):  # no rows at all
        out = out.reshape(0, width)
    kind = out.dtype.kind if out.size else "i"
    if (out.ndim != 2 or out.shape[1] != width or kind not in "biu"
            or (kind == "u" and out.max() > np.iinfo(np.int64).max)):
        raise ValueError(f"expected rows of {width} integers")
    out = out.astype(np.int64, copy=False)
    out.flags.writeable = False
    return out


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[q], starts[q] + 1, ..., starts[q] + counts[q] - 1,
    one q after another, as one array."""
    first = np.cumsum(counts) - counts  # where run q begins in the output
    return np.arange(int(counts.sum())) + np.repeat(starts - first, counts)


def _first_repeat(key: np.ndarray) -> int:
    """The least i with key[i] == key[j] for some j < i, or -1 if the keys
    are distinct."""
    s = np.argsort(key, kind="stable")  # equal keys stay in index order
    again = s[1:][key[s[1:]] == key[s[:-1]]]
    return int(again.min()) if again.size else -1


class Graph:
    """Undirected simple graph on vertices 1..n with sorted adjacency arrays.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"edge ({u},{v}) out of range [1,{n}]")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(adj[v])) for v in range(n + 1)
        )

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples, indexed 1..n (index 0 unused)."""
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        nb = self._adj[u]
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, lexicographically."""
        for u in range(1, self.n + 1):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def m(self) -> int:
        return sum(len(self._adj[v]) for v in range(1, self.n + 1)) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class LinearOrder:
    """A bijection between vertices 1..n and positions 1..n."""

    __slots__ = ("n", "position", "vertex_at")

    def __init__(self, position: Sequence[int]):
        self.n = len(position)
        self.position = tuple(position)  # position[v-1] = position of vertex v
        inv = [0] * self.n
        for v, p in enumerate(self.position, start=1):
            if not 1 <= p <= self.n or inv[p - 1]:
                raise InputError("position sequence is not a permutation")
            inv[p - 1] = v
        self.vertex_at = tuple(inv)  # vertex_at[p-1] = vertex at position p

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        return cls(range(1, n + 1))

    @classmethod
    def from_vertex_sequence(cls, seq: Sequence[int]) -> "LinearOrder":
        """Build from the vertices listed left to right."""
        pos = [0] * len(seq)
        for p, v in enumerate(seq, start=1):
            pos[v - 1] = p
        return cls(pos)

    def pos(self, v: int) -> int:
        return self.position[v - 1]

    def at(self, p: int) -> int:
        return self.vertex_at[p - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearOrder) and self.position == other.position

    def __hash__(self) -> int:
        return hash(self.position)

    def __repr__(self) -> str:
        return f"LinearOrder({list(self.position)})"


def bfs_sssp_oracle(g: Graph, source: int) -> list[int]:
    """Textbook BFS distances from ``source``; unreachable vertices get ``g.n``.

    Reference oracle for every model-based shortest-path route.
    """
    if not 1 <= source <= g.n:
        raise InputError(f"source {source} out of range [1,{g.n}]")
    unreach = g.n
    dist = [unreach] * g.n
    dist[source - 1] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u - 1]
        for v in g.neighbors(u):
            if dist[v - 1] == unreach and v != source:
                dist[v - 1] = du + 1
                queue.append(v)
    return dist


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
    """True iff same vertex count and same edge sets."""
    return g1.n == g2.n and g1.adjacency == g2.adjacency
